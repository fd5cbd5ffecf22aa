"""The integer half of the assembly engine: plans of index arrays.

mechanism._evaluate evaluates copies of compiled mechanisms, each a limb
row placed by a placement row of sweep edits.  Which member transports and
J C J^T terms the limb rows share, the runs of members, limb slots and
mechanisms, and every gather of the check tables and the four-bar legs
depend only on integers: the geometry kinds, the compiled topology, what
each edit changes, and the copies' rows.  build_plan makes them as one
read-only Plan; build_grid_plan makes a sweep grid's level keys as one
GridPlan.  mechanism keys both and keeps them here (cached), so a repeated
layout builds nothing: design iteration changes numbers, not topology, and
every batch of a sweep of one grid shape has one layout.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from .elements import HINGE

# the plans kept (cached): past this many bytes, the oldest go first, as
# the kernels do past elements.KERNEL_CACHE_SIZE keys, and a plan larger
# than this alone is used but not kept.  An entry counts what its key and
# its plan hold as sys.getsizeof reads it (_footprint): every array's
# header and buffer, the tuples, and the key's bytes copies of the
# topology and rows.  Only the dict's own slots are not counted, well
# under 0.1 kB an entry against 2.3 kB for the smallest entry (one
# analyze call of two one-hinge limbs), so the cache holds at most 4 MiB
# and a few percent more.  A 1024-point sweep batch (mechanism.SWEEP_BATCH)
# of the bundled design takes 120-415 kB for its plan and 35-51 kB for
# its grid plan, one bundled analyze call 2.7 kB.
PLAN_CACHE_BYTES = 4 * 2**20
_plans = {}             # key -> (plan, its entry's bytes), oldest first
_kept = 0               # the bytes of every entry of _plans


def _footprint(value):
    """The bytes of `value` as sys.getsizeof reads them, with the items of a
    tuple and the buffer of an array view."""
    size = sys.getsizeof(value)
    if isinstance(value, tuple):
        return size + sum(map(_footprint, value))
    if isinstance(value, np.ndarray) and value.base is not None:
        return size + value.nbytes
    return size


def cached(key, build):
    """The plan of `key`, built by build() if it is not kept."""
    global _kept
    entry = _plans.get(key)
    if entry is not None:
        return entry[0]
    plan = build()
    size = _footprint((key, plan))
    if size <= PLAN_CACHE_BYTES:
        _plans[key] = plan, size
        _kept += size
        while _kept > PLAN_CACHE_BYTES:
            _kept -= _plans.pop(next(iter(_plans)))[1]
    return plan


def _read_only(arrays):
    """Make the given arrays read-only."""
    for a in arrays:
        a.flags.writeable = False


def runs(lengths, size):
    """The (R, P) grid of the term indices of the consecutive runs of the
    given (R,) lengths in `size` terms, P the longest run; shorter runs are
    padded with `size`, the index of a term of zeros, which adds exact zeros."""
    slot = np.arange(lengths.max()) < lengths[:, None]
    grid = np.full(slot.shape, size)
    grid[slot] = np.arange(size)
    return grid


def shared(per_row, rows):
    """The (rows, M) index of the terms of M members under `rows` edit rows
    and the term count: a member in the (M,) mask per_row gets a term per
    row, any other member one term that every row shares (those first)."""
    edited = np.count_nonzero(per_row)
    common = len(per_row) - edited
    index = np.empty((rows, len(per_row)), dtype=np.intp)
    index[:, ~per_row] = np.arange(common)
    index[:, per_row] = common + np.arange(rows * edited).reshape(rows, edited)
    return index, common + rows * edited


class Plan(NamedTuple):
    """Every index array mechanism._evaluate reads for one layout of
    copies, read-only.  A NamedTuple, as its class costs a tenth of a frozen
    dataclass's at import."""

    rows: int                   # limb rows
    places: int                 # placement rows
    beams: int                  # beam rows of the GEOMETRY table, its head
    table_rows: np.ndarray      # compiled table row of each edited table row; None: as compiled
    hinge_row: np.ndarray       # limb row of each edited table row past the beams
    masks: tuple                # what each edit column changes
    member_src: np.ndarray      # flat (limb row, member) of each member transport
    member_of: np.ndarray       # member of each member transport
    force: np.ndarray           # transport kind: member transports, then wrench ones
    term_geom: np.ndarray       # element of each J C J^T term
    term_moved: np.ndarray      # transport of each term
    limb_terms: np.ndarray      # runs grid of each (limb row, limb)'s terms
    member_grid: np.ndarray     # runs grid of each (limb row, limb)'s flat members
    element_of: np.ndarray      # element of each entry of member_grid, padding past the table
    slot_limb: np.ndarray       # (n, L) limb of each slot of each copied mechanism
    slot_j: np.ndarray          # (n, L) wrench transport of each, padding the first
    slot_tip: np.ndarray        # (n, L) flat (placement row, limb slot) of each, padding past it


def build_plan(compiled, targets, masks, row_of, place_of):
    """The Plan of copies row_of/place_of of the compiled mechanisms
    `compiled` (mechanism._compile) under edit columns of the given
    SWEEP_EDITS targets and masks: which terms and transports the rows
    share, the member, limb slot and mechanism runs, and the gathers of the
    check tables and of the four-bar legs."""
    kinds = compiled.table["kind"]
    beams = int(np.count_nonzero(kinds != HINGE))
    hinges = len(kinds) - beams
    rows, places = int(row_of.max()) + 1, int(place_of.max()) + 1
    size, limbs, count = len(compiled.geom_of), len(compiled.lengths), len(compiled.limb_of)
    retuned = leaned = np.zeros(size, dtype=bool)
    table_rows = hinge_row = None
    elements = len(kinds)
    geom_of = compiled.geom_of[None].repeat(rows, axis=0)
    for target, mask in zip(targets, masks):
        if target == "member":
            leaned = mask
        elif target == "hinge" and table_rows is None:
            # every limb row retunes its own copy of the hinge rows, one per
            # compiled hinge; the beams are shared
            retuned = mask
            table_rows = np.concatenate([np.arange(beams), np.tile(np.arange(beams, len(kinds)),
                                                                   rows)])
            hinge_row = np.repeat(np.arange(rows), hinges)
            elements = len(table_rows)
            geom_of[:, retuned] += np.arange(rows)[:, None] * hinges
    # the transport and the J C J^T term of each (row, member), shared by
    # the rows where no edit changes them, and the (row, member) each
    # transport is made from (for a shared one, any row's is the same)
    moved_of, moved = shared(leaned, rows)
    term_of, terms = shared(leaned | retuned, rows)
    member_src = np.empty(moved, dtype=np.intp)
    member_src[moved_of] = np.arange(rows * size).reshape(rows, size)
    term_geom, term_moved = np.empty(terms, dtype=np.intp), np.empty(terms, dtype=np.intp)
    term_geom[term_of] = geom_of
    term_moved[term_of] = moved_of
    # the distinct limb and the limb slot transport of each limb slot of each
    # copy: limbs numbered limb row by limb row, and transports placement
    # row by placement row; the padding of a mechanism's slots gets limb
    # rows x D, whose stiffness is zero, the first transport, and the leg
    # tip past the last, which mechanism._evaluate pads with y = 0
    slots = (row_of[:, None] * limbs + compiled.limb_of).ravel()
    placed = (place_of[:, None] * count + np.arange(count)).ravel()
    member_grid = runs(np.tile(compiled.lengths, rows), rows * size)
    slot_grid = runs(np.tile(compiled.counts, len(row_of)), len(slots))
    plan = Plan(
        rows=rows, places=places, beams=beams, table_rows=table_rows, hinge_row=hinge_row,
        masks=masks, member_src=member_src, member_of=member_src % size,
        force=np.arange(moved + places * count) >= moved, term_geom=term_geom,
        term_moved=term_moved, limb_terms=np.append(term_of.ravel(), terms)[member_grid],
        member_grid=member_grid, element_of=np.append(geom_of.ravel(), elements)[member_grid],
        slot_limb=np.append(slots, limbs * rows)[slot_grid],
        slot_j=np.append(placed, 0)[slot_grid] + moved,
        slot_tip=np.append(placed, places * count)[slot_grid])
    _read_only([a for a in plan if isinstance(a, np.ndarray)] + list(masks))
    return plan


class GridPlan(NamedTuple):
    """The level indices of a sweep grid, read-only (build_grid_plan)."""

    index: np.ndarray           # (N, P) level index of each point along each name
    order: tuple                # the names' positions, limb edits first, then slot edits
    batches: tuple              # per batch: (level indices of its rows per name, row_of, place_of)


def build_grid_plan(sizes, placing, batch_size):
    """The GridPlan of a grid of the given level counts whose names are
    slot edits where `placing` holds, in batches of `batch_size` points:
    each batch's limb rows and placement rows, told by integer keys of the
    level indices, and the level of each row along each name."""
    index = np.indices(sizes).reshape(len(sizes), -1).T
    # the limb rows, then the placement rows
    picks = [[j for j, slot in enumerate(placing) if slot == kind] for kind in (False, True)]
    batches, arrays = [], [index]
    for start in range(0, len(index), batch_size):
        batch = index[start:start + batch_size]
        levels, row_ofs = [None] * len(sizes), []
        for picked in picks:
            key = np.zeros(len(batch), dtype=np.intp)
            for j in picked:
                key = key * sizes[j] + batch[:, j]
            _, first, row_of = np.unique(key, return_index=True, return_inverse=True)
            for j in picked:
                levels[j] = batch[first, j]
            row_ofs.append(row_of)
        arrays += levels + row_ofs
        batches.append((tuple(levels), *row_ofs))
    _read_only(arrays)
    return GridPlan(index, tuple(picks[0] + picks[1]), tuple(batches))
