"""The integer half of the assembly engine: plans of index arrays.

mechanism._evaluate evaluates copies of compiled mechanisms, each a limb
row placed by a placement row of sweep edits.  Which member transports and
J C J^T terms the limb rows share, the runs of members, limb slots and
mechanisms, and every gather of the check tables and the four-bar legs
depend only on integers: the geometry kinds, the compiled topology, what
each edit changes, and the copies' rows.  build_plan makes them as one
read-only Plan and build_grid_plan the level keys of one batch of a sweep
grid as one GridPlan.  Each is a pure function of hashable integers (bytes
copies of integer arrays, tuples, ints), so a plan reads only its key, and
each keeps its last PLAN_CACHE_SIZE results (functools.lru_cache): design
iteration changes numbers, not topology, and every batch of a sweep of one
grid shape has one layout, so a repeated layout builds nothing.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .elements import HINGE

# the results each builder keeps, the least recently used going first.  A
# seeded benchmark corpus of designs has 6 layouts and a sweep 1 plan and 1
# grid plan.  At mechanism.SWEEP_BATCH points a plan of the bundled design
# with its key takes 119-365 kB and a grid plan 34-83 kB, so the two caches
# hold at most about 7.2 MB of such entries; a grid plan covers one batch,
# but an analyze_batch plan grows with its batch and is kept all the same.
PLAN_CACHE_SIZE = 16


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
    slot_limb: np.ndarray       # (n, L) limb of each slot of each copied mechanism
    slot_j: np.ndarray          # (n, L) wrench transport of each, padding the first
    slot_tip: np.ndarray        # (n, L) flat (placement row, limb slot) of each, padding past it


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def build_plan(targets, kinds, geom_of, lengths, limb_of, counts, masks, row_of, place_of):
    """The Plan of copies row_of/place_of of compiled mechanisms
    (mechanism._compile) under edit columns of the given SWEEP_EDITS
    targets and masks: which terms and transports the rows share, the
    member, limb slot and mechanism runs, and the gathers of the check
    tables and of the four-bar legs.  Every argument but the targets (a
    tuple) is the bytes of an integer array: the int8 GEOMETRY kinds, the
    intp topology (geom_of, lengths, limb_of, counts), a tuple of bool edit
    masks, and the intp rows."""
    kinds = np.frombuffer(kinds, dtype=np.int8)
    geom_of, lengths, limb_of, counts, row_of, place_of = (
        np.frombuffer(a, dtype=np.intp) for a in (geom_of, lengths, limb_of, counts, row_of,
                                                  place_of))
    masks = tuple(np.frombuffer(mask, dtype=bool) for mask in masks)
    beams = int(np.count_nonzero(kinds != HINGE))
    hinges = len(kinds) - beams
    rows, places = int(row_of.max()) + 1, int(place_of.max()) + 1
    size, limbs, count = len(geom_of), len(lengths), len(limb_of)
    retuned = leaned = np.zeros(size, dtype=bool)
    table_rows = hinge_row = None
    geom_of = geom_of[None].repeat(rows, axis=0)
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
    slots = (row_of[:, None] * limbs + limb_of).ravel()
    placed = (place_of[:, None] * count + np.arange(count)).ravel()
    member_grid = runs(np.tile(lengths, rows), rows * size)
    slot_grid = runs(np.tile(counts, len(row_of)), len(slots))
    plan = Plan(
        rows=rows, places=places, beams=beams, table_rows=table_rows, hinge_row=hinge_row,
        masks=masks, member_src=member_src, member_of=member_src % size,
        force=np.arange(moved + places * count) >= moved, term_geom=term_geom,
        term_moved=term_moved, limb_terms=np.append(term_of.ravel(), terms)[member_grid],
        member_grid=member_grid, slot_limb=np.append(slots, limbs * rows)[slot_grid],
        slot_j=np.append(placed, 0)[slot_grid] + moved,
        slot_tip=np.append(placed, places * count)[slot_grid])
    _read_only([a for a in plan if isinstance(a, np.ndarray)])
    return plan


class GridPlan(NamedTuple):
    """The level indices of one batch of a sweep grid, read-only
    (build_grid_plan)."""

    index: np.ndarray           # (n, P) level index of each of its points along each name
    order: tuple                # the names' positions, limb edits first, then slot edits
    levels: tuple               # level indices of its rows per name
    row_of: np.ndarray          # limb row of each of its points
    place_of: np.ndarray        # placement row of each of its points


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def build_grid_plan(sizes, placing, start, stop):
    """The GridPlan of points start to stop (in grid order, the last name
    varying fastest) of a grid of the given level counts whose names are
    slot edits where `placing` holds: their limb rows and placement rows,
    told by integer keys of the level indices, and the level of each row
    along each name.  One entry covers one batch, never the whole grid."""
    index = np.stack(np.unravel_index(np.arange(start, stop), sizes), axis=-1)
    # the limb rows, then the placement rows
    picks = [[j for j, slot in enumerate(placing) if slot == kind] for kind in (False, True)]
    levels, row_ofs = [None] * len(sizes), []
    for picked in picks:
        key = np.zeros(len(index), dtype=np.intp)
        for j in picked:
            key = key * sizes[j] + index[:, j]
        _, first, row_of = np.unique(key, return_index=True, return_inverse=True)
        for j in picked:
            levels[j] = index[first, j]
        row_ofs.append(row_of)
    _read_only([index, *levels, *row_ofs])
    return GridPlan(index, tuple(picks[0] + picks[1]), tuple(levels), *row_ofs)
