"""Limb and mechanism assembly: serial compliance chains, parallel stiffness
sums, and the remote-center quantities extracted from the result.

A limb is a serial chain of elements, each with a placement whose r points
from the member frame to the limb tip (in-plane, r_z = 0).  A mechanism is
a parallel set of limbs, each with a placement whose r points from the limb
tip to the common reference point (r_z may be nonzero).

All assembly runs through one batched engine on stacked (..., 6, 6) arrays,
with one object front: _compile reads limb slots into arrays (_Compiled),
telling limbs and geometries apart by identity, so a shared object is
computed once.  _evaluate evaluates copies of the compiled mechanisms, as
compiled or each made of a limb row and a placement row of the sweep edits
(SWEEP_EDITS, applied by _edited): it computes the element compliances
at their element frames (elements.table_compliances), builds the member
and limb slot transports in one pass, sums the member terms J C J^T of
each distinct limb (_limb_stack) and the limb slot terms of each mechanism
in order (_run_sums), inverts, and extracts the remote-center summary.
Each part is computed once for the rows it differs on: a member no edit
touches has one transport and one term that every limb row shares, and a
limb slot one transport per placement row.  analyze_batch, analyze,
mechanism_stiffness and limb_compliance compile their objects and evaluate
them as they are; evaluate_grid, the engine's one sweep entry
(analysis.run_sweep), compiles the template once and evaluates grid points
as edits of its arrays.  Every stage runs for every item: a refused
inversion gives the identity, so a faulty matrix stays with its own item.
The matrices of all stages are checked in one matrix_faults pass at the
end, and _first_faults picks each item's first fault in the order a
one-item run meets the checks, (limb slot, stage) by (limb slot, stage)
and then the mechanism's own, as an integer code of errors.FAULTS, plus
the condition number of a refused inversion; the exception is built from
the code (errors.fault_error) only where the API returns or raises it.  A
failed item leaves the other items untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import HINGE, BeamGeometry, HingeGeometry, geometry_table, table_compliances
from .errors import (CENTERS_NOT_FINITE, NO_CENTER, ONE_SIDED, PARALLEL_LEGS, SINGULAR_COMPLIANCE,
                     SINGULAR_STIFFNESS, fault_error)
from .spatial import (IDENTITY_PLACEMENT, SpatialMatrix6, congruence, invert, invert_stack,
                      matrix_faults, symmetrize, transports)

# stiffness axis name -> diagonal index of the stiffness matrix (0-based)
AXIS_ROW = {"x": 0, "y": 1, "z": 2, "tx": 3, "ty": 4, "tz": 5}


@dataclass(frozen=True)
class Limb:
    """Serial element chain; members are (geometry, placement-to-tip) pairs."""

    name: str
    members: tuple

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("a limb needs at least one member")
        for geom, placement in self.members:
            if not isinstance(geom, (BeamGeometry, HingeGeometry)):
                raise TypeError(f"unsupported member geometry {type(geom).__name__}")
            if abs(placement.r[2]) > 0.0:
                raise ValueError(
                    f"limb {self.name!r}: member placements must have r_z = 0 "
                    "(tip lies in the member x-y plane)")

    def leg_angle(self):
        """Net member rotation (rad); the beam lean of a hinge-beam-hinge leg."""
        return sum(p.theta for _, p in self.members)


@dataclass(frozen=True)
class Mechanism:
    """Parallel limb set; placements carry each limb tip to the reference point."""

    limbs: tuple              # of (Limb, FramePlacement)
    reference: str = "reference point"

    def __post_init__(self):
        if len(self.limbs) < 2:
            raise ValueError("mechanism requires >=2 limbs")


@dataclass(frozen=True)
class RccResult:
    """Assembled stiffness/compliance and the remote-center summary."""

    k: SpatialMatrix6
    c: SpatialMatrix6
    rcc_height: float
    ideal_center: float
    rotational_precision: float


def _by_identity(objects):
    """The distinct objects among `objects`, told apart by identity, in
    first-seen order, and the distinct index of each input object."""
    first = {id(o): o for o in objects}
    index = {key: d for d, key in enumerate(first)}
    return list(first.values()), np.array([index[id(o)] for o in objects], dtype=np.intp)


def _runs(lengths, size):
    """The (R, P) grid of the term indices of the consecutive runs of the
    given (R,) lengths in `size` terms, P the longest run; shorter runs are
    padded with `size`, the index of a term of zeros, which adds exact zeros."""
    slot = np.arange(lengths.max()) < lengths[:, None]
    grid = np.full(slot.shape, size)
    grid[slot] = np.arange(size)
    return grid


def _padded(terms):
    """An (M, ...) stack with a term of zeros appended, at the index _runs
    pads with."""
    return np.concatenate([terms, np.zeros((1,) + terms.shape[1:])])


# the most terms _run_sums makes at once: a fresh stack much larger (1024
# 6x6 terms, 295 kB) is mapped into memory page by page, which on a 2-vCPU
# Xeon host costs more than computing its terms
_SUM_TERMS = 256


def _run_sums(grid, terms_at):
    """In-order sums of the R runs of a (R, P) _runs grid: terms_at(columns)
    gives the (R, k, ...) terms of a slice of k of the grid's columns.  The
    columns are taken a block at a time, _SUM_TERMS terms at most unless one
    column has more, so no sum makes a stack of all its terms."""
    total = 0.0
    width = max(1, _SUM_TERMS // len(grid))
    for start in range(0, grid.shape[1], width):
        terms = terms_at(slice(start, start + width))
        for c in range(terms.shape[1]):
            total += terms[:, c]
    return total


# each sweep parameter and what it edits, keyed by its [sweep] name: t, r
# and w a GEOMETRY column of every hinge row; angle (degrees) every rotated
# member's angle and y and z an axis of every off-plane limb slot
# displacement, each keeping its side.  Hinge and member edits make a grid
# point's limb row, slot edits its placement row.
SWEEP_EDITS = {"t": ("hinge", "t"), "r": ("hinge", "r"), "w": ("hinge", "w"),
               "angle": ("member", None), "y": ("slot", 1), "z": ("slot", 2)}

# grid points per engine call: a batch's arrays are alive at once (the
# notch kernels of 1024 fresh hinge geometries take about 20 MB), so this
# bounds memory; results do not depend on it
SWEEP_BATCH = 1024


def check_edit_range(name, lo, hi):
    """Reject a range [lo, hi] that the SWEEP_EDITS edit of `name` cannot
    take: a hinge column must stay above 0 and a member angle inside
    (0, 90) degrees.  The caller has checked the name and that lo <= hi."""
    target, _ = SWEEP_EDITS[name]
    if target == "hinge" and lo <= 0.0:
        raise ValueError(f"{name!r} range must stay positive")
    if target == "member" and not (0.0 < lo <= hi < 90.0):
        raise ValueError("leg angle range must lie inside (0, 90) degrees")


@dataclass(frozen=True)
class _Compiled:
    """Limb slots as the arrays the engine evaluates and a sweep edits."""

    table: np.ndarray           # GEOMETRY rows of the distinct geometries, beams first
    geom_of: np.ndarray         # (M,) table row of each member of the distinct limbs
    theta: np.ndarray           # (M,) member placement angles
    r: np.ndarray               # (M, 3) member displacements to the limb tip
    lengths: np.ndarray         # (D,) member count of each distinct limb
    limb_of: np.ndarray         # (S,) distinct limb of each limb slot
    slot_theta: np.ndarray      # (S,) limb slot placement angles
    slot_r: np.ndarray          # (S, 3) limb tip displacements to the reference point
    counts: np.ndarray          # slot count of each mechanism


def _compile(slots, counts) -> _Compiled:
    """The arrays of a sequence of (Limb, FramePlacement) limb slots, the
    consecutive `counts` of them forming one mechanism each.  Limbs and
    geometries are told apart by identity (_by_identity)."""
    distinct, limb_of = _by_identity([limb for limb, _ in slots])
    members = [member for limb in distinct for member in limb.members]
    geoms = [geom for geom, _ in members]
    # beams first, so the hinge rows a sweep copies are the table's tail
    beams = [geom for geom in geoms if isinstance(geom, BeamGeometry)]
    table_geoms, geom_of = _by_identity(beams + geoms)
    return _Compiled(geometry_table(table_geoms), geom_of[len(beams):],
                     np.array([p.theta for _, p in members]), np.array([p.r for _, p in members]),
                     np.array([len(limb.members) for limb in distinct]), limb_of,
                     np.array([p.theta for _, p in slots]), np.array([p.r for _, p in slots]),
                     np.array(counts))


def _edit_mask(compiled: _Compiled, name):
    """The (M,) member mask or, for a slot edit, the (S,) limb slot mask of
    what the SWEEP_EDITS edit of `name` changes."""
    target, column = SWEEP_EDITS[name]
    if target == "hinge":
        return compiled.table["kind"][compiled.geom_of] == HINGE
    if target == "member":
        return compiled.theta != 0.0
    return compiled.slot_r[:, column] != 0.0


def _edited(compiled: _Compiled, columns, rows, places):
    """The arrays of `compiled` under `rows` limb rows and `places` placement
    rows of SWEEP_EDITS edits: the GEOMETRY table, the (rows, M) table row
    and angle of each member of the distinct limbs, the (M,) masks of the
    members whose angle and whose table row an edit changes, and the
    (places, S, 3) limb slot displacements.  `columns` is a sequence of
    (name, values) pairs, a limb edit's values one per limb row and a slot
    edit's one per placement row; with no pairs and one row of each kind,
    the arrays are as compiled.

    The edit is the one the object-level oracle of tests/test_analysis.py
    (apply_parameters) makes with objects.  The checks the edited objects
    would run hold by SweepSpec's range checks (check_sweep_range, which
    calls check_edit_range): a hinge column's range starts above 0 and has
    a finite span, so every grid value is the finite positive dimension
    HingeGeometry requires; an angle range lies inside (0, 90) degrees, so
    a re-leaned member angle is finite and inside (-2 pi, 2 pi), where
    FramePlacement's normalization leaves it as it is.
    """
    table = compiled.table
    beams = int(np.count_nonzero(table["kind"] != HINGE))
    hinges = len(table) - beams
    geom_of = compiled.geom_of[None].repeat(rows, axis=0)
    theta = compiled.theta[None].repeat(rows, axis=0)
    slot_r = compiled.slot_r[None].repeat(places, axis=0)
    leaned = retuned = np.zeros(len(compiled.theta), dtype=bool)
    for name, values in columns:
        target, column = SWEEP_EDITS[name]
        if target == "hinge":
            if table is compiled.table:
                # every row retunes its own copy of the hinge rows, one per
                # compiled hinge; the beams are shared
                table = np.concatenate([table[:beams], np.tile(table[beams:], rows)])
                retuned = _edit_mask(compiled, name)
                geom_of[:, retuned] += np.arange(rows)[:, None] * hinges
            table[column][beams:] = np.repeat(values, hinges)
        elif target == "member":
            leaned = _edit_mask(compiled, name)
            theta[:, leaned] = np.copysign(np.radians(values)[:, None], compiled.theta[leaned])
        else:
            moved = _edit_mask(compiled, name)
            slot_r[:, moved, column] = np.copysign(values[:, None], compiled.slot_r[moved, column])
    return table, geom_of, theta, leaned, retuned, slot_r


def _shared(per_row, rows):
    """The (rows, M) index of the terms of M members under `rows` edit rows
    and the term count: a member in the (M,) mask per_row gets a term per
    row, any other member one term that every row shares (those first)."""
    edited = np.count_nonzero(per_row)
    shared = len(per_row) - edited
    index = np.empty((rows, len(per_row)), dtype=np.intp)
    index[:, ~per_row] = np.arange(shared)
    index[:, per_row] = shared + np.arange(rows * edited).reshape(rows, edited)
    return index, shared + rows * edited


def _limb_stack(elements, geom_of, transports, grid):
    """The array core of limb assembly: the (D, 6, 6) tip compliances of D
    limbs, and the sums they symmetrize, which the caller checks.

    `elements` is an element stack (elements.table_compliances), `geom_of`
    the element of each of T member terms, `transports` their (T, 6, 6)
    displacement transports to the limb tip and `grid` the _runs grid of
    the terms of each limb's consecutive members.  Each limb sums its
    members' J C J^T in member order.
    """
    terms = _padded(congruence(transports, elements[geom_of]))
    total = _run_sums(grid, lambda columns: terms[grid[:, columns]])
    return symmetrize(total), total


def _first_faults(checks, conds):
    """The first fault of each item of the (N, W) fault codes of its checks,
    in the order its one-item run makes them (_evaluate), and the condition
    number beside it: (N,) codes, 0 where every check passed, and (N,)
    figures, NaN unless the first fault is a refused inversion."""
    first = np.argmax(checks != 0, axis=1)
    rows = np.arange(len(checks))
    return checks[rows, first], conds[rows, first]


# the checks of a mechanism after those of its limb slots: stiffness sum,
# stiffness inversion, compliance, center, ideal center, both centers finite
_MECHANISM_CHECKS = 6
# the checks of a limb slot after its compliance sum: inversion, stiffness
_LIMB_CHECKS_AFTER_SUM = 2


# one copy of the compiled mechanisms: limb row 0 placed by placement row 0
_ONE_COPY = np.zeros(1, dtype=np.intp)


def _evaluate(compiled: _Compiled, columns=(), row_of=_ONE_COPY, place_of=_ONE_COPY):
    """The array core of the engine, for n copies of the compiled mechanisms,
    copy i made of the limbs of limb row row_of[i] placed by the limb slot
    displacements of placement row place_of[i] of the edits `columns` (see
    _edited); copy by copy.  With no edit arguments, one copy as compiled.

    Each part is computed once for the rows it differs on.  A member whose
    angle no edit changes has one transport to its limb tip, and a member
    whose angle and table row no edit changes has one J C J^T term; every
    row shares them.  Each limb slot of each placement row has one
    transport to the reference point.  The limb sums gather the terms in
    member order, so a sum adds the same terms in the same order however
    many rows share them.

    Returns the (D, 6, 6) compliances of the distinct limbs of all rows,
    the (n, 6, 6) K and C stacks, the (n, 3) rows of (rcc height, ideal
    center, rotational precision), and the (n, W) fault codes of the checks
    each copy's one-item run would make, in order, with the (n, W)
    condition numbers of its refused inversions (NaN elsewhere).  Those
    checks are, for each limb slot, the check of each member's element,
    then the limb's compliance sum, inversion and stiffness; and then the
    mechanism's _MECHANISM_CHECKS.  _first_faults reads each copy's first
    fault off them.  When every check passed, the tables are zeros and NaN,
    built without reading the checks one by one.

    Every matrix is computed for every copy, faulty or not: a refused
    inversion gives the identity, so a non-finite or singular matrix stays
    with its own copy, and every stage's matrices are checked in one
    matrix_faults pass at the end.  A failed copy's rows hold whatever its
    stages left.
    """
    rows = int(row_of.max()) + 1
    table, geom_of, theta, leaned, retuned, slot_r = _edited(compiled, columns, rows,
                                                             int(place_of.max()) + 1)
    # the notch kernels first: their temporaries are a batch's largest arrays
    elements = table_compliances(table)
    # the transport and the J C J^T term of each (row, member), shared by
    # the rows where no edit changes them
    moved_of, moved = _shared(leaned, rows)
    term_of, terms = _shared(leaned | retuned, rows)
    member_theta, member_r = np.empty(moved), np.empty((moved, 3))
    member_theta[moved_of] = theta
    member_r[moved_of] = compiled.r
    term_geom, term_moved = np.empty(terms, dtype=np.intp), np.empty(terms, dtype=np.intp)
    term_geom[term_of] = geom_of
    term_moved[term_of] = moved_of
    # the distinct limb and the limb slot transport of each limb slot of each
    # copy: limbs numbered limb row by limb row, and transports placement
    # row by placement row
    count = len(compiled.limb_of)
    slots = (row_of[:, None] * len(compiled.lengths) + compiled.limb_of).ravel()
    placed = (place_of[:, None] * count + np.arange(count)).ravel()
    # one transport pass: members move twists to their limb tip, limb slots
    # move wrenches to the reference point
    j = transports(np.concatenate([member_theta, np.tile(compiled.slot_theta, len(slot_r))]),
                   np.concatenate([member_r, slot_r.reshape(-1, 3)]),
                   np.arange(moved + len(slot_r) * count) >= moved)
    member_grid = _runs(np.tile(compiled.lengths, rows), theta.size)
    slot_grid = _runs(np.tile(compiled.counts, len(row_of)), len(slots))
    # the limb and the transport of each slot of each mechanism; the padding
    # gets limb D, whose stiffness is zero, and the first transport
    slot_limb = np.append(slots, len(compiled.lengths) * rows)[slot_grid]
    slot_j = np.append(placed, 0)[slot_grid] + moved
    # legs (x, y, angle), tips in reference coordinates; padding gets NaN
    legs = np.full((len(slots) + 1, 3), np.nan)
    legs[:-1, :2] = -slot_r.reshape(-1, 3)[placed, :2]
    leans = _padded(theta.ravel())
    legs[:-1, 2] = _run_sums(member_grid, lambda columns: leans[member_grid[:, columns]])[slots]
    # a vanishing neck or a refused matrix overflows or divides by zero on
    # its own item's rows, which the checks report
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c_limb, c_sum = _limb_stack(elements, term_geom, j[term_moved],
                                    np.append(term_of.ravel(), terms)[member_grid])
        k_limb, limb_cond, limb_refused = invert_stack(c_limb)
        k_slot = _padded(symmetrize(k_limb))
        k_sum = _run_sums(slot_grid, lambda columns: congruence(j[slot_j[:, columns]],
                                                                k_slot[slot_limb[:, columns]]))
        k = symmetrize(k_sum)
        c_inv, cond, refused = invert_stack(k)
        c = symmetrize(c_inv)
        heights, decoupled = _center_heights(c)
        ideal, ideal_faults = fourbar_centers(legs[slot_grid])
    centers = np.column_stack([heights, ideal, np.abs(heights - ideal)])

    faults = matrix_faults(np.concatenate([elements, c_sum, k_limb, k_sum, c_inv]))
    finite = np.isfinite(heights) & np.isfinite(ideal)
    # each copy's checks: each limb slot's, then the mechanism's
    # (members, compliance sum, the checks after it)
    limb_width = member_grid.shape[1] + 1 + _LIMB_CHECKS_AFTER_SUM
    n, limb_checks = len(k_sum), slot_grid.shape[1] * limb_width
    checks = np.zeros((n, limb_checks + _MECHANISM_CHECKS), dtype=faults.dtype)
    conds = np.full(checks.shape, np.nan)
    if not any(map(np.count_nonzero, (faults, limb_refused, refused, decoupled, ideal_faults,
                                      ~finite))):
        return c_limb, k, c, centers, checks, conds
    g, d = len(elements), len(c_sum)
    # each limb's checks: its members' element checks, then its compliance
    # sum, inversion and stiffness; the last entry and row pass, for padding
    element_faults = np.append(faults[:g], 0)
    limb = np.zeros((d + 1, limb_width), dtype=faults.dtype)
    limb[:d, :-3] = element_faults[np.append(geom_of.ravel(), g)[member_grid]]
    limb[:d, -3] = faults[g:g + d]
    limb[:d, -2] = limb_refused * SINGULAR_COMPLIANCE
    limb[:d, -1] = faults[g + d:g + 2 * d]
    limb_conds = np.full(limb.shape, np.nan)
    limb_conds[:d, -2] = limb_cond
    checks[:, :limb_checks] = limb[slot_limb].reshape(n, -1)
    conds[:, :limb_checks] = limb_conds[slot_limb].reshape(n, -1)
    checks[:, limb_checks:] = np.column_stack([
        faults[-2 * n:-n], refused * SINGULAR_STIFFNESS, faults[-n:], decoupled * NO_CENTER,
        ideal_faults, np.where(finite, 0, CENTERS_NOT_FINITE)])
    conds[:, limb_checks + 1] = cond
    return c_limb, k, c, centers, checks, conds


def limb_compliance(limb: Limb) -> SpatialMatrix6:
    """Tip compliance of a serial chain: sum of J_i C_i J_i^T over members."""
    compiled = _compile(((limb, IDENTITY_PLACEMENT),), (1,))
    c_limb, _, _, _, checks, conds = _evaluate(compiled)
    # the checks up to the limb's compliance sum
    stop = -(_LIMB_CHECKS_AFTER_SUM + _MECHANISM_CHECKS)
    (fault,), _ = _first_faults(checks[:, :stop], conds[:, :stop])
    if fault:
        raise fault_error(fault)
    return SpatialMatrix6._checked(c_limb[0], "compliance")


def mechanism_stiffness(m: Mechanism) -> SpatialMatrix6:
    """Reference-point stiffness: sum of J_F K_limb J_F^T over limbs."""
    compiled = _compile(m.limbs, (len(m.limbs),))
    _, k, _, _, checks, conds = _evaluate(compiled)
    # the checks up to the mechanism's stiffness sum
    stop = 1 - _MECHANISM_CHECKS
    (fault,), (cond,) = _first_faults(checks[:, :stop], conds[:, :stop])
    if fault:
        raise fault_error(fault, cond)
    return SpatialMatrix6._checked(k[0], "stiffness")


def _center_heights(c):
    """-C22/C62 of each compliance in a stack, and the mask of those without
    a finite center: |C62| at most 1e-12 of sqrt(|C22 C66|), the scale that
    has C62's units."""
    coupling = c[..., 5, 1]
    # the square roots one by one, so the product cannot overflow
    scale = np.sqrt(np.abs(c[..., 1, 1])) * np.sqrt(np.abs(c[..., 5, 5]))
    decoupled = np.abs(coupling) <= 1e-12 * scale
    return -c[..., 1, 1] / np.where(decoupled, 1.0, coupling), decoupled


def center_of_compliance(c: SpatialMatrix6):
    """Signed height (mm, along +x) of the in-plane z-rotation center.

    A lateral force F_y at the reference produces dy = C22 F and tz = C62 F;
    the platform instantaneously rotates about the x-axis point -C22/C62.
    Decoupled matrices (C62 ~ 0) have no finite rotation center.
    """
    if c.kind != "compliance":
        raise ValueError(f"center_of_compliance needs a compliance matrix, got {c.kind}")
    height, decoupled = _center_heights(c.m)
    if decoupled:
        raise fault_error(NO_CENTER)
    return float(height)


def fourbar_centers(legs):
    """ideal_fourbar_center of N mechanisms from an (N, L, 3) array of their
    legs' (x, y, angle): tip position in reference coordinates and leg angle
    (rad).  A leg with y = 0 or NaN (padding) is on neither side.  Returns
    the (N,) heights, NaN where a mechanism has none, and the fault code of
    each: 0, ONE_SIDED, or PARALLEL_LEGS.  Coordinates so large that the
    arithmetic overflows give a non-finite height; callers that must not
    warn run it under np.errstate."""
    rows = np.arange(len(legs))
    pos, neg = legs[..., 1] > 0.0, legs[..., 1] < 0.0
    # the first leg of each side
    x1, y1, a1 = legs[rows, pos.argmax(axis=1)].T
    x2, y2, a2 = legs[rows, neg.argmax(axis=1)].T
    sin = np.sin(a2 - a1)
    parallel = np.abs(sin) < 1e-12
    # lines: (x, y) = (xi, yi) + s (cos ai, sin ai); solve for intersection
    # (a parallel pair divides by 1 instead; its height is masked below)
    s1 = ((x2 - x1) * np.sin(a2) - (y2 - y1) * np.cos(a2)) / np.where(parallel, 1.0, sin)
    heights = x1 + s1 * np.cos(a1)
    faults = np.where(pos.any(axis=1) & neg.any(axis=1),
                      np.where(parallel, PARALLEL_LEGS, 0), ONE_SIDED)
    return np.where(faults == 0, heights, np.nan), faults


def ideal_fourbar_center(m: Mechanism):
    """Height (mm, above the reference) where the two leg axes intersect.

    Treats the mechanism as a planar four-bar: legs run through the limb
    tips along the net member angle.  Requires a pair of limbs with
    opposite lateral offsets and mirrored lean.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        (height,), (fault,) = fourbar_centers(
            np.array([[(-p.r[0], -p.r[1], limb.leg_angle()) for limb, p in m.limbs]]))
    if fault:
        raise fault_error(fault)
    return float(height)


def rotational_precision(rcc_height, ideal_center):
    """Distance between the compliance center and the ideal four-bar center."""
    if not (math.isfinite(rcc_height) and math.isfinite(ideal_center)):
        raise fault_error(CENTERS_NOT_FINITE)
    return abs(rcc_height - ideal_center)


def static_deflection(k: SpatialMatrix6, wrench):
    """Twist K^{-1} F for a wrench (N, Nmm); plain linear spring evaluation."""
    if k.kind != "stiffness":
        raise ValueError(f"static_deflection needs a stiffness matrix, got {k.kind}")
    f = np.asarray(wrench, dtype=float)
    if f.shape != (6,):
        raise ValueError("wrench must be a 6-vector")
    return invert(k).m @ f


@dataclass(frozen=True)
class DirectionDeviation:
    """Relative deviation of one measured directional stiffness."""

    axis: str
    analytic: float
    measured_low: float
    measured_high: float
    deviation_low: float      # fraction, from measured_high (closest to analytic)
    deviation_high: float     # fraction, from measured_low


def deviation_report(k: SpatialMatrix6, measured):
    """Relative deviation |analytic - measured| / analytic per direction.

    `measured` maps axis names ('x', 'y', 'z') to a stiffness or a
    (low, high) range in N/mm.  Returns one DirectionDeviation per axis.
    """
    if k.kind != "stiffness":
        raise ValueError(f"deviation_report needs a stiffness matrix, got {k.kind}")
    out = []
    for axis, value in measured.items():
        i = AXIS_ROW.get(axis)
        if i is None or i > 2:  # measured data are translational, in N/mm
            raise ValueError(f"no analytic counterpart for direction {axis!r}")
        analytic = k.entry(i + 1, i + 1)
        lo, hi = (value if isinstance(value, (tuple, list)) else (value, value))
        if lo > hi:
            lo, hi = hi, lo
        devs = sorted(abs(analytic - v) / abs(analytic) for v in (lo, hi))
        out.append(DirectionDeviation(axis, analytic, lo, hi, devs[0], devs[1]))
    return out


def analyze_batch(mechanisms) -> list:
    """analyze for a sequence of mechanisms in one pass of the batched engine.

    Returns one entry per mechanism, in order: its RccResult, or the
    exception analyze raises for it (ValueError or SingularMatrixError).
    """
    mechanisms = list(mechanisms)
    if not mechanisms:
        return []
    compiled = _compile([pair for m in mechanisms for pair in m.limbs],
                        [len(m.limbs) for m in mechanisms])
    _, k, c, centers, checks, conds = _evaluate(compiled)
    faults, cond = _first_faults(checks, conds)
    return [fault_error(f, q) if f else
            RccResult(SpatialMatrix6._checked(k[n], "stiffness"),
                      SpatialMatrix6._checked(c[n], "compliance"), *row)
            for n, (row, f, q) in enumerate(zip(centers.tolist(), faults.tolist(), cond.tolist()))]


def analyze(m: Mechanism) -> RccResult:
    """Full pipeline: assemble K, invert, extract the remote-center summary."""
    (result,) = analyze_batch((m,))
    if isinstance(result, Exception):
        raise result
    return result


def evaluate_grid(template: Mechanism, levels):
    """The values, K, the remote-center rows and the first fault of each
    point of a sweep grid of `template`: the product of the (n,) level values
    of each SWEEP_EDITS name of the mapping `levels`, in its order, the last
    name varying fastest.  The template is compiled once, and each batch of
    SWEEP_BATCH points is one _evaluate call; a point's limb row and
    placement row are told by integer keys of its level indices, so no row
    of floats is compared.

    Returns, in grid order, the (N, P) grid values, one row per point, the
    (N, 6, 6) K stack, the (N, 3) rows of (rcc height, ideal center,
    rotational precision), and the (N,) fault codes and condition numbers
    of _first_faults.  A name whose edit changes nothing in the template
    (_edit_mask) is a ValueError, as every row would be the template.
    """
    compiled = _compile(template.limbs, (len(template.limbs),))
    names, values = list(levels), list(levels.values())
    for name in names:
        if not _edit_mask(compiled, name).any():
            raise ValueError(f"sweep parameter {name!r} edits nothing in this mechanism")
    sizes = [len(v) for v in values]
    # the level index of each point along each name, in grid order
    index = np.indices(sizes).reshape(len(sizes), -1).T
    batches = []
    for start in range(0, len(index), SWEEP_BATCH):
        batch = index[start:start + SWEEP_BATCH]
        columns, row_ofs = [], []
        # the limb rows, then the placement rows
        for placing in (False, True):
            picked = [j for j, n in enumerate(names) if (SWEEP_EDITS[n][0] == "slot") == placing]
            key = np.zeros(len(batch), dtype=np.intp)
            for j in picked:
                key = key * sizes[j] + batch[:, j]
            _, first, row_of = np.unique(key, return_index=True, return_inverse=True)
            columns += [(names[j], values[j][batch[first, j]]) for j in picked]
            row_ofs.append(row_of)
        _, k, _, centers, checks, conds = _evaluate(compiled, columns, *row_ofs)
        batches.append((k, centers, *_first_faults(checks, conds)))
    grid = np.stack([v[i] for v, i in zip(values, index.T)], axis=-1)
    return (grid, *map(np.concatenate, zip(*batches)))
