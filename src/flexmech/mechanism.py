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
limb slot one transport per placement row.  _evaluate has two halves: the
integer one is a plan (flexmech.plan), every index array its gathers need,
built from nothing but the bytes of the geometry kinds, the compiled
topology, the edit targets and masks and the copies' rows, so it is made
once per such layout and the last plan.PLAN_CACHE_SIZE are kept, read-only;
the float one runs on every call, as algebra on the arrays the plan
gathers, with the same operations in the same order whether the plan was
fresh or kept.  analyze_batch, analyze,
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

from . import plan as plans
from .elements import HINGE, BeamGeometry, HingeGeometry, geometry_table, table_compliances
from .errors import (CENTERS_NOT_FINITE, NO_CENTER, ONE_SIDED, PARALLEL_LEGS, SINGULAR_COMPLIANCE,
                     SINGULAR_STIFFNESS, fault_error)
from .spatial import (IDENTITY_PLACEMENT, SpatialMatrix6, congruence, invert, invert_stack,
                      matrix_faults, symmetrize, transports, transposed)

# stiffness axis name -> diagonal index of the stiffness matrix (0-based)
AXIS_ROW = {"x": 0, "y": 1, "z": 2, "tx": 3, "ty": 4, "tz": 5}


def check_member(limb_name, geom, placement):
    """Refuse a member of limb `limb_name` that no limb may hold: a geometry
    that is not an element (TypeError), or a tip out of the member's x-y
    plane (ValueError)."""
    if not isinstance(geom, (BeamGeometry, HingeGeometry)):
        raise TypeError(f"unsupported member geometry {type(geom).__name__}")
    if abs(placement.r[2]) > 0.0:
        raise ValueError(
            f"limb {limb_name!r}: member placements must have r_z = 0 "
            "(tip lies in the member x-y plane)")


@dataclass(frozen=True)
class Limb:
    """Serial element chain; members are (geometry, placement-to-tip) pairs."""

    name: str
    members: tuple

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("a limb needs at least one member")
        for geom, placement in self.members:
            check_member(self.name, geom, placement)

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


def _padded(terms):
    """An (M, ...) stack with a term of zeros appended, at the index
    plan.runs pads with."""
    return np.concatenate([terms, np.zeros((1,) + terms.shape[1:])])


# the most terms _run_sums makes at once: a fresh stack much larger (1024
# 6x6 terms, 295 kB) is mapped into memory page by page, which on a 2-vCPU
# Xeon host costs more than computing its terms
_SUM_TERMS = 256


def _run_sums(grid, terms_at):
    """In-order sums of the R runs of a (R, P) plan.runs grid: terms_at(columns)
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
                     np.array([len(limb.members) for limb in distinct], dtype=np.intp), limb_of,
                     np.array([p.theta for _, p in slots]), np.array([p.r for _, p in slots]),
                     np.array(counts, dtype=np.intp))


def _edit_mask(compiled: _Compiled, name):
    """The (M,) member mask or, for a slot edit, the (S,) limb slot mask of
    what the SWEEP_EDITS edit of `name` changes."""
    target, column = SWEEP_EDITS[name]
    if target == "hinge":
        return compiled.table["kind"][compiled.geom_of] == HINGE
    if target == "member":
        return compiled.theta != 0.0
    return compiled.slot_r[:, column] != 0.0


def _edited(compiled: _Compiled, plan, columns):
    """The arrays of `compiled` under the SWEEP_EDITS edits `columns` laid
    out by `plan` (_plan): the GEOMETRY table, the (rows, M) angle of each
    member of the distinct limbs per limb row, and the (places, S, 3) limb
    slot displacements per placement row.  `columns` is a sequence of
    (name, values) pairs, a limb edit's values one per limb row and a slot
    edit's one per placement row; with no pairs and one row of each kind,
    the arrays are as compiled.  A hinge edit retunes every limb row's own
    copy of the hinge rows, one per compiled hinge; the beams are shared.

    The edit is the one the object-level oracle of tests/test_analysis.py
    (apply_parameters) makes with objects.  The checks the edited objects
    would run hold by SweepSpec's range checks (check_sweep_range, which
    calls check_edit_range): a hinge column's range starts above 0 and has
    a finite span, so every grid value is the finite positive dimension
    HingeGeometry requires; an angle range lies inside (0, 90) degrees, so
    a re-leaned member angle is finite and inside (-2 pi, 2 pi), where
    FramePlacement's normalization leaves it as it is.
    """
    table = compiled.table if plan.table_rows is None else compiled.table[plan.table_rows]
    theta = compiled.theta[None].repeat(plan.rows, axis=0)
    slot_r = compiled.slot_r[None].repeat(plan.places, axis=0)
    for (name, values), mask in zip(columns, plan.masks):
        target, column = SWEEP_EDITS[name]
        if target == "hinge":
            table[column][plan.beams:] = values[plan.hinge_row]
        elif target == "member":
            theta[:, mask] = np.copysign(np.radians(values)[:, None], compiled.theta[mask])
        else:
            slot_r[:, mask, column] = np.copysign(values[:, None], compiled.slot_r[mask, column])
    return table, theta, slot_r


def _limb_stack(elements, geom_of, transports, transposes, grid):
    """The array core of limb assembly: the (D, 6, 6) tip compliances of D
    limbs, and the sums they symmetrize, which the caller checks.

    `elements` is an element stack (elements.table_compliances), `geom_of`
    the element of each of T member terms, `transports` their (T, 6, 6)
    displacement transports to the limb tip, `transposes` those transposed
    (spatial.transposed), and `grid` the plan.runs grid of the terms of each
    limb's consecutive members.  Each limb sums its members' J C J^T in
    member order.
    """
    terms = _padded(congruence(transports, elements[geom_of], transposes))
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


def _plan(compiled: _Compiled, names, row_of, place_of):
    """The plan.Plan of copies row_of/place_of of `compiled` under edits of
    the SWEEP_EDITS `names`: plan.build_plan of the integers it reads, the
    names' edit targets and masks, the GEOMETRY kinds, the compiled topology
    (geom_of, lengths, limb_of, counts) and the rows, as bytes."""
    return plans.build_plan(
        tuple(SWEEP_EDITS[name][0] for name in names), compiled.table["kind"].tobytes(),
        compiled.geom_of.tobytes(), compiled.lengths.tobytes(), compiled.limb_of.tobytes(),
        compiled.counts.tobytes(), tuple(_edit_mask(compiled, name).tobytes() for name in names),
        row_of.tobytes(), place_of.tobytes())


def _evaluate(compiled: _Compiled, columns=(), row_of=_ONE_COPY, place_of=_ONE_COPY):
    """The array core of the engine, for n copies of the compiled mechanisms,
    copy i made of the limbs of limb row row_of[i] placed by the limb slot
    displacements of placement row place_of[i] of the edits `columns` (see
    _edited); copy by copy.  With no edit arguments, one copy as compiled.

    The integer half is the plan (_plan): which transports and terms each
    row shares and every gather below, a function of the layout of copies
    alone, made once per layout and kept among the last few.  What follows
    is the float half, algebra on arrays gathered by the plan.  Each part
    is computed once for the rows it differs on.  A member whose angle no
    edit changes has one transport to its limb tip, and a member whose
    angle and table row no edit changes has one J C J^T term; every row
    shares them.  Each limb slot of each placement row has
    one transport to the reference point.  The limb sums gather the terms
    in member order, so a sum adds the same terms in the same order however
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
    plan = _plan(compiled, tuple(name for name, _ in columns), row_of, place_of)
    table, theta, slot_r = _edited(compiled, plan, columns)
    # the notch kernels first: their temporaries are a batch's largest arrays
    elements = table_compliances(table)
    # one transport pass: members move twists to their limb tip, limb slots
    # move wrenches to the reference point
    j = transports(np.concatenate([theta.ravel()[plan.member_src],
                                   np.tile(compiled.slot_theta, plan.places)]),
                   np.concatenate([compiled.r[plan.member_of], slot_r.reshape(-1, 3)]),
                   plan.force)
    jt = transposed(j)
    # each (limb row, limb)'s leg angle, its members' angles summed in order
    leans = _padded(theta.ravel())
    lean = _run_sums(plan.member_grid, lambda columns: leans[plan.member_grid[:, columns]])

    def slot_terms(columns):
        at = plan.slot_j[:, columns]
        return congruence(j[at], k_slot[plan.slot_limb[:, columns]], jt[at])

    # a vanishing neck or a refused matrix overflows or divides by zero on
    # its own item's rows, which the checks report
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c_limb, c_sum = _limb_stack(elements, plan.term_geom, j[plan.term_moved],
                                    jt[plan.term_moved], plan.limb_terms)
        k_limb, limb_cond, limb_refused = invert_stack(c_limb)
        k_slot = _padded(symmetrize(k_limb))
        k_sum = _run_sums(plan.slot_j, slot_terms)
        k = symmetrize(k_sum)
        c_inv, cond, refused = invert_stack(k)
        c = symmetrize(c_inv)
        heights, decoupled = _center_heights(c)
        # each limb slot's leg (x, y, angle): its tip in reference coordinates
        # and its limb's leg angle; the padding's y = 0 is on neither side
        legs = np.concatenate([_padded(-slot_r[..., :2].reshape(-1, 2))[plan.slot_tip],
                               _padded(lean)[plan.slot_limb][..., None]], axis=-1)
        ideal, ideal_faults = fourbar_centers(legs)
    centers = np.column_stack([heights, ideal, np.abs(heights - ideal)])

    faults = matrix_faults(np.concatenate([elements, c_sum, k_limb, k_sum, c_inv]))
    finite = np.isfinite(heights) & np.isfinite(ideal)
    # each copy's checks: each limb slot's, then the mechanism's
    # (members, compliance sum, the checks after it)
    limb_width = plan.member_grid.shape[1] + 1 + _LIMB_CHECKS_AFTER_SUM
    n, limb_checks = len(k_sum), plan.slot_limb.shape[1] * limb_width
    checks = np.zeros((n, limb_checks + _MECHANISM_CHECKS), dtype=faults.dtype)
    conds = np.full(checks.shape, np.nan)
    if not any(map(np.count_nonzero, (faults, limb_refused, refused, decoupled, ideal_faults,
                                      ~finite))):
        return c_limb, k, c, centers, checks, conds
    g, d = len(elements), len(c_sum)
    # each limb's checks: its members' element checks, then its compliance
    # sum, inversion and stiffness; the last entry and row pass, for padding
    limb = np.zeros((d + 1, limb_width), dtype=faults.dtype)
    element_of = np.append(plan.term_geom, g)[plan.limb_terms]
    limb[:d, :-3] = np.append(faults[:g], 0)[element_of]
    limb[:d, -3] = faults[g:g + d]
    limb[:d, -2] = limb_refused * SINGULAR_COMPLIANCE
    limb[:d, -1] = faults[g + d:g + 2 * d]
    limb_conds = np.full(limb.shape, np.nan)
    limb_conds[:d, -2] = limb_cond
    checks[:, :limb_checks] = limb[plan.slot_limb].reshape(n, -1)
    conds[:, :limb_checks] = limb_conds[plan.slot_limb].reshape(n, -1)
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
    of floats is compared, and those keys depend only on the level counts,
    so a batch of a grid of the same shape reuses them (plan.build_grid_plan).

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
    sizes = tuple(len(v) for v in values)
    placing = tuple(SWEEP_EDITS[name][0] == "slot" for name in names)
    total = math.prod(sizes)
    out = None
    for start in range(0, total, SWEEP_BATCH):
        stop = min(start + SWEEP_BATCH, total)
        batch = plans.build_grid_plan(sizes, placing, start, stop)
        columns = [(names[j], values[j][batch.levels[j]]) for j in batch.order]
        _, k, _, centers, checks, conds = _evaluate(compiled, columns, batch.row_of,
                                                    batch.place_of)
        grid = np.stack([v[i] for v, i in zip(values, batch.index.T)], axis=-1)
        parts = (grid, k, centers, *_first_faults(checks, conds))
        # the whole grid's outputs are made at the first batch, so a grid
        # too large to hold them fails there (MemoryError)
        if out is None:
            out = tuple(np.empty((total,) + a.shape[1:], a.dtype) for a in parts)
        for whole, part in zip(out, parts):
            whole[start:stop] = part
    return out
