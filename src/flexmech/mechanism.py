"""Limb and mechanism assembly: serial compliance chains, parallel stiffness
sums, and the remote-center quantities extracted from the result.

A limb is a serial chain of elements, each with a placement whose r points
from the member frame to the limb tip (in-plane, r_z = 0).  A mechanism is
a parallel set of limbs, each with a placement whose r points from the limb
tip to the common reference point (r_z may be nonzero).

All assembly runs through one batched engine on stacked (..., 6, 6) arrays.
Its object-flattening front (_flatten) turns mechanisms into arrays: the
compliances of the distinct limb objects, told apart by identity (callers
share an object to have it computed once), the distinct limb of each limb
slot, the slots' placement angles and displacements, their leg angles and
the number of slots of each mechanism.  The limb compliances come from a
front and core of their own: _limb_members reads the limbs' members into
a geometry table (elements.geometry_table), the table row of each member
and the members' placements, and _limb_stack sums each limb's members from
their element stack and transports.  The engine's array core (_assemble) takes the
limb arrays and sums limbs in their given order, inverts, and extracts the
remote-center summary, with the ideal four-bar centers from one stack
function (fourbar_centers).  analyze_batch is front plus core; analyze,
mechanism_stiffness and limb_compliance are the engine applied to one item;
sweeps (analysis.run_sweep) build the arrays by editing a template's
geometry table and member and slot arrays and call the two cores,
_limb_stack and _assemble.  Every check of the pipeline is a
per-item mask at its stage.  The engine carries each item's first fault,
in the order a one-item run meets the checks, as an integer code of
errors.FAULTS, plus the condition number of a refused inversion; the
exception is built from the code (errors.fault_error) only where the API
returns or raises it.  A failed item leaves the other items untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import (BeamGeometry, HingeGeometry, element_compliance, geometry_table,
                       table_compliances)
from .errors import (CENTERS_NOT_FINITE, NO_CENTER, ONE_SIDED, PARALLEL_LEGS, SINGULAR_COMPLIANCE,
                     SINGULAR_STIFFNESS, fault_error)
from .spatial import (SpatialMatrix6, congruence, displacement_transports, force_transports,
                      invert, invert_stack, matrix_faults, symmetrize)

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


def _run_sums(terms, lengths):
    """In-order sums of the consecutive runs of the given lengths in an
    (M, ...) stack, and the (R, P) grid of the runs' term indices, P the
    longest run; shorter runs are padded with M, a zero that adds exact zeros."""
    lengths = np.asarray(lengths)
    slot = np.arange(lengths.max()) < lengths[:, None]
    grid = np.full(slot.shape, len(terms))
    grid[slot] = np.arange(len(terms))
    terms = np.concatenate([terms, np.zeros((1,) + terms.shape[1:])])
    total = np.zeros((len(lengths),) + terms.shape[1:])
    for j in range(grid.shape[1]):
        total += terms[grid[:, j]]
    return total, grid


def _limb_members(limbs):
    """The object front of limb assembly, as arrays: the distinct index of
    each of `limbs`, the geometry table (elements.geometry_table) of the
    distinct geometry objects of the distinct limbs' members, the table row,
    placement angle and displacement of each of those M members, and the
    member count of each distinct limb."""
    distinct, limb_of = _by_identity(limbs)
    members = [member for limb in distinct for member in limb.members]
    geoms, geom_of = _by_identity([geom for geom, _ in members])
    return (limb_of, geometry_table(geoms), geom_of, np.array([p.theta for _, p in members]),
            np.array([p.r for _, p in members]),
            np.array([len(limb.members) for limb in distinct]))


def _limb_compliances(limbs):
    """Tip compliances of the distinct limb objects among `limbs`: the
    (D, 6, 6) stack, the fault code of each (0 when valid) and the
    distinct index of each input limb."""
    limb_of, table, geom_of, theta, r, lengths = _limb_members(limbs)
    elements, element_faults = table_compliances(table)
    c, faults = _limb_stack(elements, element_faults, geom_of,
                            displacement_transports(theta, r), lengths)
    return c, faults, limb_of


def _limb_stack(elements, element_faults, geom_of, transports, lengths):
    """The array core of limb assembly: the (D, 6, 6) tip compliances of D
    limbs and the fault code of each (0 when valid).

    `elements` and `element_faults` are an element stack and its fault
    codes (elements.table_compliances), `geom_of` the element of each of M
    members, `transports` their (M, 6, 6) displacement transports to the
    limb tip and `lengths` the number of consecutive members of each limb.
    Each limb sums its members' J C J^T in member order and takes the fault
    of its first faulty member, else its sum's.
    """
    # a faulty element may be non-finite; its limb is reported, not warned about
    with np.errstate(invalid="ignore", over="ignore"):
        terms = congruence(transports, elements[geom_of])
        total, grid = _run_sums(terms, lengths)
    member_faults = np.append(element_faults[geom_of], 0)[grid]
    first = member_faults[np.arange(len(grid)), np.argmax(member_faults != 0, axis=1)]
    return symmetrize(total), np.where(first != 0, first, matrix_faults(total))


def _flatten(mechanisms):
    """The object-flattening front of the engine: the arguments of _assemble
    for a sequence of mechanisms."""
    flat = [pair for m in mechanisms for pair in m.limbs]
    c_limb, faults, limb_of = _limb_compliances([limb for limb, _ in flat])
    return (c_limb, faults, limb_of,
            np.array([p.theta for _, p in flat]), np.array([p.r for _, p in flat]),
            [len(m.limbs) for m in mechanisms], np.array([limb.leg_angle() for limb, _ in flat]))


def _stiffness_stack(c_limb, faults, limb_of, theta, r, lengths):
    """Reference-point stiffnesses of N mechanisms as an (N, 6, 6) stack, the
    fault code of each (0 when valid) and its refused inversion's condition
    number (NaN if none), and the (N, P) grid of their limb slots (_run_sums).

    `c_limb` and `faults` are the compliances and fault codes of D distinct
    limbs (see _limb_compliances), `limb_of` the distinct limb of each of S
    limb slots, `theta` (S) and `r` (S, 3) the slots' placements, and
    `lengths` the number of consecutive slots of each mechanism.  Each
    mechanism sums its limbs' J_F K J_F^T in slot order.  A faulty limb is
    inverted as the identity, so every stiffness stays finite; a mechanism
    takes the fault of its first faulty limb slot, else its sum's.
    """
    ok = faults == 0
    k_limb, cond, refused = invert_stack(np.where(ok[:, None, None], c_limb, np.eye(6)))
    faults = np.where(ok, np.where(refused, SINGULAR_COMPLIANCE, matrix_faults(k_limb)), faults)
    cond = np.where(ok & refused, cond, np.nan)
    total, grid = _run_sums(congruence(force_transports(theta, r), symmetrize(k_limb)[limb_of]),
                            lengths)
    # the limb of each slot, padding pointing at an appended valid one
    limbs = np.append(limb_of, len(faults))[grid]
    faults, cond = np.append(faults, 0), np.append(cond, np.nan)
    first = limbs[np.arange(len(grid)), np.argmax(faults[limbs] != 0, axis=1)]
    return (symmetrize(total), np.where(faults[first] != 0, faults[first], matrix_faults(total)),
            cond[first], grid)


def limb_compliance(limb: Limb) -> SpatialMatrix6:
    """Tip compliance of a serial chain: sum of J_i C_i J_i^T over members."""
    c, (fault,), _ = _limb_compliances((limb,))
    if fault:
        raise fault_error(fault)
    return SpatialMatrix6._checked(c[0], "compliance")


def mechanism_stiffness(m: Mechanism) -> SpatialMatrix6:
    """Reference-point stiffness: sum of J_F K_limb J_F^T over limbs."""
    k, (fault,), (cond,), _ = _stiffness_stack(*_flatten((m,))[:6])
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
    each: 0, ONE_SIDED, or PARALLEL_LEGS."""
    rows = np.arange(len(legs))
    pos, neg = legs[..., 1] > 0.0, legs[..., 1] < 0.0
    pairs = np.concatenate([legs[rows, pos.argmax(axis=1)], legs[rows, neg.argmax(axis=1)]],
                           axis=1)
    heights, parallel = [], []
    # the first leg of each side, in scalar floats and math.sin/math.cos
    for x1, y1, a1, x2, y2, a2 in pairs.tolist():
        sin = math.sin(a2 - a1)
        parallel.append(abs(sin) < 1e-12)
        # lines: (x, y) = (xi, yi) + s (cos ai, sin ai); solve for intersection
        # (a parallel pair's height is masked below; `or` spares sin = 0)
        s1 = ((x2 - x1) * math.sin(a2) - (y2 - y1) * math.cos(a2)) / (sin or math.nan)
        heights.append(x1 + s1 * math.cos(a1))
    faults = np.where(pos.any(axis=1) & neg.any(axis=1),
                      np.where(parallel, PARALLEL_LEGS, 0), ONE_SIDED)
    return np.where(faults == 0, heights, np.nan), faults


def ideal_fourbar_center(m: Mechanism):
    """Height (mm, above the reference) where the two leg axes intersect.

    Treats the mechanism as a planar four-bar: legs run through the limb
    tips along the net member angle.  Requires a pair of limbs with
    opposite lateral offsets and mirrored lean.
    """
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


def _assemble(c_limb, faults, limb_of, theta, r, lengths, leg):
    """The array core of the engine: the (N, 6, 6) K and C stacks of N >= 1
    mechanisms, their (N, 3) rows of (rcc height, ideal center, rotational
    precision), and their fault codes and condition numbers.  The arguments
    are those of _stiffness_stack plus `leg`, the leg angle of each limb
    slot.  A failed item's rows hold whatever its stages left."""
    k, faults, cond, grid = _stiffness_stack(c_limb, faults, limb_of, theta, r, lengths)
    ok = faults == 0
    c, c_cond, refused = invert_stack(np.where(ok[:, None, None], k, np.eye(6)))
    c_faults = matrix_faults(c)
    c = symmetrize(c)
    heights, decoupled = _center_heights(c)
    # legs (x, y, angle), tips in reference coordinates; padding gets NaN
    legs = np.column_stack([-r[:, :2], leg])
    ideal, ideal_faults = fourbar_centers(np.append(legs, np.full((1, 3), np.nan), axis=0)[grid])
    # the first fault of the stages after the stiffness, in the order analyze meets them
    later = np.where(refused, SINGULAR_STIFFNESS, np.where(
        c_faults != 0, c_faults, np.where(decoupled, NO_CENTER, np.where(
            ideal_faults != 0, ideal_faults,
            np.where(np.isfinite(heights) & np.isfinite(ideal), 0, CENTERS_NOT_FINITE)))))
    return (k, c, np.column_stack([heights, ideal, np.abs(heights - ideal)]),
            np.where(ok, later, faults), np.where(ok & refused, c_cond, cond))


def analyze_batch(mechanisms) -> list:
    """analyze for a sequence of mechanisms in one pass of the batched engine.

    Returns one entry per mechanism, in order: its RccResult, or the
    exception analyze raises for it (ValueError or SingularMatrixError).
    """
    mechanisms = list(mechanisms)
    if not mechanisms:
        return []
    k, c, centers, faults, cond = _assemble(*_flatten(mechanisms))
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
