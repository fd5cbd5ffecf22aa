"""Limb and mechanism assembly: serial compliance chains, parallel stiffness
sums, and the remote-center quantities extracted from the result.

A limb is a serial chain of elements, each with a placement whose r points
from the member frame to the limb tip (in-plane, r_z = 0).  A mechanism is
a parallel set of limbs, each with a placement whose r points from the limb
tip to the common reference point (r_z may be nonzero).

All assembly runs through one batched engine on stacked (..., 6, 6) arrays:
analyze_batch evaluates any number of mechanisms at once, and analyze,
mechanism_stiffness and limb_compliance are that engine applied to one
item.  The engine computes each distinct geometry object and each distinct
limb object once, told apart by identity (callers share an object to have
it computed once), and sums members and limbs in their given order.  Every
check of the pipeline is a per-item mask at its stage, and an item that
fails gets the exception of its first failing check in the order a one-item
run meets them, leaving the other items untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import BeamGeometry, HingeGeometry, element_compliance, element_compliances
from .spatial import (SpatialMatrix6, congruence, displacement_transports, force_transports,
                      invert, invert_stack, matrix_error, matrix_faults, singular_error,
                      symmetrize)

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
    (M, 6, 6) stack, and the (R, P) grid of the runs' term indices, P the
    longest run; shorter runs are padded with M, a zero that adds exact zeros."""
    lengths = np.asarray(lengths)
    slot = np.arange(lengths.max()) < lengths[:, None]
    grid = np.full(slot.shape, len(terms))
    grid[slot] = np.arange(len(terms))
    terms = np.concatenate([terms, np.zeros((1, 6, 6))])
    total = np.zeros((len(lengths), 6, 6))
    for j in range(grid.shape[1]):
        total += terms[grid[:, j]]
    return total, grid


def _limb_compliances(limbs):
    """Tip compliances of the distinct limb objects among `limbs`: the
    (D, 6, 6) stack, the first fault of each (None when valid) and the
    distinct index of each input limb."""
    distinct, limb_of = _by_identity(limbs)
    members = [member for limb in distinct for member in limb.members]
    geoms, geom_of = _by_identity([geom for geom, _ in members])
    elements, element_faults = element_compliances(geoms)
    transports = displacement_transports(np.array([p.theta for _, p in members]),
                                         np.array([p.r for _, p in members]))
    # a faulty element may be non-finite; its limb is reported, not warned about
    with np.errstate(invalid="ignore", over="ignore"):
        terms = congruence(transports, elements[geom_of])
        total, grid = _run_sums(terms, [len(limb.members) for limb in distinct])
    member_faults = np.append(element_faults[geom_of], 0)[grid]
    limb_faults = matrix_faults(total)
    faults = [None] * len(distinct)
    for d in np.flatnonzero(member_faults.any(axis=1) | (limb_faults != 0)):
        first = member_faults[d][member_faults[d] != 0]
        faults[d] = matrix_error(first[0] if first.size else limb_faults[d])
    return symmetrize(total), faults, limb_of


def _stiffnesses(mechanisms):
    """Reference-point stiffnesses of a sequence of mechanisms as an
    (N, 6, 6) stack, plus the first fault of each (None when valid).

    Each mechanism sums its limbs' J_F K J_F^T in their given order.  A
    faulty limb is inverted as the identity, so every stiffness stays
    finite; a mechanism's faults after its first are never looked at.
    """
    flat = [pair for m in mechanisms for pair in m.limbs]
    c_limb, faults, limb_of = _limb_compliances([limb for limb, _ in flat])
    ok = np.array([f is None for f in faults])
    k_limb, cond, refused = invert_stack(np.where(ok[:, None, None], c_limb, np.eye(6)))
    inv_faults = matrix_faults(k_limb)
    for d in np.flatnonzero(ok & (refused | (inv_faults != 0))):
        faults[d] = (singular_error("compliance", cond[d]) if refused[d]
                     else matrix_error(inv_faults[d]))
    transports = force_transports(np.array([p.theta for _, p in flat]),
                                  np.array([p.r for _, p in flat]))
    total, grid = _run_sums(congruence(transports, symmetrize(k_limb)[limb_of]),
                            [len(m.limbs) for m in mechanisms])
    bad = np.append([faults[d] is not None for d in limb_of], False)[grid]
    k_faults = matrix_faults(total)
    first = [None] * len(mechanisms)
    for n in np.flatnonzero(bad.any(axis=1) | (k_faults != 0)):
        first[n] = (faults[limb_of[grid[n, np.argmax(bad[n])]]] if bad[n].any()
                    else matrix_error(k_faults[n]))
    return symmetrize(total), first


def limb_compliance(limb: Limb) -> SpatialMatrix6:
    """Tip compliance of a serial chain: sum of J_i C_i J_i^T over members."""
    c, (fault,), _ = _limb_compliances((limb,))
    if fault is not None:
        raise fault
    return SpatialMatrix6(c[0], "compliance")


def mechanism_stiffness(m: Mechanism) -> SpatialMatrix6:
    """Reference-point stiffness: sum of J_F K_limb J_F^T over limbs."""
    k, (fault,) = _stiffnesses((m,))
    if fault is not None:
        raise fault
    return SpatialMatrix6(k[0], "stiffness")


def _center_heights(c):
    """-C22/C62 of each compliance in a stack, and the mask of those without
    a finite center (|C62| below 1e-12 of the larger of |C22| and |C66|)."""
    coupling = c[..., 5, 1]
    scale = np.maximum(np.maximum(np.abs(c[..., 1, 1]), np.abs(c[..., 5, 5])), 1e-300)
    decoupled = np.abs(coupling) < 1e-12 * scale
    return -c[..., 1, 1] / np.where(decoupled, 1.0, coupling), decoupled


_NO_CENTER = "no finite rotation center: lateral/rotation coupling is zero"


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
        raise ValueError(_NO_CENTER)
    return float(height)


def ideal_fourbar_center(m: Mechanism):
    """Height (mm, above the reference) where the two leg axes intersect.

    Treats the mechanism as a planar four-bar: legs run through the limb
    tips along the net member angle.  Requires a pair of limbs with
    opposite lateral offsets and mirrored lean.
    """
    legs = []
    for limb, placement in m.limbs:
        # tip position in reference coordinates
        legs.append((-placement.r[0], -placement.r[1], limb.leg_angle()))
    pos = [leg for leg in legs if leg[1] > 0.0]
    neg = [leg for leg in legs if leg[1] < 0.0]
    if not pos or not neg:
        raise ValueError("ideal four-bar center needs limbs on both sides of the mid-plane")
    x1, y1, a1 = pos[0]
    x2, y2, a2 = neg[0]
    if abs(math.sin(a2 - a1)) < 1e-12:
        raise ValueError("center at infinity: leg axes are parallel")
    # lines: (x, y) = (xi, yi) + s (cos ai, sin ai); solve for intersection
    s1 = ((x2 - x1) * math.sin(a2) - (y2 - y1) * math.cos(a2)) / math.sin(a2 - a1)
    return x1 + s1 * math.cos(a1)


def rotational_precision(rcc_height, ideal_center):
    """Distance between the compliance center and the ideal four-bar center."""
    if not (math.isfinite(rcc_height) and math.isfinite(ideal_center)):
        raise ValueError("both center heights must be finite")
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


def _analyze_stacks(mechanisms):
    """The batched engine without result boxing: the (N, 6, 6) K and C
    stacks of a list of mechanisms and, per mechanism, its (rcc height,
    ideal center, rotational precision) or the exception analyze raises
    for it.  A failed item's rows hold whatever its stages left."""
    if not mechanisms:
        return np.empty((0, 6, 6)), np.empty((0, 6, 6)), []
    k, outcomes = _stiffnesses(mechanisms)     # a fault per item, or None
    ok = np.array([o is None for o in outcomes])
    c, cond, refused = invert_stack(np.where(ok[:, None, None], k, np.eye(6)))
    c_faults = matrix_faults(c)
    c = symmetrize(c)
    heights, decoupled = _center_heights(c)
    for n in np.flatnonzero(ok & (refused | (c_faults != 0) | decoupled)):
        outcomes[n] = (singular_error("stiffness", cond[n]) if refused[n]
                       else matrix_error(c_faults[n]) if c_faults[n] else ValueError(_NO_CENTER))
    for n in np.flatnonzero(ok):
        if outcomes[n] is None:
            rcc = float(heights[n])
            try:
                ideal = ideal_fourbar_center(mechanisms[n])
                outcomes[n] = (rcc, ideal, rotational_precision(rcc, ideal))
            except ValueError as exc:
                outcomes[n] = exc
    return k, c, outcomes


def analyze_batch(mechanisms) -> list:
    """analyze for a sequence of mechanisms in one pass of the batched engine.

    Returns one entry per mechanism, in order: its RccResult, or the
    exception analyze raises for it (ValueError or SingularMatrixError).
    """
    k, c, outcomes = _analyze_stacks(list(mechanisms))
    return [o if isinstance(o, Exception) else
            RccResult(SpatialMatrix6(k[n], "stiffness"), SpatialMatrix6(c[n], "compliance"), *o)
            for n, o in enumerate(outcomes)]


def analyze(m: Mechanism) -> RccResult:
    """Full pipeline: assemble K, invert, extract the remote-center summary."""
    (result,) = analyze_batch((m,))
    if isinstance(result, Exception):
        raise result
    return result
