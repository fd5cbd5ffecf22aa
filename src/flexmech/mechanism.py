"""Limb and mechanism assembly: serial compliance chains, parallel stiffness
sums, and the remote-center quantities extracted from the result.

A limb is a serial chain of elements, each with a placement whose r points
from the member frame to the limb tip (in-plane, r_z = 0).  A mechanism is
a parallel set of limbs, each with a placement whose r points from the limb
tip to the common reference point (r_z may be nonzero).

All assembly runs through one batched engine on stacked (..., 6, 6) arrays:
analyze_batch evaluates any number of mechanisms at once, and analyze,
mechanism_stiffness and limb_compliance are that engine applied to one item.  Every check of the pipeline is a per-item mask at its
stage, and an item that fails gets the exception of its first failing check
in the order a one-item run meets them, leaving the other items untouched.
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


def _distinct(key, table):
    """Index of `key` in the insertion-ordered `table`, added when new."""
    return table.setdefault(key, len(table))


def _limb_compliances(limbs):
    """Tip compliances of the distinct limbs among `limbs`.

    Returns the (D, 6, 6) stack, the first fault of each distinct limb (None
    when valid) and the distinct index of each input limb.  Equal
    geometries, equal (geometry, placement) members and equal member
    sequences are computed once.  The distinct limbs' members sit in a
    (D, P) grid, P the longest limb, shorter limbs padded with a zero
    compliance that adds exact zeros to their sums.
    """
    geoms, members, distinct, by_id = {}, {}, {}, {}
    limb_of = []
    for limb in limbs:
        d = by_id.get(id(limb))
        if d is None:
            key = tuple(_distinct((_distinct(geom, geoms), placement), members)
                        for geom, placement in limb.members)
            d = by_id[id(limb)] = _distinct(key, distinct)
        limb_of.append(d)
    rows = list(distinct)
    grid = np.full((len(rows), max(map(len, rows))), len(members))
    for d, key in enumerate(rows):
        grid[d, :len(key)] = key
    elements, element_faults = element_compliances(list(geoms))
    member_geom = np.array([g for g, _ in members], dtype=np.intp)
    theta = np.array([p.theta for _, p in members])
    r = np.array([p.r for _, p in members])
    # a faulty element may be non-finite; its limb is reported, not warned about
    with np.errstate(invalid="ignore", over="ignore"):
        terms = congruence(displacement_transports(theta, r), elements[member_geom])
        terms = np.concatenate([terms, np.zeros((1, 6, 6))])
        total = np.zeros((len(rows), 6, 6))
        for j in range(grid.shape[1]):       # member order, as a serial sum
            total += terms[grid[:, j]]
    member_faults = np.append(element_faults[member_geom], 0)[grid]
    limb_faults = matrix_faults(total)
    faults = [None] * len(rows)
    for d in np.flatnonzero(member_faults.any(axis=1) | (limb_faults != 0)):
        first = member_faults[d][member_faults[d] != 0]
        faults[d] = matrix_error(first[0] if first.size else limb_faults[d])
    return symmetrize(total), faults, np.array(limb_of, dtype=np.intp)


def _stiffnesses(mechanisms):
    """Reference-point stiffnesses of a sequence of mechanisms as an
    (N, 6, 6) stack, plus the first fault of each (None when valid).

    Limbs sit in an (N, L) grid, L the most limbs, padded with a zero
    stiffness.  A faulty limb is inverted as the identity, so every
    stiffness stays finite; a mechanism's faults after its first are never
    looked at.
    """
    flat = [pair for m in mechanisms for pair in m.limbs]
    c_limb, faults, limb_of = _limb_compliances([limb for limb, _ in flat])
    ok = np.array([f is None for f in faults])
    k_limb, cond, refused = invert_stack(np.where(ok[:, None, None], c_limb, np.eye(6)))
    inv_faults = matrix_faults(k_limb)
    for d in np.flatnonzero(ok & (refused | (inv_faults != 0))):
        faults[d] = (singular_error("compliance", cond[d]) if refused[d]
                     else matrix_error(inv_faults[d]))
    counts = [len(m.limbs) for m in mechanisms]
    slot = np.arange(max(counts)) < np.array(counts)[:, None]
    grid = np.full(slot.shape, len(faults))
    grid[slot] = limb_of
    places = {}
    place_grid = np.zeros(slot.shape, dtype=np.intp)
    place_grid[slot] = [_distinct(p, places) for _, p in flat]
    bad = np.append([f is not None for f in faults], False)[grid]
    first = [None] * len(mechanisms)
    for n in np.flatnonzero(bad.any(axis=1)):
        first[n] = faults[grid[n, np.argmax(bad[n])]]
    transports = force_transports(np.array([p.theta for p in places]),
                                  np.array([p.r for p in places]))
    k_limb = np.concatenate([symmetrize(k_limb), np.zeros((1, 6, 6))])
    total = np.zeros((len(mechanisms), 6, 6))
    for i in range(grid.shape[1]):           # limb order, as a parallel sum
        total += congruence(transports[place_grid[:, i]], k_limb[grid[:, i]])
    k_faults = matrix_faults(total)
    for n in np.flatnonzero(k_faults):
        if first[n] is None:
            first[n] = matrix_error(k_faults[n])
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


def analyze_batch(mechanisms) -> list:
    """analyze for a sequence of mechanisms in one pass of the batched engine.

    Returns one entry per mechanism, in order: its RccResult, or the
    exception analyze raises for it (ValueError or SingularMatrixError).
    """
    mechanisms = list(mechanisms)
    if not mechanisms:
        return []
    k, faults = _stiffnesses(mechanisms)
    ok = np.array([f is None for f in faults])
    c, cond, refused = invert_stack(np.where(ok[:, None, None], k, np.eye(6)))
    c_faults = matrix_faults(c)
    c = symmetrize(c)
    heights, decoupled = _center_heights(c)
    results = []
    for n, m in enumerate(mechanisms):
        if faults[n] is None:
            faults[n] = (singular_error("stiffness", cond[n]) if refused[n]
                         else matrix_error(c_faults[n]) if c_faults[n]
                         else ValueError(_NO_CENTER) if decoupled[n] else None)
        if faults[n] is not None:
            results.append(faults[n])
            continue
        rcc = float(heights[n])
        try:
            ideal = ideal_fourbar_center(m)
            precision = rotational_precision(rcc, ideal)
        except ValueError as exc:
            results.append(exc)
            continue
        results.append(RccResult(SpatialMatrix6(k[n], "stiffness"),
                                 SpatialMatrix6(c[n], "compliance"), rcc, ideal, precision))
    return results


def analyze(m: Mechanism) -> RccResult:
    """Full pipeline: assemble K, invert, extract the remote-center summary."""
    (result,) = analyze_batch((m,))
    if isinstance(result, Exception):
        raise result
    return result
