"""Limb and mechanism assembly: serial compliance chains, parallel stiffness
sums, and the remote-center quantities extracted from the result.

A limb is a serial chain of elements, each with a placement whose r points
from the member frame to the limb tip (in-plane, r_z = 0).  A mechanism is
a parallel set of limbs, each with a placement whose r points from the limb
tip to the common reference point (r_z may be nonzero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import BeamGeometry, HingeGeometry, beam_compliance, hinge_compliance
from .spatial import (SpatialMatrix6, amplification_displacement,
                      amplification_force, invert)

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


def element_compliance(geom) -> SpatialMatrix6:
    if isinstance(geom, BeamGeometry):
        return beam_compliance(geom)
    return hinge_compliance(geom)


def limb_compliance(limb: Limb) -> SpatialMatrix6:
    """Tip compliance of a serial chain: sum of J_i C_i J_i^T over members."""
    total = np.zeros((6, 6))
    for geom, placement in limb.members:
        j = amplification_displacement(placement)
        total += j @ element_compliance(geom).m @ j.T
    return SpatialMatrix6(total, "compliance")


def mechanism_stiffness(m: Mechanism) -> SpatialMatrix6:
    """Reference-point stiffness: sum of J_F K_limb J_F^T over limbs."""
    total = np.zeros((6, 6))
    for limb, placement in m.limbs:
        k_limb = invert(limb_compliance(limb))
        j = amplification_force(placement)
        total += j @ k_limb.m @ j.T
    return SpatialMatrix6(total, "stiffness")


def center_of_compliance(c: SpatialMatrix6):
    """Signed height (mm, along +x) of the in-plane z-rotation center.

    A lateral force F_y at the reference produces dy = C22 F and tz = C62 F;
    the platform instantaneously rotates about the x-axis point -C22/C62.
    Decoupled matrices (C62 ~ 0) have no finite rotation center.
    """
    if c.kind != "compliance":
        raise ValueError(f"center_of_compliance needs a compliance matrix, got {c.kind}")
    coupling = c.entry(6, 2)
    scale = max(abs(c.entry(2, 2)), abs(c.entry(6, 6)), 1e-300)
    if abs(coupling) < 1e-12 * scale:
        raise ValueError("no finite rotation center: lateral/rotation coupling is zero")
    return -c.entry(2, 2) / coupling


def ideal_fourbar_center(m: Mechanism):
    """Height (mm, above the reference) where the two leg axes intersect.

    Treats the mechanism as a planar four-bar: legs run through the limb
    tips along the net member angle.  Requires a pair of limbs with
    opposite lateral offsets and mirrored lean.
    """
    legs = []
    for limb, placement in m.limbs:
        tip = -np.asarray(placement.r)  # tip position in reference coordinates
        legs.append((tip[0], tip[1], limb.leg_angle()))
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


def analyze(m: Mechanism) -> RccResult:
    """Full pipeline: assemble K, invert, extract the remote-center summary."""
    k = mechanism_stiffness(m)
    c = invert(k)
    rcc = center_of_compliance(c)
    ideal = ideal_fourbar_center(m)
    return RccResult(k, c, rcc, ideal, rotational_precision(rcc, ideal))
