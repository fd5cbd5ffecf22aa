"""Compliance matrices of the primitive elements: rectangular beam and
circular notch hinge.

Both elements are expressed at their distal frame with local x running from
the root toward that frame, y in the compliant bending plane and z along
the hinge axis.  Couplings therefore sit at (2,6)/(6,2) and (3,5)/(5,3)
only.

The beam uses the closed-form Timoshenko cantilever entries.  The hinge is
built by strip integration of the notch profile h(x): the three kernels
(see :mod:`flexmech.kernels`) give axial, shear, bending and torsion
compliances lumped at the notch's elastic center.  The circular profile is
symmetric, so that center is the mid-plane x = r, and the frame transform
carries it to the distal face, producing the (r + h1) lever-arm couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import fault_error
from .materials import Material
from .spatial import (SpatialMatrix6, congruence, displacement_transports, matrix_faults,
                      symmetrize)

SHEAR_ALPHA = 6.0 / 5.0  # rectangular-section shear correction factor


@lru_cache(maxsize=512)
def _notch_kernels_cached(r, t, w):
    # sweeps and multi-hinge limbs reuse geometries; the integrals are the
    # expensive part, so memoize on the exact dimension triple
    return kernels.notch_kernels(r, t, w)


@dataclass(frozen=True)
class BeamGeometry:
    """Prismatic beam: length l, out-of-plane width w, in-plane depth s (mm)."""

    l: float
    w: float
    s: float
    material: Material

    def __post_init__(self):
        for name in ("l", "w", "s"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"beam dimension {name} must be positive")


@dataclass(frozen=True)
class HingeGeometry:
    """Circular notch hinge: radius r, neck thickness t, width w, lever
    offset h1 from the notch's distal edge to the element frame (mm)."""

    r: float
    t: float
    w: float
    h1: float
    material: Material

    def __post_init__(self):
        for name in ("r", "t", "w"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"hinge dimension {name} must be positive")
        if not math.isfinite(self.h1):
            raise ValueError("hinge offset h1 must be finite")

    @property
    def s(self):
        """Outer section depth 2r + t at the notch edges."""
        return 2.0 * self.r + self.t


def notch_thickness(g: HingeGeometry, x):
    """Thickness h(x) across the notch, x in [0, 2r] from the proximal edge."""
    if not 0.0 <= x <= 2.0 * g.r:
        raise ValueError(f"x={x} outside the notch range [0, {2.0 * g.r}]")
    return kernels.notch_thickness(x, g.r, g.t)


def _beam_matrix(g: BeamGeometry):
    e, gs = g.material.e_modulus, g.material.g_modulus
    l, w, s = g.l, g.w, g.s
    it = kernels.rect_torsion_constant(w, s)
    c = np.zeros((6, 6))
    c[0, 0] = l / (e * w * s)
    c[1, 1] = SHEAR_ALPHA * l / (gs * w * s) + 4.0 * l**3 / (e * w * s**3)
    c[2, 2] = SHEAR_ALPHA * l / (gs * w * s) + 4.0 * l**3 / (e * w**3 * s)
    c[3, 3] = l / (gs * it)
    c[4, 4] = 12.0 * l / (e * w**3 * s)
    c[5, 5] = 12.0 * l / (e * w * s**3)
    c[1, 5] = c[5, 1] = 6.0 * l**2 / (e * w * s**3)
    c[2, 4] = c[4, 2] = -6.0 * l**2 / (e * w**3 * s)
    return c


def _hinge_lump(g: HingeGeometry):
    # lumped joint at the bending elastic center: the mid-plane of the
    # symmetric circular profile, a lever r + h1 from the element frame
    e, gs = g.material.e_modulus, g.material.g_modulus
    w = g.w
    k1, k3, kt = _notch_kernels_cached(g.r, g.t, g.w)
    c = np.zeros((6, 6))
    c[0, 0] = k1 / (e * w)
    c[1, 1] = SHEAR_ALPHA * k1 / (gs * w)
    c[2, 2] = SHEAR_ALPHA * k1 / (gs * w)
    c[3, 3] = kt / gs
    c[4, 4] = 12.0 * k1 / (e * w**3)
    c[5, 5] = 12.0 * k3 / (e * w)
    return c


def element_compliances(geoms):
    """Distal-frame compliances of a sequence of beams and hinges as one
    (G, 6, 6) stack, plus the validation code of each (see
    spatial.matrix_faults): a hinge's lumped matrix is checked before and
    after its lever transport, as the scalar constructors check them."""
    hinge = np.array([isinstance(g, HingeGeometry) for g in geoms], dtype=bool)
    c = np.array([_hinge_lump(g) if h else _beam_matrix(g)
                  for g, h in zip(geoms, hinge)]).reshape(-1, 6, 6)
    faults = matrix_faults(c)
    c = symmetrize(c)
    lever = np.zeros((int(hinge.sum()), 3))
    lever[:, 0] = [g.r + g.h1 for g, h in zip(geoms, hinge) if h]
    with np.errstate(invalid="ignore", over="ignore"):
        moved = congruence(displacement_transports(np.zeros(len(lever)), lever), c[hinge])
    faults[hinge] = np.where(faults[hinge] != 0, faults[hinge], matrix_faults(moved))
    c[hinge] = symmetrize(moved)
    return c, faults


def element_compliance(g) -> SpatialMatrix6:
    """Distal-frame compliance of one beam or hinge."""
    c, faults = element_compliances((g,))
    if faults[0]:
        raise fault_error(faults[0])
    return SpatialMatrix6._checked(c[0], "compliance")


def beam_compliance(g: BeamGeometry) -> SpatialMatrix6:
    """Tip compliance of a cantilevered rectangular beam (Timoshenko)."""
    return element_compliance(g)


def torsion_compliance_hinge(g: HingeGeometry):
    """C_{tx-Mx} = int dx / (G I_t(x)) with the per-strip long/short side rule."""
    _, _, kt = _notch_kernels_cached(g.r, g.t, g.w)
    return kt / g.material.g_modulus


def hinge_compliance(g: HingeGeometry) -> SpatialMatrix6:
    """Distal-frame compliance of a circular notch hinge via strip integration."""
    return element_compliance(g)
