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

Elements reach the engine as a table: geometry_table reads geometry
objects into one row each, with the columns of GEOMETRY, and
lumped_compliances and table_compliances compute a whole table as one
stack, leaving the checks to the caller, so the engine checks every stage
in one pass.  Sweeps edit the table's columns instead of building geometry
objects (mechanism._edited).  The notch kernels are cached by (r, t, w); past
KERNEL_CACHE_SIZE triples, the oldest go first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import fault_error
from .materials import Material
from .spatial import SpatialMatrix6, congruence, matrix_faults, symmetrize, transports

SHEAR_ALPHA = 6.0 / 5.0  # rectangular-section shear correction factor

# the geometry table: one row per element; a beam leaves r, t and h1 at 0,
# a hinge leaves l and s at 0; e and g are the material's moduli
BEAM, HINGE = 0, 1
GEOMETRY = np.dtype([("kind", np.int8), ("r", float), ("t", float), ("w", float),
                     ("h1", float), ("l", float), ("s", float), ("e", float), ("g", float)])

# designs and sweeps reuse hinge geometries, and the integrals are the
# expensive part, so the kernels are kept by exact (r, t, w), oldest first
KERNEL_CACHE_SIZE = 512
_kernel_cache = {}


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


def geometry_table(geoms):
    """The GEOMETRY table of a sequence of BeamGeometry and HingeGeometry
    objects, one row each, in order."""
    return np.array([(HINGE, g.r, g.t, g.w, g.h1, 0.0, 0.0, g.material.e_modulus,
                      g.material.g_modulus) if isinstance(g, HingeGeometry) else
                     (BEAM, 0.0, 0.0, g.w, 0.0, g.l, g.s, g.material.e_modulus,
                      g.material.g_modulus) for g in geoms], dtype=GEOMETRY)


def _cached_kernels(notches):
    """(k1, k3, kt) of a sequence of (r, t, w) triples as an (H, 3) array:
    one notch_kernels call for the distinct triples not in the cache."""
    fresh = [key for key in dict.fromkeys(notches) if key not in _kernel_cache]
    if fresh:
        _kernel_cache.update(zip(fresh, kernels.notch_kernels(*np.array(fresh).T).tolist()))
    values = np.array([_kernel_cache[key] for key in notches]).reshape(-1, 3)
    while len(_kernel_cache) > KERNEL_CACHE_SIZE:   # the oldest go first
        del _kernel_cache[next(iter(_kernel_cache))]
    return values


# flat (row, column) indices of the entries the element formulas give, in
# their order: the diagonal, then the couplings twice
_ENTRIES = np.array([0, 7, 14, 21, 28, 35, 11, 31, 16, 26])


def _beam_entries(l, w, s, e, gs, beta):
    # Timoshenko cantilever; beta is the torsion coefficient of the w-by-s section
    it = beta * max(w, s) * min(w, s)**3
    shear = SHEAR_ALPHA * l / (gs * w * s)
    c26, c35 = 6.0 * l**2 / (e * w * s**3), -6.0 * l**2 / (e * w**3 * s)
    return (l / (e * w * s), shear + 4.0 * l**3 / (e * w * s**3),
            shear + 4.0 * l**3 / (e * w**3 * s), l / (gs * it), 12.0 * l / (e * w**3 * s),
            12.0 * l / (e * w * s**3), c26, c26, c35, c35)


def _hinge_entries(w, e, gs, k1, k3, kt):
    # lumped joint at the bending elastic center: the mid-plane of the
    # symmetric circular profile, a lever r + h1 from the element frame
    shear = SHEAR_ALPHA * k1 / (gs * w)
    return (k1 / (e * w), shear, shear, kt / gs, 12.0 * k1 / (e * w**3), 12.0 * k3 / (e * w),
            0.0, 0.0, 0.0, 0.0)


def hinge_levers(table):
    """The (H, 3) displacement (r + h1, 0, 0) from the elastic center of each
    hinge row of a GEOMETRY table, its notch mid-plane, to its element frame."""
    hinges = table[table["kind"] == HINGE]
    lever = np.zeros((len(hinges), 3))
    lever[:, 0] = hinges["r"] + hinges["h1"]
    return lever


def lumped_compliances(table):
    """The compliances of the rows of a GEOMETRY table as one (G, 6, 6)
    stack, as the element formulas give them: a beam's at its distal frame,
    a hinge's lumped at its elastic center (table_compliances moves it).

    The notch kernels of all hinge rows come from one _cached_kernels call
    and the torsion coefficients of all beam rows from one torsion_beta
    call.  Each row's entries are then a few float operations, done in
    Python floats: at the few rows of a design that costs less than array
    operations, and C pow rounds x**3 as it always has, which numpy's
    vectorized power does not.
    """
    rows = table.tolist()
    k = iter(_cached_kernels([row[1:4] for row in rows if row[0] == HINGE]).tolist())
    # one (1, 20) series row per beam: the dot a scalar aspect ratio gets
    beta = iter(kernels.torsion_beta(np.array(
        [max(w, s) / min(w, s) for kind, _, _, w, _, _, s, _, _ in rows if kind != HINGE]
    )[:, None]).ravel().tolist())
    lumped = np.zeros((len(rows), 36))
    lumped[:, _ENTRIES] = np.array([
        _hinge_entries(w, e, gs, *next(k)) if kind == HINGE else
        _beam_entries(l, w, s, e, gs, next(beta)) for kind, _, _, w, _, l, s, e, gs in rows]
    ).reshape(-1, len(_ENTRIES))
    return lumped.reshape(-1, 6, 6)


def table_compliances(table, lumped, levers):
    """The distal-frame compliances of the rows of a GEOMETRY table as one
    (G, 6, 6) stack, from their lumped_compliances and the displacement
    transports of their hinge_levers, plus the (H, 6, 6) hinge rows after
    their lever transport.  A caller checks the lumped and the moved stack
    (see spatial.matrix_faults), as the scalar constructors would.  A
    vanishing neck gives non-finite entries: callers run it under
    np.errstate.
    """
    c = symmetrize(lumped)
    hinge = table["kind"] == HINGE
    moved = congruence(levers, c[hinge])
    c[hinge] = symmetrize(moved)
    return c, moved


def element_compliance(g) -> SpatialMatrix6:
    """Distal-frame compliance of one beam or hinge."""
    table = geometry_table((g,))
    lumped = lumped_compliances(table)
    levers = hinge_levers(table)
    with np.errstate(invalid="ignore", over="ignore"):
        c, moved = table_compliances(table, lumped,
                                     transports(np.zeros(len(levers)), levers, False))
    # the lumped matrix first, then a hinge's moved one
    for fault in matrix_faults(np.concatenate([lumped, moved])).tolist():
        if fault:
            raise fault_error(fault)
    return SpatialMatrix6._checked(c[0], "compliance")


def beam_compliance(g: BeamGeometry) -> SpatialMatrix6:
    """Tip compliance of a cantilevered rectangular beam (Timoshenko)."""
    return element_compliance(g)


def torsion_compliance_hinge(g: HingeGeometry):
    """C_{tx-Mx} = int dx / (G I_t(x)) with the per-strip long/short side rule."""
    (_, _, kt), = _cached_kernels([(g.r, g.t, g.w)]).tolist()
    return kt / g.material.g_modulus


def hinge_compliance(g: HingeGeometry) -> SpatialMatrix6:
    """Distal-frame compliance of a circular notch hinge via strip integration."""
    return element_compliance(g)
