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
symmetric, so that center is the mid-plane x = r, a lever r + h1 from the
distal face; the hinge's entries are written there in closed form, the
lumped joint plus the lever couplings C26 = (r + h1) C66 and
C35 = -(r + h1) C55 (Lobontiu 2002).

Elements reach the engine as a table: geometry_table reads geometry
objects into one row each, with the columns of GEOMETRY, and
table_compliances computes a whole table as one stack, leaving the check
to the caller, so the engine checks every stage in one pass.  Sweeps edit
the table's columns instead of building geometry objects
(mechanism.SWEEP_EDITS).  The notch kernels are cached by (r, t, w) and the
beam torsion coefficients by aspect ratio; past KERNEL_CACHE_SIZE keys,
the oldest go first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import fault_error
from .materials import Material
from .spatial import SpatialMatrix6, matrix_faults

SHEAR_ALPHA = 6.0 / 5.0  # rectangular-section shear correction factor

# the geometry table: one row per element; a beam leaves r, t and h1 at 0,
# a hinge leaves l and s at 0; e and g are the material's moduli
BEAM, HINGE = 0, 1
GEOMETRY = np.dtype([("kind", np.int8), ("r", float), ("t", float), ("w", float),
                     ("h1", float), ("l", float), ("s", float), ("e", float), ("g", float)])

# designs and sweeps reuse geometries, and the integrals and series are the
# expensive part, so the notch kernels are kept by exact (r, t, w) and the
# beam torsion coefficients by exact aspect ratio, oldest first
KERNEL_CACHE_SIZE = 512
_kernel_cache = {}
_beta_cache = {}


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


def geometry_table(geoms):
    """The GEOMETRY table of a sequence of BeamGeometry and HingeGeometry
    objects, one row each, in order."""
    return np.array([(HINGE, g.r, g.t, g.w, g.h1, 0.0, 0.0, g.material.e_modulus,
                      g.material.g_modulus) if isinstance(g, HingeGeometry) else
                     (BEAM, 0.0, 0.0, g.w, 0.0, g.l, g.s, g.material.e_modulus,
                      g.material.g_modulus) for g in geoms], dtype=GEOMETRY)


def _cached(cache, keys, compute):
    """The values of a sequence of keys from `cache`, with one `compute` call
    on the list of the distinct keys not in it; past KERNEL_CACHE_SIZE
    keys, the oldest go first."""
    fresh = [key for key in dict.fromkeys(keys) if key not in cache]
    if fresh:
        cache.update(zip(fresh, compute(fresh)))
    values = [cache[key] for key in keys]
    # the oldest keys in one pass: a fresh iterator per key would rescan
    # the slots already deleted
    excess = len(cache) - KERNEL_CACHE_SIZE
    if excess > 0:
        for key in list(itertools.islice(cache, excess)):
            del cache[key]
    return values


def _cached_kernels(notches):
    """(k1, k3, kt) of a sequence of (r, t, w) triples, as lists."""
    return _cached(_kernel_cache, notches,
                   lambda fresh: kernels.notch_kernels(*np.array(fresh).T).tolist())


def _cached_betas(aspects):
    """torsion_beta of a sequence of aspect ratios; a (B, 1) series row per
    ratio, the dot a scalar ratio gets, so each comes out as alone."""
    return _cached(_beta_cache, aspects,
                   lambda fresh: kernels.torsion_beta(np.array(fresh)[:, None]).ravel().tolist())


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


def _hinge_entries(w, e, gs, lever, k1, k3, kt):
    # the lumped joint at the bending elastic center, the mid-plane of the
    # symmetric circular profile, seen from the element frame a lever
    # r + h1 away; each product is one the displacement transport makes
    shear = SHEAR_ALPHA * k1 / (gs * w)
    c55, c66 = 12.0 * k1 / (e * w**3), 12.0 * k3 / (e * w)
    c26, c35 = lever * c66, -lever * c55
    return (k1 / (e * w), shear + c26 * lever, shear - c35 * lever, kt / gs, c55, c66,
            c26, c26, c35, c35)


def table_compliances(table):
    """The distal-frame compliances of the rows of a GEOMETRY table as one
    (G, 6, 6) stack, symmetric by construction; a caller checks it (see
    spatial.matrix_faults), as element_compliance does.  A vanishing
    neck, or a dimension whose power passes the float range, gives
    non-finite entries.

    The notch kernels of the hinge rows and the torsion coefficients of the
    beam rows come from their caches.  Each row's entries are then a few
    float operations, done in Python floats: at the few rows of a design
    that costs less than array operations, and C pow rounds x**3 as it
    always has, which numpy's vectorized power does not.
    """
    rows = table.tolist()
    k = iter(_cached_kernels([row[1:4] for row in rows if row[0] == HINGE]))
    beta = iter(_cached_betas([max(w, s) / min(w, s)
                               for kind, _, _, w, _, _, s, _, _ in rows if kind != HINGE]))
    c = np.zeros((len(rows), 36))
    c[:, _ENTRIES] = np.array([_row_entries(row, k, beta) for row in rows]
                              ).reshape(-1, len(_ENTRIES))
    return c.reshape(-1, 6, 6)


def _row_entries(row, k, beta):
    """The entries of one table row, with the next kernels from k (a hinge)
    or the next torsion coefficient from beta (a beam).  Python float
    arithmetic raises where numpy gives inf: ** past the float range, and /
    by a power or product that underflows to 0.  Such a row gets inf
    entries, which the check reports as not finite."""
    kind, r, _, w, h1, l, s, e, gs = row
    try:
        if kind == HINGE:
            return _hinge_entries(w, e, gs, r + h1, *next(k))
        return _beam_entries(l, w, s, e, gs, next(beta))
    except (OverflowError, ZeroDivisionError):
        return (math.inf,) * len(_ENTRIES)


def element_compliance(g) -> SpatialMatrix6:
    """Distal-frame compliance of one beam or hinge."""
    c = table_compliances(geometry_table((g,)))
    (fault,) = matrix_faults(c).tolist()
    if fault:
        raise fault_error(fault)
    return SpatialMatrix6._checked(c[0], "compliance")
