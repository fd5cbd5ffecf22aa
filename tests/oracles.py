"""Reference formulas the tests compare the engine with.

flexmech computes elements, transports and sweeps through one batched
engine; these are the textbook one-item forms of the same quantities, each
with its argument checks, so a test can hold the engine against them.
"""

import itertools
import math

import mpmath
import numpy as np

from flexmech.kernels import notch_kernels, torsion_beta
from flexmech.materials import Material
from flexmech.spatial import (FramePlacement, SpatialMatrix6, congruence, rot_z, transports,
                              transposed)


def rect_torsion_constant(side_a, side_b):
    """Torsion constant beta*a*b^3 of an a-by-b rectangle, sides in any order."""
    if side_a <= 0.0 or side_b <= 0.0:
        raise ValueError("rectangle sides must be positive")
    long_s = max(side_a, side_b)
    short_s = min(side_a, side_b)
    return torsion_beta(long_s / short_s) * long_s * short_s**3


def saint_venant_beta(aspect):
    """beta of a rectangle of side ratio `aspect` >= 1 from the whole odd-n
    Saint-Venant series, in 30-digit mpmath: the tanh terms up to n = 61,
    then the tail sum_{n odd >= 63} 1/n^5 = zeta(5, 31.5) / 32 (Hurwitz
    zeta), where tanh(n pi aspect / 2) is 1 to 80 digits."""
    with mpmath.workdps(30):
        a = mpmath.mpf(aspect)
        series = mpmath.fsum(mpmath.tanh(n * mpmath.pi * a / 2) / mpmath.mpf(n)**5
                             for n in range(1, 62, 2)) + mpmath.zeta(5, 31.5) / 32
        return float((1 - 192 / mpmath.pi**5 * series / a) / 3)


def notch_thickness(x, r, t):
    """Thickness h(x) of a circular notch, x in [0, 2r] from the proximal edge."""
    if not 0.0 <= x <= 2.0 * r:
        raise ValueError(f"x={x} outside the notch range [0, {2.0 * r}]")
    return t + 2.0 * r - 2.0 * math.sqrt(max(r * r - (x - r) * (x - r), 0.0))


def torsion_compliance_hinge(g):
    """C_{tx-Mx} = int dx / (G I_t(x)) of a HingeGeometry, with the per-strip
    long/short side rule."""
    return notch_kernels(g.r, g.t, g.w)[2] / g.material.g_modulus


def amplification_force(p: FramePlacement):
    """Wrench transport member->tip: [[Rz, 0], [S(r) Rz, Rz]]."""
    return transports(p.theta, p.r, True)


def amplification_displacement(p: FramePlacement):
    """Twist transport member->tip: [[Rz, S(r) Rz], [0, Rz]], the inverse
    transpose of the force map."""
    return transports(p.theta, p.r, False)


def transform_compliance(c: SpatialMatrix6, p: FramePlacement) -> SpatialMatrix6:
    """Congruence J C J^T moving a compliance to the placement's evaluation point."""
    if c.kind != "compliance":
        raise ValueError(f"transform_compliance needs a compliance matrix, got {c.kind}")
    j = amplification_displacement(p)
    return SpatialMatrix6(congruence(j, c.m, transposed(j)), "compliance")


def transform_stiffness(k: SpatialMatrix6, p: FramePlacement) -> SpatialMatrix6:
    """Congruence J_F K J_F^T moving a stiffness to the placement's evaluation point."""
    if k.kind != "stiffness":
        raise ValueError(f"transform_stiffness needs a stiffness matrix, got {k.kind}")
    j = amplification_force(p)
    return SpatialMatrix6(congruence(j, k.m, transposed(j)), "stiffness")


def compose(outer: FramePlacement, inner: FramePlacement) -> FramePlacement:
    """Placement equivalent to applying `inner` first, then `outer`."""
    r = [o + i for o, i in zip(outer.r, rot_z(outer.theta) @ inner.r)]
    return FramePlacement(outer.theta + inner.theta, tuple(r))


def inverse(p: FramePlacement) -> FramePlacement:
    """Placement undoing p."""
    return FramePlacement(-p.theta, tuple(-(rot_z(-p.theta) @ p.r)))


def scaled(material: Material, factor):
    """The same material with both moduli scaled by factor."""
    return Material(material.name, material.e_modulus * factor, material.nu,
                    material.g_modulus * factor, material.caveat)


def grid(spec):
    """A SweepSpec's grid as one name -> value dict per point: the product
    of its levels in spec order, the last parameter varying fastest."""
    for values in itertools.product(*(v.tolist() for v in spec.levels().values())):
        yield dict(zip(spec.parameters, values))


def sort_key(point):
    """A SweepPoint's rank key: infeasible last, then score, then the grid
    values in spec order."""
    return (not point.feasible, point.score, tuple(v for _, v in point.params))


def creep_profile_min(times, forces, tau_lo, tau_hi, points=20001):
    """The least squared residual of F_ss + A e^{-(t - t0)/tau} over `points`
    log-spaced tau from tau_lo to tau_hi, t0 the first time: at each tau,
    F_ss and A solve the 2x2 normal equations of the linear least squares,
    and the residual is summed from the fitted model."""
    t = np.asarray(times, dtype=float)
    f = np.asarray(forces, dtype=float)
    best = math.inf
    for taus in np.array_split(np.geomspace(tau_lo, tau_hi, points), 50):
        d = np.exp(-(t - t.min()) / taus[:, None])
        sd, sdd, sdf = d.sum(axis=1), (d * d).sum(axis=1), d @ f
        det = len(t) * sdd - sd * sd
        amp = (len(t) * sdf - sd * f.sum()) / det
        f_ss = (f.sum() - amp * sd) / len(t)
        r = f_ss[:, None] + amp[:, None] * d - f
        best = min(best, float((r * r).sum(axis=1).min()))
    return best
