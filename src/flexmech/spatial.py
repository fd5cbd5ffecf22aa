"""Twist/wrench algebra on 6x6 spatial matrices.

The array functions (rot_z, s_matrix, the *_transports, congruence,
matrix_faults, symmetrize, invert_stack) take one matrix or a stack
(..., 6, 6), so the batched assembly engine and the single-matrix API
share one implementation; SpatialMatrix6 wraps one checked matrix.
invert_stack refuses a matrix on the 1-norm condition number of its
diagonally equilibrated form, read off the inverse it computes anyway; the
figure is the same in any units.

Conventions (fixed package-wide):
  - units N, mm, rad; wrench = (Fx, Fy, Fz, Mx, My, Mz), twist = (dx, dy, dz,
    tx, ty, tz)
  - frames differ by a rotation about z plus a translation r, where r points
    from the member frame to the evaluation point, expressed in evaluation
    coordinates
  - the skew operator S(r) is the transpose of the usual cross-product
    matrix, so S(r) @ u == u x r; with r member->tip this makes
    amplification_force the exact wrench transport member->tip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (NOT_FINITE, NOT_SYMMETRIC, SINGULAR_COMPLIANCE, SINGULAR_STIFFNESS,
                     fault_error)

# inversion refused above this condition number: the 1-norm one of the
# equilibrated matrix D M D, D = diag(M)^-1/2 (invert_stack).  For symmetric
# M, kappa_2(DMD) <= kappa_1(DMD) <= n kappa_2(DMD), and for SPD M the Jacobi
# D is within a factor n of the best diagonal scaling (van der Sluis 1969),
# so the figure lies between the best diagonally scaled kappa_2 and n^2 = 36
# times it, and at most 36 kappa_2(M).  An accepted matrix thus has kappa_2 <=
# 1e12 once equilibrated (about 4 of 16 digits trusted) whatever its units,
# and a change of units (mm against rad) can no longer move a matrix across
# the limit; a near-dependence is refused in any units (a t=1e-9 neck: 4.8e16).
COND_LIMIT = 1e12
SYM_RTOL = 1e-9       # relative symmetry tolerance for spatial matrices

Vec3 = tuple[float, float, float]


@dataclass(frozen=True)
class FramePlacement:
    """Rotation about z (rad) plus displacement r (mm) to the evaluation point."""

    theta: float
    r: Vec3

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError("placement angle must be finite")
        if not all(math.isfinite(c) for c in self.r):
            raise ValueError("placement displacement must be finite")
        # normalize into (-2pi, 2pi); files carry degrees, internals radians
        theta = math.fmod(self.theta, 2.0 * math.pi)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "r", tuple(float(c) for c in self.r))

    @classmethod
    def from_degrees(cls, theta_deg, r):
        return cls(math.radians(theta_deg), tuple(r))

    @property
    def theta_deg(self):
        return math.degrees(self.theta)

    def compose(self, inner: "FramePlacement") -> "FramePlacement":
        """Placement equivalent to applying `inner` first, then self."""
        r_in = rot_z(self.theta) @ np.asarray(inner.r)
        r = np.asarray(self.r) + r_in
        return FramePlacement(self.theta + inner.theta, tuple(r))

    def inverse(self) -> "FramePlacement":
        r = -(rot_z(-self.theta) @ np.asarray(self.r))
        return FramePlacement(-self.theta, tuple(r))


IDENTITY_PLACEMENT = FramePlacement(0.0, (0.0, 0.0, 0.0))

_KINDS = ("compliance", "stiffness")


def _swap(m):
    """Transpose of each matrix in a (..., n, n) stack (a view)."""
    return np.swapaxes(m, -1, -2)


def matrix_faults(m):
    """Fault code of each matrix in a (..., 6, 6) stack: 0 valid,
    NOT_FINITE, or NOT_SYMMETRIC (asymmetry beyond SYM_RTOL of the largest
    entry).  SpatialMatrix6 applies the same rule to one matrix."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not finite.all():
        m = np.where(finite[..., None, None], m, 0.0)
    scale = np.abs(m).max(axis=(-2, -1))
    asym = np.abs(m - _swap(m)).max(axis=(-2, -1))
    skew = (scale > 0) & (asym > SYM_RTOL * scale)
    return np.where(finite, np.where(skew, NOT_SYMMETRIC, 0), NOT_FINITE)


def symmetrize(m):
    """0.5 (M + M^T) of each matrix in a stack; the form SpatialMatrix6 stores."""
    return 0.5 * (m + _swap(m))


@dataclass(frozen=True, eq=False)
class SpatialMatrix6:
    """6x6 compliance or stiffness matrix in (N, mm, rad) block units.

    Symmetric by construction; the constructor rejects asymmetry beyond
    SYM_RTOL and stores the symmetrized matrix.
    """

    m: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        m = np.asarray(self.m, dtype=float)
        if m.shape != (6, 6):
            raise ValueError(f"expected a 6x6 matrix, got shape {m.shape}")
        fault = matrix_faults(m)
        if fault:
            raise fault_error(fault)
        object.__setattr__(self, "m", symmetrize(m))
        self.m.flags.writeable = False

    @classmethod
    def _checked(cls, m, kind):
        """Box, without checking again, a matrix already checked and symmetrized."""
        box = object.__new__(cls)
        box.__dict__.update(m=m, kind=kind)
        m.flags.writeable = False
        return box

    def entry(self, i, j):
        """1-based entry access, matching the usual matrix subscripts."""
        return float(self.m[i - 1, j - 1])


def rot_z(theta):
    """Rotation about z, orthonormal with determinant +1: 3x3 for one angle,
    (..., 3, 3) for an array of angles."""
    theta = np.asarray(theta, dtype=float)
    # elementwise, so an angle gets the same rounding alone as in any stack
    # (numpy 2.4 on x86-64 rounds np.cos/np.sin as math.cos/math.sin do)
    c, s = np.cos(theta), np.sin(theta)
    r3 = np.zeros(theta.shape + (3, 3))
    r3[..., 0, 0] = r3[..., 1, 1] = c
    r3[..., 0, 1] = -s
    r3[..., 1, 0] = s
    r3[..., 2, 2] = 1.0
    return r3


def s_matrix(r):
    """Antisymmetric displacement operator: rows (0, rz, -ry; -rz, 0, rx; ry, -rx, 0),
    3x3 for one vector, (..., 3, 3) for an (..., 3) array."""
    r = np.asarray(r, dtype=float)
    rx, ry, rz = r[..., 0], r[..., 1], r[..., 2]
    s = np.zeros(r.shape[:-1] + (3, 3))
    s[..., 0, 1], s[..., 0, 2] = rz, -ry
    s[..., 1, 0], s[..., 1, 2] = -rz, rx
    s[..., 2, 0], s[..., 2, 1] = ry, -rx
    return s


def _transports(theta, r, force):
    r3 = rot_z(theta)
    j = np.zeros(r3.shape[:-2] + (6, 6))
    j[..., :3, :3] = r3
    j[..., 3:, 3:] = r3
    moment = s_matrix(r) @ r3
    if force:
        j[..., 3:, :3] = moment
    else:
        j[..., :3, 3:] = moment
    return j


def force_transports(theta, r):
    """Wrench transports [[Rz, 0], [S(r) Rz, Rz]] for arrays of placements:
    theta (...) in rad and r (..., 3) give a (..., 6, 6) stack."""
    return _transports(theta, r, True)


def displacement_transports(theta, r):
    """Twist transports [[Rz, S(r) Rz], [0, Rz]], stacked like force_transports."""
    return _transports(theta, r, False)


def amplification_force(p: FramePlacement):
    """Wrench transport member->tip: [[Rz, 0], [S(r) Rz, Rz]]."""
    return force_transports(p.theta, p.r)


def amplification_displacement(p: FramePlacement):
    """Twist transport member->tip, the inverse transpose of the force map.

    Closed form [[Rz, S(r) Rz], [0, Rz]]; the identity J = J_F^{-T} is a
    test-suite check, not an implementation route.
    """
    return displacement_transports(p.theta, p.r)


def congruence(j, m):
    """J M J^T for each pair of a stack of transports and matrices."""
    return j @ m @ _swap(j)


def transform_compliance(c: SpatialMatrix6, p: FramePlacement) -> SpatialMatrix6:
    """Congruence J C J^T moving a compliance to the placement's evaluation point."""
    if c.kind != "compliance":
        raise ValueError(f"transform_compliance needs a compliance matrix, got {c.kind}")
    return SpatialMatrix6(congruence(amplification_displacement(p), c.m), "compliance")


def transform_stiffness(k: SpatialMatrix6, p: FramePlacement) -> SpatialMatrix6:
    """Congruence J_F K J_F^T moving a stiffness to the placement's evaluation point."""
    if k.kind != "stiffness":
        raise ValueError(f"transform_stiffness needs a stiffness matrix, got {k.kind}")
    return SpatialMatrix6(congruence(amplification_force(p), k.m), "stiffness")


def invert_stack(m):
    """Inverses of a (..., 6, 6) stack of finite matrices, with the condition
    number of each and the mask of refused ones (condition number not finite
    or above COND_LIMIT).

    The condition number is the 1-norm one of the equilibrated matrix D M D,
    D = diag(M)^-1/2: ||D M D||_1 ||D^-1 M^-1 D^-1||_1, read off the inverse,
    so it does not depend on units.  A matrix with a non-positive diagonal
    entry or an exact zero pivot gets inf.  A refused matrix is inverted as
    the identity, so one singular matrix leaves the rest of the stack intact.
    """
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        # an exact zero pivot fails the whole stack; such a matrix gets an
        # infinite inverse, which the figure below refuses
        exact = (np.linalg.slogdet(m)[0] == 0)[..., None, None]
        inv = np.where(exact, np.inf, np.linalg.inv(np.where(exact, np.eye(6), m)))
    # a non-positive diagonal makes the scaling, and so the figure, NaN or inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = 1.0 / np.sqrt(np.diagonal(m, axis1=-2, axis2=-1))
        scale = d[..., :, None] * d[..., None, :]
        cond = (np.abs(m * scale).sum(axis=-2).max(axis=-1)
                * np.abs(inv / scale).sum(axis=-2).max(axis=-1))
    refused = ~(cond <= COND_LIMIT)
    if refused.any():
        cond = np.where(np.isnan(cond), np.inf, cond)
        inv = np.where(refused[..., None, None], np.eye(6), inv)
    return inv, cond, refused


def invert(m: SpatialMatrix6) -> SpatialMatrix6:
    """Inverse with the kind flipped; refuses badly conditioned input."""
    inv, cond, refused = invert_stack(m.m)
    compliance = m.kind == "compliance"
    if refused:
        raise fault_error(SINGULAR_COMPLIANCE if compliance else SINGULAR_STIFFNESS, float(cond))
    return SpatialMatrix6(inv, "stiffness" if compliance else "compliance")
