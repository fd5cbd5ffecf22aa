"""Twist/wrench algebra on 6x6 spatial matrices.

The array functions (rot_z, s_matrix, the *_transports, congruence,
matrix_faults, symmetrize, invert_stack) take one matrix or a stack
(..., 6, 6), so the batched assembly engine and the single-matrix API
share one implementation; SpatialMatrix6 wraps one checked matrix.

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

from .errors import SingularMatrixError

COND_LIMIT = 1e12     # inversion refused above this condition number
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


NOT_FINITE = 1          # codes of matrix_faults; 0 is a valid matrix
NOT_SYMMETRIC = 2
MATRIX_ERRORS = {NOT_FINITE: "matrix entries must be finite",
                 NOT_SYMMETRIC: "matrix is not symmetric within tolerance"}


def _swap(m):
    """Transpose of each matrix in a (..., n, n) stack (a view)."""
    return np.swapaxes(m, -1, -2)


def matrix_faults(m):
    """Validation code of each matrix in a (..., 6, 6) stack: 0 valid,
    NOT_FINITE, or NOT_SYMMETRIC (asymmetry beyond SYM_RTOL of the largest
    entry).  SpatialMatrix6 applies the same rule to one matrix."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not finite.all():
        m = np.where(finite[..., None, None], m, 0.0)
    scale = np.abs(m).max(axis=(-2, -1))
    asym = np.abs(m - _swap(m)).max(axis=(-2, -1))
    skew = (scale > 0) & (asym > SYM_RTOL * scale)
    return np.where(finite, np.where(skew, NOT_SYMMETRIC, 0), NOT_FINITE)


def matrix_error(fault):
    """The ValueError for a nonzero code of matrix_faults."""
    return ValueError(MATRIX_ERRORS[int(fault)])


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
            raise matrix_error(fault)
        object.__setattr__(self, "m", symmetrize(m))
        self.m.flags.writeable = False

    def entry(self, i, j):
        """1-based entry access, matching the usual matrix subscripts."""
        return float(self.m[i - 1, j - 1])


def rot_z(theta):
    """Rotation about z, orthonormal with determinant +1: 3x3 for one angle,
    (..., 3, 3) for an array of angles."""
    theta = np.asarray(theta, dtype=float)
    # math.cos/math.sin per angle: every caller gets the same rounding,
    # whatever numpy's vectorized versions do
    flat = theta.ravel().tolist()
    c = np.array([math.cos(t) for t in flat]).reshape(theta.shape)
    s = np.array([math.sin(t) for t in flat]).reshape(theta.shape)
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
    """Inverses of a (..., 6, 6) stack of finite matrices, with the 2-norm
    condition number of each and the mask of refused ones (condition number
    not finite or above COND_LIMIT).  A refused matrix is inverted as the
    identity, so one singular matrix leaves the rest of the stack intact."""
    cond = np.linalg.cond(m)
    refused = ~(cond <= COND_LIMIT)
    return np.linalg.inv(np.where(refused[..., None, None], np.eye(6), m)), cond, refused


def singular_error(kind, cond):
    """The refusal invert raises for a `kind` matrix of condition number `cond`."""
    return SingularMatrixError(f"{kind} matrix is numerically singular", cond)


def invert(m: SpatialMatrix6) -> SpatialMatrix6:
    """Inverse with the kind flipped; refuses badly conditioned input."""
    inv, cond, refused = invert_stack(m.m)
    if refused:
        raise singular_error(m.kind, cond)
    other = "stiffness" if m.kind == "compliance" else "compliance"
    return SpatialMatrix6(inv, other)
