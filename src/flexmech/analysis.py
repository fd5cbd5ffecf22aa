"""Time-domain creep model and parametric design sweeps over the mechanism
geometry.

This module holds a sweep's spec, objective, scoring, ranking and columnar
result.  What each sweep parameter edits (mechanism.SWEEP_EDITS) and how a
grid is evaluated (mechanism.evaluate_grid, the engine's one sweep entry)
belong to the engine.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import fault_error
from .mechanism import AXIS_ROW, SWEEP_EDITS, Mechanism, check_edit_range, evaluate_grid

# the creep fit's log-tau grid runs from TAU_FAST of the first positive
# sample time to TAU_SLOW spans, both from the first sample, with points at
# most GRID_STEP apart and at most GRID_MAX of them; the REFINE lowest local
# minima on it are refined until a step moves log tau by at most STEP_TOL,
# which is then taken, or for at most REFINE_MAX_ITER steps; the grid is
# evaluated in chunks of at most GRID_CHUNK (tau, sample) pairs
TAU_FAST = 1.0 / 16.0
TAU_SLOW = 128.0
GRID_STEP = 0.3
GRID_MAX = 256
GRID_CHUNK = 1 << 16
REFINE = 3
STEP_TOL = 1e-8
REFINE_MAX_ITER = 60


@dataclass(frozen=True)
class CreepModel:
    """Single-exponential force relaxation: F(t) = F_ss + (F0 - F_ss) e^{-t/tau}."""

    f0: float        # N, force at t = 0
    f_ss: float      # N, steady-state force
    tau: float       # s, time constant

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"time constant must be positive, got {self.tau}")
        if not (0.0 <= self.f0 < math.inf and 0.0 <= self.f_ss < math.inf):
            raise ValueError("forces must be nonnegative")


def creep_force(model: CreepModel, t):
    """Force at time t >= 0 s; monotone from f0 toward f_ss."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be nonnegative")
    out = model.f_ss + (model.f0 - model.f_ss) * np.exp(-t / model.tau)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CreepFit:
    """Fit result: model, residual norm, and whether tau was identifiable."""

    model: CreepModel
    residual_norm: float
    tau_identifiable: bool


def _unit(x):
    """The power of two 2^(e-1) <= x < 2^e of a finite x > 0, and 1/2 for x = 0:
    dividing by it is exact and scales x into [1, 2)."""
    return math.ldexp(1.0, math.frexp(x)[1] - 1)


def _profile(u, s, yc):
    """The variable-projection profile phi(log tau) = min ||F_ss + A e^{-s/tau} - F||^2
    at one log time constant u, or at each of an array (k,) of them.

    F_ss and A solve the linear least squares in closed form; yc is F with
    its mean taken out, so F_ss = mean(F) - A * mean(e^{-s/tau}).  Returns
    phi, A, the mean decay, phi'/2 and a positive curvature for the step
    -(phi'/2) / curvature: phi''/2 where that is positive (a Newton step),
    else Kaufman's Gauss-Newton term (the model's derivative projected off
    the basis {1, e^{-s/tau}}, squared), which is zero only where the model
    does not move with tau.
    """
    mean = np.full(len(s), 1.0 / len(s))
    rate = s * np.exp(-u)[..., None]
    decay = np.exp(-rate)
    dbar = decay @ mean
    dc = decay - dbar[..., None]
    dd = np.vecdot(dc, dc)
    a = (dc @ yc) / dd
    r = a[..., None] * dc - yc
    # g = d e^{-s/tau} / d log tau; r is orthogonal to 1 and to e^{-s/tau},
    # so only g's centred part and the curvature's h = dg / d log tau remain
    g = decay * rate
    gr = np.vecdot(g, r)
    hr = np.vecdot(g * (rate - 1.0), r)
    g -= (g @ mean)[..., None]
    gdc = np.vecdot(g, dc)
    kaufman = a * a * (np.vecdot(g, g) - gdc * gdc / dd)
    newton = kaufman - (2.0 * a * gdc * gr + gr * gr) / dd + a * hr
    return np.vecdot(r, r), a, dbar, a * gr, np.where(newton > 0.0, newton, kaufman)


def fit_creep(samples) -> CreepFit:
    """Least-squares fit of the exponential relaxation to (time, force) samples
    by variable projection.

    For a fixed tau, F_ss and A = F0 - F_ss solve a two-column linear least
    squares in closed form, which leaves a 1-D profile over log tau
    (_profile).  The profile is evaluated on a log grid (TAU_FAST, TAU_SLOW);
    its REFINE lowest local minima are refined by Newton steps, Gauss-Newton
    ones where the profile is not convex, each kept inside the grid cells
    next to its minimum and halved when it does not lower the profile; the
    lowest result is the fit.  Forces are fitted in units of a power of two
    near max F and times from the first sample in units of a power of two
    near the span, so the fit scales exactly with either; F0 is then mapped
    back to t = 0.  tau is unidentifiable when the minimum lies on the
    grid's edge, when a fitted force below zero is clamped to zero, when the
    samples have fewer than three distinct times and when the forces are
    constant.  The residual norm is always that of the returned model.
    """
    pts = np.array(list(samples), dtype=float)
    if len(pts) < 4:
        raise ValueError(f"need at least 4 samples, got {len(pts)}")
    if pts.shape[1:] != (2,):
        raise ValueError("samples must be (time, force) pairs")
    if not np.isfinite(pts).all():
        raise ValueError("samples must be finite")
    t, f = pts[np.argsort(pts[:, 0], kind="stable")].T
    f_min, f_max = f.min(), f.max()
    if f_min < 0.0:
        raise ValueError("forces must be nonnegative")
    span = float(t[-1]) - float(t[0])
    if not math.isfinite(span):
        raise ValueError("sample times span more than the largest float")

    f_unit = _unit(f_max)
    y = f / f_unit
    ybar = float(y.sum()) / len(y)
    if span == 0.0 or f_max - f_min <= 1e-12 * f_max:
        mean = float(ybar * f_unit)
        return CreepFit(CreepModel(mean, mean, 1.0),
                        math.sqrt((y - ybar) @ (y - ybar)) * f_unit, False)

    t_unit = _unit(span)
    s = (t - t[0]) / t_unit
    # the floor keeps s / tau finite
    lo = math.log(max(s[s > 0.0][0] * TAU_FAST, s[-1] * 1e-300))
    hi = math.log(s[-1] * TAU_SLOW)
    m = min(GRID_MAX, math.ceil((hi - lo) / GRID_STEP) + 1)
    u = lo + np.arange(m) * ((hi - lo) / (m - 1))
    yc = y - ybar
    # a chunk of grid rows holds at most GRID_CHUNK values per temporary,
    # however long the trace
    rows = max(1, GRID_CHUNK // len(s))
    phi, _, _, grad, curv = (np.concatenate(c) for c in zip(
        *(_profile(u[i:i + rows], s, yc) for i in range(0, m, rows))))

    # refine the REFINE lowest local minima of the grid, each inside its
    # neighbouring cells (an edge point inside its one cell): a trial that
    # lowers the profile is kept, a step that does not is halved
    walled = np.concatenate(([np.inf], phi, [np.inf]))
    k = np.flatnonzero((phi < walled[:-2]) & (phi <= walled[2:]))
    found = []
    for j in k[np.argsort(phi[k], kind="stable")[:REFINE]].tolist():
        left, right = u[max(j - 1, 0)], u[min(j + 1, len(u) - 1)]
        x, phi_x = u[j], phi[j]
        dx = -grad[j] / curv[j] if curv[j] > 0.0 else 0.0
        for _ in range(REFINE_MAX_ITER):
            trial = min(max(x + dx, left), right)
            if abs(trial - x) <= STEP_TOL:
                # a Newton step this short leaves an error of about its
                # square: take it
                x = trial
                break
            phi_t, _, _, grad_t, curv_t = _profile(trial, s, yc)
            if phi_t <= phi_x:
                x, phi_x = trial, phi_t
                dx = -grad_t / curv_t if curv_t > 0.0 else 0.0
            else:
                dx = 0.5 * (trial - x)
        found.append((phi_x, x))

    x = min(found)[1]
    _, a_x, dbar_x, _, _ = _profile(x, s, yc)
    tau = math.exp(x) * t_unit
    # Python floats, whose products overflow to inf without a warning
    a_x = float(a_x)
    f_ss = ybar - a_x * float(dbar_x)
    try:
        f0 = f_ss + a_x * math.exp(t[0] / tau)
    except OverflowError:
        f0 = math.inf
    if not math.isfinite(f0 * f_unit):
        raise ValueError("the fitted force at t = 0 overflows; measure times from "
                         "the start of the relaxation")
    identifiable = bool(u[0] < x < u[-1] and f0 >= 0.0 and f_ss >= 0.0
                        and np.count_nonzero(s[1:] != s[:-1]) >= 2)
    f0, f_ss = max(f0, 0.0), max(f_ss, 0.0)
    resid = f_ss + (f0 - f_ss) * np.exp(-t / tau) - y
    return CreepFit(CreepModel(float(f0 * f_unit), float(f_ss * f_unit), tau),
                    math.sqrt(resid @ resid) * f_unit, identifiable)


# ---------------------------------------------------------------------------
# parametric sweeps

SWEEP_PARAMETERS = tuple(SWEEP_EDITS)
WEIGHT_TERMS = ("rcc", "ratio", "diag")          # the objective's terms, as _score names them


def check_stiffness_axis(axis):
    """Reject a diagonal-stiffness target axis that is not in AXIS_ROW."""
    if axis not in AXIS_ROW:
        raise ValueError(f"unknown stiffness axis {axis!r}; "
                         f"expected one of {', '.join(AXIS_ROW)}")


def check_stiffness_target(axis, target):
    """Reject a diagonal-stiffness target the score cannot divide by: one on
    an axis not in AXIS_ROW, or a zero one."""
    check_stiffness_axis(axis)
    if target == 0.0:
        raise ValueError(f"stiffness target for axis {axis!r} must be nonzero")


def check_sweep_range(name, lo, hi, n):
    """Reject an unknown sweep parameter or a range it cannot take: a
    fractional or nonpositive count or an empty or infinite span here, and
    a range the parameter's edit cannot take in mechanism.check_edit_range."""
    if name not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {name!r}")
    if not float(n).is_integer():
        raise ValueError(f"grid count must be a whole number, got {n!r}")
    # a finite span keeps every grid value finite
    if n < 1 or not lo <= hi or not math.isfinite(hi - lo):
        raise ValueError(f"bad range for {name!r}: ({lo}, {hi}, {n})")
    check_edit_range(name, lo, hi)


@dataclass(frozen=True)
class SweepObjective:
    """Weighted-sum objective; lower scores rank better.  The targets and
    weights are checked once and kept as read-only copies."""

    rcc_height_target: float | None = None          # mm
    stiffness_ratio_max: bool = False
    diag_stiffness_target: Mapping = None           # axis -> N/mm target
    weights: Mapping = field(default_factory=dict)  # term name -> weight

    def __post_init__(self):
        if self.diag_stiffness_target is not None:
            object.__setattr__(self, "diag_stiffness_target",
                               MappingProxyType(dict(self.diag_stiffness_target)))
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))
        for name in self.weights:
            if name not in WEIGHT_TERMS:
                raise ValueError(f"unknown weight term {name!r}; "
                                 f"expected one of {', '.join(WEIGHT_TERMS)}")
        for axis, target in (self.diag_stiffness_target or {}).items():
            check_stiffness_target(axis, target)
        targets = [*(self.diag_stiffness_target or {}).values(), self.rcc_height_target or 0.0]
        if not all(math.isfinite(v) for v in targets + list(self.weights.values())):
            raise ValueError("sweep targets and weights must be finite")
        # a weight for a term with no objective would be ignored by _score
        scored = {"rcc": self.rcc_height_target is not None, "ratio": self.stiffness_ratio_max,
                  "diag": bool(self.diag_stiffness_target)}
        for name in self.weights:
            if not scored[name]:
                raise ValueError(f"weight for term {name!r}, which has no objective")

    def weight(self, name):
        return float(self.weights.get(name, 1.0))


@dataclass(frozen=True)
class SweepSpec:
    """Named parameter ranges (lo, hi, npoints) plus the objective.  The
    ranges are checked once and kept as a read-only copy."""

    parameters: Mapping
    objective: SweepObjective

    def __post_init__(self):
        if not self.parameters:
            raise ValueError("sweep needs at least one parameter range")
        for name, (lo, hi, n) in self.parameters.items():
            check_sweep_range(name, lo, hi, n)
        object.__setattr__(self, "parameters", MappingProxyType(
            {name: (lo, hi, int(n)) for name, (lo, hi, n) in self.parameters.items()}))

    def levels(self):
        """The (n,) level values of each parameter, in insertion order; the
        grid is their product (mechanism.evaluate_grid)."""
        return {name: np.linspace(lo, hi, n) for name, (lo, hi, n) in self.parameters.items()}


@dataclass(frozen=True)
class SweepPoint:
    """One ranked grid point as a row (SweepResult.points)."""

    params: tuple             # ((name, value), ...) in spec order
    feasible: bool
    score: float
    rcc_height: float = math.nan
    k_diag: tuple = ()
    reason: str = ""


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A ranked sweep as columns, one row per grid point: feasible rows by
    score, then the infeasible ones, ties by the grid values in spec order."""

    names: tuple              # swept parameter names, in spec order
    params: np.ndarray        # (N, P) grid values
    feasible: np.ndarray      # (N,) bool: fault code 0
    score: np.ndarray         # (N,) objective, lower is better; inf where infeasible
    rcc_height: np.ndarray    # (N,) mm; NaN where infeasible
    k_diag: np.ndarray        # (N, 6) diagonal of K; NaN where infeasible
    fault: np.ndarray         # (N,) errors.FAULTS code, 0 where feasible
    cond: np.ndarray          # (N,) condition number of a refused inversion, NaN if none

    def __len__(self):
        return len(self.score)

    def points(self):
        """The rows as SweepPoints, best first.  An infeasible row's reason
        is the message of the exception analyze raises for its design."""
        keys = [tuple(zip(self.names, row)) for row in self.params.tolist()]
        return [SweepPoint(key, True, score, height, tuple(diag)) if ok else
                SweepPoint(key, False, math.inf, reason=str(fault_error(f, q)))
                for key, ok, score, height, diag, f, q in zip(
                    keys, self.feasible.tolist(), self.score.tolist(),
                    self.rcc_height.tolist(), self.k_diag.tolist(), self.fault.tolist(),
                    self.cond.tolist())]


def _score(objective: SweepObjective, rcc_height, k_diag):
    """Objective of one point, or of N points from (N,) rcc heights and
    (N, 6) stiffness diagonals (elementwise, so both round alike)."""
    score = 0.0
    if objective.rcc_height_target is not None:
        score += objective.weight("rcc") * abs(rcc_height - objective.rcc_height_target)
    if objective.stiffness_ratio_max:
        ratio = k_diag[..., :3].max(axis=-1) / k_diag[..., :3].min(axis=-1)
        score -= objective.weight("ratio") * ratio
    if objective.diag_stiffness_target:
        term = 0.0
        for axis, target in objective.diag_stiffness_target.items():
            term += abs(k_diag[..., AXIS_ROW[axis]] - target) / abs(target)
        score += objective.weight("diag") * term
    return score


def _ranking(params, score, feasible):
    """The ranked row order (infeasible last, then score, then the grid
    values in spec order) as one stable lexsort."""
    return np.lexsort((*params.T[::-1], score, ~feasible))


def run_sweep(spec: SweepSpec, template: Mechanism) -> SweepResult:
    """Evaluate the full grid and rank by score (infeasible points last, each
    with the fault its analysis met).

    The engine evaluates the grid (mechanism.evaluate_grid): it compiles the
    template once and makes each point an edit of its arrays, so no
    geometry, placement, limb or mechanism object is built, each batch makes
    one notch_kernels call at most, and the results stay columns.
    """
    grid, k, centers, fault, cond = evaluate_grid(template, spec.levels())
    feasible = fault == 0
    rcc = np.where(feasible, centers[:, 0], np.nan)
    k_diag = np.where(feasible[:, None], np.diagonal(k, axis1=1, axis2=2), np.nan)
    score = np.full(len(grid), np.inf)
    score[feasible] = _score(spec.objective, rcc[feasible], k_diag[feasible])
    order = _ranking(grid, score, feasible)
    return SweepResult(tuple(spec.parameters), grid[order], feasible[order], score[order],
                       rcc[order], k_diag[order], fault[order], cond[order])
