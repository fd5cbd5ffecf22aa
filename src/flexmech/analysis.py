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

GN_TOL = 1e-9          # parameter convergence tolerance of the creep fit
GN_MAX_ITER = 200


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


def fit_creep(samples) -> CreepFit:
    """Least-squares fit of the exponential relaxation to (time, force) samples.

    Log-linearized initialization followed by damped Gauss-Newton; constant
    force traces are flagged tau-unidentifiable instead of failing.
    """
    pts = sorted((float(t), float(f)) for t, f in samples)
    if len(pts) < 4:
        raise ValueError(f"need at least 4 samples, got {len(pts)}")
    t = np.array([p[0] for p in pts])
    f = np.array([p[1] for p in pts])
    if not (np.isfinite(t).all() and np.isfinite(f).all()):
        raise ValueError("samples must be finite")
    if np.any(f < 0.0):
        raise ValueError("forces must be nonnegative")

    span = f.max() - f.min()
    scale = max(abs(f).max(), 1.0)
    if span < 1e-12 * scale:
        mean = float(f.mean())
        return CreepFit(CreepModel(mean, mean, 1.0), float(np.linalg.norm(f - mean)), False)

    # init: take the last sample as a steady-state guess, shifted slightly so
    # the log of the remaining decay is defined everywhere, then regress
    # log|f - f_ss| against t
    sign = 1.0 if f[0] >= f[-1] else -1.0
    fss0 = f[-1] - sign * 0.05 * span
    resid0 = sign * (f - fss0)
    mask = resid0 > 1e-12 * scale
    if mask.sum() >= 2:
        slope, intercept = np.polyfit(t[mask], np.log(resid0[mask]), 1)
        tau = -1.0 / slope if slope < 0 else (t[-1] - t[0])
        f0 = fss0 + sign * math.exp(intercept)
    else:
        # noise-dominated trace; crude init, Gauss-Newton does the rest
        tau = max(t[-1] - t[0], 1.0)
        f0 = f[0]
    p = np.array([f0, fss0, max(tau, 1e-9)])

    def residuals(p):
        f0, fss, tau = p
        decay = np.exp(-t / tau)
        return fss + (f0 - fss) * decay - f

    r = residuals(p)
    cost = float(r @ r)
    for _ in range(GN_MAX_ITER):
        f0, fss, tau = p
        decay = np.exp(-t / tau)
        jac = np.column_stack([decay, 1.0 - decay, (f0 - fss) * (t / tau**2) * decay])
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        # halving line search; keeps tau positive
        lam = 1.0
        for _ in range(40):
            trial = p + lam * step
            if trial[2] > 0.0:
                r_trial = residuals(trial)
                cost_trial = float(r_trial @ r_trial)
                if cost_trial <= cost:
                    break
            lam *= 0.5
        else:
            break
        moved = np.abs(lam * step) / np.maximum(np.abs(p), 1.0)
        p, r, cost = trial, r_trial, cost_trial
        if moved.max() < GN_TOL:
            break

    model = CreepModel(max(p[0], 0.0), max(p[1], 0.0), p[2])
    return CreepFit(model, math.sqrt(cost), True)


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
