"""Time-domain creep model, the 1-DOF vertical spring datum, and parametric
design sweeps over the mechanism geometry."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .elements import HingeGeometry
from .errors import FlexmechError
from .mechanism import AXIS_ROW, Limb, Mechanism, _analyze_stacks
from .spatial import FramePlacement

GN_TOL = 1e-9          # parameter convergence tolerance of the creep fit
GN_MAX_ITER = 200


@dataclass(frozen=True)
class CreepModel:
    """Single-exponential force relaxation: F(t) = F_ss + (F0 - F_ss) e^{-t/tau}."""

    f0: float        # N, force at t = 0
    f_ss: float      # N, steady-state force
    tau: float       # s, time constant

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError(f"time constant must be positive, got {self.tau}")
        if self.f0 < 0.0 or self.f_ss < 0.0:
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


@dataclass(frozen=True)
class VerticalComplianceDatum:
    """Viscoelastic vertical table modeled as a single z-direction spring."""

    stiffness_z: float    # N/mm
    lockable: bool = True

    def __post_init__(self):
        if self.stiffness_z <= 0.0:
            raise ValueError("vertical stiffness must be positive")


# ---------------------------------------------------------------------------
# parametric sweeps

SWEEP_PARAMETERS = ("t", "r", "w", "angle", "y", "z")
# grid points per engine call: a batch's variants and the limb variants they
# share are alive at once, so this bounds memory; results do not depend on it
SWEEP_BATCH = 4096


def check_stiffness_axis(axis):
    """Reject a diagonal-stiffness target axis that is not in AXIS_ROW."""
    if axis not in AXIS_ROW:
        raise ValueError(f"unknown stiffness axis {axis!r}; "
                         f"expected one of {', '.join(AXIS_ROW)}")


def check_sweep_range(name, lo, hi, n):
    """Reject an unknown sweep parameter or a range it cannot take."""
    if name not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {name!r}")
    if n < 1 or lo > hi:
        raise ValueError(f"bad range for {name!r}: ({lo}, {hi}, {n})")
    if name in ("t", "r", "w") and lo <= 0.0:
        raise ValueError(f"{name!r} range must stay positive")
    if name == "angle" and not (0.0 < lo <= hi < 90.0):
        raise ValueError("leg angle range must lie inside (0, 90) degrees")


@dataclass(frozen=True)
class SweepObjective:
    """Weighted-sum objective; lower scores rank better."""

    rcc_height_target: float | None = None          # mm
    stiffness_ratio_max: bool = False
    diag_stiffness_target: dict = None              # axis -> N/mm target
    weights: dict = field(default_factory=dict)     # term name -> weight

    def __post_init__(self):
        for axis in self.diag_stiffness_target or {}:
            check_stiffness_axis(axis)

    def weight(self, name):
        return float(self.weights.get(name, 1.0))


@dataclass(frozen=True)
class SweepSpec:
    """Named parameter ranges (lo, hi, npoints) plus the objective."""

    parameters: dict
    objective: SweepObjective

    def __post_init__(self):
        if not self.parameters:
            raise ValueError("sweep needs at least one parameter range")
        for name, (lo, hi, n) in self.parameters.items():
            check_sweep_range(name, lo, hi, n)

    def grid(self):
        """Deterministic grid iteration: product in parameter insertion order."""
        names = list(self.parameters)
        axes = [np.linspace(lo, hi, n) for lo, hi, n in self.parameters.values()]
        for values in itertools.product(*axes):
            yield dict(zip(names, (float(v) for v in values)))


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated grid point, ready for ranking and tabulation."""

    params: tuple             # ((name, value), ...) in spec order
    feasible: bool
    score: float
    rcc_height: float = math.nan
    k_diag: tuple = ()
    reason: str = ""

    def sort_key(self):
        return (not self.feasible, self.score, tuple(v for _, v in self.params))


def apply_parameters(template: Mechanism, params) -> Mechanism:
    """Template mechanism with named parameters substituted.

    t/r/w retune every hinge, angle re-leans every rotated member
    (sign-preserving, degrees), y/z move the limb tip placements
    (sign-preserving).  Objects the template shares (a limb placed twice,
    a hinge used by several members) stay shared in the variant.
    """
    return _variant(template, params, {})


def _variant(template: Mechanism, params, limbs):
    """apply_parameters keeping the limbs it makes in a table keyed by template
    limb and the parameter values that shape it; a sweep batch passes the same
    table for every point, sharing its limb variants."""
    retune = {name: params[name] for name in ("t", "r", "w") if name in params}
    hinges = {}

    def variant_limb(limb):
        members = []
        for geom, mp in limb.members:
            if retune and isinstance(geom, HingeGeometry):
                if id(geom) not in hinges:
                    hinges[id(geom)] = replace(geom, **retune)
                geom = hinges[id(geom)]
            if "angle" in params and abs(mp.theta) > 0.0:
                mp = FramePlacement(math.copysign(math.radians(params["angle"]), mp.theta), mp.r)
            members.append((geom, mp))
        return Limb(limb.name, tuple(members))

    placed = []
    for limb, placement in template.limbs:
        key = (id(limb), *retune.items(), params.get("angle"))
        if key not in limbs:
            limbs[key] = variant_limb(limb)
        rx, ry, rz = placement.r
        if "y" in params and ry != 0.0:
            ry = math.copysign(params["y"], ry)
        if "z" in params and rz != 0.0:
            rz = math.copysign(params["z"], rz)
        placed.append((limbs[key], FramePlacement(placement.theta, (rx, ry, rz))))
    return Mechanism(tuple(placed), template.reference)


def _score(objective: SweepObjective, rcc_height, k_diag):
    score = 0.0
    if objective.rcc_height_target is not None:
        score += objective.weight("rcc") * abs(rcc_height - objective.rcc_height_target)
    if objective.stiffness_ratio_max:
        ratio = k_diag[:3].max() / k_diag[:3].min()
        score -= objective.weight("ratio") * ratio
    if objective.diag_stiffness_target:
        term = 0.0
        for axis, target in objective.diag_stiffness_target.items():
            term += abs(k_diag[AXIS_ROW[axis]] - target) / abs(target)
        score += objective.weight("diag") * term
    return score


def _evaluate(spec: SweepSpec, template: Mechanism, grid):
    """SweepPoints of a sequence of grid points, analyzed as one batch and
    scored from the engine's arrays."""
    limbs = {}
    points, keys, variants = [], [], []
    for params in grid:
        key = tuple(params.items())
        try:
            variants.append(_variant(template, params, limbs))
        except (ValueError, FlexmechError) as exc:
            points.append(SweepPoint(key, False, math.inf, reason=str(exc)))
            continue
        keys.append(key)
    k, _, outcomes = _analyze_stacks(variants)
    for key, k_diag, outcome in zip(keys, np.diagonal(k, axis1=1, axis2=2), outcomes):
        if isinstance(outcome, Exception):
            points.append(SweepPoint(key, False, math.inf, reason=str(outcome)))
        else:
            points.append(SweepPoint(key, True, _score(spec.objective, outcome[0], k_diag),
                                     rcc_height=outcome[0], k_diag=tuple(k_diag.tolist())))
    return points


def run_sweep(spec: SweepSpec, template: Mechanism):
    """Evaluate the full grid in batches of SWEEP_BATCH points and rank by
    score (infeasible points last, each with the reason its analysis failed)."""
    grid = spec.grid()
    points = []
    while chunk := list(itertools.islice(grid, SWEEP_BATCH)):
        points += _evaluate(spec, template, chunk)
    return sorted(points, key=SweepPoint.sort_key)
