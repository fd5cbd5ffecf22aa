"""Time-domain creep model, the 1-DOF vertical spring datum, and parametric
design sweeps over the mechanism geometry."""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from . import mechanism
from .elements import HINGE, HingeGeometry, table_compliances
from .errors import fault_error
from .mechanism import AXIS_ROW, Limb, Mechanism
from .spatial import FramePlacement, displacement_transports

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
LIMB_PARAMETERS = ("t", "r", "w", "angle")     # the ones that reshape limbs
# grid points per engine call: a batch's arrays are alive at once (the
# notch kernels of 1024 fresh hinge geometries take about 20 MB), so this
# bounds memory; results do not depend on it
SWEEP_BATCH = 1024


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
    """Reject an unknown sweep parameter or a range it cannot take."""
    if name not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {name!r}")
    if not float(n).is_integer():
        raise ValueError(f"grid count must be a whole number, got {n!r}")
    # a finite span keeps every grid value finite
    if n < 1 or not lo <= hi or not math.isfinite(hi - lo):
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
        for axis, target in (self.diag_stiffness_target or {}).items():
            check_stiffness_target(axis, target)
        targets = [*(self.diag_stiffness_target or {}).values(), self.rcc_height_target or 0.0]
        if not all(math.isfinite(v) for v in targets + list(self.weights.values())):
            raise ValueError("sweep targets and weights must be finite")

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

    def grid_values(self):
        """Deterministic grid iteration: one tuple of values per point, the
        product of the ranges in parameter insertion order."""
        return itertools.product(*(np.linspace(lo, hi, n).tolist()
                                   for lo, hi, n in self.parameters.values()))

    def grid(self):
        """The grid as one name -> value dict per point, in grid_values() order."""
        for values in self.grid_values():
            yield dict(zip(self.parameters, values))


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
    hinges, limbs, placed = {}, {}, []
    for limb, placement in template.limbs:
        if id(limb) not in limbs:
            limbs[id(limb)] = _limb_variant(limb, params, hinges)
        rx, ry, rz = placement.r
        if "y" in params and ry != 0.0:
            ry = math.copysign(params["y"], ry)
        if "z" in params and rz != 0.0:
            rz = math.copysign(params["z"], rz)
        placed.append((limbs[id(limb)], FramePlacement(placement.theta, (rx, ry, rz))))
    return Mechanism(tuple(placed), template.reference)


def _limb_variant(limb: Limb, params, hinges):
    """`limb` with the t/r/w/angle values of `params` substituted.  Each
    retuned hinge is kept in `hinges` under the template hinge's identity, so
    the limbs of one variant share it as the template limbs share theirs."""
    retune = {name: params[name] for name in ("t", "r", "w") if name in params}
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


@dataclass(frozen=True)
class _Compiled:
    """A template mechanism as the arrays a sweep edits."""

    table: np.ndarray           # GEOMETRY rows of its distinct geometries, beams first
    geom_of: np.ndarray         # (M,) table row of each member of its distinct limbs
    theta: np.ndarray           # (M,) member placement angles
    r: np.ndarray               # (M, 3) member displacements to the limb tip
    transports: np.ndarray      # (M, 6, 6) member displacement transports
    lengths: np.ndarray         # (D,) member count of each distinct limb
    limb_of: np.ndarray         # (S,) distinct limb of each limb slot
    slot_theta: np.ndarray      # (S,) limb slot placement angles
    slot_r: np.ndarray          # (S, 3) limb tip displacements to the reference point


def _compile(template: Mechanism) -> _Compiled:
    limb_of, table, geom_of, theta, r, lengths = mechanism._limb_members(
        [limb for limb, _ in template.limbs])
    # beams first, so the hinge rows a sweep copies are the table's tail
    order = np.argsort(table["kind"], kind="stable")
    return _Compiled(table[order], np.argsort(order)[geom_of], theta, r,
                     displacement_transports(theta, r), lengths, limb_of,
                     np.array([p.theta for _, p in template.limbs]),
                     np.array([p.r for _, p in template.limbs]))


def _limb_rows(template: _Compiled, columns, rows):
    """Tip compliances, fault codes and leg angles of the template's D
    distinct limbs under each of `rows` rows of t/r/w/angle values, row by
    row (`columns` maps each swept name to its (rows,) values): the edit
    apply_parameters makes with objects, made on the template's arrays.

    The checks the edited objects would run hold by SweepSpec's range
    checks (check_sweep_range): a t/r/w range starts above 0 and has a
    finite span, so every grid value is the finite positive dimension
    HingeGeometry requires; an angle range lies inside (0, 90) degrees, so
    a re-leaned member angle is finite and inside (-2 pi, 2 pi), where
    FramePlacement's normalization leaves it as it is.
    """
    table, geom_of, theta = template.table, template.geom_of, template.theta
    retune = [name for name in ("t", "r", "w") if name in columns]
    if retune:
        # every row retunes its own copy of the hinge rows, one per template
        # hinge as in apply_parameters; the beams are shared
        beams = int(np.count_nonzero(table["kind"] != HINGE))
        hinges = np.tile(table[beams:], rows)
        for name in retune:
            hinges[name] = np.repeat(columns[name], len(table) - beams)
        geom_of = geom_of + np.where(geom_of >= beams,
                                     np.arange(rows)[:, None] * (len(table) - beams), 0)
        table = np.concatenate([table[:beams], hinges])
    if "angle" in columns:
        # re-lean every rotated member, keeping its side
        theta = np.where(theta != 0.0, np.copysign(np.radians(columns["angle"])[:, None], theta),
                         theta)
        transports = displacement_transports(theta,
                                             np.broadcast_to(template.r, theta.shape + (3,)))
    else:
        transports = template.transports
    members = (rows, len(template.theta))      # (row, member) of every member
    lengths = np.tile(template.lengths, rows)
    elements, element_faults = table_compliances(table)
    c_limb, faults = mechanism._limb_stack(
        elements, element_faults, np.broadcast_to(geom_of, members).ravel(),
        np.broadcast_to(transports, members + (6, 6)).reshape(-1, 6, 6), lengths)
    return c_limb, faults, mechanism._run_sums(np.broadcast_to(theta, members).ravel(), lengths)[0]


def _evaluate(spec: SweepSpec, template: _Compiled, chunk):
    """SweepPoints of a sequence of grid value tuples, evaluated as array
    edits of the compiled template (see run_sweep) in one engine call."""
    names = list(spec.parameters)
    values = np.array(chunk)
    # the distinct rows of t/r/w/angle values; each reshapes the limbs once
    shaping = [j for j, name in enumerate(names) if name in LIMB_PARAMETERS]
    rows = {}
    row_of = np.array([rows.setdefault(tuple(v[j] for j in shaping), len(rows)) for v in chunk])
    columns = dict(zip([names[j] for j in shaping], np.array(list(rows)).reshape(len(rows), -1).T))
    c_limb, faults, leg = _limb_rows(template, columns, len(rows))
    slots = (row_of[:, None] * len(template.lengths) + template.limb_of).ravel()
    # y/z move every off-plane limb tip, keeping its side
    r = np.repeat(template.slot_r[None], len(chunk), axis=0)   # (N, S, 3)
    for axis, name in ((1, "y"), (2, "z")):
        if name in names:
            moved = r[0, :, axis] != 0.0
            r[:, moved, axis] = np.copysign(values[:, names.index(name), None],
                                            r[0, moved, axis])
    k, _, centers, faults, cond = mechanism._assemble(
        c_limb, faults, slots, np.tile(template.slot_theta, len(chunk)), r.reshape(-1, 3),
        [len(template.limb_of)] * len(chunk), leg[slots])
    keys = [tuple(zip(names, v)) for v in chunk]
    ok = faults == 0
    rcc = centers[ok, 0]
    k_diag = np.diagonal(k[ok], axis1=1, axis2=2)
    scores = np.broadcast_to(_score(spec.objective, rcc, k_diag), rcc.shape).tolist()
    points = [SweepPoint(keys[n], True, score, rcc_height=height, k_diag=tuple(diag))
              for n, score, height, diag in zip(np.flatnonzero(ok).tolist(), scores,
                                                 rcc.tolist(), k_diag.tolist())]
    return points + [SweepPoint(keys[n], False, math.inf, reason=str(fault_error(f, q)))
                     for n, f, q in zip(np.flatnonzero(~ok).tolist(), faults[~ok].tolist(),
                                        cond[~ok].tolist())]


def run_sweep(spec: SweepSpec, template: Mechanism):
    """Evaluate the full grid in batches of SWEEP_BATCH points and rank by
    score (infeasible points last, each with the reason its analysis failed).

    The template is compiled once into arrays (_Compiled): the geometry
    table of its distinct geometries, its members' table rows, placements
    and transports, and its limb slots' placements.  A grid point is then an
    edit of those arrays: each distinct row of t/r/w/angle values overwrites
    the r/t/w columns of a copy of the hinge rows and re-leans the rotated
    members, and y/z overwrite the slots' displacements.  No geometry,
    placement, limb or mechanism object is built, and each batch makes one
    notch_kernels call at most.
    """
    compiled = _compile(template)
    grid = spec.grid_values()
    points = []
    while chunk := list(itertools.islice(grid, SWEEP_BATCH)):
        points += _evaluate(spec, compiled, chunk)
    return sorted(points, key=SweepPoint.sort_key)
