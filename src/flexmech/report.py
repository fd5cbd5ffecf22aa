"""Human-readable and machine-readable analysis reports.

Machine output is a flat ``key = value`` document with fixed key order and
6-significant-digit numbers, so identical inputs diff clean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mechanism import RccResult, deviation_report

# block units of a stiffness matrix in the (N, mm, rad) system
K_UNIT_BLOCKS = (
    ("K11..K33", "N/mm"),
    ("K14..K36", "N/rad"),
    ("K41..K63", "Nmm/mm"),
    ("K44..K66", "Nmm/rad"),
)
C_UNIT_BLOCKS = (
    ("C11..C33", "mm/N"),
    ("C14..C36", "mm/Nmm"),
    ("C41..C63", "rad/N"),
    ("C44..C66", "rad/Nmm"),
)

MODEL_ASSUMPTIONS = (
    "isotropic material (shear modulus derived from E and Poisson's ratio)",
    "rigid platform connecting the limb tips",
    "small deflections (linear kinematics)",
)


@dataclass(frozen=True)
class AnalysisReport:
    """Analysis result plus the measured-data deviations, if any."""

    result: RccResult
    deviations: tuple = ()


def build_report(result: RccResult, measured=None) -> AnalysisReport:
    devs = tuple(deviation_report(result.k, measured)) if measured else ()
    return AnalysisReport(result, devs)


def _g6(x):
    return f"{x + 0.0:.6g}"  # + 0.0 scrubs negative zeros


def _matrix_lines(label, m):
    lines = [f"{label} ="]
    for row in m:
        lines.append("  " + "  ".join(f"{v + 0.0:>12.6g}" for v in row))
    return lines


def human_report(report: AnalysisReport, show_rcc=True):
    res = report.result
    lines = []
    lines.append("stiffness matrix, units per block: "
                 + ", ".join(f"{rng} {unit}" for rng, unit in K_UNIT_BLOCKS))
    lines.extend(_matrix_lines("K", res.k.m))
    lines.append("compliance matrix, units per block: "
                 + ", ".join(f"{rng} {unit}" for rng, unit in C_UNIT_BLOCKS))
    lines.extend(_matrix_lines("C", res.c.m))
    if show_rcc:
        lines.append(f"center of compliance: {_g6(res.rcc_height)} mm above reference")
        lines.append(f"ideal four-bar center: {_g6(res.ideal_center)} mm above reference")
        lines.append(f"rotational precision: {_g6(res.rotational_precision)} mm")
    if report.deviations:
        lines.append("deviation from measured directional stiffness:")
        for d in report.deviations:
            rng = (_g6(d.measured_low) if d.measured_low == d.measured_high
                   else f"{_g6(d.measured_low)}-{_g6(d.measured_high)}")
            lines.append(f"  {d.axis}: analytic {_g6(d.analytic)} N/mm, measured {rng} N/mm"
                         f" -> deviation {_g6(100 * d.deviation_low)}%"
                         + ("" if d.deviation_low == d.deviation_high
                            else f" to {_g6(100 * d.deviation_high)}%"))
    lines.append("model assumptions:")
    for a in MODEL_ASSUMPTIONS:
        lines.append(f"  - {a}")
    return "\n".join(lines) + "\n"


def machine_report(report: AnalysisReport):
    """Flat key-path/value text document with fixed key ordering."""
    res = report.result
    lines = []
    for label, m in (("k", res.k.m), ("c", res.c.m)):
        for i in range(6):
            for j in range(6):
                lines.append(f"{label}.{i + 1}.{j + 1} = {_g6(m[i, j])}")
    lines.append(f"rcc.height_mm = {_g6(res.rcc_height)}")
    lines.append(f"rcc.ideal_center_mm = {_g6(res.ideal_center)}")
    lines.append(f"rcc.rotational_precision_mm = {_g6(res.rotational_precision)}")
    for d in report.deviations:
        lines.append(f"deviation.{d.axis}.analytic_n_per_mm = {_g6(d.analytic)}")
        lines.append(f"deviation.{d.axis}.measured_low_n_per_mm = {_g6(d.measured_low)}")
        lines.append(f"deviation.{d.axis}.measured_high_n_per_mm = {_g6(d.measured_high)}")
        lines.append(f"deviation.{d.axis}.relative_low = {_g6(d.deviation_low)}")
        lines.append(f"deviation.{d.axis}.relative_high = {_g6(d.deviation_high)}")
    for idx, a in enumerate(MODEL_ASSUMPTIONS, start=1):
        lines.append(f"assumption.{idx} = {a}")
    return "\n".join(lines) + "\n"


def sweep_table(result):
    """Delimited ranked sweep table of a SweepResult; one row per grid point,
    formatted with one %-format string per row kind."""
    names = result.names
    header = "\t".join(["rank", *names, "feasible", "score", "rcc_height_mm",
                        "k11", "k22", "k33", "k44", "k55", "k66"])
    params = "\t".join(["%d"] + ["%.6g"] * len(names))
    feasible = params + "\tyes" + "\t%.6g" * 8
    # an infeasible row takes the same cells and prints none of its numbers
    infeasible = params + "\tno\tinf\t-" + "\t-" * 6 + "%.0s" * 8
    # + 0.0 scrubs negative zeros
    cells = np.column_stack([np.arange(1, len(result) + 1), result.params, result.score,
                             result.rcc_height, result.k_diag]) + 0.0
    rows = "\n".join([feasible if ok else infeasible for ok in result.feasible.tolist()])
    return "\n".join([header, rows % tuple(cells.ravel().tolist())]) + "\n"


def creep_report(fit):
    lines = [
        f"creep.f0_n = {_g6(fit.model.f0)}",
        f"creep.f_ss_n = {_g6(fit.model.f_ss)}",
        f"creep.tau_s = {_g6(fit.model.tau)}",
        f"creep.residual_norm_n = {_g6(fit.residual_norm)}",
        f"creep.tau_identifiable = {'yes' if fit.tau_identifiable else 'no'}",
    ]
    return "\n".join(lines) + "\n"
