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


# every number prints with 6 significant digits; the values are formatted
# + 0.0, which scrubs negative zeros
_MATRIX_ROW = "  " + "  ".join(["%12.6g"] * 6)
_HUMAN_MATRICES = "\n".join(
    [f"stiffness matrix, units per block: {', '.join(f'{r} {u}' for r, u in K_UNIT_BLOCKS)}",
     "K =", *[_MATRIX_ROW] * 6,
     f"compliance matrix, units per block: {', '.join(f'{r} {u}' for r, u in C_UNIT_BLOCKS)}",
     "C =", *[_MATRIX_ROW] * 6, ""])
_HUMAN_RCC = ("center of compliance: %.6g mm above reference\n"
              "ideal four-bar center: %.6g mm above reference\n"
              "rotational precision: %.6g mm\n")
_HUMAN_ASSUMPTIONS = "model assumptions:\n" + "".join(f"  - {a}\n" for a in MODEL_ASSUMPTIONS)
_MACHINE = "".join([f"{label}.{i}.{j} = %.6g\n" for label in "kc" for i in range(1, 7)
                    for j in range(1, 7)] + ["rcc.height_mm = %.6g\n",
                                             "rcc.ideal_center_mm = %.6g\n",
                                             "rcc.rotational_precision_mm = %.6g\n"])
_MACHINE_DEVIATION = "".join(f"deviation.%s.{key} = %.6g\n" for key in (
    "analytic_n_per_mm", "measured_low_n_per_mm", "measured_high_n_per_mm", "relative_low",
    "relative_high"))
_MACHINE_ASSUMPTIONS = "".join(f"assumption.{i} = {a}\n"
                               for i, a in enumerate(MODEL_ASSUMPTIONS, start=1))


def _values(result: RccResult):
    """K and C row by row, then rcc height, ideal center and rotational
    precision, as the floats the report templates format."""
    return (np.concatenate([result.k.m.ravel(), result.c.m.ravel(),
                            [result.rcc_height, result.ideal_center,
                             result.rotational_precision]]) + 0.0).tolist()


def human_report(report: AnalysisReport, show_rcc=True):
    values = tuple(_values(report.result))
    text = (_HUMAN_MATRICES + _HUMAN_RCC) % values if show_rcc else _HUMAN_MATRICES % values[:72]
    if report.deviations:
        text += "deviation from measured directional stiffness:\n"
        for d in report.deviations:
            measured = ("%.6g" % (d.measured_low + 0.0) if d.measured_low == d.measured_high
                        else "%.6g-%.6g" % (d.measured_low + 0.0, d.measured_high + 0.0))
            to = ("" if d.deviation_low == d.deviation_high
                  else " to %.6g%%" % (100 * d.deviation_high + 0.0))
            text += "  %s: analytic %.6g N/mm, measured %s N/mm -> deviation %.6g%%%s\n" % (
                d.axis, d.analytic + 0.0, measured, 100 * d.deviation_low + 0.0, to)
    return text + _HUMAN_ASSUMPTIONS


def machine_report(report: AnalysisReport):
    """Flat key-path/value text document with fixed key ordering."""
    text = _MACHINE % tuple(_values(report.result))
    for d in report.deviations:
        text += _MACHINE_DEVIATION % (
            d.axis, d.analytic + 0.0, d.axis, d.measured_low + 0.0, d.axis,
            d.measured_high + 0.0, d.axis, d.deviation_low + 0.0, d.axis, d.deviation_high + 0.0)
    return text + _MACHINE_ASSUMPTIONS


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
    return ("creep.f0_n = %.6g\ncreep.f_ss_n = %.6g\ncreep.tau_s = %.6g\n"
            "creep.residual_norm_n = %.6g\ncreep.tau_identifiable = %s\n") % (
        fit.model.f0 + 0.0, fit.model.f_ss + 0.0, fit.model.tau + 0.0, fit.residual_norm + 0.0,
        "yes" if fit.tau_identifiable else "no")
