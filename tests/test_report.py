"""Report formatting: units, assumptions, determinism, sweep table."""

import math

import numpy as np
from hypothesis import given, strategies as st

from flexmech.analysis import CreepFit, CreepModel, SweepObjective, SweepSpec, run_sweep
from flexmech.fixtures import load_small_rcc
from flexmech.mechanism import DirectionDeviation, RccResult, analyze
from flexmech.report import (C_UNIT_BLOCKS, K_UNIT_BLOCKS, MODEL_ASSUMPTIONS, AnalysisReport,
                             build_report, creep_report, human_report, machine_report,
                             sweep_table)
from flexmech.spatial import SpatialMatrix6


def report():
    parsed = load_small_rcc()
    return build_report(analyze(parsed.mechanism), parsed.measured)


def test_three_assumptions_always_printed():
    assert len(MODEL_ASSUMPTIONS) == 3
    text = human_report(build_report(analyze(load_small_rcc().mechanism)))
    for a in MODEL_ASSUMPTIONS:
        assert a in text


def test_unit_blocks_in_human_report():
    text = human_report(report())
    for unit in ("N/mm", "N/rad", "Nmm/mm", "Nmm/rad", "mm/N", "rad/Nmm"):
        assert unit in text


def test_machine_report_fixed_order_and_determinism():
    r = report()
    a, b = machine_report(r), machine_report(r)
    assert a == b
    keys = [line.split(" = ")[0] for line in a.strip().splitlines()]
    assert keys[0] == "k.1.1"
    assert keys[35] == "k.6.6"
    assert keys[36] == "c.1.1"
    assert keys == sorted(keys, key=keys.index)  # stable insertion order


def test_no_negative_zeros():
    assert "-0 " not in machine_report(report())
    assert " -0\n" not in machine_report(report())


def test_six_significant_digits():
    text = machine_report(report())
    value = dict(line.split(" = ") for line in text.strip().splitlines()
                 if line.startswith("k."))["k.2.6"]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 6


def test_sweep_table_shape():
    parsed = load_small_rcc()
    spec = SweepSpec({"t": (2.4, 3.2, 3)}, SweepObjective(rcc_height_target=28.6))
    table = sweep_table(run_sweep(spec, parsed.mechanism))
    rows = table.strip().splitlines()
    assert rows[0].split("\t")[:2] == ["rank", "t"]
    assert len(rows) == 4
    assert rows[1].split("\t")[0] == "1"


def test_sweep_table_prints_no_negative_zero():
    # linspace ends a y range on its stop value, here -0.0, which puts every
    # limb tip on the mid-plane: the row is infeasible, and its grid value
    # prints as 0, not -0
    spec = SweepSpec({"y": (-1.0, -0.0, 2)}, SweepObjective())
    result = run_sweep(spec, load_small_rcc().mechanism)
    assert [math.copysign(1.0, y) for y in result.params[:, 0]] == [-1.0, -1.0]
    rows = [row.split("\t") for row in sweep_table(result).splitlines()[1:]]
    assert [row[:3] for row in rows] == [["1", "-1", "yes"], ["2", "0", "no"]]


# one f-string per number: the oracle for the report templates
def _g6(x):
    return f"{x + 0.0:.6g}"  # + 0.0 scrubs negative zeros


def _matrix_lines(label, m):
    lines = [f"{label} ="]
    for row in m:
        lines.append("  " + "  ".join(f"{v + 0.0:>12.6g}" for v in row))
    return lines


def per_cell_human_report(report, show_rcc=True):
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


def per_cell_machine_report(report):
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


# finite floats of every magnitude, both zeros and the subnormals
ENTRIES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                     1.7976931348623157e308, 0.5, 9.9999995e-5, 999999.5]))
MATRICES = st.lists(ENTRIES, min_size=36, max_size=36).map(lambda v: np.array(v).reshape(6, 6))
CENTERS = st.one_of(ENTRIES, st.sampled_from([math.inf, -math.inf, math.nan]))


@st.composite
def deviations(draw):
    low = draw(ENTRIES)
    # one measured value, or a range
    high = draw(st.one_of(st.just(low), ENTRIES))
    dev_low = draw(ENTRIES)
    dev_high = draw(st.one_of(st.just(dev_low), ENTRIES))
    return DirectionDeviation(draw(st.sampled_from("xyz")), draw(ENTRIES), low, high,
                              dev_low, dev_high)


@given(k=MATRICES, c=MATRICES, centers=st.tuples(CENTERS, CENTERS, CENTERS),
       devs=st.lists(deviations(), max_size=3), show_rcc=st.booleans())
def test_templates_equal_per_cell_formatting(k, c, centers, devs, show_rcc):
    report = AnalysisReport(RccResult(SpatialMatrix6._checked(k, "stiffness"),
                                      SpatialMatrix6._checked(c, "compliance"), *centers),
                            tuple(devs))
    assert machine_report(report) == per_cell_machine_report(report)
    assert human_report(report, show_rcc) == per_cell_human_report(report, show_rcc)


def per_cell_creep_report(fit):
    lines = [
        f"creep.f0_n = {_g6(fit.model.f0)}",
        f"creep.f_ss_n = {_g6(fit.model.f_ss)}",
        f"creep.tau_s = {_g6(fit.model.tau)}",
        f"creep.residual_norm_n = {_g6(fit.residual_norm)}",
        f"creep.tau_identifiable = {'yes' if fit.tau_identifiable else 'no'}",
    ]
    return "\n".join(lines) + "\n"


POSITIVE = ENTRIES.map(abs)


@given(f0=POSITIVE, f_ss=POSITIVE, tau=POSITIVE.filter(lambda x: x > 0.0), residual=POSITIVE,
       identifiable=st.booleans())
def test_creep_template_equals_per_cell_formatting(f0, f_ss, tau, residual, identifiable):
    fit = CreepFit(CreepModel(f0, f_ss, tau), residual, identifiable)
    assert creep_report(fit) == per_cell_creep_report(fit)
