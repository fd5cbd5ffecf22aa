"""Report formatting: units, assumptions, determinism, sweep table."""

import math

from flexmech.analysis import SweepObjective, SweepSpec, run_sweep
from flexmech.fixtures import load_small_rcc
from flexmech.mechanism import analyze
from flexmech.report import (MODEL_ASSUMPTIONS, build_report, human_report,
                             machine_report, sweep_table)


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
