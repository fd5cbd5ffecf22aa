"""Length-scale invariance: a uniformly scaled design (E unchanged) is the
same design, so dimensionless results must not move and nothing may fail."""

import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from flexmech.cli import main
from flexmech.elements import HingeGeometry
from flexmech.fixtures import data_path, load_small_rcc
from flexmech.mechanism import Limb, Mechanism, analyze
from flexmech.spatial import FramePlacement

SMALL_RCC = data_path("small_rcc.mech")
LENGTH_KEYS = ("r", "t", "w", "h1", "l", "s")


def scale_geometry(g, k):
    if isinstance(g, HingeGeometry):
        return replace(g, r=k * g.r, t=k * g.t, w=k * g.w, h1=k * g.h1)
    return replace(g, l=k * g.l, w=k * g.w, s=k * g.s)


def scale_placement(p, k):
    return FramePlacement(p.theta, tuple(k * v for v in p.r))


def scale_mechanism(m, k):
    """Every length of the mechanism times k: hinge r, t, w, h1, beam l, w, s
    and every member and limb placement."""
    return Mechanism(tuple(
        (Limb(limb.name, tuple((scale_geometry(g, k), scale_placement(p, k))
                               for g, p in limb.members)),
         scale_placement(placement, k))
        for limb, placement in m.limbs), m.reference)


def scale_mech_text(text, k):
    """The same scaling applied to the length fields of a mechanism file."""
    def scaled(match):
        values = ",".join(repr(k * float(v)) for v in match.group(2).split(","))
        return f"{match.group(1)}={values}"

    return re.sub(rf"\b({'|'.join(LENGTH_KEYS)})=([-0-9.e,]+)", scaled, text)


BASE = load_small_rcc().mechanism
BASE_RCC = analyze(BASE).rcc_height


@settings(max_examples=40)
@given(scale=st.floats(1e-5, 1e5))
@example(scale=1e-5)
@example(scale=1e-3)
@example(scale=1e-2)
@example(scale=1e2)
@example(scale=1e3)
@example(scale=1e4)
@example(scale=1e5)
def test_rcc_height_scales_with_length(scale):
    result = analyze(scale_mechanism(BASE, scale))
    assert result.rcc_height / scale == pytest.approx(BASE_RCC, rel=1e-9)


def analyze_scaled_design(tmp_path, capsys, scale):
    text = Path(SMALL_RCC).read_text(encoding="utf-8")
    path = tmp_path / f"small_rcc_x{scale}.mech"
    path.write_text(scale_mech_text(text, scale), encoding="utf-8")
    assert main(["analyze", str(path), "--rcc"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"center of compliance: {scale * BASE_RCC:.6g} mm above reference" in captured.out


def test_cli_analyze_scaled_design_exits_zero(tmp_path, capsys):
    analyze_scaled_design(tmp_path, capsys, 0.01)


def test_cli_analyze_scaled_up_design_exits_zero(tmp_path, capsys):
    # the 2-norm condition number of this design's K is above COND_LIMIT,
    # which only its units cause: the equilibrated one is that of x1
    analyze_scaled_design(tmp_path, capsys, 1e4)
