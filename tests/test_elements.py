"""Element compliance tests: beam closed form, hinge strip integration,
limits and monotonicity."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flexmech.elements import BeamGeometry, HingeGeometry, element_compliance
from flexmech.materials import Material
from flexmech.spatial import FramePlacement
from oracles import (notch_thickness, rect_torsion_constant, torsion_compliance_hinge,
                     transform_compliance)

RNG = np.random.default_rng(7)

MAT = Material("test", 43.8, 0.48)

# printed sparsity of both element matrices: couplings at (2,6) and (3,5) only
COUPLED = {(1, 5), (5, 1), (2, 4), (4, 2)}


def paper_hinge(material=MAT, h1=0.0):
    return HingeGeometry(1.25, 2.82, 5.0, h1, material)


def paper_beam(material=MAT):
    return BeamGeometry(10.4, 5.0, 5.32, material)


def independent_beam_entries(l, w, s, e, g):
    """Beam formulas recoded from scratch for the cross-check."""
    alpha = 6.0 / 5.0
    it = rect_torsion_constant(w, s)
    return {
        (1, 1): l / (e * w * s),
        (2, 2): alpha * l / (g * w * s) + 4.0 * l**3 / (e * w * s**3),
        (3, 3): alpha * l / (g * w * s) + 4.0 * l**3 / (e * w**3 * s),
        (4, 4): l / (g * it),
        (5, 5): 12.0 * l / (e * w**3 * s),
        (6, 6): 12.0 * l / (e * w * s**3),
        (2, 6): 6.0 * l**2 / (e * w * s**3),
        (3, 5): -6.0 * l**2 / (e * w**3 * s),
    }


def assert_pattern(c):
    scale = np.abs(c.m).max()
    for i in range(6):
        for j in range(6):
            if i == j or (i, j) in COUPLED:
                continue
            assert abs(c.m[i, j]) < 1e-12 * scale, f"unexpected coupling at {(i + 1, j + 1)}"


class TestBeam:
    def test_entry_11_example(self):
        c = element_compliance(paper_beam())
        assert c.entry(1, 1) == pytest.approx(10.4 / (43.8 * 26.6), rel=1e-12)

    def test_coupling_symmetry(self):
        c = element_compliance(paper_beam())
        want = 6.0 * 10.4**2 / (43.8 * 5.0 * 5.32**3)
        assert c.entry(2, 6) == pytest.approx(want, rel=1e-12)
        assert c.entry(6, 2) == pytest.approx(want, rel=1e-12)

    def test_bending_term_cubic_in_length(self):
        e, g = MAT.e_modulus, MAT.g_modulus
        shear = lambda l: 6.0 / 5.0 * l / (g * 5.0 * 5.32)
        c1 = element_compliance(BeamGeometry(10.4, 5.0, 5.32, MAT)).entry(2, 2) - shear(10.4)
        c2 = element_compliance(BeamGeometry(20.8, 5.0, 5.32, MAT)).entry(2, 2) - shear(20.8)
        assert c2 == pytest.approx(8.0 * c1, rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_printed_formulas_random_geometry(self, seed):
        rng = np.random.default_rng(seed)
        l, w, s = rng.uniform(1.0, 40.0, size=3)
        e = rng.uniform(10.0, 3000.0)
        nu = rng.uniform(0.0, 0.49)
        mat = Material("r", e, nu)
        c = element_compliance(BeamGeometry(l, w, s, mat))
        for (i, j), want in independent_beam_entries(l, w, s, e, mat.g_modulus).items():
            assert c.entry(i, j) == pytest.approx(want, rel=1e-12), (i, j)
        assert_pattern(c)

    def test_psd(self):
        c = element_compliance(paper_beam())
        assert np.linalg.eigvalsh(c.m).min() > 0.0

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            BeamGeometry(0.0, 5.0, 5.0, MAT)


class TestNotchThickness:
    def test_neck(self):
        assert notch_thickness(1.25, 1.25, 2.82) == pytest.approx(2.82)

    def test_edges_equal_outer_depth(self):
        g = paper_hinge()
        assert notch_thickness(0.0, g.r, g.t) == pytest.approx(g.s) == pytest.approx(5.32)

    def test_half_radius(self):
        assert notch_thickness(0.625, 1.25, 2.82) == pytest.approx(3.155, abs=5e-4)

    def test_domain(self):
        with pytest.raises(ValueError, match="notch range"):
            notch_thickness(2.6, 1.25, 2.82)
        with pytest.raises(ValueError, match="notch range"):
            notch_thickness(-0.1, 1.25, 2.82)


class TestHinge:
    def test_symmetric_psd_pattern(self):
        c = element_compliance(paper_hinge())
        assert_pattern(c)
        assert np.linalg.eigvalsh(c.m).min() > 0.0

    def test_z_bending_softer_than_y(self):
        # neck is thinner than the width, so rotation about z dominates
        c = element_compliance(paper_hinge())
        assert c.entry(6, 6) > c.entry(5, 5)

    def test_lever_arm_couplings(self):
        # (2,6) = +(r + h1) C66 and (3,5) = -(r + h1) C55 by construction
        for h1 in (0.0, 1.5):
            g = paper_hinge(h1=h1)
            c = element_compliance(g)
            lever = g.r + h1
            assert c.entry(2, 6) == pytest.approx(lever * c.entry(6, 6), rel=1e-9)
            assert c.entry(3, 5) == pytest.approx(-lever * c.entry(5, 5), rel=1e-9)

    @given(r=st.floats(0.05, 20.0), t=st.floats(0.05, 20.0), w=st.floats(0.5, 20.0),
           h1=st.floats(-20.0, 20.0), e=st.floats(1.0, 1e4), nu=st.floats(0.0, 0.49))
    def test_closed_form_equals_the_lever_transport_of_the_joint(self, r, t, w, h1, e, nu):
        # oracle: the lumped joint (zero lever, h1 = -r) moved to the element
        # frame by the displacement transport, as the entries once were built
        g = HingeGeometry(r, t, w, h1, Material("m", e, nu))
        joint = element_compliance(replace(g, h1=-g.r))
        moved = transform_compliance(joint, FramePlacement(0.0, (g.r + g.h1, 0.0, 0.0))).m
        c = element_compliance(g).m
        scale = np.sqrt(np.outer(np.diag(c), np.diag(c)))
        assert (np.abs(c - moved) <= 1e-13 * scale).all()

    def test_deep_notch_approaches_prism(self):
        # t >> r: the circular relief vanishes and the notch is a short bar
        # of length 2r and thickness t (translation entries keep the lumped
        # form, so only axial/rotational/coupling entries are compared)
        t = 1000.0
        g = HingeGeometry(1.25, t, 5.0, 0.0, MAT)
        c = element_compliance(g)
        bar = independent_beam_entries(2.0 * g.r, g.w, t, MAT.e_modulus, MAT.g_modulus)
        assert c.entry(1, 1) == pytest.approx(bar[(1, 1)], rel=1e-2)
        assert c.entry(5, 5) == pytest.approx(bar[(5, 5)], rel=1e-2)
        assert c.entry(6, 6) == pytest.approx(bar[(6, 6)], rel=1e-2)
        assert c.entry(2, 6) == pytest.approx(bar[(2, 6)], rel=1e-2)
        assert c.entry(3, 5) == pytest.approx(bar[(3, 5)], rel=1e-2)

    def test_diagonal_monotone_in_t_and_w(self):
        gs = [paper_hinge()]
        for t in (3.2, 3.8):
            gs.append(HingeGeometry(1.25, t, 5.0, 0.0, MAT))
        for w in (6.0, 7.5):
            gs.append(HingeGeometry(1.25, 2.82, w, 0.0, MAT))
        base = np.diag(element_compliance(gs[0]).m)
        for g in gs[1:]:
            other = np.diag(element_compliance(g).m)
            assert np.all(other < base), g

    def test_validation(self):
        with pytest.raises(ValueError):
            HingeGeometry(1.25, -1.0, 5.0, 0.0, MAT)


class TestHingeTorsion:
    def test_tiny_notch_matches_uniform_bar(self):
        # r -> 0 limit: compliance of a 2r-long constant-section bar
        r = 1e-4
        g = HingeGeometry(r, 4.0, 5.0, 0.0, MAT)
        want = 2.0 * r / (MAT.g_modulus * rect_torsion_constant(5.0, 4.0))
        assert torsion_compliance_hinge(g) == pytest.approx(want, rel=1e-4)

    def test_linear_in_inverse_shear_modulus(self):
        soft = Material("soft", 43.8, 0.48, g_modulus=MAT.g_modulus / 2.0)
        c_ref = torsion_compliance_hinge(paper_hinge())
        c_soft = torsion_compliance_hinge(paper_hinge(material=soft))
        assert c_soft == pytest.approx(2.0 * c_ref, rel=1e-12)

    def test_matches_matrix_entry(self):
        g = paper_hinge()
        assert element_compliance(g).entry(4, 4) == pytest.approx(
            torsion_compliance_hinge(g), rel=1e-12)


@pytest.mark.parametrize("build, message", [
    (lambda: HingeGeometry(math.nan, 2.82, 5.0, 0.0, MAT), "hinge dimension r"),
    (lambda: HingeGeometry(1.25, math.nan, 5.0, 0.0, MAT), "hinge dimension t"),
    (lambda: HingeGeometry(1.25, math.inf, 5.0, 0.0, MAT), "hinge dimension t"),
    (lambda: HingeGeometry(1.25, 2.82, math.inf, 0.0, MAT), "hinge dimension w"),
    (lambda: HingeGeometry(1.25, 2.82, 5.0, math.nan, MAT), "hinge offset h1"),
    (lambda: HingeGeometry(1.25, 2.82, 5.0, -math.inf, MAT), "hinge offset h1"),
    (lambda: BeamGeometry(math.nan, 5.0, 5.32, MAT), "beam dimension l"),
    (lambda: BeamGeometry(10.4, math.inf, 5.32, MAT), "beam dimension w"),
    (lambda: BeamGeometry(10.4, 5.0, math.nan, MAT), "beam dimension s"),
    (lambda: Material("b", math.nan, 0.3), "Young's modulus"),
    (lambda: Material("b", math.inf, 0.3), "Young's modulus"),
    (lambda: Material("b", 43.8, 0.3, math.nan), "shear modulus"),
    (lambda: Material("b", 43.8, 0.3, math.inf), "shear modulus"),
], ids=["hinge-r-nan", "hinge-t-nan", "hinge-t-inf", "hinge-w-inf", "hinge-h1-nan",
        "hinge-h1-inf", "beam-l-nan", "beam-w-inf", "beam-s-nan", "material-e-nan",
        "material-e-inf", "material-g-nan", "material-g-inf"])
def test_non_finite_dimension_or_modulus_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()
