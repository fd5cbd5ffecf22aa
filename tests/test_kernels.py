"""Kernel core tests: the Saint-Venant series, the Gauss-Legendre rule, the
brute-force strip-sum oracle and the Paros-Weisbord closed form for the
notch integrals, and the kernels' length-scaling laws."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flexmech import kernels
from flexmech.kernels import (notch_kernels, notch_thickness, rect_torsion_constant,
                              torsion_beta)

# paper-scale notch plus off-nominal geometries
GEOMETRIES = [
    (1.25, 2.82, 5.0),
    (0.6, 1.1, 8.0),
    (3.0, 0.9, 2.5),
    (2.0, 6.0, 4.0),
]


def brute_force_kernels(r, t, w, strips=1_000_000):
    """Independent midpoint Riemann oracle for the notch kernels and the
    first moment int x dx / h^3, keyed by name."""
    x = (np.arange(strips) + 0.5) * (2.0 * r / strips)
    h = t + 2.0 * r - 2.0 * np.sqrt(np.clip(r * r - (x - r) ** 2, 0.0, None))
    dx = 2.0 * r / strips
    long_s = np.maximum(w, h)
    short_s = np.minimum(w, h)
    aspect = long_s / short_s
    n = np.arange(1, 40, 2, dtype=float)
    series = np.tanh(0.5 * np.pi * aspect[:, None] * n[None, :]) / n[None, :] ** 5
    beta = (1.0 - (192.0 / np.pi**5) * series.sum(axis=1) / aspect) / 3.0
    it = beta * long_s * short_s**3
    return {
        "k1": float(np.sum(1.0 / h) * dx),
        "k3": float(np.sum(1.0 / h**3) * dx),
        "k3x": float(np.sum(x / h**3) * dx),
        "kt": float(np.sum(1.0 / it) * dx),
    }


def kernels_by_name(r, t, w):
    return dict(zip(("k1", "k3", "kt"), notch_kernels(r, t, w)))


def paros_weisbord_k1(r, t):
    """Closed form of int dx / h over the circular notch, s = r / t."""
    s = r / t
    root = math.sqrt(4.0 * s + 1.0)
    return 2.0 * (2.0 * s + 1.0) / root * math.atan(root) - 0.5 * math.pi


class TestTorsionBeta:
    def test_square(self):
        assert torsion_beta(1.0) == pytest.approx(0.14057702514, abs=1e-9)

    def test_square_section_it(self):
        it = torsion_beta(1.0) * 5.0 * 5.0**3
        assert 87.6 <= it <= 88.5

    def test_thin_plate_limit(self):
        assert torsion_beta(1e6) == pytest.approx(1.0 / 3.0, rel=1e-5)

    def test_bounds_and_monotone(self):
        aspects = np.linspace(1.0, 50.0, 200)
        betas = [torsion_beta(a) for a in aspects]
        assert all(0.1405 <= b < 1.0 / 3.0 for b in betas)
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))

    def test_aspect_below_one_rejected(self):
        with pytest.raises(ValueError, match="aspect"):
            torsion_beta(0.5)
        with pytest.raises(ValueError, match="aspect"):
            torsion_beta(np.array([2.0, 0.5]))

    def test_matches_scalar_series_loop(self):
        def loop_beta(aspect):
            s = sum(math.tanh(0.5 * n * math.pi * aspect) / n**5 for n in range(1, 40, 2))
            return (1.0 - (192.0 / math.pi**5) * s / aspect) / 3.0

        aspects = np.linspace(1.0, 30.0, 100)
        batch = torsion_beta(aspects)
        assert batch.shape == aspects.shape
        assert isinstance(torsion_beta(2.0), float)
        # same terms, summed in another order: a few ulps apart at most
        np.testing.assert_allclose(batch, [loop_beta(a) for a in aspects], rtol=1e-14)
        np.testing.assert_allclose([torsion_beta(a) for a in aspects], batch, rtol=1e-14)


class TestRectTorsionConstant:
    def test_side_order_irrelevant(self):
        assert rect_torsion_constant(5.0, 2.82) == pytest.approx(
            rect_torsion_constant(2.82, 5.0))

    def test_positive_sides(self):
        with pytest.raises(ValueError):
            rect_torsion_constant(-1.0, 2.0)


class TestNotchThickness:
    def test_neck_and_edges(self):
        assert notch_thickness(1.25, 1.25, 2.82) == pytest.approx(2.82)
        assert notch_thickness(0.0, 1.25, 2.82) == pytest.approx(5.32)
        assert notch_thickness(2.5, 1.25, 2.82) == pytest.approx(5.32)

    def test_half_radius(self):
        # 2.82 + 2.5 - 2 sqrt(1.5625 - 0.390625)
        assert notch_thickness(0.625, 1.25, 2.82) == pytest.approx(3.1549365, abs=1e-6)

    def test_profile_crosses_width(self):
        # torsion case boundary: h(x) = w has interior solutions for the
        # example notch, x = r +- sqrt(r^2 - (t + 2r - w)^2 / 4)
        r, t, w = 1.25, 2.82, 5.0
        x_cross = r - math.sqrt(r * r - 0.25 * (t + 2.0 * r - w) ** 2)
        assert 0.0 < x_cross < 2.0 * r
        assert notch_thickness(x_cross, r, t) == pytest.approx(w, rel=1e-12)
        assert notch_thickness(r, r, t) < w
        assert notch_thickness(0.0, r, t) > w


class TestGaussLegendre:
    def test_matches_leggauss(self):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(kernels.GL_NODES)
        np.testing.assert_allclose(kernels._GL_X, nodes, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(kernels._GL_W, weights, rtol=0.0, atol=1e-14)

    def test_import_leaves_numpy_polynomial_unloaded(self):
        code = "import sys, flexmech; print('numpy.polynomial' in sys.modules)"
        # the child imports the same flexmech as this process
        env = {**os.environ, "PYTHONPATH": str(Path(kernels.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "False"


class TestNotchKernels:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_against_strip_sum_oracle(self, geometry):
        exact = kernels_by_name(*geometry)
        oracle = brute_force_kernels(*geometry)
        for name in ("k1", "k3", "kt"):
            assert exact[name] == pytest.approx(oracle[name], rel=1e-6), name

    def test_first_moment_centroid(self):
        # symmetric profile: the bending weight centroid sits at the
        # mid-plane, which is the lever hinge_compliance uses
        r, t, w = 1.25, 2.82, 5.0
        oracle = brute_force_kernels(r, t, w)
        assert oracle["k3x"] / oracle["k3"] == pytest.approx(r, rel=1e-9)

    @pytest.mark.parametrize("geometry", GEOMETRIES + [
        (1.25e-3, 2.82e-3, 5e-3), (125.0, 282.0, 500.0), (10.0, 0.5, 3.0), (0.05, 4.0, 1.0)])
    def test_k1_paros_weisbord_closed_form(self, geometry):
        r, t, w = geometry
        assert notch_kernels(r, t, w)[0] == pytest.approx(paros_weisbord_k1(r, t), rel=1e-11)

    @settings(max_examples=60, deadline=None, database=None)
    @given(r=st.floats(0.2, 5.0), t=st.floats(0.3, 6.0), w=st.floats(0.5, 10.0),
           scale=st.floats(1e-3, 1e3))
    @example(r=1.25, t=2.82, w=5.0, scale=1e-3)
    @example(r=1.25, t=2.82, w=5.0, scale=1e-2)
    @example(r=1.25, t=2.82, w=5.0, scale=1e2)
    def test_scaling_laws(self, r, t, w, scale):
        k1, k3, kt = notch_kernels(r, t, w)
        k1_s, k3_s, kt_s = notch_kernels(scale * r, scale * t, scale * w)
        assert k1_s == pytest.approx(k1, rel=1e-10)
        assert k3_s == pytest.approx(k3 / scale**2, rel=1e-10)
        assert kt_s == pytest.approx(kt / scale**3, rel=1e-10)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            notch_kernels(0.0, 1.0, 1.0)
