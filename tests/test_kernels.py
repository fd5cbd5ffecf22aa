"""Kernel core tests: the Saint-Venant series, the Gauss-Legendre rule, the
brute-force strip-sum oracle and the Paros-Weisbord closed form for the
notch integrals, and the kernels' length-scaling laws."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flexmech import elements, kernels
from flexmech.analysis import SweepObjective, SweepSpec, run_sweep
from flexmech.elements import HingeGeometry, element_compliance
from flexmech.fixtures import load_small_rcc
from flexmech.kernels import notch_kernels, torsion_beta
from flexmech.materials import Material
from oracles import notch_thickness, rect_torsion_constant, saint_venant_beta

# paper-scale notch plus off-nominal geometries
GEOMETRIES = [
    (1.25, 2.82, 5.0),
    (0.6, 1.1, 8.0),
    (3.0, 0.9, 2.5),
    (2.0, 6.0, 4.0),
]


# sum_{n odd >= 41} 1/n^5 = zeta(5, 20.5) / 32 (Hurwitz zeta)
ODD_TAIL_41 = float(mpmath.zeta(5, 20.5) / 32)


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
    # the whole series: from n = 41 on, tanh is 1 in float at aspect >= 1
    series = np.tanh(0.5 * np.pi * aspect[:, None] * n[None, :]) / n[None, :] ** 5
    series = series.sum(axis=1) + ODD_TAIL_41
    beta = (1.0 - (192.0 / np.pi**5) * series / aspect) / 3.0
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
        # the whole series: 0.1405770149552; the sum truncated at n = 39
        # gave 0.1405770251
        assert torsion_beta(1.0) == pytest.approx(saint_venant_beta(1.0), abs=1e-9)

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
        aspects = np.linspace(1.0, 30.0, 100)
        batch = torsion_beta(aspects)
        assert batch.shape == aspects.shape
        assert isinstance(torsion_beta(2.0), float)
        # the 30-digit sum of the whole series: a few ulps apart at most
        np.testing.assert_allclose(batch, [saint_venant_beta(a) for a in aspects], rtol=1e-14)
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
        # mid-plane, which is the lever element_compliance uses
        r, t, w = 1.25, 2.82, 5.0
        oracle = brute_force_kernels(r, t, w)
        assert oracle["k3x"] / oracle["k3"] == pytest.approx(r, rel=1e-9)

    @pytest.mark.parametrize("geometry", GEOMETRIES + [
        (1.25e-3, 2.82e-3, 5e-3), (125.0, 282.0, 500.0), (10.0, 0.5, 3.0), (0.05, 4.0, 1.0)])
    def test_k1_paros_weisbord_closed_form(self, geometry):
        r, t, w = geometry
        assert notch_kernels(r, t, w)[0] == pytest.approx(paros_weisbord_k1(r, t), rel=1e-11)

    @settings(max_examples=60)
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


def scalar_notch_kernels(r, t, w):
    """One notch at a time, with its own one- or two-panel rule: the scalar
    formula the batched notch_kernels must reproduce bit for bit."""
    edges = [0.0, math.atan(math.sqrt(2.0 * r / t))]
    if t < w < t + 2.0 * r:
        edges.insert(1, math.atan(math.sqrt(w / t - 1.0)))
    lo = np.array(edges[:-1])[:, None]
    half = 0.5 * (np.array(edges[1:])[:, None] - lo)
    alpha = (lo + half * (1.0 + kernels._GL_X)).ravel()
    weight = (half * kernels._GL_W).ravel()
    c2 = t / (4.0 * r)
    tan2 = np.tan(alpha) ** 2
    s2 = c2 * tan2
    sec2 = 1.0 + tan2
    h = t * sec2
    dx = (4.0 * r * math.sqrt(c2)) * (1.0 - 2.0 * s2) * sec2 / np.sqrt(1.0 - s2) * weight
    long_s = np.maximum(h, w)
    short_s = np.minimum(h, w)
    i_t = torsion_beta(long_s / short_s) * long_s * short_s**3
    with np.errstate(over="ignore", divide="ignore"):
        return float(dx @ (1.0 / h)), float(dx @ h**-3), float(dx @ (1.0 / i_t))


def _notches(rng, n, split):
    """n notches with r/t log-uniform in [0.05, 30]; the width crosses the
    profile (split rule) where `split` is True and misses it elsewhere."""
    t = rng.uniform(0.3, 5.0, n)
    r = t * np.exp(rng.uniform(math.log(0.05), math.log(30.0), n))
    inside = t + rng.uniform(0.05, 0.95, n) * 2.0 * r
    outside = np.where(rng.random(n) < 0.5, t * rng.uniform(0.2, 0.99, n),
                       (t + 2.0 * r) * rng.uniform(1.01, 3.0, n))
    return r, t, np.where(split, inside, outside)


class TestNotchKernelBatch:
    @pytest.mark.parametrize("layout", ["split", "unsplit", "mixed"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_batch_equals_scalar_formula_bit_for_bit(self, layout, scale):
        rng = np.random.default_rng([len(layout), int(math.log10(scale)) + 3])
        split = {"split": np.ones(48, bool), "unsplit": np.zeros(48, bool),
                 "mixed": rng.random(48) < 0.5}[layout]
        r, t, w = (scale * v for v in _notches(rng, 48, split))
        assert ((t < w) & (w < t + 2.0 * r) == split).all()
        batch = notch_kernels(r, t, w)
        assert batch.shape == (48, 3)
        expected = [scalar_notch_kernels(*g) for g in zip(r.tolist(), t.tolist(), w.tolist())]
        assert np.array_equal(batch, np.array(expected))

    def test_batch_of_one_equals_scalar_call(self):
        for r, t, w in GEOMETRIES + [(10.0, 0.5, 3.0), (0.05, 4.0, 1.0)]:
            one = notch_kernels(np.array([r]), np.array([t]), np.array([w]))
            scalar = notch_kernels(r, t, w)
            assert isinstance(scalar, tuple) and all(type(k) is float for k in scalar)
            assert one.shape == (1, 3) and one[0].tolist() == list(scalar)

    def test_vanishing_neck_is_reported_without_warnings(self):
        # the padded panel of an unsplit notch sits where the profile is
        # thickest, so a t = 1e-120 neck gives inf kernels, never 0 * inf
        r, t, w = np.array([1.25, 1.25]), np.array([2.82, 1e-120]), np.array([5.0, 5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = notch_kernels(r, t, w)
            with pytest.raises(ValueError) as fault:
                element_compliance(HingeGeometry(1.25, 1e-120, 5.0, 0.0,
                                                 Material("m", 43.8, 0.48)))
        assert np.isfinite(k[0]).all() and np.isfinite(k[1, 0]) and np.isinf(k[1, 1:]).all()
        assert k[0].tolist() == list(notch_kernels(1.25, 2.82, 5.0))
        assert str(fault.value) == "matrix entries must be finite"   # errors.NOT_FINITE

    def test_invalid_geometry_in_a_batch(self):
        with pytest.raises(ValueError, match="must be positive"):
            notch_kernels(np.array([1.0, 1.0]), np.array([1.0, -1.0]), np.array([1.0, 1.0]))

    def test_cache_stays_bounded_over_fresh_geometry_sweeps(self):
        template = load_small_rcc().mechanism
        objective = SweepObjective(rcc_height_target=28.6)
        for n in range(10):
            # 64 hinge geometries no earlier sweep made
            lo = 2.0 + 0.0123456 * n
            run_sweep(SweepSpec({"t": (lo, lo + 0.8, 8), "r": (1.0 + lo / 100, 1.4, 8)},
                                objective), template)
            assert len(elements._kernel_cache) <= elements.KERNEL_CACHE_SIZE == 512
        assert len(elements._kernel_cache) == 512
        # the latest sweep's geometries are the ones kept
        assert (1.4, lo + 0.8, 5.0) in elements._kernel_cache   # (r, t, w)
