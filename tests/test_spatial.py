"""Spatial algebra tests: rotations, skew operator, amplification matrices,
congruence transforms and inversion."""

import math

import numpy as np
import pytest

from flexmech.errors import SingularMatrixError
from flexmech.spatial import (FramePlacement, IDENTITY_PLACEMENT, SpatialMatrix6,
                              COND_LIMIT, invert, invert_stack, rot_z, s_matrix)
from oracles import (amplification_displacement, amplification_force, compose, inverse,
                     transform_compliance, transform_stiffness)

RNG = np.random.default_rng(20260810)


def random_placement():
    theta = RNG.uniform(-math.pi, math.pi)
    r = tuple(RNG.uniform(-50.0, 50.0, size=3))
    return FramePlacement(theta, r)


def random_spd(kind, scale=1.0):
    a = RNG.normal(size=(6, 6))
    return SpatialMatrix6(a @ a.T + 0.5 * np.eye(6) * scale, kind)


class TestRotZ:
    def test_identity(self):
        np.testing.assert_allclose(rot_z(0.0), np.eye(3))

    def test_quarter_turn(self):
        np.testing.assert_allclose(rot_z(math.pi / 2) @ [1.0, 0.0, 0.0],
                                   [0.0, 1.0, 0.0], atol=1e-15)

    def test_twenty_degrees(self):
        # beam lean angle of the example mechanism
        assert rot_z(math.radians(20.0))[0, 0] == pytest.approx(0.93969262, abs=1e-8)

    def test_orthonormal(self):
        for _ in range(50):
            r = rot_z(RNG.uniform(-10, 10))
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-14)
            assert np.linalg.det(r) == pytest.approx(1.0)


class TestSMatrix:
    def test_zero(self):
        np.testing.assert_array_equal(s_matrix((0.0, 0.0, 0.0)), np.zeros((3, 3)))

    def test_printed_row_pattern(self):
        s = s_matrix((1.0, 0.0, 0.0))
        assert s[1, 2] == 1.0
        assert s[2, 1] == -1.0

    def test_annihilates_own_axis(self):
        r = np.array([3.0, -2.0, 5.0])
        np.testing.assert_allclose(s_matrix(r) @ r, np.zeros(3), atol=1e-14)

    def test_antisymmetric(self):
        for _ in range(100):
            s = s_matrix(RNG.uniform(-100, 100, size=3))
            np.testing.assert_allclose(s.T, -s, atol=1e-12)

    def test_acts_as_cross_with_r(self):
        # S(r) u == u x r, the transport form used throughout
        r = np.array([1.5, -2.0, 4.0])
        u = np.array([0.3, 0.7, -1.1])
        np.testing.assert_allclose(s_matrix(r) @ u, np.cross(u, r), atol=1e-14)


class TestAmplification:
    def test_identity_placement(self):
        np.testing.assert_allclose(amplification_force(IDENTITY_PLACEMENT), np.eye(6))
        np.testing.assert_allclose(amplification_displacement(IDENTITY_PLACEMENT), np.eye(6))

    def test_unit_determinant(self):
        for _ in range(100):
            assert np.linalg.det(amplification_force(random_placement())) == pytest.approx(1.0)

    def test_displacement_is_inverse_transpose(self):
        for _ in range(200):
            p = random_placement()
            jf = amplification_force(p)
            jd = amplification_displacement(p)
            np.testing.assert_allclose(jd, np.linalg.inv(jf).T, rtol=1e-10, atol=1e-10)

    def test_force_displacement_duality_thousand(self):
        for _ in range(1000):
            p = random_placement()
            prod = amplification_force(p) @ amplification_displacement(p).T
            np.testing.assert_allclose(prod, np.eye(6), atol=1e-9)

    def test_hinge_a_placement_duality(self):
        # left hinge row of the example mechanism
        p = FramePlacement(0.0, (42.85, 14.765, 0.0))
        prod = amplification_displacement(p) @ amplification_force(p).T
        np.testing.assert_allclose(prod, np.eye(6), atol=1e-12)

    def test_composition(self):
        for _ in range(100):
            p1, p2 = random_placement(), random_placement()
            composed = compose(p2, p1)
            np.testing.assert_allclose(
                amplification_force(composed),
                amplification_force(p2) @ amplification_force(p1),
                rtol=1e-12, atol=1e-12)

    def test_placement_inverse(self):
        for _ in range(50):
            p = random_placement()
            j = amplification_force(p) @ amplification_force(inverse(p))
            np.testing.assert_allclose(j, np.eye(6), atol=1e-12)


class TestFramePlacement:
    def test_from_degrees(self):
        p = FramePlacement.from_degrees(20.0, (1.0, 2.0, 3.0))
        assert p.theta == pytest.approx(math.radians(20.0))
        assert p.theta_deg == pytest.approx(20.0)

    def test_angle_normalized(self):
        p = FramePlacement(7.0 * math.pi, (0.0, 0.0, 0.0))
        assert abs(p.theta) < 2.0 * math.pi

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FramePlacement(math.nan, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            FramePlacement(0.0, (math.inf, 0.0, 0.0))


class TestSpatialMatrix6:
    def test_rejects_asymmetric(self):
        m = np.eye(6)
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            SpatialMatrix6(m, "stiffness")

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SpatialMatrix6(np.eye(6), "flexibility")

    def test_entry_one_based(self):
        m = SpatialMatrix6(np.diag([1.0, 2, 3, 4, 5, 6]), "compliance")
        assert m.entry(3, 3) == 3.0


class TestTransforms:
    def test_identity_placement_unchanged(self):
        c = random_spd("compliance")
        out = transform_compliance(c, IDENTITY_PLACEMENT)
        np.testing.assert_allclose(out.m, c.m, rtol=1e-12)

    def test_kind_mismatch(self):
        k = random_spd("stiffness")
        with pytest.raises(ValueError, match="compliance"):
            transform_compliance(k, IDENTITY_PLACEMENT)
        c = random_spd("compliance")
        with pytest.raises(ValueError, match="stiffness"):
            transform_stiffness(c, IDENTITY_PLACEMENT)

    def test_lever_arm_coupling(self):
        # pure rotational spring about z, translated d along x: the moved
        # compliance picks up d*c66 coupling and d^2*c66 lateral terms
        c66 = 0.025
        c = np.zeros((6, 6))
        c[5, 5] = c66
        d = 7.5
        out = transform_compliance(SpatialMatrix6(c, "compliance"),
                                   FramePlacement(0.0, (d, 0.0, 0.0)))
        assert out.entry(2, 6) == pytest.approx(d * c66)
        assert out.entry(2, 2) == pytest.approx(d * d * c66)
        assert out.entry(6, 6) == pytest.approx(c66)

    def test_round_trip(self):
        for _ in range(200):
            c = random_spd("compliance")
            p = random_placement()
            back = transform_compliance(transform_compliance(c, p), inverse(p))
            np.testing.assert_allclose(back.m, c.m, rtol=1e-9, atol=1e-9 * np.abs(c.m).max())

    def test_symmetry_preserved(self):
        for _ in range(100):
            out = transform_compliance(random_spd("compliance"), random_placement())
            rel = np.abs(out.m - out.m.T).max() / np.abs(out.m).max()
            assert rel < 1e-9

    def test_stiffness_compliance_duality(self):
        # congruences commute with inversion to within 1e-7 relative
        for _ in range(50):
            c = random_spd("compliance")
            p = random_placement()
            k = invert(c)
            lhs = transform_stiffness(k, p).m
            rhs = np.linalg.inv(transform_compliance(c, p).m)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-7)

    def test_duality_at_limb_placement(self):
        # placement row "limb left back" of the example mechanism
        from flexmech.fixtures import load_small_rcc
        from flexmech.mechanism import limb_compliance

        parsed = load_small_rcc()
        limb, placement = parsed.mechanism.limbs[0]
        assert placement.r == (-2.5, 10.325, -8.65)
        c = limb_compliance(limb)
        k = invert(c)
        lhs = transform_stiffness(k, placement).m
        rhs = np.linalg.inv(transform_compliance(c, placement).m)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-7, atol=1e-7 * np.abs(rhs).max())

    def test_transformed_stiffness_stays_spd(self):
        for _ in range(200):
            k = random_spd("stiffness")
            out = transform_stiffness(k, random_placement())
            assert np.linalg.eigvalsh(out.m).min() > 0.0


class TestInvert:
    def test_identity(self):
        m = SpatialMatrix6(np.eye(6), "stiffness")
        np.testing.assert_allclose(invert(m).m, np.eye(6))

    def test_diagonal(self):
        m = SpatialMatrix6(2.0 * np.eye(6), "stiffness")
        out = invert(m)
        np.testing.assert_allclose(out.m, 0.5 * np.eye(6))
        assert out.kind == "compliance"

    def test_involution(self):
        for _ in range(50):
            m = random_spd("compliance")
            np.testing.assert_allclose(invert(invert(m)).m, m.m, rtol=1e-7)

    def test_fixture_ratio_regression(self):
        # inverse of the published matrix: the (3,3)/(5,3) ratio equals
        # -K55/K35 of the 2x2 block, far from any physical center height
        from flexmech.fixtures import load_reference_stiffness

        c = invert(load_reference_stiffness())
        ratio = c.entry(3, 3) / c.entry(5, 3)
        assert ratio == pytest.approx(-21900.0 / 52.0, rel=1e-9)

    def test_singular_raises_with_condition(self):
        # a badly scaled diagonal is perfectly conditioned once equilibrated,
        # so it inverts; a near-dependence that no diagonal scaling removes
        # (two nearly parallel columns of A in A A^T) is refused
        m = np.eye(6)
        m[5, 5] = 1e-14
        expected = np.eye(6)
        expected[5, 5] = 1e14
        np.testing.assert_allclose(invert(SpatialMatrix6(m, "stiffness")).m, expected,
                                   rtol=1e-15)
        a = RNG.normal(size=(6, 6))
        a[:, 1] = a[:, 0] + 1e-9 * a[:, 1]
        with pytest.raises(SingularMatrixError) as exc:
            invert(SpatialMatrix6(a @ a.T + 1e-14 * np.eye(6), "stiffness"))
        assert exc.value.cond > 1e12
        assert exc.value.cond > COND_LIMIT

    def test_stack_refuses_singular_items_and_spares_the_rest(self):
        # an exact zero pivot and a non-positive diagonal get cond = inf and
        # the identity; the valid items keep the bits of inverting each alone
        nonpositive = np.eye(6)
        nonpositive[2, 2] = -1.0
        valid = [random_spd("stiffness").m for _ in range(3)]
        stack = np.stack([valid[0], np.ones((6, 6)), valid[1], nonpositive, valid[2]])
        inv, cond, refused = invert_stack(stack)
        assert refused.tolist() == [False, True, False, True, False]
        assert np.isinf(cond[[1, 3]]).all()
        assert np.array_equal(inv[[1, 3]], np.stack([np.eye(6)] * 2))
        for i, m in zip((0, 2, 4), valid):
            alone, _, _ = invert_stack(m)
            assert np.array_equal(inv[i], alone)
            assert np.array_equal(inv[i], np.linalg.inv(m))

    def test_condition_number_is_unit_free(self):
        # D M D for any positive diagonal D gives the same figure
        m = random_spd("stiffness").m
        d = np.array([1e-6, 1.0, 1e3, 1e-2, 1e5, 1e8])
        (_, base, _), (_, scaled, _) = invert_stack(m), invert_stack(d[:, None] * m * d)
        assert scaled == pytest.approx(base, rel=1e-9)
