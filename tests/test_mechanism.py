"""Limb/mechanism assembly tests: serial and parallel composition,
remote-center extraction, deflection and deviation reporting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flexmech.mechanism as mech
from flexmech.elements import BeamGeometry, HingeGeometry
from flexmech.errors import SingularMatrixError
from flexmech.fixtures import load_reference_stiffness, load_small_rcc
from flexmech.materials import Material
from flexmech.mechanism import (Limb, Mechanism, analyze, analyze_batch,
                                center_of_compliance, deviation_report,
                                ideal_fourbar_center, limb_compliance,
                                mechanism_stiffness, rotational_precision,
                                static_deflection)
from flexmech.spatial import (FramePlacement, SpatialMatrix6, amplification_displacement,
                              amplification_force, invert, transform_compliance)

RNG = np.random.default_rng(99)
MAT = Material("m", 43.8, 0.48)

HINGE = HingeGeometry(1.25, 2.82, 5.0, 0.0, MAT)
BEAM = BeamGeometry(10.4, 5.0, 5.32, MAT)


def paper_limb(side=1.0):
    return Limb("limb", (
        (HINGE, FramePlacement(0.0, (42.85, side * 14.765, 0.0))),
        (BEAM, FramePlacement.from_degrees(side * 20.0, (10.4, 0.0, 0.0))),
        (HINGE, FramePlacement(0.0, (9.15, 0.0, 0.0))),
    ))


def small_rcc():
    return load_small_rcc().mechanism


def long_limb(side=1.0, lean=20.0, hinge=HINGE):
    """Five members: hinge, leaning beam, hinge, straight beam, hinge."""
    return Limb("long", (
        (hinge, FramePlacement(0.0, (53.25, side * 14.765, 0.0))),
        (BEAM, FramePlacement.from_degrees(side * lean, (20.8, 0.0, 0.0))),
        (hinge, FramePlacement(0.0, (19.55, 0.0, 0.0))),
        (BEAM, FramePlacement(0.0, (9.15, 0.0, 0.0))),
        (hinge, FramePlacement(0.0, (0.0, 0.0, 0.0))),
    ))


def design(pairs, long=(), lean=20.0, y=10.325, hinge=HINGE):
    """Mirrored limb pairs spread along z; pair i uses long_limb when i is in `long`."""
    limbs = []
    for i, z in enumerate(np.linspace(-8.65, 8.65, pairs)):
        for side in (1.0, -1.0):
            limb = (long_limb(side, lean, hinge) if i in long else
                    Limb("short", (
                        (hinge, FramePlacement(0.0, (42.85, side * 14.765, 0.0))),
                        (BEAM, FramePlacement.from_degrees(side * lean, (10.4, 0.0, 0.0))),
                        (hinge, FramePlacement(0.0, (9.15, 0.0, 0.0))))))
            limbs.append((limb, FramePlacement(0.0, (-2.5, side * y, float(z)))))
    return Mechanism(tuple(limbs))


def hand_stiffness(m):
    """Loop reference: sum over limbs of J_F inv(sum of J C J^T) J_F^T."""
    k = np.zeros((6, 6))
    for limb, placement in m.limbs:
        c = np.zeros((6, 6))
        for geom, p in limb.members:
            j = amplification_displacement(p)
            c += j @ mech.element_compliance(geom).m @ j.T
        jf = amplification_force(placement)
        k += jf @ np.linalg.inv(c) @ jf.T
    return k


class TestLimb:
    def test_single_member_identity(self):
        limb = Limb("one", ((HINGE, FramePlacement(0.0, (0.0, 0.0, 0.0))),))
        c = limb_compliance(limb)
        from flexmech.elements import hinge_compliance

        np.testing.assert_allclose(c.m, hinge_compliance(HINGE).m, rtol=1e-12)

    def test_two_identical_members_double(self):
        one = Limb("one", ((BEAM, FramePlacement(0.0, (0.0, 0.0, 0.0))),))
        two = Limb("two", ((BEAM, FramePlacement(0.0, (0.0, 0.0, 0.0))),) * 2)
        np.testing.assert_allclose(limb_compliance(two).m,
                                   2.0 * limb_compliance(one).m, rtol=1e-12)

    def test_paper_limb_structure(self):
        c = limb_compliance(paper_limb())
        assert c.kind == "compliance"
        assert np.linalg.eigvalsh(c.m).min() > 0.0
        # in-plane block is the soft one
        assert c.entry(2, 2) > c.entry(3, 3)

    def test_member_plane_constraint(self):
        with pytest.raises(ValueError, match="r_z = 0"):
            Limb("bad", ((HINGE, FramePlacement(0.0, (1.0, 0.0, 3.0))),))

    def test_needs_members(self):
        with pytest.raises(ValueError, match="at least one member"):
            Limb("empty", ())

    def test_split_beam_identity(self):
        # flexibility chain rule: a cantilever split into two serial halves
        # (distal half at the tip, proximal half transported by l/2) must
        # reproduce the closed-form full-length compliance exactly
        from flexmech.elements import beam_compliance

        full = beam_compliance(BeamGeometry(10.4, 5.0, 5.32, MAT))
        half = BeamGeometry(5.2, 5.0, 5.32, MAT)
        chain = Limb("split", (
            (half, FramePlacement(0.0, (0.0, 0.0, 0.0))),
            (half, FramePlacement(0.0, (5.2, 0.0, 0.0))),
        ))
        np.testing.assert_allclose(limb_compliance(chain).m, full.m,
                                   rtol=1e-12, atol=1e-15)

    def test_serial_monotonicity(self):
        # each added member only ever adds compliance
        from flexmech.spatial import amplification_displacement

        limb = paper_limb()
        c_total = limb_compliance(limb).m
        for geom, placement in limb.members:
            j = amplification_displacement(placement)
            term = j @ mech.element_compliance(geom).m @ j.T
            assert np.linalg.eigvalsh(c_total - term).min() > -1e-12 * np.abs(c_total).max()


class TestMechanismStiffness:
    def test_parallel_addition(self):
        limb = paper_limb()
        p = FramePlacement(0.0, (0.0, 0.0, 0.0))
        m = Mechanism(((limb, p), (limb, p)))
        k_single = invert(limb_compliance(limb)).m
        np.testing.assert_allclose(mechanism_stiffness(m).m, 2.0 * k_single, rtol=1e-9)

    def test_published_zero_pattern(self):
        k = mechanism_stiffness(small_rcc()).m
        blocks = {"tt": k[:3, :3], "tr": k[:3, 3:], "rr": k[3:, 3:]}
        nonzero = {(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6),
                   (2, 6), (6, 2), (3, 5), (5, 3)}
        for i in range(6):
            for j in range(6):
                if (i + 1, j + 1) in nonzero:
                    continue
                block = blocks["tt" if i < 3 and j < 3 else
                               "rr" if i >= 3 and j >= 3 else "tr"]
                assert abs(k[i, j]) < 1e-9 * np.abs(block).max(), (i + 1, j + 1)

    def test_mirror_symmetry_kills_xy_xz(self):
        k = mechanism_stiffness(small_rcc()).m
        assert abs(k[0, 1]) < 1e-9 * np.abs(k).max()
        assert abs(k[0, 2]) < 1e-9 * np.abs(k).max()

    def test_duality_route(self):
        # parallel sum of transformed stiffness == inverse of the
        # harmonically combined transformed compliances
        m = small_rcc()
        k_direct = mechanism_stiffness(m).m
        acc = np.zeros((6, 6))
        for limb, placement in m.limbs:
            c_ref = transform_compliance(limb_compliance(limb), placement)
            acc += np.linalg.inv(c_ref.m)
        np.testing.assert_allclose(k_direct, acc, rtol=1e-6)

    def test_material_scaling(self):
        m = small_rcc()
        k1 = mechanism_stiffness(m).m
        scale = 3.7
        scaled_limbs = []
        for limb, placement in m.limbs:
            members = tuple((
                g.__class__(**{**{f: getattr(g, f) for f in
                                  ("r", "t", "w", "h1") if hasattr(g, f)},
                               **({"l": g.l, "s": g.s} if hasattr(g, "l") else {}),
                               "material": g.material.scaled(scale)}), p)
                for g, p in limb.members)
            scaled_limbs.append((Limb(limb.name, members), placement))
        m2 = Mechanism(tuple(scaled_limbs), m.reference)
        k2 = mechanism_stiffness(m2).m
        np.testing.assert_allclose(k2, scale * k1, rtol=1e-9)
        c1, c2 = invert(mechanism_stiffness(m)), invert(mechanism_stiffness(m2))
        assert center_of_compliance(c2) == pytest.approx(center_of_compliance(c1), rel=1e-9)

    def test_parallel_monotonicity(self):
        m = small_rcc()
        limbs = list(m.limbs)
        k3 = mechanism_stiffness(Mechanism(tuple(limbs[:3]))).m
        k4 = mechanism_stiffness(Mechanism(tuple(limbs))).m
        assert np.linalg.eigvalsh(k4 - k3).min() > -1e-12 * np.abs(k4).max()

    def test_translation_block_sums_limb_blocks(self):
        # unrotated tip placements leave the 3x3 translational stiffness
        # block untouched, so the mechanism block is the plain limb sum
        m = small_rcc()
        k = mechanism_stiffness(m).m
        acc = np.zeros((3, 3))
        for limb, _ in m.limbs:
            acc += invert(limb_compliance(limb)).m[:3, :3]
        np.testing.assert_allclose(k[:3, :3], acc,
                                   rtol=1e-9, atol=1e-9 * np.abs(acc).max())

    def test_unequal_member_counts_match_loop_reference(self):
        # limbs of 3 and 5 members share one padded member grid
        m = design(2, long={1})
        assert {len(limb.members) for limb, _ in m.limbs} == {3, 5}
        want = hand_stiffness(m)
        got = mechanism_stiffness(m).m
        scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_two_limbs_minimum(self):
        with pytest.raises(ValueError, match=">=2 limbs"):
            Mechanism(((paper_limb(), FramePlacement(0.0, (0.0, 0.0, 0.0))),))


class TestCenterOfCompliance:
    def test_reference_fixture(self):
        # the in-plane 2x2 block of the published matrix puts the lateral
        # rotation center K66/K26 = 8600/360 above the reference
        c = invert(load_reference_stiffness())
        assert center_of_compliance(c) == pytest.approx(8600.0 / 360.0, rel=1e-9)

    def test_decoupled_has_no_center(self):
        c = SpatialMatrix6(np.diag([1.0, 2, 3, 4, 5, 6]), "compliance")
        with pytest.raises(ValueError, match="no finite rotation center"):
            center_of_compliance(c)

    def test_kind_checked(self):
        with pytest.raises(ValueError, match="compliance"):
            center_of_compliance(load_reference_stiffness())

    def test_sign_convention(self):
        # a pure rotational spring 12 mm below the reference (r points from
        # the spring to the reference): pushing +y rotates the platform
        # about the spring location, so the center must come out at -12
        c66 = 0.01
        spring = np.zeros((6, 6))
        spring[5, 5] = c66
        c = transform_compliance(SpatialMatrix6(spring, "compliance"),
                                 FramePlacement(0.0, (12.0, 0.0, 0.0)))
        assert center_of_compliance(c) == pytest.approx(-12.0)


class TestIdealFourbar:
    def test_paper_geometry(self):
        # tips sit 2.5 above the reference with +-10.325 lateral offset and
        # 20 deg lean: 2.5 + 10.325 / tan(20 deg)
        want = 2.5 + 10.325 / math.tan(math.radians(20.0))
        assert ideal_fourbar_center(small_rcc()) == pytest.approx(want, rel=1e-12)

    def test_crossing_at_45_degrees(self):
        # hand geometry: tips at (0, +-a), legs at 45 deg converge at x = a
        a = 6.0
        limb_l = Limb("l", ((BEAM, FramePlacement.from_degrees(-45.0, (5.0, 0.0, 0.0))),))
        limb_r = Limb("r", ((BEAM, FramePlacement.from_degrees(45.0, (5.0, 0.0, 0.0))),))
        m = Mechanism(((limb_l, FramePlacement(0.0, (0.0, -a, 0.0))),
                       (limb_r, FramePlacement(0.0, (0.0, a, 0.0)))))
        assert ideal_fourbar_center(m) == pytest.approx(a, rel=1e-12)

    def test_parallel_legs_at_infinity(self):
        limb = Limb("v", ((BEAM, FramePlacement(0.0, (5.0, 0.0, 0.0))),))
        m = Mechanism(((limb, FramePlacement(0.0, (0.0, -4.0, 0.0))),
                       (limb, FramePlacement(0.0, (0.0, 4.0, 0.0)))))
        with pytest.raises(ValueError, match="center at infinity"):
            ideal_fourbar_center(m)

    def test_needs_both_sides(self):
        limb = paper_limb()
        m = Mechanism(((limb, FramePlacement(0.0, (0.0, 4.0, 0.0))),
                       (limb, FramePlacement(0.0, (0.0, 5.0, 0.0)))))
        with pytest.raises(ValueError, match="both sides"):
            ideal_fourbar_center(m)


class TestRotationalPrecision:
    def test_paper_values(self):
        assert rotational_precision(26.6, 28.6) == pytest.approx(2.0)

    def test_zero_for_equal(self):
        assert rotational_precision(17.3, 17.3) == 0.0

    def test_absolute_difference(self):
        assert rotational_precision(30.0, 28.6) == pytest.approx(1.4)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            rotational_precision(math.inf, 28.6)


class TestStaticDeflection:
    def test_zero_wrench(self):
        k = load_reference_stiffness()
        np.testing.assert_array_equal(static_deflection(k, np.zeros(6)), np.zeros(6))

    def test_consistency(self):
        k = load_reference_stiffness()
        for _ in range(20):
            f = RNG.normal(size=6) * 10.0
            delta = static_deflection(k, f)
            np.testing.assert_allclose(k.m @ delta, f, rtol=1e-8, atol=1e-8 * np.abs(f).max())

    def test_unit_lateral_force_full_inversion(self):
        # unit F_y engages the (y, tz) block: dy = K66 / (K22 K66 - K26^2)
        k = load_reference_stiffness()
        delta = static_deflection(k, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        det = 30.0 * 8600.0 - 360.0**2
        assert delta[1] == pytest.approx(8600.0 / det, rel=1e-9)
        assert delta[5] == pytest.approx(-360.0 / det, rel=1e-9)

    def test_pure_moment_about_x(self):
        # row 4 of the fixture is decoupled: tx = Mx / 4700
        k = load_reference_stiffness()
        mx = 13.0
        delta = static_deflection(k, [0.0, 0.0, 0.0, mx, 0.0, 0.0])
        assert delta[3] == pytest.approx(mx / 4700.0, rel=1e-9)

    def test_kind_checked(self):
        c = invert(load_reference_stiffness())
        with pytest.raises(ValueError, match="stiffness"):
            static_deflection(c, np.zeros(6))


class TestDeviationReport:
    def test_fixture_values(self):
        k = load_reference_stiffness()
        devs = {d.axis: d for d in deviation_report(k, {"z": 2.54, "y": (8.3, 10.0)})}
        assert devs["z"].deviation_low == pytest.approx(0.14 / 2.4, rel=1e-9)
        assert devs["y"].deviation_low == pytest.approx((30.0 - 10.0) / 30.0, rel=1e-9)
        assert devs["y"].deviation_high == pytest.approx((30.0 - 8.3) / 30.0, rel=1e-9)

    def test_exact_match_zero(self):
        k = load_reference_stiffness()
        (d,) = deviation_report(k, {"x": 160.0})
        assert d.deviation_low == 0.0 == d.deviation_high

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="no analytic counterpart"):
            deviation_report(load_reference_stiffness(), {"q": 1.0})


class TestAnalyze:
    def test_full_pipeline(self):
        res = analyze(small_rcc())
        assert res.k.kind == "stiffness"
        assert res.c.kind == "compliance"
        assert res.rotational_precision == pytest.approx(
            abs(res.rcc_height - res.ideal_center))
        # soft lateral direction and stiff axial direction, as published
        diag = np.diag(res.k.m)
        assert diag[2] == diag[:3].min()
        assert diag[0] == diag[:3].max()

    def test_rcc_height_between_platform_and_ideal(self):
        res = analyze(small_rcc())
        assert 0.0 < res.rcc_height < res.ideal_center


DESIGNS = [design(1), design(1, long={0}), design(2), design(2, long={1}, lean=25.0),
           design(4, y=9.0), design(4, long={0, 2}, lean=15.0)]


class TestAnalyzeBatch:
    def test_batch_equals_one_by_one_bitwise(self):
        assert {len(m.limbs) for m in DESIGNS} == {2, 4, 8}
        for batched, m in zip(analyze_batch(DESIGNS), DESIGNS):
            (alone,) = analyze_batch([m])
            assert np.array_equal(batched.k.m, alone.k.m)
            assert np.array_equal(batched.c.m, alone.c.m)
            assert (batched.rcc_height, batched.ideal_center, batched.rotational_precision) == \
                (alone.rcc_height, alone.ideal_center, alone.rotational_precision)

    def test_analyze_is_a_batch_of_one(self):
        m = small_rcc()
        (batched,) = analyze_batch([m])
        assert np.array_equal(analyze(m).k.m, batched.k.m)
        assert analyze_batch([]) == []

    def test_failing_items_keep_their_error_and_spare_the_rest(self):
        vertical = Limb("v", ((BEAM, FramePlacement(0.0, (5.0, 0.0, 0.0))),))
        parallel = Mechanism(((vertical, FramePlacement(0.0, (0.0, -4.0, 0.0))),
                              (vertical, FramePlacement(0.0, (0.0, 4.0, 0.0)))))
        singular = design(2, hinge=HingeGeometry(1.25, 1e-9, 5.0, 0.0, MAT))
        batch = [DESIGNS[2], parallel, singular, DESIGNS[5]]
        results = analyze_batch(batch)
        for i in (1, 2):
            with pytest.raises(type(results[i])) as exc:
                analyze(batch[i])
            assert str(exc.value) == str(results[i])
        assert isinstance(results[1], ValueError) and "center at infinity" in str(results[1])
        assert isinstance(results[2], SingularMatrixError)
        for i in (0, 3):
            alone = analyze(batch[i])
            assert np.array_equal(results[i].k.m, alone.k.m)
            assert results[i].rcc_height == alone.rcc_height


def repeated_design(fresh):
    """The small RCC's four leaning limbs plus an unleaned middle limb placed
    at y = 0 on both sides of z = 0.  fresh=False makes every hinge, beam,
    placement and limb the design repeats one shared object; fresh=True
    builds an equal new object for each use, and places one middle limb at
    r_y = -0.0."""
    shared = {}

    def one(cls, *args):
        return cls(*args) if fresh else shared.setdefault((cls, args), cls(*args))

    def limb(side, lean):
        return one(Limb, "leg", (
            (one(HingeGeometry, 1.25, 2.82, 5.0, 0.0, MAT),
             one(FramePlacement, 0.0, (42.85, side * 14.765, 0.0))),
            (one(BeamGeometry, 10.4, 5.0, 5.32, MAT),
             one(FramePlacement, math.radians(side * lean), (10.4, 0.0, 0.0))),
            (one(HingeGeometry, 1.25, 2.82, 5.0, 0.0, MAT),
             one(FramePlacement, 0.0, (9.15, 0.0, 0.0)))))

    limbs = [(limb(side, 20.0), one(FramePlacement, 0.0, (-2.5, side * 10.325, z)))
             for side in (1.0, -1.0) for z in (-8.65, 8.65)]
    limbs += [(limb(0.0, 0.0), one(FramePlacement, 0.0, (-2.5, y, z)))
              for y, z in ((0.0, -8.65), (-0.0 if fresh else 0.0, 8.65))]
    return Mechanism(tuple(limbs))


class TestIdentitySharing:
    def test_equal_distinct_objects_match_shared_ones_bitwise(self):
        shared, fresh = repeated_design(False), repeated_design(True)
        assert len({id(limb) for limb, _ in shared.limbs}) == 3
        assert len({id(limb) for limb, _ in fresh.limbs}) == 6
        assert math.copysign(1.0, fresh.limbs[-1][1].r[1]) == -1.0
        reference = analyze(shared)
        for result in (analyze(fresh), *analyze_batch([fresh, shared])):
            assert np.array_equal(result.k.m, reference.k.m)
            assert np.array_equal(result.c.m, reference.c.m)
            assert result.rcc_height == reference.rcc_height


MECHANISMS = st.builds(
    lambda pairs, long, lean, y, t: design(pairs, long, lean, y,
                                           HingeGeometry(1.25, t, 5.0, 0.0, MAT)),
    pairs=st.integers(1, 4), long=st.sets(st.integers(0, 3)),
    lean=st.floats(5.0, 40.0), y=st.floats(5.0, 20.0), t=st.floats(1.5, 4.0))


@settings(max_examples=40, deadline=None, database=None)
@given(m=MECHANISMS, data=st.data())
def test_stiffness_invariant_under_limb_permutation(m, data):
    order = data.draw(st.permutations(range(len(m.limbs))))
    k = mechanism_stiffness(m).m
    k_perm = mechanism_stiffness(Mechanism(tuple(m.limbs[i] for i in order))).m
    scale = np.sqrt(np.outer(np.diag(k), np.diag(k)))
    assert np.all(np.abs(k_perm - k) <= 1e-12 * scale)


@settings(max_examples=40, deadline=None, database=None)
@given(m=MECHANISMS)
def test_stiffness_symmetric_positive_definite(m):
    k = mechanism_stiffness(m).m
    assert np.array_equal(k, k.T)
    d = 1.0 / np.sqrt(np.diag(k))       # equilibrated, so the test is unit-free
    assert np.linalg.eigvalsh(d[:, None] * k * d[None, :]).min() > 0.0
