"""Limb/mechanism assembly tests: serial and parallel composition,
remote-center extraction, deflection and deviation reporting."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import flexmech.mechanism as mech
import flexmech.plan as plans
import flexmech.spatial as spatial
from flexmech.analysis import SweepObjective, SweepSpec, run_sweep
from flexmech.elements import BeamGeometry, HingeGeometry, element_compliance
from flexmech.errors import SingularMatrixError, fault_error
from flexmech.fixtures import load_reference_stiffness, load_small_rcc
from flexmech.materials import Material
from flexmech.mechanism import (Limb, Mechanism, analyze, analyze_batch,
                                center_of_compliance, deviation_report,
                                ideal_fourbar_center, limb_compliance,
                                mechanism_stiffness, rotational_precision,
                                static_deflection)
from flexmech.spatial import FramePlacement, SpatialMatrix6, invert
from oracles import (amplification_displacement, amplification_force, scaled,
                     transform_compliance)

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


MECHANISMS = st.builds(
    lambda pairs, long, lean, y, t: design(pairs, long, lean, y,
                                           HingeGeometry(1.25, t, 5.0, 0.0, MAT)),
    pairs=st.integers(1, 4), long=st.sets(st.integers(0, 3)),
    lean=st.floats(5.0, 40.0), y=st.floats(5.0, 20.0), t=st.floats(1.5, 4.0))


def replaced(m, member, slot):
    """m with every member placement p replaced by member(p) and every limb
    slot placement p by slot(p)."""
    return Mechanism(tuple(
        (Limb(limb.name, tuple((g, member(p)) for g, p in limb.members)), slot(placement))
        for limb, placement in m.limbs), m.reference)


def moduli_scaled(m, s):
    """m with both moduli of every member's material scaled by s."""
    return Mechanism(tuple(
        (Limb(limb.name, tuple((replace(g, material=scaled(g.material, s)), p)
                               for g, p in limb.members)), placement)
        for limb, placement in m.limbs), m.reference)


def mirrored(p):
    """The mirror image y -> -y of a placement."""
    return FramePlacement(-p.theta, (p.r[0], -p.r[1], p.r[2]))


def hand_stiffness(m):
    """Loop reference: sum over limbs of J_F inv(sum of J C J^T) J_F^T."""
    k = np.zeros((6, 6))
    for limb, placement in m.limbs:
        c = np.zeros((6, 6))
        for geom, p in limb.members:
            j = amplification_displacement(p)
            c += j @ element_compliance(geom).m @ j.T
        jf = amplification_force(placement)
        k += jf @ np.linalg.inv(c) @ jf.T
    return k


class TestLimb:
    def test_single_member_identity(self):
        limb = Limb("one", ((HINGE, FramePlacement(0.0, (0.0, 0.0, 0.0))),))
        c = limb_compliance(limb)
        np.testing.assert_allclose(c.m, element_compliance(HINGE).m, rtol=1e-12)

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

    @given(l=st.floats(0.1, 100.0), w=st.floats(0.1, 50.0), s=st.floats(0.1, 50.0),
           split=st.floats(0.01, 0.99), e=st.floats(1.0, 1e4), nu=st.floats(0.0, 0.49))
    @example(l=10.4, w=5.0, s=5.32, split=0.5, e=43.8, nu=0.48)
    def test_split_beam_identity(self, l, w, s, split, e, nu):
        # flexibility chain rule: a cantilever split into two collinear
        # beams a + b = l (the distal one at the tip, the proximal one
        # transported by b) reproduces the closed-form whole-beam compliance
        mat = Material("m", e, nu)
        a = split * l
        b = l - a
        chain = Limb("split", (
            (BeamGeometry(b, w, s, mat), FramePlacement(0.0, (0.0, 0.0, 0.0))),
            (BeamGeometry(a, w, s, mat), FramePlacement(0.0, (b, 0.0, 0.0))),
        ))
        full = element_compliance(BeamGeometry(l, w, s, mat)).m
        scale = np.sqrt(np.outer(np.diag(full), np.diag(full)))
        assert (np.abs(limb_compliance(chain).m - full) <= 1e-12 * scale).all()

    def test_serial_monotonicity(self):
        # each added member only ever adds compliance
        limb = paper_limb()
        c_total = limb_compliance(limb).m
        for geom, placement in limb.members:
            j = amplification_displacement(placement)
            term = j @ element_compliance(geom).m @ j.T
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

    @settings(max_examples=40)
    @given(m=MECHANISMS, seed=st.integers(0, 2**32 - 1))
    def test_mirror_symmetry_kills_xy_xz(self, m, seed):
        # the bundled design is its own mirror image in y and in z
        k = mechanism_stiffness(small_rcc()).m
        assert abs(k[0, 1]) < 1e-9 * np.abs(k).max()
        assert abs(k[0, 2]) < 1e-9 * np.abs(k).max()
        # any design mirrored y -> -y flips the sign of K_ij where exactly one
        # of i, j is y, tx or tz; every placement is moved at random first,
        # so the design is not its own mirror image
        rng = np.random.default_rng(seed)

        def moved(p, dz):
            dx, dy = rng.uniform(-1.0, 1.0, size=2)
            return FramePlacement(p.theta + rng.uniform(-0.1, 0.1),
                                  (p.r[0] + dx, p.r[1] + dy, p.r[2] + dz * rng.uniform(-1.0, 1.0)))

        asymmetric = replaced(m, lambda p: moved(p, 0.0), lambda p: moved(p, 1.0))
        k = mechanism_stiffness(asymmetric).m
        k_mirror = mechanism_stiffness(replaced(asymmetric, mirrored, mirrored)).m
        flip = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        scale = np.sqrt(np.outer(np.diag(k), np.diag(k)))
        assert (np.abs(k_mirror - flip[:, None] * k * flip) <= 1e-13 * scale).all()

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

    def test_material_scaling_bundled_design(self):
        m = small_rcc()
        r1, r2 = analyze(m), analyze(moduli_scaled(m, 3.7))
        np.testing.assert_allclose(r2.k.m, 3.7 * r1.k.m, rtol=1e-9)
        np.testing.assert_allclose(r2.c.m * 3.7, r1.c.m, rtol=1e-9)

    @settings(max_examples=40)
    @given(m=MECHANISMS, s=st.floats(1e-3, 1e3))
    @example(m=small_rcc(), s=3.7)
    def test_material_scaling(self, m, s):
        # K is of degree 1 in the moduli: E and G scaled by s give K s and
        # C / s, entry by entry, and leave the rcc height where it was.  An
        # entry that is zero by symmetry is a rounding residue on both sides
        # (one design(1, ...) at s = 1e-3 reads K[3, 5] = 2e-18 against
        # -6e-19), so it is held to 1e-13 of sqrt(Xii Xjj) instead
        r1, r2 = analyze(m), analyze(moduli_scaled(m, s))
        for a, b in ((r2.k.m, s * r1.k.m), (r2.c.m * s, r1.c.m)):
            scale = np.sqrt(np.outer(np.diag(b), np.diag(b)))
            assert (np.abs(a - b) <= 1e-9 * np.abs(b) + 1e-13 * scale).all()
        assert r2.rcc_height == pytest.approx(r1.rcc_height, rel=1e-9)

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

    def test_coupling_threshold_is_unit_consistent(self):
        # |C62| is compared with sqrt(C22 C66), which has its units: a
        # coupling tiny against C66 but strong against C22 has a center
        m = np.eye(6)
        m[1, 1], m[5, 5] = 1e-10, 1e10
        m[1, 5] = m[5, 1] = 1e-3
        c = SpatialMatrix6(m, "compliance")
        assert center_of_compliance(c) == pytest.approx(-1e-7, rel=1e-15)

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


def crossing_at_45(a):
    """Tips at (0, +-a) with legs at 45 deg, converging at x = a."""
    limb_l = Limb("l", ((BEAM, FramePlacement.from_degrees(-45.0, (5.0, 0.0, 0.0))),))
    limb_r = Limb("r", ((BEAM, FramePlacement.from_degrees(45.0, (5.0, 0.0, 0.0))),))
    return Mechanism(((limb_l, FramePlacement(0.0, (0.0, -a, 0.0))),
                      (limb_r, FramePlacement(0.0, (0.0, a, 0.0)))))


def parallel_legs():
    limb = Limb("v", ((BEAM, FramePlacement(0.0, (5.0, 0.0, 0.0))),))
    return Mechanism(((limb, FramePlacement(0.0, (0.0, -4.0, 0.0))),
                      (limb, FramePlacement(0.0, (0.0, 4.0, 0.0)))))


def one_sided():
    limb = paper_limb()
    return Mechanism(((limb, FramePlacement(0.0, (0.0, 4.0, 0.0))),
                      (limb, FramePlacement(0.0, (0.0, 5.0, 0.0)))))


def scalar_fourbar_center(m):
    """Loop reference: the leg-axis intersection in scalar float arithmetic."""
    legs = [(-p.r[0], -p.r[1], limb.leg_angle()) for limb, p in m.limbs]
    pos = [leg for leg in legs if leg[1] > 0.0]
    neg = [leg for leg in legs if leg[1] < 0.0]
    if not pos or not neg:
        raise ValueError("ideal four-bar center needs limbs on both sides of the mid-plane")
    (x1, y1, a1), (x2, y2, a2) = pos[0], neg[0]
    if abs(math.sin(a2 - a1)) < 1e-12:
        raise ValueError("center at infinity: leg axes are parallel")
    s1 = ((x2 - x1) * math.sin(a2) - (y2 - y1) * math.cos(a2)) / math.sin(a2 - a1)
    return x1 + s1 * math.cos(a1)


class TestIdealFourbar:
    def test_paper_geometry(self):
        # tips sit 2.5 above the reference with +-10.325 lateral offset and
        # 20 deg lean: 2.5 + 10.325 / tan(20 deg)
        want = 2.5 + 10.325 / math.tan(math.radians(20.0))
        assert ideal_fourbar_center(small_rcc()) == pytest.approx(want, rel=1e-12)

    def test_crossing_at_45_degrees(self):
        # hand geometry: tips at (0, +-a), legs at 45 deg converge at x = a
        a = 6.0
        assert ideal_fourbar_center(crossing_at_45(a)) == pytest.approx(a, rel=1e-12)

    def test_parallel_legs_at_infinity(self):
        with pytest.raises(ValueError, match="center at infinity"):
            ideal_fourbar_center(parallel_legs())

    def test_needs_both_sides(self):
        with pytest.raises(ValueError, match="both sides"):
            ideal_fourbar_center(one_sided())

    def test_stack_function_equals_scalar_formula(self):
        # the cases above as one stack, padded with y = NaN to the longest
        # design; each height or message equals the scalar formula's
        cases = [small_rcc(), crossing_at_45(6.0), parallel_legs(), one_sided(), design(4)]
        width = max(len(m.limbs) for m in cases)
        legs = np.full((len(cases), width, 3), np.nan)
        for n, m in enumerate(cases):
            for i, (limb, p) in enumerate(m.limbs):
                legs[n, i] = -p.r[0], -p.r[1], limb.leg_angle()
        heights, faults = mech.fourbar_centers(legs)
        errors = [fault_error(f) if f else None for f in faults]
        for m, height, error in zip(cases, heights, errors):
            try:
                want = scalar_fourbar_center(m)
            except ValueError as exc:
                assert type(error) is ValueError and str(error) == str(exc)
                with pytest.raises(ValueError) as alone:
                    ideal_fourbar_center(m)
                assert str(alone.value) == str(exc)
            else:
                assert error is None and height == want == ideal_fourbar_center(m)


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

    def test_results_are_boxed_without_checking_again(self, counted_calls):
        # the engine has checked and symmetrized K and C in its one
        # matrix_faults pass; boxing them for the result checks nothing
        # again and stores what the checking constructor would
        analyze(small_rcc())
        checked = counted_calls(spatial.matrix_faults)
        result = analyze(small_rcc())
        assert len(checked) == 1
        assert (result.k.kind, result.c.kind) == ("stiffness", "compliance")
        assert not result.k.m.flags.writeable and not result.c.m.flags.writeable
        assert np.array_equal(SpatialMatrix6(result.k.m, "stiffness").m, result.k.m)
        assert np.array_equal(SpatialMatrix6(result.c.m, "compliance").m, result.c.m)

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
        # a neck so thin its kernels overflow: reported, not warned about
        vanishing = design(2, hinge=HingeGeometry(1.25, 1e-120, 5.0, 0.0, MAT))
        batch = [DESIGNS[2], parallel, singular, DESIGNS[5], vanishing, one_sided()]
        results = analyze_batch(batch)
        for i in (1, 2, 4, 5):
            with pytest.raises(type(results[i])) as exc:
                analyze(batch[i])
            assert str(exc.value) == str(results[i])
        assert isinstance(results[1], ValueError) and "center at infinity" in str(results[1])
        assert isinstance(results[2], SingularMatrixError)
        assert type(results[4]) is ValueError and str(results[4]) == "matrix entries must be finite"
        assert type(results[5]) is ValueError and "both sides" in str(results[5])
        for i in (0, 3):
            alone = analyze(batch[i])
            assert np.array_equal(results[i].k.m, alone.k.m)
            assert results[i].rcc_height == alone.rcc_height


def hinged(t):
    return HingeGeometry(1.25, t, 5.0, 0.0, MAT)


def mixed_necks(first, second):
    """The left limb of a one-pair design with necks `first`, then the right
    limb of one with necks `second`."""
    return Mechanism((design(1, hinge=hinged(first)).limbs[0],
                      design(1, hinge=hinged(second)).limbs[1]))


def decoupled():
    """Two straight beams whose lateral/rotation coupling cancels at the
    reference, l / 2 behind their tips."""
    limb = Limb("v", ((BEAM, FramePlacement(0.0, (0.0, 0.0, 0.0))),))
    return Mechanism(((limb, FramePlacement(0.0, (-5.2, -4.0, 0.0))),
                      (limb, FramePlacement(0.0, (-5.2, 4.0, 0.0)))))


def one_sided_singular():
    """A one-sided mechanism whose second limb cannot be inverted."""
    thin = Limb("thin", ((hinged(1e-9), FramePlacement(0.0, (1.0, 0.0, 0.0))),))
    return Mechanism(((paper_limb(), FramePlacement(0.0, (0.0, 4.0, 0.0))),
                      (thin, FramePlacement(0.0, (0.0, 5.0, 0.0)))))


SINGULAR_LIMB = "compliance matrix is numerically singular (condition estimate 4.826e+16)"
# a design faulting at each stage, and the type and message of the
# exception analyze and mechanism_stiffness raise for it (None: none)
FAULT_CASES = {
    "element": (lambda: design(2, hinge=hinged(1e-120)),
                (ValueError, "matrix entries must be finite"),
                (ValueError, "matrix entries must be finite")),
    "limb inversion": (lambda: design(2, hinge=hinged(1e-9)),
                       (SingularMatrixError, SINGULAR_LIMB), (SingularMatrixError, SINGULAR_LIMB)),
    "parallel legs": (parallel_legs, (ValueError, "center at infinity: leg axes are parallel"),
                      None),
    "one sided": (one_sided, (ValueError, "ideal four-bar center needs limbs on both sides of "
                                          "the mid-plane"), None),
    "no center": (decoupled, (ValueError, "no finite rotation center: lateral/rotation "
                                          "coupling is zero"), None),
    "valid": (lambda: DESIGNS[3], None, None),
    # the first faulty limb slot wins, whatever stage the later one fails at
    "singular then vanishing": (lambda: mixed_necks(1e-9, 1e-120),
                                (SingularMatrixError, SINGULAR_LIMB),
                                (SingularMatrixError, SINGULAR_LIMB)),
    "vanishing then singular": (lambda: mixed_necks(1e-120, 1e-9),
                                (ValueError, "matrix entries must be finite"),
                                (ValueError, "matrix entries must be finite")),
    # a limb's fault comes before the mechanism's
    "one sided, singular limb": (
        one_sided_singular,
        (SingularMatrixError, "compliance matrix is numerically singular (condition estimate "
                              "3.483e+16)"),
        (SingularMatrixError, "compliance matrix is numerically singular (condition estimate "
                              "3.483e+16)")),
}


def _raised(f):
    """The type and message of the exception f raises, or None."""
    try:
        f()
    except (ValueError, SingularMatrixError) as exc:
        return type(exc), str(exc)
    return None


class TestFaultOrder:
    """Each design's first fault, in the order a one-item run meets the
    checks, alone and in a batch in either order."""

    @pytest.mark.parametrize("name", FAULT_CASES)
    def test_alone(self, name):
        build, analyzed, stiffness = FAULT_CASES[name]
        assert _raised(lambda: analyze(build())) == analyzed
        assert _raised(lambda: mechanism_stiffness(build())) == stiffness

    @pytest.mark.parametrize("reverse", [False, True])
    def test_mixed_in_one_batch(self, reverse):
        names = list(FAULT_CASES)[::-1] if reverse else list(FAULT_CASES)
        designs = [FAULT_CASES[name][0]() for name in names]
        for name, m, result in zip(names, designs, analyze_batch(designs)):
            want = FAULT_CASES[name][1]
            if want is None:
                alone = analyze(m)
                assert np.array_equal(result.k.m, alone.k.m)
                assert np.array_equal(result.c.m, alone.c.m)
                assert result.rcc_height == alone.rcc_height
            else:
                assert (type(result), str(result)) == want

    def test_limb_compliance_checks_up_to_the_limb_sum(self):
        # an inversion the limb's compliance does not need is not checked
        thin = Limb("thin", ((hinged(1e-9), FramePlacement(0.0, (1.0, 0.0, 0.0))),))
        assert np.isfinite(limb_compliance(thin).m).all()
        vanishing = Limb("v", ((hinged(1e-120), FramePlacement(0.0, (1.0, 0.0, 0.0))),))
        assert _raised(lambda: limb_compliance(vanishing)) == (
            ValueError, "matrix entries must be finite")


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


@settings(max_examples=40)
@given(m=MECHANISMS, data=st.data())
def test_stiffness_invariant_under_limb_permutation(m, data):
    order = data.draw(st.permutations(range(len(m.limbs))))
    k = mechanism_stiffness(m).m
    k_perm = mechanism_stiffness(Mechanism(tuple(m.limbs[i] for i in order))).m
    scale = np.sqrt(np.outer(np.diag(k), np.diag(k)))
    assert np.all(np.abs(k_perm - k) <= 1e-12 * scale)


@settings(max_examples=40)
@given(m=MECHANISMS)
def test_stiffness_symmetric_positive_definite(m):
    k = mechanism_stiffness(m).m
    assert np.array_equal(k, k.T)
    d = 1.0 / np.sqrt(np.diag(k))       # equilibrated, so the test is unit-free
    assert np.linalg.eigvalsh(d[:, None] * k * d[None, :]).min() > 0.0


def _outcome(f):
    """The bytes of what f returns, or the type and message of the exception
    it raises."""
    try:
        return np.asarray(f(), dtype=float).tobytes()
    except (ValueError, SingularMatrixError) as exc:
        return type(exc), str(exc)


@settings(max_examples=40)
@given(m=MECHANISMS)
def test_single_item_entry_points_equal_analyze_bitwise(m):
    # the one-item entry points are the engine applied to one item, so they
    # give analyze's bits; the ideal center pins the leg angles' run sums
    # against Limb.leg_angle
    assert _outcome(lambda: mechanism_stiffness(m).m) == _outcome(lambda: analyze(m).k.m)
    assert (_outcome(lambda: invert(mechanism_stiffness(m)).m)
            == _outcome(lambda: analyze(m).c.m))
    assert _outcome(lambda: ideal_fourbar_center(m)) == _outcome(lambda: analyze(m).ideal_center)


def _engine_bits(mechanisms):
    """The bytes of everything _evaluate returns for analyze_batch's compile
    of `mechanisms`: limb compliances, K, C, centre rows, fault codes and
    condition numbers."""
    compiled = mech._compile([pair for m in mechanisms for pair in m.limbs],
                             [len(m.limbs) for m in mechanisms])
    return [(a.dtype, a.shape, a.tobytes()) for a in mech._evaluate(compiled)]


def _empty_cache():
    """Give both plan caches no entries and zero their counts."""
    plans.build_plan.cache_clear()
    plans.build_grid_plan.cache_clear()


def _builds():
    """The (plan, grid plan) builds so far: each cache's misses."""
    return plans.build_plan.cache_info().misses, plans.build_grid_plan.cache_info().misses


def _cold(f):
    """f() run with empty plan caches."""
    _empty_cache()
    return f()


# the faulty designs of FAULT_CASES, so cold and warm runs also compare
# the fault tables
FAULTY = st.sampled_from([case[0] for case in FAULT_CASES.values()]).map(lambda build: build())


@settings(max_examples=40)
@given(ms=st.lists(st.one_of(MECHANISMS, FAULTY), min_size=1, max_size=3))
def test_cold_plan_equals_warm_plan_bitwise(ms):
    cold = _cold(lambda: _engine_bits(ms))
    _engine_bits(ms)            # the plan is cached from here on
    assert _engine_bits(ms) == cold
    warm = analyze_batch(ms)
    for want, got in zip(_cold(lambda: analyze_batch(ms)), warm):
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            assert np.array_equal(got.k.m, want.k.m) and np.array_equal(got.c.m, want.c.m)
            assert (got.rcc_height, got.ideal_center, got.rotational_precision) == \
                (want.rcc_height, want.ideal_center, want.rotational_precision)


class TestPlan:
    """The engine's integer half is a plan made once per layout of copies
    and kept (flexmech.plan); the float half runs on every call."""

    def test_identity_and_order_get_their_own_plan_and_cold_result(self):
        _empty_cache()
        shared, fresh = repeated_design(False), repeated_design(True)
        # limb slots (a, a, b, b, c, c) placed as (a, b, a, b, c, c)
        reordered = Mechanism(tuple(shared.limbs[i] for i in (0, 2, 1, 3, 4, 5)))
        designs = (shared, fresh, reordered)
        seen = []
        for m in designs:
            seen.append(_engine_bits([m]))
            assert plans.build_plan.cache_info().currsize == len(seen)
        for m, warm in zip(designs, seen):
            assert _cold(lambda: _engine_bits([m])) == warm
        # equal objects give the same K, shared or not
        assert seen[0][1] == seen[1][1]

    def test_warm_calls_of_a_known_layout_build_no_plan(self, monkeypatch):
        _empty_cache()
        built = []
        for name in ("shared", "runs"):
            function = getattr(plans, name)
            monkeypatch.setattr(plans, name, lambda *a, f=function, n=name: (built.append(n),
                                                                              f(*a))[1])
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: (built.append("unique"),
                                                           unique(*a, **k))[1])
        analyze(design(2, long={1}))
        assert _builds() == (1, 0)
        built.clear()
        # new numbers, the same topology: the plan is reused
        analyze(design(2, long={1}, lean=23.0, y=11.0, hinge=hinged(2.5)))
        mechanism_stiffness(design(2, long={1}, lean=17.0, hinge=hinged(3.1)))
        assert built == [] and _builds() == (1, 0)
        objective = SweepObjective(rcc_height_target=28.6)
        run_sweep(SweepSpec({"angle": (12.0, 30.0, 16), "y": (8.0, 13.0, 16)}, objective),
                  small_rcc())
        assert {"shared", "runs", "unique"} <= set(built) and _builds() == (2, 1)
        built.clear()
        # a second sweep of the same grid shape, over other ranges
        run_sweep(SweepSpec({"angle": (14.0, 25.0, 16), "y": (9.0, 12.0, 16)}, objective),
                  small_rcc())
        assert built == [] and _builds() == (2, 1)

    def test_t_and_r_sweeps_of_one_grid_shape_share_a_plan(self):
        # the plan reads the edit targets and masks, which t and r share
        _empty_cache()
        objective = SweepObjective(rcc_height_target=28.6)
        for name in ("t", "r", "w"):
            run_sweep(SweepSpec({name: (1.0, 3.0, 5), "angle": (12.0, 30.0, 4)}, objective),
                      small_rcc())
            assert _builds() == (1, 1)

    def test_cache_stays_within_its_bound(self):
        _empty_cache()
        objective = SweepObjective(rcc_height_target=28.6)
        # at least 24 topologies: 1 to 5 limb pairs, some of them long
        for pairs in range(1, 6):
            for long in ((), (0,), (1,), (pairs - 1,), (0, pairs - 1), tuple(range(pairs)),
                         tuple(range(0, pairs, 2))):
                analyze(design(pairs, long=set(long)))
        topologies = _builds()[0]
        assert topologies >= 24
        # more grid shapes than the grid plan cache keeps, then 4 sweep shapes
        for n in range(1, plans.PLAN_CACHE_SIZE + 5):
            plans.build_grid_plan((n, 3), (False, True), 0, 3 * n)
        for n in (2, 7, 16, 40):
            run_sweep(SweepSpec({"angle": (12.0, 30.0, n), "t": (2.0, 3.0, n)}, objective),
                      small_rcc())
        # the 40 x 40 sweep takes two batches, each with a plan and a grid plan
        builds = (topologies + 5, plans.PLAN_CACHE_SIZE + 9)
        assert _builds() == builds
        for cached in (plans.build_plan, plans.build_grid_plan):
            assert cached.cache_info().currsize == plans.PLAN_CACHE_SIZE
        # the newest layout is kept: the last sweep builds nothing again
        run_sweep(SweepSpec({"angle": (14.0, 25.0, 40), "t": (2.5, 3.5, 40)}, objective),
                  small_rcc())
        assert _builds() == builds

    def test_plan_arrays_are_read_only(self):
        compiled = mech._compile(small_rcc().limbs, (4,))
        names = ("angle", "t", "y")
        grid_plan = plans.build_grid_plan((4, 3, 2), (False, False, True), 0, 24)
        built = [grid_plan, mech._plan(compiled, (), mech._ONE_COPY, mech._ONE_COPY),
                 mech._plan(compiled, names, grid_plan.row_of, grid_plan.place_of)]

        def arrays_in(value):
            if isinstance(value, np.ndarray):
                return [value]
            return [a for item in value for a in arrays_in(item)] if isinstance(value, tuple) \
                else []

        arrays = arrays_in(tuple(built))
        assert len(arrays) > 30
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = a

    def test_grid_plan_cache_holds_batches_not_grids(self):
        # each entry covers one batch, so a million-point grid leaves at most
        # PLAN_CACHE_SIZE batches in the cache; its whole level index and row
        # keys would take about 40 MB
        _empty_cache()
        sizes, total = (1000, 1000), 1000 * 1000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for start in range(0, total, mech.SWEEP_BATCH):
                plans.build_grid_plan(sizes, (False, True), start,
                                      min(start + mech.SWEEP_BATCH, total))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert plans.build_grid_plan.cache_info().currsize == plans.PLAN_CACHE_SIZE
        assert held < 1e6
        _empty_cache()


@settings(max_examples=30)
@given(m=MECHANISMS)
def test_every_compliance_and_stiffness_is_positive_definite(m):
    # invert_stack refuses on the condition number and a non-positive
    # diagonal only, so a well-conditioned indefinite matrix would pass it;
    # a Cholesky factor exists only for a positive definite matrix
    result = analyze(m)
    for limb, _ in m.limbs:
        for geom, _ in limb.members:
            np.linalg.cholesky(element_compliance(geom).m)
        np.linalg.cholesky(limb_compliance(limb).m)
    np.linalg.cholesky(result.k.m)
    np.linalg.cholesky(result.c.m)
