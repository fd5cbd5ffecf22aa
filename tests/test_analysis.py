"""Creep model/fit and parametric sweep tests."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flexmech.analysis as analysis
import flexmech.kernels as kernels
import flexmech.mechanism as mechanism
import flexmech.spatial as spatial
from flexmech.analysis import (CreepModel, SweepObjective, SweepPoint, SweepSpec, _ranking,
                               _score, creep_force, fit_creep, run_sweep)
from flexmech.elements import BeamGeometry, HingeGeometry
from flexmech.errors import FlexmechError
from flexmech.fixtures import data_path, load_small_rcc
from flexmech.materials import MeasuredJointRecord
from flexmech.mechanism import Limb, Mechanism, analyze
from flexmech.mechfile import parse_lines, read_lines
from flexmech.report import sweep_table
from flexmech.spatial import FramePlacement, SpatialMatrix6
from oracles import grid, sort_key

PAPER_CREEP = CreepModel(22.0, 19.0, 200.0)


class TestCreepForce:
    def test_initial_force(self):
        assert creep_force(PAPER_CREEP, 0.0) == 22.0

    def test_steady_state(self):
        assert creep_force(PAPER_CREEP, 1e9) == pytest.approx(19.0)

    def test_one_time_constant(self):
        assert creep_force(PAPER_CREEP, 200.0) == pytest.approx(19.0 + 3.0 / math.e)
        assert creep_force(PAPER_CREEP, 200.0) == pytest.approx(20.10, abs=5e-3)

    def test_monotone_and_bounded(self):
        # strict monotonicity checked inside ~10 time constants, before the
        # decay saturates at machine precision
        t = np.linspace(0.0, 2000.0, 400)
        f = creep_force(PAPER_CREEP, t)
        assert np.all(np.diff(f) < 0.0)
        assert np.all((19.0 <= f) & (f <= 22.0))
        t_short = np.linspace(0.0, 500.0, 200)
        rising = creep_force(CreepModel(5.0, 9.0, 50.0), t_short)
        assert np.all(np.diff(rising) > 0.0)
        assert np.all((5.0 <= rising) & (rising <= 9.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            CreepModel(22.0, 19.0, 0.0)
        with pytest.raises(ValueError):
            creep_force(PAPER_CREEP, -1.0)


class TestFitCreep:
    def samples(self, model=PAPER_CREEP, tmax=1000.0, n=101):
        t = np.linspace(0.0, tmax, n)
        return list(zip(t, creep_force(model, t)))

    def test_noiseless_round_trip(self):
        fit = fit_creep(self.samples())
        assert fit.tau_identifiable
        assert fit.model.f0 == pytest.approx(22.0, rel=1e-6)
        assert fit.model.f_ss == pytest.approx(19.0, rel=1e-6)
        assert fit.model.tau == pytest.approx(200.0, rel=1e-6)
        assert fit.residual_norm < 1e-8

    @pytest.mark.parametrize("bad", [(math.inf, 3.5), (2.0, math.nan), (-math.inf, 3.5)],
                             ids=["inf-time", "nan-force", "minus-inf-time"])
    def test_non_finite_samples_rejected(self, bad, capfd):
        # rejected before the fit: no warning (an error in this suite), no
        # LAPACK complaint on stderr
        with pytest.raises(ValueError, match="samples must be finite"):
            fit_creep([(0.0, 5.0), (1.0, 4.0), bad, (3.0, 3.0)])
        assert capfd.readouterr().err == ""

    def test_rising_trace(self):
        fit = fit_creep(self.samples(CreepModel(3.0, 8.0, 120.0), tmax=700.0))
        assert fit.model.tau == pytest.approx(120.0, rel=1e-6)

    def test_constant_unidentifiable(self):
        fit = fit_creep([(0.0, 19.0), (10.0, 19.0), (20.0, 19.0), (30.0, 19.0)])
        assert not fit.tau_identifiable
        assert fit.model.f0 == fit.model.f_ss == 19.0

    def test_needs_four_samples(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_creep([(0.0, 22.0), (10.0, 21.0), (20.0, 20.5)])

    def test_noisy_tau_recovery(self):
        # 1% multiplicative noise on a 3 N decay leaves per-seed scatter of
        # several percent (the estimator noise floor, cross-checked against
        # an external least-squares fit); the Monte-Carlo aggregate over
        # 100 seeds recovers tau within 5%
        t = np.linspace(0.0, 1000.0, 101)
        clean = creep_force(PAPER_CREEP, t)
        taus = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = clean * (1.0 + 0.01 * rng.standard_normal(t.size))
            taus.append(fit_creep(list(zip(t, noisy))).model.tau)
        assert abs(np.mean(taus) - 200.0) / 200.0 < 0.05
        assert abs(np.median(taus) - 200.0) / 200.0 < 0.05
        assert np.std(taus) < 0.1 * 200.0


@pytest.mark.parametrize("build, message", [
    (lambda: CreepModel(math.nan, 19.0, 200.0), "forces"),
    (lambda: CreepModel(22.0, math.inf, 200.0), "forces"),
    (lambda: CreepModel(1.0, 1.0, math.nan), "time constant"),
    (lambda: CreepModel(1.0, 1.0, math.inf), "time constant"),
    (lambda: MeasuredJointRecord("a", math.nan, 1.0, 1.0), "cross_stiffness"),
    (lambda: MeasuredJointRecord("a", 1.0, math.inf, 1.0), "joint_stiffness"),
    (lambda: MeasuredJointRecord("a", None, 1.0, math.nan), "max_joint_load"),
], ids=["creep-f0-nan", "creep-fss-inf", "creep-tau-nan", "creep-tau-inf", "joint-cross-nan",
        "joint-stiffness-inf", "joint-load-nan"])
def test_non_finite_measurements_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestSweepSpec:
    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            SweepSpec({"q": (1.0, 2.0, 2)}, SweepObjective())

    def test_positive_ranges(self):
        with pytest.raises(ValueError, match="positive"):
            SweepSpec({"t": (0.0, 2.0, 2)}, SweepObjective())

    def test_angle_range(self):
        with pytest.raises(ValueError, match="angle"):
            SweepSpec({"angle": (0.0, 95.0, 3)}, SweepObjective())

    def test_grid_order(self):
        spec = SweepSpec({"t": (1.0, 2.0, 2), "angle": (10.0, 20.0, 2)},
                         SweepObjective())
        points = list(grid(spec))
        assert points[0] == {"t": 1.0, "angle": 10.0}
        assert points[1] == {"t": 1.0, "angle": 20.0}
        assert len(points) == 4


class TestApplyParameters:
    def test_hinge_and_angle_and_placement(self):
        template = load_small_rcc().mechanism
        variant = apply_parameters(template, {"t": 3.4, "angle": 25.0, "y": 12.0})
        limb, placement = variant.limbs[0]
        hinge = limb.members[0][0]
        assert hinge.t == 3.4
        beam_placement = limb.members[1][1]
        assert abs(beam_placement.theta_deg) == pytest.approx(25.0)
        assert abs(placement.r[1]) == 12.0
        # signs preserved per limb
        thetas = [l.members[1][1].theta_deg for l, _ in variant.limbs]
        assert sorted(set(round(t, 6) for t in thetas)) == [-25.0, 25.0]

    def test_all_parameter_axes(self):
        template = load_small_rcc().mechanism
        variant = apply_parameters(template,
                                   {"r": 1.6, "w": 6.0, "z": 11.0, "t": 3.0})
        hinge = variant.limbs[0][0].members[0][0]
        assert (hinge.r, hinge.w, hinge.t) == (1.6, 6.0, 3.0)
        zs = sorted(set(p.r[2] for _, p in variant.limbs))
        assert zs == [-11.0, 11.0]
        # untouched fields survive
        beam = variant.limbs[0][0].members[1][0]
        assert isinstance(beam, BeamGeometry) and beam.l == 10.4


class TestRunSweep:
    def test_single_point_matches_analyze(self):
        template = load_small_rcc().mechanism
        spec = SweepSpec({"t": (2.82, 2.82, 1)},
                         SweepObjective(rcc_height_target=28.6))
        (point,) = run_sweep(spec, template).points()
        res = analyze(template)
        assert point.feasible
        assert point.rcc_height == pytest.approx(res.rcc_height, rel=1e-12)
        np.testing.assert_allclose(point.k_diag, np.diag(res.k.m), rtol=1e-12)
        assert point.score == pytest.approx(abs(res.rcc_height - 28.6))

    def test_grid_cardinality_and_ranking(self):
        template = load_small_rcc().mechanism
        spec = SweepSpec({"angle": (15.0, 25.0, 3), "t": (2.4, 3.2, 3)},
                         SweepObjective(rcc_height_target=28.6))
        points = run_sweep(spec, template).points()
        assert len(points) == 9
        scores = [p.score for p in points if p.feasible]
        assert scores == sorted(scores)

    def test_thicker_neck_stiffens_every_axis(self):
        template = load_small_rcc().mechanism
        spec = SweepSpec({"t": (2.0, 4.0, 5)},
                         SweepObjective(diag_stiffness_target={"z": 2.4}))
        points = sorted(run_sweep(spec, template).points(), key=lambda p: p.params)
        diags = np.array([p.k_diag for p in points])
        assert np.all(np.diff(diags, axis=0) > 0.0)

    def test_unknown_target_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown stiffness axis 'q'"):
            SweepObjective(diag_stiffness_target={"q": 5.0})

    @pytest.mark.parametrize("objective", [
        {"rcc_height_target": math.nan}, {"diag_stiffness_target": {"z": math.inf}},
        {"weights": {"ratio": math.nan}}, {"weights": {"rcc": -math.inf}}])
    def test_non_finite_target_or_weight_rejected(self, objective):
        with pytest.raises(ValueError, match="must be finite"):
            SweepObjective(**objective)

    @pytest.mark.parametrize("name", ["rcc_height", "Ratio", "k_diag", ""])
    def test_unknown_weight_term_rejected(self, name):
        # a misspelt term would otherwise be ignored and keep weight 1
        with pytest.raises(ValueError) as exc:
            SweepObjective(rcc_height_target=28.6, weights={"rcc": 2.0, name: 0.0})
        assert str(exc.value) == (f"unknown weight term {name!r}; "
                                  "expected one of rcc, ratio, diag")

    @pytest.mark.parametrize("objective, term", [
        ({"weights": {"diag": 2.0}, "rcc_height_target": 28.0}, "diag"),
        ({"weights": {"diag": 2.0}, "diag_stiffness_target": {}}, "diag"),
        ({"weights": {"rcc": 2.0}, "stiffness_ratio_max": True}, "rcc"),
        ({"weights": {"ratio": 0.5}, "diag_stiffness_target": {"z": 2.4}}, "ratio")])
    def test_weight_without_its_objective_rejected(self, objective, term):
        # _score would ignore the weight, and serialize would not write it
        with pytest.raises(ValueError) as exc:
            SweepObjective(**objective)
        assert str(exc.value) == f"weight for term {term!r}, which has no objective"

    @pytest.mark.parametrize("target", [0.0, -0.0])
    def test_zero_stiffness_target_rejected(self, target):
        # the score divides by each stiffness target
        with pytest.raises(ValueError, match="stiffness target for axis 'x' must be nonzero"):
            SweepObjective(diag_stiffness_target={"z": 2.4, "x": target})

    def test_objective_keeps_its_own_copies(self):
        # a caller's later edit of its dicts cannot reach the checked
        # objective: a zero target would divide every score by zero
        targets, weights = {"z": 2.4}, {"diag": 2.0}
        objective = SweepObjective(diag_stiffness_target=targets, weights=weights)
        targets["z"], weights["diag"] = 0.0, math.nan
        assert objective.diag_stiffness_target == {"z": 2.4}
        assert objective.weights == {"diag": 2.0}
        with pytest.raises(TypeError):
            objective.diag_stiffness_target["z"] = 0.0
        with pytest.raises(TypeError):
            objective.weights["diag"] = 0.0
        result = run_sweep(SweepSpec({"t": (2.0, 3.0, 2)}, objective), load_small_rcc().mechanism)
        assert result.feasible.all() and np.isfinite(result.score).all()

    def test_angle_moves_rcc_toward_target(self):
        # on the 16..30 deg branch the computed center height is monotone
        # increasing in the leg angle, so with a high target the ranking
        # walks the grid monotonically toward the best angle
        template = load_small_rcc().mechanism
        spec = SweepSpec({"angle": (16.0, 30.0, 8)},
                         SweepObjective(rcc_height_target=40.0))
        by_angle = sorted(run_sweep(spec, template).points(), key=lambda p: p.params)
        heights = [p.rcc_height for p in by_angle]
        assert all(h2 > h1 for h1, h2 in zip(heights, heights[1:]))
        ranked = run_sweep(spec, template).points()
        angles = [dict(p.params)["angle"] for p in ranked]
        assert angles == sorted(angles, reverse=True)

    def test_infeasible_point_recorded_not_fatal(self):
        # a template with unleaned legs has no four-bar intersection; every
        # grid point is flagged infeasible and the run still completes
        mat = load_small_rcc().materials["copolyester"]
        beam = BeamGeometry(10.4, 5.0, 5.32, mat)
        hinge = HingeGeometry(1.25, 2.82, 5.0, 0.0, mat)
        limb = Limb("v", ((hinge, FramePlacement(0.0, (20.4, 0.0, 0.0))),
                          (beam, FramePlacement(0.0, (10.0, 0.0, 0.0)))))
        template = Mechanism(((limb, FramePlacement(0.0, (0.0, 5.0, 0.0))),
                              (limb, FramePlacement(0.0, (0.0, -5.0, 0.0)))))
        spec = SweepSpec({"t": (2.0, 3.0, 2)}, SweepObjective())
        points = run_sweep(spec, template).points()
        assert len(points) == 2
        assert all(not p.feasible for p in points)
        assert all("infinity" in p.reason for p in points)

    @pytest.mark.parametrize("name, pattern, replacement", [
        ("z", r",-?8\.65", ",0"),                        # every limb slot at z = 0
        ("angle", r"theta=-?20", "theta=0"),             # no rotated member
        ("t", "member notch ", "member column "),        # no hinge member
        ("r", "member notch ", "member column "),
        ("w", "member notch ", "member column "),
    ], ids=["z", "angle", "t", "r", "w"])
    def test_parameter_that_edits_nothing_rejected(self, name, pattern, replacement):
        # every grid row would be the unedited template, labelled with values
        # it was never evaluated at
        text = re.sub(pattern, replacement, "".join(read_lines(data_path("small_rcc.mech"))))
        template = parse_lines(text.splitlines()).mechanism
        spec = SweepSpec({name: (1.0, 5.0, 3)}, SweepObjective())
        with pytest.raises(ValueError, match=f"sweep parameter '{name}' edits nothing"):
            run_sweep(spec, template)

    def test_tie_break_lexicographic(self):
        template = load_small_rcc().mechanism
        spec = SweepSpec({"t": (2.0, 3.0, 3)}, SweepObjective())  # all scores 0
        points = run_sweep(spec, template).points()
        assert all(p.score == 0.0 for p in points)
        values = [dict(p.params)["t"] for p in points]
        assert values == sorted(values)

    def test_infeasible_point_keeps_scalar_reason_and_spares_the_rest(self):
        # t = 1e-9 makes every limb compliance numerically singular; the
        # grid's other points must come out as if each ran alone
        template = load_small_rcc().mechanism
        spec = SweepSpec({"t": (1e-9, 3.0, 4)}, SweepObjective(rcc_height_target=28.6))
        points = {dict(p.params)["t"]: p for p in run_sweep(spec, template).points()}
        bad = points.pop(1e-9)
        assert not bad.feasible
        with pytest.raises(FlexmechError) as exc:
            analyze(apply_parameters(template, {"t": 1e-9}))
        assert bad.reason == str(exc.value)
        assert len(points) == 3
        for t, point in points.items():
            (alone,) = run_sweep(SweepSpec({"t": (t, t, 1)}, spec.objective), template).points()
            assert point == alone


    def test_batch_size_does_not_change_results(self, monkeypatch):
        template = load_small_rcc().mechanism
        spec = SweepSpec({"angle": (15.0, 25.0, 3), "t": (1e-9, 3.2, 3)},
                         SweepObjective(rcc_height_target=28.6))
        whole = run_sweep(spec, template).points()
        monkeypatch.setattr(mechanism, "SWEEP_BATCH", 4)
        assert run_sweep(spec, template).points() == whole

    def test_spec_refuses_ranges_a_variant_or_placement_would_refuse(self):
        # ranges that would retune the hinge to t <= 0 or move a limb tip to
        # a non-finite y (linspace of an infinite range or span) are refused
        # when the spec is made, and a made spec cannot be edited
        ranges = {"t": (1.0, 2.0, 3), "y": (8.0, 9.0, 2)}
        spec = SweepSpec(ranges, SweepObjective(rcc_height_target=28.6))
        with pytest.raises(TypeError):
            spec.parameters["t"] = (-1.0, 1.0, 3)
        ranges["t"] = (-1.0, 1.0, 3)
        assert spec.parameters == {"t": (1.0, 2.0, 3), "y": (8.0, 9.0, 2)}
        for bad in ({"t": (-1.0, 1.0, 3)}, {"y": (math.inf, math.inf, 1)},
                    {"y": (-math.inf, math.inf, 2)}, {"y": (-1e308, 1e308, 3)},
                    {"t": (math.nan, math.nan, 1)}, {"t": (1.0, 2.0, 2.5)},
                    {"t": (1.0, 2.0, math.nan)}):
            with pytest.raises(ValueError):
                SweepSpec(bad, spec.objective)
        # a whole count given as a float is kept as an int, so the grid is made
        whole = SweepSpec({"t": (1.0, 2.0, 3.0)}, spec.objective)
        assert whole.parameters["t"] == (1.0, 2.0, 3) and type(whole.parameters["t"][2]) is int
        assert len(run_sweep(whole, load_small_rcc().mechanism)) == 3


class TestSweepSharing:
    """A 16 angle x 16 y sweep of the bundled design: two template limbs
    re-leaned at 16 angles, 256 points."""

    SPEC = SweepSpec({"angle": (12.0, 30.0, 16), "y": (8.0, 13.0, 16)},
                     SweepObjective(rcc_height_target=28.6, stiffness_ratio_max=True))

    def test_sweep_builds_no_spatial_matrix(self, monkeypatch):
        template = load_small_rcc().mechanism
        built = []
        post_init = SpatialMatrix6.__post_init__

        def counted(self):
            built.append(self.kind)
            post_init(self)

        monkeypatch.setattr(SpatialMatrix6, "__post_init__", counted)
        result = run_sweep(self.SPEC, template)
        assert len(result) == 256 and result.feasible.all()
        assert built == []

    def test_limb_variants_computed_once_across_the_grid(self, monkeypatch):
        template = load_small_rcc().mechanism
        computed = []
        limb_stack = mechanism._limb_stack

        def counted(*args):
            out = limb_stack(*args)
            computed.append(len(out[0]))
            return out

        monkeypatch.setattr(mechanism, "_limb_stack", counted)
        run_sweep(self.SPEC, template)
        assert computed == [32]

    def test_sweep_builds_no_mechanism_and_no_placement_per_point(self, monkeypatch):
        template = load_small_rcc().mechanism
        built = []

        def counting(cls):
            post_init = cls.__post_init__

            def counted(self):
                built.append(cls.__name__)
                post_init(self)
            monkeypatch.setattr(cls, "__post_init__", counted)

        for cls in (Mechanism, FramePlacement, Limb, HingeGeometry):
            counting(cls)
        geometry = SweepSpec({"t": (2.0, 3.0, 8), "r": (1.0, 1.5, 8)}, self.SPEC.objective)
        for spec in (self.SPEC, geometry):
            run_sweep(spec, template)
        assert built == []
        # the control: the object path builds every kind the sweep avoids
        apply_parameters(template, {"t": 2.0, "angle": 20.0, "y": 9.0})
        assert {"Mechanism", "FramePlacement", "Limb", "HingeGeometry"} <= set(built)

    def test_one_kernel_call_per_batch(self, monkeypatch):
        template = load_small_rcc().mechanism
        calls = []
        notch_kernels = kernels.notch_kernels

        def counted(r, t, w):
            calls.append(len(r))
            return notch_kernels(r, t, w)

        monkeypatch.setattr(kernels, "notch_kernels", counted)
        # fresh geometries, so no grid point hits the kernel cache
        spec = SweepSpec({"t": (2.01234, 3.01234, 8), "r": (1.01234, 1.51234, 8)},
                         self.SPEC.objective)
        run_sweep(spec, template)
        assert calls == [64]
        calls.clear()
        monkeypatch.setattr(mechanism, "SWEEP_BATCH", 20)
        run_sweep(SweepSpec({"t": (2.11234, 3.11234, 8), "r": (1.11234, 1.61234, 8)},
                            self.SPEC.objective), template)
        assert calls == [20, 20, 20, 4]


    def test_each_part_computed_once_for_the_rows_it_differs_on(self, counted_calls):
        template = load_small_rcc().mechanism
        built, terms = map(counted_calls, (spatial.transports, spatial.congruence))
        run_sweep(self.SPEC, template)
        # 16 angle rows re-lean the 2 rotated members; the other 4 members
        # keep one transport and one J C J^T term, and the 4 limb slots have
        # one transport per y row: 4 + 2 x 16 + 16 x 4
        assert built == [100]
        # the 36 member terms, then the limb slot terms, one per point and
        # slot, at most 256 at a time: one slot column of the 256 points
        assert terms == [36, 256, 256, 256, 256]
        built.clear()
        terms.clear()
        run_sweep(SweepSpec({"t": (2.0, 3.0, 8), "r": (1.0, 1.5, 8)}, self.SPEC.objective),
                  template)
        # no angle or placement edit: 6 member and 4 slot transports; the
        # 2 beam members' terms are shared, the 4 hinge members' are not;
        # the 64 points' 4 slot columns make one block of 256 terms
        assert built == [10]
        assert terms == [2 + 64 * 4, 64]


class TestOnePass:
    """The engine checks every stage's matrices in one matrix_faults pass and
    builds every transport in one rot_z/s_matrix pass."""

    def test_warm_analyze_makes_one_fault_pass_and_one_transport_build(self, counted_calls):
        m = load_small_rcc().mechanism
        analyze(m)      # the kernels are cached from here on
        faults, builds, turns, skews = map(counted_calls, (
            spatial.matrix_faults, spatial.transports, spatial.rot_z, spatial.s_matrix))
        analyze(m)
        # 2 element rows (a beam and the shared hinge), 2 limb sums and
        # their inverses, K and C
        assert faults == [8]
        # the 2 limbs' 6 members and the 4 limb slots
        assert builds == turns == skews == [10]

    def test_warm_analyze_computes_no_torsion_coefficient(self, counted_calls):
        m = load_small_rcc().mechanism
        analyze(m)      # the beam's coefficient is cached from here on
        betas = counted_calls(kernels.torsion_beta)
        analyze(m)
        assert betas == []

    def test_one_fault_pass_per_sweep_batch(self, monkeypatch, counted_calls):
        faults = counted_calls(spatial.matrix_faults)
        run_sweep(TestSweepSharing.SPEC, load_small_rcc().mechanism)
        assert len(faults) == 1
        faults.clear()
        monkeypatch.setattr(mechanism, "SWEEP_BATCH", 100)
        run_sweep(TestSweepSharing.SPEC, load_small_rcc().mechanism)
        assert len(faults) == 3


def apply_parameters(template: Mechanism, params) -> Mechanism:
    """Object-level reference for run_sweep's array edits: the template
    mechanism with named parameters substituted.

    t/r/w retune every hinge, angle re-leans every rotated member
    (sign-preserving, degrees), y/z move the limb tip placements
    (sign-preserving).  Objects the template shares (a limb placed twice,
    a hinge used by several members) stay shared in the variant.
    """
    hinges, limbs, placed = {}, {}, []
    for limb, placement in template.limbs:
        if id(limb) not in limbs:
            limbs[id(limb)] = _limb_variant(limb, params, hinges)
        rx, ry, rz = placement.r
        if "y" in params and ry != 0.0:
            ry = math.copysign(params["y"], ry)
        if "z" in params and rz != 0.0:
            rz = math.copysign(params["z"], rz)
        placed.append((limbs[id(limb)], FramePlacement(placement.theta, (rx, ry, rz))))
    return Mechanism(tuple(placed), template.reference)


def _limb_variant(limb: Limb, params, hinges):
    """`limb` with the t/r/w/angle values of `params` substituted.  Each
    retuned hinge is kept in `hinges` under the template hinge's identity, so
    the limbs of one variant share it as the template limbs share theirs."""
    retune = {name: params[name] for name in ("t", "r", "w") if name in params}
    members = []
    for geom, mp in limb.members:
        if retune and isinstance(geom, HingeGeometry):
            if id(geom) not in hinges:
                hinges[id(geom)] = replace(geom, **retune)
            geom = hinges[id(geom)]
        if "angle" in params and abs(mp.theta) > 0.0:
            mp = FramePlacement(math.copysign(math.radians(params["angle"]), mp.theta), mp.r)
        members.append((geom, mp))
    return Limb(limb.name, tuple(members))


def per_point_sweep(spec, template):
    """Loop reference for run_sweep: one analyze and one _score per point."""
    points = []
    for params in grid(spec):
        key = tuple(params.items())
        try:
            result = analyze(apply_parameters(template, params))
        except (ValueError, FlexmechError) as exc:
            points.append(SweepPoint(key, False, math.inf, reason=str(exc)))
            continue
        points.append(SweepPoint(key, True,
                                 _score(spec.objective, result.rcc_height, np.diag(result.k.m)),
                                 rcc_height=result.rcc_height,
                                 k_diag=tuple(float(v) for v in np.diag(result.k.m))))
    return sorted(points, key=sort_key)


def _g6(x):
    return f"{x + 0.0:.6g}"  # + 0.0 scrubs negative zeros


def points_table(points):
    """Cell-by-cell reference for sweep_table: one _g6 call per number."""
    names = [name for name, _ in points[0].params]
    lines = ["\t".join(["rank", *names, "feasible", "score", "rcc_height_mm",
                        "k11", "k22", "k33", "k44", "k55", "k66"])]
    for rank, p in enumerate(points, start=1):
        row = [str(rank)] + [_g6(v) for _, v in p.params]
        if p.feasible:
            row += ["yes", _g6(p.score), _g6(p.rcc_height)] + [_g6(v) for v in p.k_diag]
        else:
            row += ["no", "inf", "-"] + ["-"] * 6
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("section, reasons", [
    ("vary angle 12 30 5\nvary y 8 13 4\ntarget rcc_height 28.6\nmaximize stiffness_ratio weight=0.1\n",
     set()),
    ("vary t 1e-9 3.2 3\nvary r 1 2 2\ntarget_k z 2.4 weight=2\ntarget_k tz 9000 weight=2\n",
     {"compliance matrix is numerically singular"}),
    ("vary w 3 8 4\ntarget rcc_height 28.6\ntarget_k x 150\n", set()),
    ("vary z -9 9 4\nmaximize stiffness_ratio\n", set()),
    ("vary y -4 4 3\ntarget rcc_height 28.6\n",
     {"ideal four-bar center needs limbs on both sides of the mid-plane"}),
    ("vary t 1e-9 3 3\nvary angle 10 30 3\ntarget rcc_height 28.6\n",
     {"compliance matrix is numerically singular"}),
    # w**3 passes the float range: the point is infeasible, the sweep goes on
    ("vary w 1e120 1e120 1\ntarget rcc_height 28.6\n", {"matrix entries must be finite"}),
    ("vary t 1e-120 1e-120 1\ntarget rcc_height 28.6\n", {"matrix entries must be finite"}),
    # w**3 underflows to 0 and the hinge formulas divide by it
    ("vary w 1e-200 1e-200 1\ntarget rcc_height 28.6\n", {"matrix entries must be finite"}),
], ids=["placement", "geometry-with-singular-point", "w", "z", "y-through-mid-plane",
        "t-x-angle-with-singular-t", "w-overflow", "vanishing-t", "w-underflow"])
def test_run_sweep_table_matches_per_point_analyze(section, reasons):
    lines = read_lines(data_path("small_rcc.mech")) + ["[sweep]\n"] + section.splitlines(True)
    parsed = parse_lines(lines)
    batched = run_sweep(parsed.sweep, parsed.mechanism)
    oracle = per_point_sweep(parsed.sweep, parsed.mechanism)
    assert batched.points() == oracle
    assert sweep_table(batched) == points_table(oracle)
    # a singular refusal ends with its condition estimate, cut off here
    assert {p.reason.split(" (")[0] for p in batched.points() if not p.feasible} == reasons


def _sweep_range(name):
    """A (lo, hi, n) strategy for one sweep parameter on the bundled design;
    y and z ranges may cross 0, where a limb tip stays on the mid-plane."""
    bounds = {"t": (0.5, 5.0), "r": (0.3, 3.0), "w": (1.0, 10.0), "angle": (1.0, 89.0),
              "y": (-15.0, 15.0), "z": (-12.0, 12.0)}[name]
    value = st.floats(*bounds)
    return st.tuples(value, value, st.integers(1, 4)).map(
        lambda v: (min(v[0], v[1]), max(v[0], v[1]), v[2]))


@st.composite
def _sweep_specs(draw):
    names = draw(st.permutations(analysis.SWEEP_PARAMETERS))[:draw(st.integers(1, 3))]
    return SweepSpec({name: draw(_sweep_range(name)) for name in names},
                     SweepObjective(rcc_height_target=28.6, stiffness_ratio_max=True,
                                    diag_stiffness_target={"z": 2.4}, weights={"ratio": 0.1}))


def _column_bits(result):
    return [(a.shape, a.dtype, a.tobytes()) for a in (
        result.params, result.feasible, result.score, result.rcc_height, result.k_diag,
        result.fault, result.cond)]


@settings(max_examples=30)
@given(spec=_sweep_specs())
def test_run_sweep_equals_per_point_sweep(spec):
    template = load_small_rcc().mechanism
    batched = run_sweep(spec, template)
    assert batched.points() == per_point_sweep(spec, template)
    # a batch shares transports and member terms across its rows; a batch
    # of one point shares nothing, and gives the same bits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mechanism, "SWEEP_BATCH", 1)
        assert _column_bits(run_sweep(spec, template)) == _column_bits(batched)


# grid values and scores drawn from few values, so rows tie; a feasible
# score may overflow to inf and so tie with the infeasible rows' inf
_TIED = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0])
_TIED_SCORES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0, math.inf])


@st.composite
def _sweep_columns(draw):
    n, p = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    params = np.array(draw(st.lists(st.lists(_TIED, min_size=p, max_size=p),
                                    min_size=n, max_size=n)))
    feasible = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    score = np.where(feasible, draw(st.lists(_TIED_SCORES, min_size=n, max_size=n)), math.inf)
    return params, score, feasible


@settings(max_examples=200)
@given(columns=_sweep_columns())
def test_lexsort_ranking_equals_sort_key_order(columns):
    params, score, feasible = columns
    points = [SweepPoint(tuple(zip("abc", row)), ok, s)
              for row, ok, s in zip(params.tolist(), feasible.tolist(), score.tolist())]
    expected = sorted(range(len(points)), key=lambda i: sort_key(points[i]))
    assert _ranking(params, score, feasible).tolist() == expected
