"""Material derivation and measured-joint catalog tests."""

import numpy as np
import pytest

from flexmech.errors import MechanismFileError
from flexmech.fixtures import load_bundled_joint_catalog
from flexmech.materials import (Material, MeasuredJointRecord, derive_shear_modulus,
                                stiffness_ratio)
from flexmech.mechfile import load_joint_catalog, load_materials

RNG = np.random.default_rng(42)


class TestShearModulus:
    def test_nu_048(self):
        assert derive_shear_modulus(100.0, 0.48) == pytest.approx(33.784, abs=5e-4)

    def test_exact_hundred(self):
        assert derive_shear_modulus(296.0, 0.48) == pytest.approx(100.0)

    def test_nu_zero_limit(self):
        assert derive_shear_modulus(80.0, 0.0) == 40.0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            derive_shear_modulus(-1.0, 0.3)
        with pytest.raises(ValueError):
            derive_shear_modulus(100.0, 0.5)
        with pytest.raises(ValueError):
            derive_shear_modulus(100.0, -1.0)

    def test_monotone_in_e_and_nu(self):
        for _ in range(200):
            e1, e2 = sorted(RNG.uniform(1.0, 5000.0, size=2))
            nu1, nu2 = sorted(RNG.uniform(-0.9, 0.49, size=2))
            assert derive_shear_modulus(e1, nu1) <= derive_shear_modulus(e2, nu1)
            assert derive_shear_modulus(e1, nu2) <= derive_shear_modulus(e1, nu1)


class TestMaterial:
    def test_derived_g_exact(self):
        m = Material("x", 43.8, 0.48)
        assert m.g_modulus == 43.8 / (2.0 * 1.48)

    def test_explicit_g_kept(self):
        m = Material("x", 100.0, 0.3, g_modulus=37.0)
        assert m.g_modulus == 37.0

    def test_caveat_present(self):
        assert "isotropy" in Material("x", 10.0, 0.4).caveat

    def test_scaled(self):
        m = Material("x", 100.0, 0.3).scaled(2.5)
        assert m.e_modulus == 250.0
        assert m.g_modulus == pytest.approx(250.0 / 2.6)


class TestStiffnessRatio:
    def test_catalog_values(self):
        records = {r.variant: r for r in load_bundled_joint_catalog()}
        assert round(stiffness_ratio(records["ABS_narrow_6mm"]), 2) == 8.06
        assert round(stiffness_ratio(records["TPLA_narrow_6mm"]), 2) == 7.57
        assert round(stiffness_ratio(records["TPLA_wide_7mm"]), 2) == 3.48

    def test_unavailable_cross(self):
        records = {r.variant: r for r in load_bundled_joint_catalog()}
        assert stiffness_ratio(records["PLA_narrow_6mm"]) is None

    def test_scale_invariant(self):
        for _ in range(100):
            cross, joint = RNG.uniform(1.0, 1000.0, size=2)
            c = RNG.uniform(0.01, 100.0)
            r1 = stiffness_ratio(MeasuredJointRecord("a", cross, joint, 1.0))
            r2 = stiffness_ratio(MeasuredJointRecord("a", c * cross, c * joint, 1.0))
            assert r1 == pytest.approx(r2)

    def test_positive_values_enforced(self):
        with pytest.raises(ValueError):
            MeasuredJointRecord("bad", -1.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            MeasuredJointRecord("bad", None, 0.0, 1.0)

    @pytest.mark.parametrize("field", ["joint_stiffness", "max_joint_load"])
    def test_only_cross_may_be_none(self, field):
        # a record built directly with an unmeasured joint stiffness used to
        # pass and then break stiffness_ratio with a TypeError
        values = {"cross_stiffness": 5.0, "joint_stiffness": 3.0, "max_joint_load": 1.0,
                  field: None}
        with pytest.raises(ValueError, match=f"{field} must be measured"):
            MeasuredJointRecord("a", **values)
        assert stiffness_ratio(MeasuredJointRecord("a", None, 3.0, 1.0)) is None


class TestLoaders:
    def test_bundled_catalog_complete(self):
        records = load_bundled_joint_catalog()
        assert len(records) == 4
        assert records[0].cross_stiffness is None
        assert records[1].joint_stiffness == 75.0225

    def test_bundled_materials_file(self):
        from flexmech.fixtures import load_bundled_materials

        mats = load_bundled_materials()
        assert {"copolyester", "abs", "pla", "tough_pla"} <= set(mats)
        assert mats["copolyester"].nu == 0.48

    def test_materials_parse(self):
        mats = load_materials(["material a E=100 nu=0.3", "# comment", ""])
        assert mats["a"].g_modulus == pytest.approx(100.0 / 2.6)

    def test_materials_errors_name_lines(self):
        with pytest.raises(MechanismFileError, match="line 2"):
            load_materials(["material a E=100 nu=0.3", "material b E=oops nu=0.3"])
        with pytest.raises(MechanismFileError, match="needs E and nu"):
            load_materials(["material a E=100"])
        with pytest.raises(MechanismFileError, match="duplicate"):
            load_materials(["material a E=1 nu=0.3", "material a E=2 nu=0.3"])
        with pytest.raises(MechanismFileError, match="non-finite"):
            load_materials(["material a E=inf nu=0.3"])

    def test_catalog_errors(self):
        with pytest.raises(MechanismFileError):
            load_joint_catalog(["joint x cross=1"])

    @pytest.mark.parametrize("field", ["joint", "max_load"])
    def test_only_cross_may_be_unmeasured(self, field):
        # an unmeasured joint stiffness used to load and then break
        # stiffness_ratio with a TypeError
        values = {"cross": "5", "joint": "3", "max_load": "1", field: "-"}
        line = "joint a " + " ".join(f"{k}={v}" for k, v in values.items())
        with pytest.raises(MechanismFileError, match=f"line 2, field '{field}'"):
            load_joint_catalog(["# catalog", line])
