"""Mechanism file parsing, error reporting and round-trip serialization."""

import pytest

from flexmech.errors import MechanismFileError
from flexmech.fixtures import data_path, load_small_rcc
from flexmech.mechfile import parse_lines, parse_mechanism, serialize

GOOD = """\
flexmech mechanism format 1
units mm deg N

[materials]
material soft E=60 nu=0.48

[elements]
hinge n material=soft r=1.25 t=2.82 w=5 h1=0
beam  b material=soft l=10.4 w=5 s=5.32

[limb left]
member n r=42.85,14.765,0 theta=0
member b r=10.4,0,0 theta=20
member n r=9.15,0,0 theta=0

[limb right]
member n r=42.85,-14.765,0 theta=0
member b r=10.4,0,0 theta=-20
member n r=9.15,0,0 theta=0

[mechanism]
reference middle of upper platform
limb left r=-2.5,10.325,-8.65
limb right r=-2.5,-10.325,-8.65

[sweep]
vary t 2.0 4.0 3
vary angle 15 25 3
target rcc_height 28.6 weight=2
maximize stiffness_ratio weight=0.5
target_k z 2.4

[measured]
measured z 2.54
measured y 8.3 10
"""


def lines(text):
    return text.splitlines()


class TestBundledExample:
    def test_structure(self):
        parsed = load_small_rcc()
        mech = parsed.mechanism
        assert len(mech.limbs) == 4
        assert sum(len(limb.members) for limb, _ in mech.limbs) == 12
        assert mech.reference == "middle of upper platform"

    def test_table_placements(self):
        parsed = load_small_rcc()
        tip_rs = sorted(p.r for _, p in parsed.mechanism.limbs)
        assert tip_rs == [(-2.5, -10.325, -8.65), (-2.5, -10.325, 8.65),
                          (-2.5, 10.325, -8.65), (-2.5, 10.325, 8.65)]
        limb = parsed.mechanism.limbs[0][0]
        assert limb.members[0][1].r == (42.85, 14.765, 0.0)
        assert limb.members[1][1].theta_deg == pytest.approx(20.0)
        assert limb.members[2][1].r == (9.15, 0.0, 0.0)

    def test_geometry_and_material(self):
        parsed = load_small_rcc()
        hinge = parsed.elements["notch"]
        assert (hinge.r, hinge.t, hinge.w) == (1.25, 2.82, 5.0)
        beam = parsed.elements["column"]
        assert (beam.l, beam.w, beam.s) == (10.4, 5.0, 5.32)
        mat = parsed.materials["copolyester"]
        assert mat.nu == 0.48

    def test_measured_section(self):
        parsed = load_small_rcc()
        assert parsed.measured == {"z": 2.54, "y": (8.3, 10.0)}


class TestRoundTrip:
    def test_object_graph_identity(self):
        first = parse_lines(lines(GOOD))
        second = parse_lines(lines(serialize(first)))
        assert second.mechanism == first.mechanism
        assert second.materials == first.materials
        assert second.elements == first.elements
        assert second.sweep == first.sweep
        assert second.measured == first.measured

    def test_serialization_fixed_point(self):
        first = serialize(parse_lines(lines(GOOD)))
        second = serialize(parse_lines(lines(first)))
        assert first == second

    def test_bundled_round_trip(self):
        first = load_small_rcc()
        second = parse_lines(lines(serialize(first)))
        assert second.mechanism == first.mechanism


class TestErrors:
    def test_missing_format_header(self):
        with pytest.raises(MechanismFileError, match="format"):
            parse_lines(["units mm deg N", "[mechanism]"])

    def test_missing_unit_header(self):
        bad = lines(GOOD)
        del bad[1]
        with pytest.raises(MechanismFileError, match="unit header missing"):
            parse_lines(bad)

    def test_angle_with_unit_suffix_names_line(self):
        bad = [line.replace("theta=20", "theta=20deg") for line in lines(GOOD)]
        lineno = next(i for i, line in enumerate(bad, start=1) if "20deg" in line)
        with pytest.raises(MechanismFileError, match=f"line {lineno}.*not a number"):
            parse_lines(bad)

    def test_unknown_material(self):
        bad = [line.replace("material=soft r=", "material=hard r=") for line in lines(GOOD)]
        with pytest.raises(MechanismFileError, match="unknown material 'hard'"):
            parse_lines(bad)

    def test_dangling_element(self):
        bad = [line.replace("member b ", "member missing ") for line in lines(GOOD)]
        with pytest.raises(MechanismFileError, match="dangling element reference"):
            parse_lines(bad)

    def test_empty_mechanism_needs_two_limbs(self):
        bad = [line for line in lines(GOOD) if not line.startswith("limb ")]
        with pytest.raises(MechanismFileError, match=">=2 limbs"):
            parse_lines(bad)

    def test_nonfinite_number(self):
        bad = [line.replace("t=2.82", "t=nan") for line in lines(GOOD)]
        with pytest.raises(MechanismFileError, match="non-finite"):
            parse_lines(bad)

    def test_unknown_section(self):
        with pytest.raises(MechanismFileError, match="unknown section"):
            parse_lines(lines(GOOD) + ["[frobnicate]", "x 1"])

    def test_content_outside_section(self):
        bad = lines(GOOD)
        bad.insert(2, "stray content")
        with pytest.raises(MechanismFileError, match="outside any section"):
            parse_lines(bad)

    def test_missing_mechanism_section(self):
        bad = [line for line in lines(GOOD) if not (line.startswith("[mechanism")
                                                    or line.startswith("reference")
                                                    or line.startswith("limb "))]
        with pytest.raises(MechanismFileError, match="no \\[mechanism\\]"):
            parse_lines(bad)

    def test_missing_file_names_path(self):
        with pytest.raises(MechanismFileError, match="no/such/file.mech"):
            parse_mechanism("no/such/file.mech")

    def test_member_out_of_plane_rejected(self):
        bad = [line.replace("r=42.85,14.765,0", "r=42.85,14.765,3") for line in lines(GOOD)]
        with pytest.raises(MechanismFileError, match="r_z = 0"):
            parse_lines(bad)


class TestSweepSection:
    def test_parsed_spec(self):
        parsed = parse_lines(lines(GOOD))
        spec = parsed.sweep
        assert spec.parameters == {"t": (2.0, 4.0, 3), "angle": (15.0, 25.0, 3)}
        assert spec.objective.rcc_height_target == 28.6
        assert spec.objective.stiffness_ratio_max
        assert spec.objective.diag_stiffness_target == {"z": 2.4}
        assert spec.objective.weights == {"rcc": 2.0, "ratio": 0.5}

    def test_fractional_grid_count_names_line(self):
        bad = [line.replace("vary t 2.0 4.0 3", "vary t 2.0 4.0 2.5") for line in lines(GOOD)]
        lineno = bad.index("vary t 2.0 4.0 2.5") + 1
        with pytest.raises(MechanismFileError, match=f"line {lineno}.*whole number"):
            parse_lines(bad)

    def test_bad_sweep_line(self):
        bad = lines(GOOD) + ["[sweep]", "vary t 1 2"]
        with pytest.raises(MechanismFileError, match="vary"):
            parse_lines(bad)


def test_parse_from_installed_data_file():
    parsed = parse_mechanism(data_path("small_rcc.mech"))
    assert len(parsed.mechanism.limbs) == 4
