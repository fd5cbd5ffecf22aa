"""Mechanism file parsing, error reporting and round-trip serialization."""

import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given

from flexmech.errors import MechanismFileError
from flexmech.fixtures import data_path, load_small_rcc
from flexmech.materials import Material
from flexmech.mechanism import Limb
from flexmech.mechfile import GRAMMAR, NAME_RULE, load_joint_catalog, parse_lines, parse_mechanism, serialize
from strategies import mechanism_texts, parsed_mechanisms

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


BUNDLED = Path(data_path("small_rcc.mech")).read_text(encoding="utf-8")


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

    @pytest.mark.parametrize("angle", ["8.784", "-35.394", "54.823"])
    def test_decimal_angle_reads_back_exactly(self, angle):
        # math.degrees(math.radians(8.784)) is 8.784000000000002, which
        # reads back as another angle
        text = BUNDLED.replace("theta=20", f"theta={angle}")
        first = parse_lines(lines(text))
        written = serialize(first)
        assert f" theta={angle}\n" in written
        assert parse_lines(lines(written)) == first

    @given(parsed_mechanisms())
    def test_drawn_file_reads_back_as_drawn(self, parsed):
        text = serialize(parsed)
        assert parse_lines(lines(text)) == parsed
        assert serialize(parse_lines(lines(text))) == text
        for line in lines(text):
            if line.split()[:1] and line.split()[0] in GRAMMAR:
                _assert_in_grammar_order(line)

    def test_normalized_angle_is_a_fixed_point(self):
        # fmod takes 400.5 degrees to an angle that no degree value reads
        # back to exactly, so only the fixed point holds
        first = serialize(parse_lines(lines(BUNDLED.replace("theta=20", "theta=400.5"))))
        assert serialize(parse_lines(lines(first))) == first


def _renamed(parsed, old, new):
    """`parsed` with limb `old` renamed `new` in each of its slots."""
    limbs = tuple((replace(limb, name=new) if limb.name == old else limb, placement)
                  for limb, placement in parsed.mechanism.limbs)
    return replace(parsed, mechanism=replace(parsed.mechanism, limbs=limbs))


def _referenced(parsed, reference):
    return replace(parsed, mechanism=replace(parsed.mechanism, reference=reference))


# (a library-built edit of GOOD whose text would read back as something
# else, the ValueError message)
WRITER_REFUSALS = {
    "reference with '#'": (lambda p: _referenced(p, "top # plate"),
                           "reference 'top # plate' would not read back as itself"),
    "empty reference": (lambda p: _referenced(p, ""), "reference '' would not read back as itself"),
    "two-line reference": (lambda p: _referenced(p, "top\nplate"),
                           "reference 'top\\nplate' would not read back as itself"),
    "two limbs, one name": (lambda p: _renamed(p, "right", "left"),
                            "two different limbs are named 'left'"),
    "name with a space": (lambda p: _renamed(p, "left", "left arm"),
                          f"name 'left arm' is not {NAME_RULE}"),
    "name with '#'": (lambda p: _renamed(p, "left", "left#1"),
                      "'left#1' holds '#', which would start a comment"),
    "member outside elements": (lambda p: replace(p, elements={"n": p.elements["n"]}),
                                "limb 'left': a member's geometry is not an element"),
    "material outside materials": (
        lambda p: replace(p, materials={"other": Material("other", 10.0, 0.3)}),
        "element 'n': material 'soft' is not the materials entry of that name"),
    "material under another name": (
        lambda p: replace(p, materials={"steel": p.materials["soft"]}),
        "element 'n': material 'soft' is not the materials entry of that name"),
    "materials entry under another key": (
        lambda p: replace(p, materials={**p.materials, "spare": Material("other", 10.0, 0.3)}),
        "materials entry 'spare' holds a material named 'other'"),
}


@pytest.mark.parametrize("edit, message", WRITER_REFUSALS.values(), ids=WRITER_REFUSALS)
def test_writer_refuses_text_that_reads_back_as_something_else(edit, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        serialize(edit(parse_lines(lines(GOOD))))


def test_reader_builds_one_limb_per_limb_section(monkeypatch):
    # a member line is checked by mechanism.check_member, not by a Limb of it alone
    built = []
    check = Limb.__post_init__
    monkeypatch.setattr(Limb, "__post_init__", lambda self: (built.append(self.name), check(self)))
    parse_mechanism(data_path("small_rcc.mech"))
    assert built == ["left", "right"]


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

    @pytest.mark.parametrize("header, message", [
        ("[limbs]", r"unknown section \[limbs\]"),
        ("[limbright]", r"unknown section \[limbright\]"),
        ("[limb]", r"limb section needs a name: \[limb <name>\]"),
        ("[ limb ]", r"limb section needs a name"),
    ])
    def test_limb_header_is_the_word_limb_and_a_name(self, header, message):
        good = lines(GOOD)
        at = good.index("[limb right]")
        bad = good[:at] + [header] + good[at + 1:]
        with pytest.raises(MechanismFileError, match=f"^line {at + 1}: {message}"):
            parse_lines(bad)

    def test_limb_name_after_any_whitespace(self):
        tabbed = [line.replace("[limb right]", "[limb\tright]") for line in lines(GOOD)]
        assert parse_lines(tabbed).mechanism == parse_lines(lines(GOOD)).mechanism

    @pytest.mark.parametrize("line, reference", [
        ("reference\tmiddle of upper platform", "middle of upper platform"),
        ("reference  middle of  upper platform", "middle of  upper platform"),
        ("reference", "reference point"),
    ])
    def test_reference_is_the_rest_of_its_line(self, line, reference):
        text = [line if x.startswith("reference") else x for x in lines(GOOD)]
        parsed = parse_lines(text)
        assert parsed.mechanism.reference == reference
        assert parse_lines(lines(serialize(parsed))).mechanism.reference == reference

    @pytest.mark.parametrize("line, field, message", [
        ("measured q 2.54", "q", "unknown measured axis 'q'; expected one of x, y, z"),
        ("measured tz 2.54", "tz", "unknown measured axis 'tz'"),
        ("measured z 0", "z", "measured stiffness must be positive, got 0"),
        ("measured z -2.54", "z", "measured stiffness must be positive, got -2.54"),
        ("measured z 2 -0.0", "z", "measured stiffness must be positive, got -0"),
    ])
    def test_bad_measured_line_names_its_line_and_axis(self, line, field, message):
        good = lines(GOOD)
        at = good.index("measured z 2.54")
        bad = good[:at] + [line] + good[at + 1:]
        with pytest.raises(MechanismFileError,
                           match=f"^line {at + 1}, field '{field}': {message}"):
            parse_lines(bad)

    def test_second_reference_line_names_its_line(self):
        good = lines(GOOD)
        at = good.index("reference middle of upper platform") + 1
        with pytest.raises(MechanismFileError,
                           match=f"^line {at + 1}, field 'reference': duplicate reference line$"):
            parse_lines(good[:at] + ["reference other point"] + good[at:])

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

    @pytest.mark.parametrize("line, field, message", [
        ("target rcc_height 28 wieght=5", "wieght", "unknown option 'wieght'"),
        ("maximize stiffness_ratio scale=2", "scale", "unknown option 'scale'"),
        ("target_k z 2.4 weight=1 w=2", "w", "unknown option 'w'"),
        ("target rcc_height 28 29", "target", "unexpected token '29'"),
        ("maximize stiffness_ratio now", "maximize", "unexpected token 'now'"),
        ("target_k z 2.4 x", "target_k", "unexpected token 'x'"),
        ("vary t 1 2 3 weight=2", "weight", "'vary' takes no options"),
        ("vary q 1 2 3", "q", "unknown sweep parameter 'q'"),
        ("vary t 3 2 3", "t", "bad range for 't'"),
        ("vary angle 10 95 3", "angle", "leg angle range"),
        ("target_k q 5", "q", "unknown stiffness axis 'q'"),
        ("target_k z 0", "z", "stiffness target for axis 'z' must be nonzero"),
    ])
    def test_bad_line_names_its_line_and_key(self, line, field, message):
        # the error names the offending line, not the [sweep] header above it
        good = lines(GOOD)
        at = good.index("target_k z 2.4")
        bad = good[:at] + [line] + good[at + 1:]
        with pytest.raises(MechanismFileError,
                           match=f"^line {at + 1}, field '{field}': {message}"):
            parse_lines(bad)

    @pytest.mark.parametrize("after, line, field, message", [
        ("vary angle 15 25 3", "vary t 2.5 2.5 1", "t", "duplicate sweep parameter 't'"),
        ("target_k z 2.4", "target rcc_height 40 weight=3", "rcc_height",
         "duplicate objective 'target rcc_height'"),
        ("target_k z 2.4", "maximize stiffness_ratio", "stiffness_ratio",
         "duplicate objective 'maximize stiffness_ratio'"),
        ("target_k z 2.4", "target_k z 3", "z", "duplicate objective 'target_k z'"),
        ("target_k z 2.4", "target_k x 150 weight=2", "weight",
         "target_k weight 2 differs from the earlier target_k weight 1"),
        ("measured y 8.3 10", "measured z 2.6", "z", "duplicate measured axis 'z'"),
    ])
    def test_repeated_line_names_its_line(self, after, line, field, message):
        good = lines(GOOD)
        at = good.index(after) + 1
        bad = good[:at] + [line] + good[at:]
        with pytest.raises(MechanismFileError,
                           match=f"^line {at + 1}, field '{field}': {message}"):
            parse_lines(bad)

    def test_distinct_target_k_axes_are_not_repeats(self):
        good = lines(GOOD)
        at = good.index("target_k z 2.4") + 1
        parsed = parse_lines(good[:at] + ["target_k x 150"] + good[at:])
        assert parsed.sweep.objective.diag_stiffness_target == {"z": 2.4, "x": 150.0}

    def test_target_k_lines_share_one_weight(self):
        good = lines(GOOD)
        at = good.index("target_k z 2.4")
        first = parse_lines(good[:at] + ["target_k z 2.4 weight=3", "target_k x 150 weight=3"]
                            + good[at + 1:])
        assert first.sweep.objective.weights == {"rcc": 2.0, "ratio": 0.5, "diag": 3.0}
        assert parse_lines(lines(serialize(first))).sweep == first.sweep


@pytest.mark.parametrize("section, body", [
    ("sweep", ["vary t 2 3 2"]),
    ("measured", ["measured x 150"]),
    ("mechanism", ["limb left r=-2.5,10.325,8.65", "limb right r=-2.5,-10.325,8.65"]),
    ("materials", ["material hard E=900 nu=0.3"]),
    ("elements", ["beam other material=soft l=5 w=5 s=5"]),
])
def test_repeated_section_names_its_header(section, body):
    good = lines(GOOD)
    with pytest.raises(MechanismFileError,
                       match=fr"^line {len(good) + 1}, field '{section}': "
                             fr"duplicate section \[{section}\]"):
        parse_lines(good + [f"[{section}]"] + body)


def test_parse_from_installed_data_file():
    parsed = parse_mechanism(data_path("small_rcc.mech"))
    assert len(parsed.mechanism.limbs) == 4


JOINTS = ["# catalog", "joint a cross=5 joint=3 max_load=1"]
USAGE = {head: usage for head, (usage, *_) in GRAMMAR.items()}


# (a good line, the line put in its place, the field named, the message)
RECORD_ERRORS = [
    # a head the section does not take
    ("material soft E=60 nu=0.48", "materials soft E=60 nu=0.48", None,
     "unexpected materials line 'materials soft E=60 nu=0.48'"),
    ("joint a cross=5 joint=3 max_load=1", "joints a joint=3 max_load=1", None,
     "unexpected catalog line 'joints a joint=3 max_load=1'"),
    ("beam  b material=soft l=10.4 w=5 s=5.32", "rod b material=soft l=10.4 w=5 s=5.32", None,
     "unexpected elements line 'rod b material=soft l=10.4 w=5 s=5.32'"),
    ("member b r=10.4,0,0 theta=20", "members b r=10.4,0,0 theta=20", None,
     "unexpected limb line 'members b r=10.4,0,0 theta=20'"),
    ("limb left r=-2.5,10.325,-8.65", "limbs left r=-2.5,10.325,-8.65", None,
     "unexpected mechanism line 'limbs left r=-2.5,10.325,-8.65'"),
    ("vary t 2.0 4.0 3", "very t 2.0 4.0 3", None, "unexpected sweep line 'very t 2.0 4.0 3'"),
    ("measured y 8.3 10", "measure y 8.3 10", None,
     "unexpected measured line 'measure y 8.3 10'"),
    # a name that breaks the name rule, at each name position
    ("material soft E=60 nu=0.48", "material [soft] E=60 nu=0.48", None,
     "name '[soft]' is not one token, with no '=', '[' or ']'"),
    ("joint a cross=5 joint=3 max_load=1", "joint a] joint=3 max_load=1", None,
     "name 'a]' is not one token, with no '=', '[' or ']'"),
    ("hinge n material=soft r=1.25 t=2.82 w=5 h1=0", "hinge [n material=soft r=1.25 t=2.82 w=5",
     None, "name '[n' is not one token, with no '=', '[' or ']'"),
    ("member b r=10.4,0,0 theta=20", "member b[1] r=10.4,0,0 theta=20", None,
     "name 'b[1]' is not one token, with no '=', '[' or ']'"),
    ("limb left r=-2.5,10.325,-8.65", "limb [left] r=-2.5,10.325,-8.65", None,
     "name '[left]' is not one token, with no '=', '[' or ']'"),
    # too few positional tokens
    ("material soft E=60 nu=0.48", "material E=60 nu=0.48", None,
     f"expected '{USAGE['material']}', got 'material E=60 nu=0.48'"),
    ("joint a cross=5 joint=3 max_load=1", "joint joint=3 max_load=1", None,
     f"expected '{USAGE['joint']}', got 'joint joint=3 max_load=1'"),
    ("hinge n material=soft r=1.25 t=2.82 w=5 h1=0", "hinge material=soft r=1.25 t=2.82 w=5",
     None, f"expected '{USAGE['hinge']}', got 'hinge material=soft r=1.25 t=2.82 w=5'"),
    ("beam  b material=soft l=10.4 w=5 s=5.32", "beam material=soft l=10.4 w=5 s=5.32", None,
     f"expected '{USAGE['beam']}', got 'beam material=soft l=10.4 w=5 s=5.32'"),
    ("member b r=10.4,0,0 theta=20", "member r=10.4,0,0 theta=20", None,
     f"expected '{USAGE['member']}', got 'member r=10.4,0,0 theta=20'"),
    ("limb left r=-2.5,10.325,-8.65", "limb r=-2.5,10.325,-8.65", None,
     f"expected '{USAGE['limb']}', got 'limb r=-2.5,10.325,-8.65'"),
    ("vary t 2.0 4.0 3", "vary t 2.0 4.0", None,
     f"expected '{USAGE['vary']}', got 'vary t 2.0 4.0'"),
    ("target rcc_height 28.6 weight=2", "target rcc_height weight=2", None,
     f"expected '{USAGE['target']}', got 'target rcc_height weight=2'"),
    ("maximize stiffness_ratio weight=0.5", "maximize weight=0.5", None,
     f"expected '{USAGE['maximize']}', got 'maximize weight=0.5'"),
    ("target_k z 2.4", "target_k z", None, f"expected '{USAGE['target_k']}', got 'target_k z'"),
    ("measured y 8.3 10", "measured y", None, f"expected '{USAGE['measured']}', got 'measured y'"),
    # a stray positional token
    ("material soft E=60 nu=0.48", "material soft E=60 nu=0.48 x", "material",
     "unexpected token 'x' in 'material soft E=60 nu=0.48 x'"),
    ("joint a cross=5 joint=3 max_load=1", "joint a b joint=3 max_load=1", "joint",
     "unexpected token 'b' in 'joint a b joint=3 max_load=1'"),
    ("hinge n material=soft r=1.25 t=2.82 w=5 h1=0", "hinge n m material=soft r=1 t=2 w=5",
     "hinge", "unexpected token 'm' in 'hinge n m material=soft r=1 t=2 w=5'"),
    ("beam  b material=soft l=10.4 w=5 s=5.32", "beam b c material=soft l=10 w=5 s=5", "beam",
     "unexpected token 'c' in 'beam b c material=soft l=10 w=5 s=5'"),
    ("member b r=10.4,0,0 theta=20", "member b 20 r=10.4,0,0", "member",
     "unexpected token '20' in 'member b 20 r=10.4,0,0'"),
    ("limb left r=-2.5,10.325,-8.65", "limb left right r=-2.5,10.325,-8.65", "limb",
     "unexpected token 'right' in 'limb left right r=-2.5,10.325,-8.65'"),
    ("vary t 2.0 4.0 3", "vary t 2.0 4.0 3 4", "vary",
     "unexpected token '4' in 'vary t 2.0 4.0 3 4'"),
    ("target rcc_height 28.6 weight=2", "target rcc_height 28.6 29", "target",
     "unexpected token '29' in 'target rcc_height 28.6 29'"),
    ("maximize stiffness_ratio weight=0.5", "maximize stiffness_ratio now", "maximize",
     "unexpected token 'now' in 'maximize stiffness_ratio now'"),
    ("target_k z 2.4", "target_k z 2.4 3", "target_k",
     "unexpected token '3' in 'target_k z 2.4 3'"),
    ("measured y 8.3 10", "measured y 8.3 10 12", "measured",
     "unexpected token '12' in 'measured y 8.3 10 12'"),
    # an unknown option
    ("material soft E=60 nu=0.48", "material soft E=60 nu=0.48 g=20", "g",
     f"unknown option 'g'; expected '{USAGE['material']}'"),
    ("joint a cross=5 joint=3 max_load=1", "joint a crosss=5 joint=3 max_load=1", "crosss",
     f"unknown option 'crosss'; expected '{USAGE['joint']}'"),
    ("hinge n material=soft r=1.25 t=2.82 w=5 h1=0", "hinge n material=soft r=1 t=2 w=5 hl=0",
     "hl", f"unknown option 'hl'; expected '{USAGE['hinge']}'"),
    ("beam  b material=soft l=10.4 w=5 s=5.32", "beam b material=soft l=10 w=5 s=5 h1=0",
     "h1", f"unknown option 'h1'; expected '{USAGE['beam']}'"),
    ("member b r=10.4,0,0 theta=20", "member b r=10.4,0,0 teta=20", "teta",
     f"unknown option 'teta'; expected '{USAGE['member']}'"),
    ("limb left r=-2.5,10.325,-8.65", "limb left r=-2.5,10.325,-8.65 angle=3", "angle",
     f"unknown option 'angle'; expected '{USAGE['limb']}'"),
    ("vary t 2.0 4.0 3", "vary t 2.0 4.0 3 n=3", "n", "'vary' takes no options, got n="),
    ("target rcc_height 28.6 weight=2", "target rcc_height 28.6 wieght=2", "wieght",
     f"unknown option 'wieght'; expected '{USAGE['target']}'"),
    ("maximize stiffness_ratio weight=0.5", "maximize stiffness_ratio scale=2", "scale",
     f"unknown option 'scale'; expected '{USAGE['maximize']}'"),
    ("target_k z 2.4", "target_k z 2.4 w=2", "w",
     f"unknown option 'w'; expected '{USAGE['target_k']}'"),
    ("measured y 8.3 10", "measured y 8.3 high=10", "high",
     "'measured' takes no options, got high="),
    # a repeated option
    ("material soft E=60 nu=0.48", "material soft E=60 nu=0.48 E=61", "E",
     "repeated option 'E'"),
    ("joint a cross=5 joint=3 max_load=1", "joint a joint=3 joint=4 max_load=1", "joint",
     "repeated option 'joint'"),
    ("hinge n material=soft r=1.25 t=2.82 w=5 h1=0",
     "hinge n material=soft r=1.25 r=2 t=2.82 w=5", "r", "repeated option 'r'"),
    ("beam  b material=soft l=10.4 w=5 s=5.32", "beam b material=soft l=10 w=5 s=5 s=6", "s",
     "repeated option 's'"),
    ("member b r=10.4,0,0 theta=20", "member b r=10.4,0,0 theta=20 theta=25", "theta",
     "repeated option 'theta'"),
    ("limb left r=-2.5,10.325,-8.65", "limb left r=-2.5,10.325,-8.65 r=0,0,0", "r",
     "repeated option 'r'"),
    ("target rcc_height 28.6 weight=2", "target rcc_height 28.6 weight=2 weight=3", "weight",
     "repeated option 'weight'"),
    ("maximize stiffness_ratio weight=0.5", "maximize stiffness_ratio weight=1 weight=1",
     "weight", "repeated option 'weight'"),
    ("target_k z 2.4", "target_k z 2.4 weight=1 weight=1", "weight",
     "repeated option 'weight'"),
    # a missing option
    ("material soft E=60 nu=0.48", "material soft E=60", "nu", "material needs E and nu"),
    ("joint a cross=5 joint=3 max_load=1", "joint a cross=5 joint=3", "max_load",
     "joint needs joint and max_load"),
    ("hinge n material=soft r=1.25 t=2.82 w=5 h1=0", "hinge n material=soft r=1.25 w=5", "t",
     "hinge needs material and r and t and w"),
    ("beam  b material=soft l=10.4 w=5 s=5.32", "beam b l=10.4 w=5 s=5.32", "material",
     "beam needs material and l and w and s"),
    ("member b r=10.4,0,0 theta=20", "member b theta=20", "r", "member needs r"),
    ("limb left r=-2.5,10.325,-8.65", "limb left theta=5", "r", "limb needs r"),
    # a record the reader passes but its section refuses
    ("member b r=10.4,0,0 theta=20", "member b r=10.4,0 theta=20", "r",
     "r needs three components, got '10.4,0'"),
    ("target rcc_height 28.6 weight=2", "target rcc 28.6", "rcc",
     "unknown objective 'target rcc'"),
    ("maximize stiffness_ratio weight=0.5", "maximize rcc_height", "rcc_height",
     "unknown objective 'maximize rcc_height'"),
]


@pytest.mark.parametrize("sample, line, field, message", RECORD_ERRORS,
                         ids=[line for _, line, _, _ in RECORD_ERRORS])
def test_record_error_names_its_line(sample, line, field, message):
    # each line kind and each grammar error, at the line that has it
    joint = sample.startswith("joint ")
    good = JOINTS if joint else lines(GOOD)
    at = good.index(sample)
    bad = good[:at] + [line] + good[at + 1:]
    where = f"line {at + 1}" + ("" if field is None else f", field '{field}'")
    with pytest.raises(MechanismFileError, match=f"^{re.escape(f'{where}: {message}')}$"):
        (load_joint_catalog if joint else parse_lines)(bad)


def _assert_in_grammar_order(line):
    """A written record line: its positional words, then every required
    option and any optional ones, all in GRAMMAR's order."""
    head, *tokens = line.split()
    _, (fewest, most), required, optional = GRAMMAR[head]
    words = [token for token in tokens if "=" not in token]
    keys = [token.partition("=")[0] for token in tokens[len(words):]]
    assert tokens[:len(words)] == words and fewest <= len(words) <= most, line
    assert keys == [key for key in required + optional if key in keys], line
    assert set(required) <= set(keys), line


def test_writer_writes_every_grammar_head():
    # across drawn files, serialize writes each record line kind of a
    # mechanism file; joint lines belong to the joint catalog, which flexmech
    # reads and never writes
    heads = set()

    @given(mechanism_texts())
    def collect(text):
        heads.update(line.split()[0] for line in lines(text) if line.split()[:1])

    collect()
    assert heads >= set(GRAMMAR) - {"joint"}


def test_readme_lists_the_grammar():
    # README "Mechanism files" gives each line kind's usage as written here,
    # and each usage names its head and options
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for head, (usage, (fewest, most), required, optional) in GRAMMAR.items():
        assert f"`{usage}`" in readme, head
        words = usage.split()
        assert words[0] == head
        positional = [w for w in words[1:] if "=" not in w]
        assert (len([w for w in positional if not w.startswith("[")]), len(positional)) \
            == (fewest, most)
        assert [w.partition("=")[0] for w in words if "=" in w and not w.startswith("[")] \
            == list(required)
        assert [w[1:].partition("=")[0] for w in words if "=" in w and w.startswith("[")] \
            == list(optional)
    # and the one name rule
    assert NAME_RULE in readme
