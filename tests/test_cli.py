"""CLI behavior: subcommands, exit codes, determinism of machine output."""

import contextlib
import errno
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import flexmech
import flexmech.cli as cli
import flexmech.elements as elements
from flexmech.cli import main
from flexmech.fixtures import data_path
from flexmech.mechfile import GRAMMAR
from strategies import mechanism_texts

SMALL_RCC = data_path("small_rcc.mech")
CREEP = data_path("creep_22n.dat")

SWEEP_FILE = """\
flexmech mechanism format 1
units mm deg N

[materials]
material soft E=43.8 nu=0.48

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
limb left r=-2.5,10.325,8.65
limb right r=-2.5,-10.325,8.65

{extra}
"""


BAD_MATERIAL = SWEEP_FILE.format(extra="").replace("E=43.8", "E=oops")
WEIGHT_ONLY_LINE = SWEEP_FILE.format(extra="[sweep]\nvary t 2.4 3.2 2\nweight=1\n")
MISSPELT_WEIGHT = SWEEP_FILE.format(
    extra="[sweep]\nvary t 2.4 3.2 2\ntarget rcc_height 28 wieght=5\n")
NAN_CREEP = "0 22\n30 nan\n60 21\n90 20.9\n120 20.6\n"
REPEATED_VARY = SWEEP_FILE.format(extra="[sweep]\nvary t 2 3 2\nvary t 2.5 2.5 1\n")
REPEATED_TARGET = SWEEP_FILE.format(
    extra="[sweep]\nvary t 2 3 2\ntarget rcc_height 28\ntarget rcc_height 40 weight=3\n")
REPEATED_MEASURED = SWEEP_FILE.format(extra="[measured]\nmeasured z 2.5\nmeasured z 2.6\n")
REPEATED_SWEEP = SWEEP_FILE.format(extra="[sweep]\nvary t 2 3 2\n[sweep]\nvary r 1 2 2\n")
REPEATED_MECHANISM = SWEEP_FILE.format(
    extra="[mechanism]\nlimb left r=-2.5,10.325,0\nlimb right r=-2.5,-10.325,0\n")
MIXED_TARGET_K_WEIGHTS = SWEEP_FILE.format(
    extra="[sweep]\nvary t 2 3 2\ntarget_k x 150 weight=2\ntarget_k z 2.4 weight=5\n")
ZERO_TARGET_K = SWEEP_FILE.format(extra="[sweep]\nvary t 2 3 2\ntarget_k x 150\ntarget_k y 0\n")
LIMBS_HEADER = SWEEP_FILE.format(extra="").replace("[limb right]", "[limbs]")
NAMELESS_LIMB = SWEEP_FILE.format(extra="").replace("[limb right]", "[limb]")
SPACED_LIMB = SWEEP_FILE.format(extra="").replace("[limb right]", "[limb right arm]")
OPTION_LIMB = SWEEP_FILE.format(extra="").replace("[limb right]", "[limb a=b]")
MEASURED_Q = SWEEP_FILE.format(extra="[measured]\nmeasured z 2.5\nmeasured q 2.54\n")
MEASURED_ZERO = SWEEP_FILE.format(extra="[measured]\nmeasured z 0\n")
MEASURED_NEGATIVE = SWEEP_FILE.format(extra="[measured]\nmeasured y 8 10\nmeasured z -2.54\n")
EMPTY_LIMB = SWEEP_FILE.format(extra="").replace(
    "[limb right]\nmember n r=42.85,-14.765,0 theta=0\nmember b r=10.4,0,0 theta=-20\n"
    "member n r=9.15,0,0 theta=0\n", "[limb right]\n")
MISSPELT_THETA = SWEEP_FILE.format(extra="").replace("theta=20", "teta=20")
# the limb's second member leaves the member plane
MEMBER_R_Z = SWEEP_FILE.format(extra="").replace("member b r=10.4,0,0 theta=20",
                                                 "member b r=10.4,0,3 theta=20")
# a power of these dimensions passes the float range
HINGE_W_OVERFLOW = SWEEP_FILE.format(extra="").replace("t=2.82 w=5", "t=2.82 w=1e120")
BEAM_L_OVERFLOW = SWEEP_FILE.format(extra="").replace("l=10.4", "l=1e120")
# a power or product of these dimensions underflows to 0, and the formulas divide by it
HINGE_W_UNDERFLOW = SWEEP_FILE.format(extra="").replace("t=2.82 w=5", "t=2.82 w=1e-200")
BEAM_S_UNDERFLOW = SWEEP_FILE.format(extra="").replace("s=5.32", "s=1e-200")


def _line_of(text, needle):
    """Number of the last line of `text` that contains `needle`."""
    return max(i for i, line in enumerate(text.splitlines(), start=1) if needle in line)


@pytest.mark.parametrize("command, text, message", [
    ("analyze", BAD_MATERIAL, f"error: line {_line_of(BAD_MATERIAL, 'E=oops')}, field 'E'"),
    ("analyze", WEIGHT_ONLY_LINE,
     f"error: line {_line_of(WEIGHT_ONLY_LINE, 'weight=1')}: unexpected sweep line"),
    ("sweep", WEIGHT_ONLY_LINE,
     f"error: line {_line_of(WEIGHT_ONLY_LINE, 'weight=1')}: unexpected sweep line"),
    ("sweep", MISSPELT_WEIGHT,
     f"error: line {_line_of(MISSPELT_WEIGHT, 'wieght')}, field 'wieght': unknown option"),
    ("creep", NAN_CREEP, "error: line 2, field 'force_n': non-finite number"),
    ("sweep", REPEATED_VARY, f"error: line {_line_of(REPEATED_VARY, 'vary t')}, field 't': "
                             "duplicate sweep parameter 't'"),
    ("sweep", REPEATED_TARGET,
     f"error: line {_line_of(REPEATED_TARGET, 'target')}, field 'rcc_height': "
     "duplicate objective 'target rcc_height'"),
    ("analyze", REPEATED_MEASURED,
     f"error: line {_line_of(REPEATED_MEASURED, 'measured z')}, field 'z': "
     "duplicate measured axis 'z'"),
    ("sweep", REPEATED_SWEEP, f"error: line {_line_of(REPEATED_SWEEP, '[sweep]')}, "
                              "field 'sweep': duplicate section [sweep]"),
    ("analyze", REPEATED_MECHANISM, f"error: line {_line_of(REPEATED_MECHANISM, '[mechanism]')}, "
                                    "field 'mechanism': duplicate section [mechanism]"),
    ("sweep", MIXED_TARGET_K_WEIGHTS,
     f"error: line {_line_of(MIXED_TARGET_K_WEIGHTS, 'target_k z')}, field 'weight': "
     "target_k weight 5 differs from the earlier target_k weight 2"),
    ("sweep", ZERO_TARGET_K, f"error: line {_line_of(ZERO_TARGET_K, 'target_k y')}, field 'y': "
                             "stiffness target for axis 'y' must be nonzero"),
    ("validate", LIMBS_HEADER, f"error: line {_line_of(LIMBS_HEADER, '[limbs]')}: "
                               "unknown section [limbs]"),
    ("validate", NAMELESS_LIMB, f"error: line {_line_of(NAMELESS_LIMB, '[limb]')}: "
                                "limb section needs a name"),
    ("validate", SPACED_LIMB, f"error: line {_line_of(SPACED_LIMB, '[limb right arm]')}: "
                              "name 'right arm' is not one token, with no '=', '[' or ']'"),
    ("validate", OPTION_LIMB, f"error: line {_line_of(OPTION_LIMB, '[limb a=b]')}: "
                              "name 'a=b' is not one token, with no '=', '[' or ']'"),
    ("validate", MEASURED_Q, f"error: line {_line_of(MEASURED_Q, 'measured q')}, field 'q': "
                             "unknown measured axis 'q'"),
    ("analyze", MEASURED_ZERO, f"error: line {_line_of(MEASURED_ZERO, 'measured z')}, "
                               "field 'z': measured stiffness must be positive, got 0"),
    ("analyze", MEASURED_NEGATIVE, f"error: line {_line_of(MEASURED_NEGATIVE, 'measured z')}, "
                                   "field 'z': measured stiffness must be positive, got -2.54"),
    ("validate", EMPTY_LIMB, f"error: line {_line_of(EMPTY_LIMB, '[limb right]')}, "
                             "field 'right': a limb needs at least one member"),
    ("validate", MEMBER_R_Z, f"error: line {_line_of(MEMBER_R_Z, 'r=10.4,0,3')}, "
                             "field 'left': limb 'left': member placements must have r_z = 0"),
    ("validate", MISSPELT_THETA, f"error: line {_line_of(MISSPELT_THETA, 'teta=20')}, "
                                 "field 'teta': unknown option 'teta'"),
    # no line to name: the file is valid, but the element check refuses it
    ("analyze", HINGE_W_OVERFLOW, "error: matrix entries must be finite"),
    ("analyze", BEAM_L_OVERFLOW, "error: matrix entries must be finite"),
    ("analyze", HINGE_W_UNDERFLOW, "error: matrix entries must be finite"),
    ("analyze", BEAM_S_UNDERFLOW, "error: matrix entries must be finite"),
], ids=["material-line", "weight-only-analyze", "weight-only-sweep", "misspelt-option-sweep",
        "creep-nan", "repeated-vary", "repeated-target", "repeated-measured", "repeated-sweep",
        "repeated-mechanism", "mixed-target-k-weights", "zero-target-k", "limbs-header",
        "nameless-limb", "spaced-limb-name", "option-limb-name", "measured-axis", "measured-zero", "measured-negative", "empty-limb",
        "member-r-z", "misspelt-member-option", "hinge-w-overflow", "beam-l-overflow",
        "hinge-w-underflow", "beam-s-underflow"])
def test_input_error_names_file_line(tmp_path, capfd, command, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main([command, str(path)]) == 1
    out, err = capfd.readouterr()
    assert message in err and err.count("\n") == 1
    assert "DLASCL" not in out + err  # the bad sample never reaches LAPACK


def _validate(text):
    """(exit code, stdout, stderr) of an in-process `flexmech validate` of `text`."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "design.mech"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", str(path)])
    return code, out.getvalue(), err.getvalue()


@given(mechanism_texts())
def test_validate_accepts_every_written_file(text):
    code, out, err = _validate(text)
    assert (code, err) == (0, "") and out.endswith(" materials)\n"), err


def _broken(lines, at, line):
    """The number of line `at` and the text of `lines` with it replaced by `line`."""
    return at + 1, "\n".join(lines[:at] + [line] + lines[at + 1:]) + "\n"


@st.composite
def _mutated_design(draw):
    """A drawn valid design with one record line broken by one grammar
    mutation, and the number of that line."""
    lines = draw(mechanism_texts()).splitlines()
    at, head = draw(st.sampled_from([(i, line.split()[0]) for i, line in enumerate(lines)
                                     if line.split()[:1] and line.split()[0] in GRAMMAR]))
    tokens = lines[at].split()
    required = GRAMMAR[head][2]
    options = [token for token in tokens if "=" in token]
    present = [token for token in options if token.partition("=")[0] in required]
    mutation = draw(st.sampled_from(["unknown option", "stray token"]
                                    + ["repeated option"] * bool(options)
                                    + ["missing option"] * bool(present)))
    if mutation == "missing option":
        tokens.remove(draw(st.sampled_from(present)))
    else:
        if mutation == "unknown option":
            token = "zz=1"
        elif mutation == "repeated option":
            token = draw(st.sampled_from(options))
        else:
            # never a number, so it cannot pass as an optional positional value
            token = draw(st.from_regex(r"[a-z]{1,8}", fullmatch=True))
        tokens.insert(draw(st.integers(1, len(tokens))), token)
    return _broken(lines, at, " ".join(tokens))


BUNDLED_LINES = Path(SMALL_RCC).read_text().splitlines()
MISSPELT_THETA = BUNDLED_LINES.index("member column r=10.4,0,0 theta=20")


@settings(deadline=None)
@given(_mutated_design())
@example(_broken(BUNDLED_LINES, MISSPELT_THETA, "member column r=10.4,0,0 teta=20"))
def test_grammar_mutation_is_one_error_at_its_line(mutated):
    lineno, text = mutated
    code, out, err = _validate(text)
    assert code == 1 and out == ""
    assert re.fullmatch(f"error: line {lineno}[,:] [^\n]*\n", err), err


@pytest.mark.parametrize("old, new", [
    ("t=2.82", "t=1e308"), ("r=1.25", "r=1e308"), ("r=1.25", "r=5e-324"),
    ("t=2.82", "t=1e-200"), ("t=2.82", "t=1e-308"), ("w=5 h1", "w=1e308 h1"),
    ("s=5.32", "s=1e308"),
], ids=["t-1e308", "r-1e308", "r-5e-324", "t-1e-200", "t-1e-308", "hinge-w-1e308",
        "beam-s-1e308"])
def test_extreme_dimension_warns_nothing(tmp_path, capsys, monkeypatch, old, new):
    # the suite turns warnings into errors, so a warning from the kernels
    # would fail the run; empty caches make the kernels run for this design
    monkeypatch.setattr(elements, "_kernel_cache", {})
    monkeypatch.setattr(elements, "_beta_cache", {})
    text = Path(SMALL_RCC).read_text()
    assert old in text
    path = tmp_path / "extreme.mech"
    path.write_text(text.replace(old, new))
    assert main(["analyze", str(path)]) in (0, 1)
    err = capsys.readouterr().err
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_overflowing_shear_modulus_is_an_error_at_its_line(tmp_path, capsys, command):
    # E=1e308 and nu=-0.99 derive G = E / 0.02, which overflows to inf
    text = Path(SMALL_RCC).read_text()
    material = "material copolyester E=43.8 nu=0.48"
    assert material in text
    path = tmp_path / "overflow.mech"
    path.write_text(text.replace(material, "material copolyester E=1e308 nu=-0.99"))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: line {_line_of(text, material)}, field 'copolyester': "
                            "shear modulus must be positive and finite, got inf\n")


def test_unallocatable_sweep_grid_is_an_input_error(tmp_path, capsys):
    # a grid count no machine can allocate; a smaller one might be allocated
    path = tmp_path / "huge.mech"
    path.write_text(SWEEP_FILE.format(extra="[sweep]\nvary t 1 2 1e18\ntarget rcc_height 28\n"))
    assert main(["sweep", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory: ") and captured.err.count("\n") == 1


def test_parser_reuse_keeps_output(tmp_path, capsys):
    # main builds its parser once per process: a usage error and an input
    # error on the way leave a later call's output as in a fresh process
    assert main(["analyze", SMALL_RCC, "--no-such-flag"]) == 1
    assert main(["analyze", str(tmp_path / "missing.mech")]) == 1
    capsys.readouterr()
    out = tmp_path / "reused.txt"
    assert main(["analyze", SMALL_RCC, "--rcc", "--out", str(out)]) == 0
    reused = capsys.readouterr().out
    fresh_out = tmp_path / "fresh.txt"
    src = str(Path(flexmech.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = subprocess.run([sys.executable, "-m", "flexmech.cli", "analyze", SMALL_RCC, "--rcc",
                            "--out", str(fresh_out)], env=env, capture_output=True, text=True,
                           check=True)
    assert reused == fresh.stdout
    assert out.read_bytes() == fresh_out.read_bytes()


@pytest.mark.parametrize("argv", [[], ["analyze"], ["bogus", "x"], ["analyze", "x", "--nope"]],
                         ids=["no-command", "no-file", "unknown-command", "unknown-option"])
def test_usage_error_is_an_input_error(capsys, argv):
    # exit 2 is kept for numerical failure: a command line argparse refuses
    # is an input error, one error line and no usage text
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: flexmech" in capsys.readouterr().out


# (argv, the exit code or the ("exit", code) of a SystemExit); {sweep} and
# {tmp} are filled in per run
DISPATCH = {
    "analyze": (["analyze", str(SMALL_RCC), "--rcc"], 0),
    "sweep": (["sweep", "{sweep}"], 0),
    "creep": (["creep", str(CREEP)], 0),
    "validate": (["validate", str(SMALL_RCC)], 0),
    "missing-file": (["analyze", "{tmp}/missing.mech"], 1),
    "unknown-option": (["analyze", str(SMALL_RCC), "--nope"], 1),
    "unknown-command": (["bogus", "x"], 1),
    "no-argv": ([], 1),
    "help": (["-h"], ("exit", 0)),
    **{f"{command}-help": ([command, "-h"], ("exit", 0))
       for command in ("analyze", "sweep", "creep", "validate")},
}


def _outcome(argv, capsys):
    """main(argv)'s exit code, or ("exit", code) of its SystemExit, and its
    stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv, code", DISPATCH.values(), ids=DISPATCH)
def test_subcommand_dispatch_matches_the_top_level_parser(tmp_path, capsys, monkeypatch,
                                                          argv, code):
    # main hands a subcommand's tokens straight to that subcommand's parser;
    # through the top-level parser alone every argv ends the same way
    sweep = tmp_path / "s.mech"
    sweep.write_text(SWEEP_FILE.format(extra="[sweep]\nvary t 2.4 3.2 2\ntarget rcc_height 28.6\n"))
    argv = [a.format(sweep=sweep, tmp=tmp_path) for a in argv]
    direct = _outcome(argv, capsys)
    assert direct[0] == code
    parser, _ = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: (parser, {}))
    assert _outcome(argv, capsys) == direct


@pytest.mark.parametrize("command", ["analyze", "sweep", "creep"])
@pytest.mark.parametrize("target, code", [("directory", errno.EISDIR),
                                          ("missing-parent", errno.ENOENT)])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, command, target, code):
    # a report that cannot be written is reported like a file that cannot
    # be read: exit 1 and one error line naming the path, no traceback
    source = {"analyze": SMALL_RCC, "creep": CREEP, "sweep": tmp_path / "s.mech"}[command]
    (tmp_path / "s.mech").write_text(
        SWEEP_FILE.format(extra="[sweep]\nvary t 2.4 3.2 2\ntarget rcc_height 28.6\n"))
    out = tmp_path if target == "directory" else tmp_path / "missing" / "report.txt"
    assert main([command, str(source), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: {os.strerror(code)}\n"


@pytest.mark.parametrize("argv", [["analyze", "{path}"], ["sweep", "{path}"], ["creep", "{path}"],
                                  ["validate", "{path}"],
                                  ["analyze", SMALL_RCC, "--measured", "{path}"]],
                         ids=["analyze", "sweep", "creep", "validate", "measured"])
def test_undecodable_file_names_its_path(tmp_path, capsys, argv):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"flexmech mechanism format 1\n\xff\xfe\n")
    assert main([a.format(path=path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


class TestAnalyze:
    def test_exit_ok_and_units_printed(self, capsys):
        assert main(["analyze", SMALL_RCC]) == 0
        out = capsys.readouterr().out
        assert "N/mm" in out and "Nmm/rad" in out
        assert "model assumptions" in out
        assert "isotropic" in out and "rigid platform" in out and "small deflections" in out

    def test_rcc_flag_prints_center_lines(self, capsys):
        assert main(["analyze", SMALL_RCC, "--rcc"]) == 0
        out = capsys.readouterr().out
        assert "center of compliance" in out
        assert "rotational precision" in out

    def test_measured_deviation_lines(self, capsys):
        assert main(["analyze", SMALL_RCC]) == 0
        out = capsys.readouterr().out
        assert "deviation from measured" in out

    @pytest.mark.parametrize("line, message", [
        ("measured q 2.54", "error: line 2, field 'q': unknown measured axis 'q'"),
        ("measured y 8.3 0", "error: line 2, field 'y': measured stiffness must be positive"),
    ])
    def test_bad_measured_file_line_is_an_input_error(self, tmp_path, capsys, line, message):
        path = tmp_path / "measured.txt"
        path.write_text(f"measured z 2.2\n{line}\n")
        assert main(["analyze", SMALL_RCC, "--measured", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message)

    def test_measured_override_file(self, tmp_path, capsys):
        path = tmp_path / "meas.txt"
        path.write_text("measured z 2.2\nmeasured x 150 170\n")
        assert main(["analyze", SMALL_RCC, "--measured", str(path)]) == 0
        out = capsys.readouterr().out
        assert "measured 150-170" in out
        assert "measured 2.2" in out

    def test_machine_output_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        assert main(["analyze", SMALL_RCC, "--out", str(out1)]) == 0
        assert main(["analyze", SMALL_RCC, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert "k.1.1 = " in text
        assert "rcc.height_mm = " in text
        assert "assumption.1 = " in text

    def test_missing_file_exit_one(self, capsys):
        assert main(["analyze", "missing.mech"]) == 1
        assert "missing.mech" in capsys.readouterr().err

    def test_quadrature_blowup_exit_two(self, tmp_path, capsys):
        # a vanishing neck makes the strip integrals enormous; the hinge
        # compliance swamps the limb and its inversion is refused as singular
        bad = SWEEP_FILE.format(extra="").replace("t=2.82", "t=1e-9")
        path = tmp_path / "degenerate.mech"
        path.write_text(bad)
        assert main(["analyze", str(path)]) == 2
        assert "numerical failure" in capsys.readouterr().err


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", SMALL_RCC]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "4 limbs" in out

    def test_broken_file(self, tmp_path, capsys):
        path = tmp_path / "broken.mech"
        path.write_text("flexmech mechanism format 1\nunits mm deg N\n[mechanism]\n")
        assert main(["validate", str(path)]) == 1


class TestSweep:
    def test_missing_sweep_section(self, capsys):
        assert main(["sweep", SMALL_RCC]) == 1
        assert "sweep" in capsys.readouterr().err

    def test_single_point_matches_analyze(self, tmp_path, capsys):
        path = tmp_path / "s.mech"
        path.write_text(SWEEP_FILE.format(
            extra="[sweep]\nvary t 2.82 2.82 1\ntarget rcc_height 28.6\n"))
        assert main(["sweep", str(path)]) == 0
        table = capsys.readouterr().out
        rows = table.strip().splitlines()
        assert len(rows) == 2
        k11 = float(rows[1].split("\t")[5])
        assert main(["analyze", SMALL_RCC, "--rcc"]) == 0
        human = capsys.readouterr().out
        k11_analyze = float(human.splitlines()[2].split()[0])
        assert k11 == pytest.approx(k11_analyze, rel=1e-5)

    def test_grid_rows_sorted(self, tmp_path, capsys):
        path = tmp_path / "s.mech"
        path.write_text(SWEEP_FILE.format(
            extra="[sweep]\nvary angle 16 24 3\nvary t 2.4 3.2 3\ntarget rcc_height 28.6\n"))
        assert main(["sweep", str(path)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 9
        scores = [float(r.split("\t")[4]) for r in rows if r.split("\t")[3] == "yes"]
        assert scores == sorted(scores)


    @pytest.mark.parametrize("command", ["sweep", "analyze"])
    def test_unknown_target_axis_exit_one(self, tmp_path, capsys, command):
        path = tmp_path / "s.mech"
        path.write_text(SWEEP_FILE.format(extra="[sweep]\nvary t 2.82 2.82 1\ntarget_k q 5\n"))
        assert main([command, str(path)]) == 1
        assert "unknown stiffness axis 'q'" in capsys.readouterr().err


class TestCreep:
    def test_bundled_dataset_recovers_parameters(self, capsys):
        assert main(["creep", CREEP]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(fields["creep.f0_n"]) == pytest.approx(22.0, rel=1e-6)
        assert float(fields["creep.f_ss_n"]) == pytest.approx(19.0, rel=1e-6)
        assert float(fields["creep.tau_s"]) == pytest.approx(200.0, rel=1e-6)
        assert fields["creep.tau_identifiable"] == "yes"

    def test_constant_data_flagged(self, tmp_path, capsys):
        path = tmp_path / "flat.dat"
        path.write_text("0 19\n10 19\n20 19\n30 19\n")
        assert main(["creep", str(path)]) == 0
        assert "creep.tau_identifiable = no" in capsys.readouterr().out

    def test_missing_file_names_path(self, capsys):
        assert main(["creep", "nope.dat"]) == 1
        assert "nope.dat" in capsys.readouterr().err

    def test_too_few_samples(self, tmp_path, capsys):
        path = tmp_path / "short.dat"
        path.write_text("0 22\n10 21\n")
        assert main(["creep", str(path)]) == 1
        assert "at least 4" in capsys.readouterr().err
