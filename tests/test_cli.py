"""CLI behavior: subcommands, exit codes, determinism of machine output."""

import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flexmech
from flexmech.cli import main
from flexmech.fixtures import data_path

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
], ids=["material-line", "weight-only-analyze", "weight-only-sweep", "misspelt-option-sweep",
        "creep-nan", "repeated-vary", "repeated-target", "repeated-measured", "repeated-sweep",
        "repeated-mechanism", "mixed-target-k-weights", "zero-target-k"])
def test_input_error_names_file_line(tmp_path, capfd, command, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main([command, str(path)]) == 1
    out, err = capfd.readouterr()
    assert message in err
    assert "DLASCL" not in out + err  # the bad sample never reaches LAPACK


def test_parser_reuse_keeps_output(tmp_path, capsys):
    # main builds its parser once per process: an argparse error and an
    # input error on the way leave a later call's output as in a fresh process
    with pytest.raises(SystemExit):
        main(["analyze", SMALL_RCC, "--no-such-flag"])
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
