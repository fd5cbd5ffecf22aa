"""Pinned reports: the bytes of the bundled design's analyze report and of
two sweep tables, as sha256 digests.  A change that only makes the program
faster must leave every digest as it is; a change that moves a number on
purpose updates the digest and says why."""

import hashlib
from pathlib import Path

import pytest

from flexmech.cli import main
from flexmech.fixtures import data_path

SMALL_RCC = data_path("small_rcc.mech")

SWEEPS = {
    # the placement grid: 16 leg angles x 16 limb y offsets, fixed hinge
    "angle_y": "vary angle 14 24 16\nvary y 8.5 11.5 16\ntarget rcc_height 28 weight=1\n",
    # the geometry grid: 8 neck thicknesses x 8 notch radii
    "t_r": "vary t 2 2.8 8\nvary r 1 1.4 8\ntarget rcc_height 28 weight=1\n",
}

# recorded with numpy 2.4 on x86-64; another LAPACK build may round the
# inverses differently and move a printed digit
PINNED = {
    "analyze_stdout": "a2ad7a4095700a57c6284747ed1c1998d93f5adf363b221072b30beb944d8597",
    "analyze_out": "2347882b6e9afc7cf493e95aa78bb151af668a41cc6352482d920afba2a9fd33",
    # the whole Saint-Venant series in torsion_beta moved two k44 cells by
    # one unit in the sixth digit: rank 120 3355.56 -> 3355.55, rank 218
    # 3212.1 -> 3212.09
    "sweep_angle_y": "95362c0a458edfb64ae5d197f6b48928165b63b78fce226aab3164a7347d6748",
    "sweep_t_r": "27d5d79bd87b22e713dfcd2c872c6f6d0a3f5a3a19118a964f99fa97cb88ffca",
}


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_analyze_report_is_pinned(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["analyze", SMALL_RCC, "--rcc", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert digest(captured.out) == PINNED["analyze_stdout"]
    assert digest(out.read_text(encoding="utf-8")) == PINNED["analyze_out"]


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_table_is_pinned(tmp_path, capsys, name):
    path = tmp_path / f"sweep_{name}.mech"
    text = Path(SMALL_RCC).read_text(encoding="utf-8")
    path.write_text(f"{text}\n[sweep]\n{SWEEPS[name]}", encoding="utf-8")
    assert main(["sweep", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert digest(captured.out) == PINNED[f"sweep_{name}"]
