"""The byte-identity CLI set: one sha256 over what flexmech's CLI writes for
a fixed set of runs, so two checkouts can be compared output for output.

The set is, for each seed 1-3 of perfbench/inputs.py: `analyze --rcc --out`
of every corpus design, `creep --out` of every creep trace, and `sweep --out`
of placement and geometry sweep files 0-7; then `analyze --rcc --out` and
`validate` of the bundled design and of four edge variants of it (a hinge
at t=1e-9 and at w=1e120, a misspelt `teta=20`, and a decimal angle
`theta=8.784`); then the command lines the argument parser refuses or
answers with help: a missing file, an unknown option, an unknown command,
no arguments, `-h`, and `<command> -h` of each command.  Each run calls
flexmech.cli.main in this process, in a temporary directory and with
relative file names, so no path enters the output; help text is wrapped at
80 columns whatever the terminal.  The digest covers each run's arguments,
stdout, stderr, exit code (or the code of its SystemExit) and `--out` file,
in order.

Run it from the repository root with the flexmech to test on the path:

    PYTHONPATH=src python tests/cli_set.py
    PYTHONPATH=/path/to/other/checkout/src python tests/cli_set.py

It prints the run count and the digest.  With --runs it first prints one
`<sha256> <argv>` line per run, so that two checkouts whose digests differ
can be diffed run by run; the last line is the same.  The inputs always come
from this checkout's perfbench/inputs.py, so both lines above run the same
set.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from flexmech import cli

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
SWEEP_FILES = 8
BUNDLED = ROOT / "src" / "flexmech" / "data" / "small_rcc.mech"
# (name, text to replace, its replacement) of each edge variant of the bundled design
EDGES = (("bundled", "", ""), ("thin_neck", "t=2.82", "t=1e-9"),
         ("wide_hinge", "w=5 h1=0", "w=1e120 h1=0"), ("misspelt_theta", "theta=20", "teta=20"),
         ("decimal_angle", "theta=20", "theta=8.784"))


def _inputs():
    """perfbench/inputs.py, imported without writing bytecode beside it."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    return inputs


def runs():
    """The (argv, {file name: text}) of every run of the set, in order."""
    inputs = _inputs()
    bundled = BUNDLED.read_text(encoding="utf-8")
    out = []
    for seed in SEEDS:
        for name, text in inputs.corpus(seed):
            out.append((["analyze", f"{name}.mech", "--rcc", "--out", "out.txt"],
                        {f"{name}.mech": text}))
        for i, trace in enumerate(inputs.creep_traces(seed)):
            out.append((["creep", f"creep_{i}.dat", "--out", "out.txt"],
                        {f"creep_{i}.dat": trace.text}))
        for kind in (inputs.placement_sweep, inputs.geometry_sweep):
            for i in range(SWEEP_FILES):
                name = f"{kind.__name__}_{i}.mech"
                out.append((["sweep", name, "--out", "out.txt"],
                            {name: kind(bundled, seed, i).text}))
    for name, old, new in EDGES:
        files = {f"{name}.mech": bundled.replace(old, new) if old else bundled}
        out.append((["analyze", f"{name}.mech", "--rcc", "--out", "out.txt"], files))
        out.append((["validate", f"{name}.mech"], files))
    out += [(["analyze", "missing.mech"], {}),
            (["analyze", "bundled.mech", "--no-such-flag"], {"bundled.mech": bundled}),
            (["bogus", "bundled.mech"], {}), ([], {}), (["-h"], {})]
    out += [([command, "-h"], {}) for command in ("analyze", "sweep", "creep", "validate")]
    return out


def run(argv, files):
    """The bytes of one run: its argv, stdout, stderr, exit code and --out
    file, each length-prefixed."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, text in files.items():
            Path(name).write_text(text, encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        out = Path("out.txt")
        written = out.read_text(encoding="utf-8") if out.exists() else ""
    parts = [" ".join(argv), stdout.getvalue(), stderr.getvalue(), str(code), written]
    return b"".join(len(p.encode()).to_bytes(8, "little") + p.encode() for p in parts)


def main():
    parser = argparse.ArgumentParser(description="One sha256 over flexmech's CLI output "
                                                 "for a fixed set of runs.")
    parser.add_argument("--runs", action="store_true",
                        help="first print each run's own sha256 and its arguments")
    show_runs = parser.parse_args().runs
    os.environ["COLUMNS"] = "80"
    digest = hashlib.sha256()
    todo = runs()
    for argv, files in todo:
        data = run(argv, files)
        digest.update(data)
        if show_runs:
            print(hashlib.sha256(data).hexdigest(), " ".join(argv))
    print(f"{len(todo)} runs sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
