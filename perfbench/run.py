"""flexmech benchmark: three workloads through the CLI entry point, in process.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli_analyze --seed 1 --seconds 36 --trace 0

Every op is one call of ``flexmech.cli.main([...])`` on files generated from
the seed, made by one caller in a closed loop: the next op starts when the
previous one returns.  No threads and no ``--workers``.  Every op's output
is checked (``checks.py``); a nonzero exit, an exception or a failed check
counts the op as failed.

The machine's own speed drifts on a shared host, so the fixed reference
task of ``speed.py`` is timed before every round (and in every cold start),
and the end-to-end times are scaled to reference speed: the speed at which
that task takes ``speed.REFERENCE_S``.  The wall-clock values are listed
too, as ``wall.*``.

--trace 0 measures the end-to-end metrics.  --trace 1 measures for half the
time untraced and for half with spans around every layer's public functions
(``tracing.py``); it reports the per-layer metrics and the tracing overhead
and lists the end-to-end metrics of its untraced half too, so one command
prints every metric by name with its unit.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED = SRC / "flexmech" / "data" / "small_rcc.mech"
OUTPUT = ROOT / ".perfbench"            # scratch inputs and span files
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1                         # the seed the reference was recorded with
COLD_STARTS = 5

import checks  # noqa: E402  (sys.path[0] is this directory)
import speed  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed cold start)."""


def import_program():
    if not (SRC / "flexmech" / "cli.py").is_file() or not BUNDLED.is_file():
        raise BenchError(f"no flexmech sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flexmech
    import flexmech.cli
    if Path(flexmech.__file__).resolve().parent != SRC / "flexmech":
        raise BenchError(f"imported flexmech from {flexmech.__file__}, not from {SRC}")
    return flexmech


def cold_start(op):
    """Median over fresh processes of import + one op, and of the import alone.

    Each is scaled to reference speed by the reference task timed in the
    same process right after the op.  Returns those two and the wall-clock
    median of import + one op.
    """
    setup, imports, wall = [], [], []
    for _ in range(COLD_STARTS):
        proc = subprocess.run([sys.executable, str(HERE / "coldstart.py"), str(SRC), *op.argv],
                              capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchError(f"cold start failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["exit"] != 0:
            raise BenchError(f"cold-start op exited {result['exit']}")
        k = speed.scale(result["reference_s"])
        setup.append(k * result["setup_s"])
        imports.append(k * result["import_s"])
        wall.append(result["setup_s"])
    return statistics.median(setup), statistics.median(imports), statistics.median(wall)


class Phase:
    """Everything one measuring phase recorded."""

    def __init__(self):
        self.rounds = []        # (ops, points, summed op seconds, reference s) per round
        self.latencies = []     # wall seconds per op
        self.scaled = []        # seconds per op at reference speed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.points = 0
        self.feasible = 0
        self.sweep_points = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def rate(self, index, wall=False):
        """Median over rounds of ops (0) or points (1) per second of op time."""
        return statistics.median(r[index] / (r[2] if wall else r[2] * speed.scale(r[3]))
                                 for r in self.rounds)


def run_op(cli, op, phase, reference, tracer=None):
    """One timed CLI call followed by its (untimed) output check."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    op.out.unlink(missing_ok=True)      # a stale report must not pass the check
    if tracer is not None:
        tracer.begin_op(phase.attempted)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(op.argv))
        except (Exception, SystemExit) as exc:  # a crash is a failed op, not a dead benchmark
            error = repr(exc)
        elapsed = perf_counter() - start
    phase.attempted += 1
    phase.latencies.append(elapsed)
    problems = []
    text = ""
    if code == 0 and not op.out.is_file():
        problems.append(f"exit 0 but no report at {op.out.name}")
    elif code != 0:
        problems.append(f"exit {code} {error} {err.getvalue().strip()[-300:]}")
    else:
        text = op.out.read_text(encoding="utf-8")
        ref = reference.get(op.ref_key)
        if op.kind == "analyze":
            problems = checks.check_analyze(text, ref)
        elif op.kind == "creep":
            problems = checks.check_creep(text, op.expect, ref)
        else:
            problems = checks.check_sweep(text, op.expect, ref)
            phase.feasible += text.count("\tyes\t")     # the table's feasible column
            phase.sweep_points += op.points
    if problems:
        phase.failed += 1
        phase.problems.append(f"{' '.join(op.argv[:2])}: {'; '.join(problems)}")
    phase.points += op.points
    phase.bytes_in += op.bytes_in
    phase.bytes_out += len(out.getvalue().encode("utf-8")) + len(text.encode("utf-8"))
    return elapsed


def measure(cli, rounds, seconds, reference, tracer=None):
    """Run whole rounds in a closed loop until `seconds` have passed."""
    phase = Phase()
    deadline = perf_counter() + seconds
    while True:
        ops = next(rounds)
        reference_s = speed.time_reference()
        elapsed = [run_op(cli, op, phase, reference, tracer) for op in ops]
        k = speed.scale(reference_s)
        phase.scaled += [k * t for t in elapsed]
        phase.rounds.append((len(ops), sum(op.points for op in ops), sum(elapsed), reference_s))
        if perf_counter() >= deadline:
            return phase


def end_to_end(phase, setup_s, peak_rss_mb, wall=False):
    p50, p90 = np.percentile(phase.latencies if wall else phase.scaled, [50, 90])
    return {
        "setup_s": (setup_s, "s"),
        "calls_per_s": (phase.rate(0, wall), "1/s"),
        "call_p50_ms": (1e3 * p50, "ms"),
        "call_p90_ms": (1e3 * p90, "ms"),
        "points_per_s": (phase.rate(1, wall), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, traced, untraced, import_s):
    """Per-op counts and self times from the traced phase's spans."""
    cols = tracer.columns()
    n_ops = traced.attempted
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(*names):
        return np.isin(cols["name"], [ids[n] for n in names if n in ids])

    def calls(*names):
        return float(mask(*names).sum()) / n_ops

    def self_s(*names):
        return float(cols["self"][mask(*names)].sum()) / n_ops

    def layer_self(layer):
        return self_s(*[n for n in tracer.names if n.split(".", 1)[0] == layer])

    kernel_calls = calls("kernels.notch_kernels")
    hinge_calls = calls("elements.hinge_compliance")
    built = calls("spatial.SpatialMatrix6")
    points_per_op = traced.points / n_ops
    m = {
        "kernels.notch_kernels.calls": (kernel_calls, "count"),
        "kernels.notch_kernels.self_s": (self_s("kernels.notch_kernels"), "s"),
        "kernels.notch_kernels.us_per_call":
            (1e6 * self_s("kernels.notch_kernels") / kernel_calls if kernel_calls else 0.0, "us"),
        "kernels.notch_kernels.self_share":
            (float(cols["self"][mask("kernels.notch_kernels")].sum() / cols["self"].sum()), "frac"),
        "kernels.self_s": (layer_self("kernels"), "s"),
        "elements.hinge_compliance.calls": (hinge_calls, "count"),
        "elements.hinge_compliance.self_s": (self_s("elements.hinge_compliance"), "s"),
        "elements.beam_compliance.calls": (calls("elements.beam_compliance"), "count"),
        "elements.beam_compliance.self_s": (self_s("elements.beam_compliance"), "s"),
        "elements.kernel_reuse_ratio":
            (1.0 - kernel_calls / hinge_calls if hinge_calls else 0.0, "ratio"),
        "elements.self_s": (layer_self("elements"), "s"),
        "spatial.invert.calls": (calls("spatial.invert"), "count"),
        "spatial.invert.self_s": (self_s("spatial.invert"), "s"),
        "spatial.transport.calls":
            (calls("spatial.amplification_displacement", "spatial.amplification_force"), "count"),
        "spatial.transport.self_s":
            (self_s("spatial.amplification_displacement", "spatial.amplification_force"), "s"),
        "spatial.matrix6_built": (built, "count"),
        "spatial.matrix6_per_point": (built / points_per_op if points_per_op else 0.0, "count"),
        "spatial.self_s": (layer_self("spatial"), "s"),
        "mechanism.limb_compliance.calls": (calls("mechanism.limb_compliance"), "count"),
        "mechanism.limb_compliance.self_s": (self_s("mechanism.limb_compliance"), "s"),
        "mechanism.mechanism_stiffness.self_s": (self_s("mechanism.mechanism_stiffness"), "s"),
        "mechanism.rcc.self_s":
            (self_s("mechanism.center_of_compliance", "mechanism.ideal_fourbar_center"), "s"),
        "mechanism.analyze.calls": (calls("mechanism.analyze"), "count"),
        "mechanism.analyze.self_s": (self_s("mechanism.analyze"), "s"),
        "mechanism.self_s": (layer_self("mechanism"), "s"),
        "analysis.run_sweep.self_s": (self_s("analysis.run_sweep"), "s"),
        "analysis.apply_parameters.self_s": (self_s("analysis.apply_parameters"), "s"),
        "analysis.sweep_feasible_ratio":
            (traced.feasible / traced.sweep_points if traced.sweep_points else 0.0, "ratio"),
        "analysis.fit_creep.calls": (calls("analysis.fit_creep"), "count"),
        "analysis.fit_creep.self_s": (self_s("analysis.fit_creep"), "s"),
        "analysis.self_s": (layer_self("analysis"), "s"),
        "mechfile.parse_mechanism.self_s": (self_s("mechfile.parse_mechanism"), "s"),
        "mechfile.bytes_in": (traced.bytes_in / n_ops, "B"),
        "report.self_s": (layer_self("report"), "s"),
        "report.bytes_out": (traced.bytes_out / n_ops, "B"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.import_s": (import_s, "s"),
        "trace.overhead_frac": (untraced.rate(0) / traced.rate(0) - 1.0, "frac"),
        "trace.self_coverage": (float(cols["self"].sum()) / sum(traced.latencies), "frac"),
        "trace.spans_per_op": (cols["op"].size / n_ops, "count"),
    }
    return m, self_test(cols, ids, traced)


SELF_TEST_TOL = 0.02


def self_test(cols, ids, traced):
    """Per-layer self times must add up to the traced ops' wall time."""
    problems = []
    roots = (cols["parent"] < 0)
    if roots.sum() != traced.attempted or np.any(cols["name"][roots] != ids.get("cli.main")):
        problems.append("every traced op must have exactly one root span, cli.main")
        return problems
    coverage = float(cols["self"].sum()) / sum(traced.latencies)
    if abs(1.0 - coverage) > SELF_TEST_TOL:
        problems.append(f"self times add up to {coverage:.3%} of the traced op wall time")
    if cols["self"].min() < -1e-6:
        problems.append("negative self time: spans do not nest")
    return problems


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(args, flexmech, workdir):
    cli = flexmech.cli
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir,
                                                  BUNDLED.read_text(encoding="utf-8"))
    reference = {}
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]

    setup_s, import_s, setup_wall_s = cold_start(workload.cold_op())
    speed.time_reference()          # its first run pays numpy's lazy set-up
    warm = Phase()
    for op in workload.warmup_ops():
        run_op(cli, op, warm, reference)

    rounds = workload.rounds()
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(cli, rounds, untraced_s, reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = end_to_end(untraced, setup_s, peak_rss_mb)
    phases = [untraced]
    problems = [f"warm-up {p}" for p in warm.problems] + untraced.problems
    metrics = e2e
    listing = dict(e2e)
    wall = end_to_end(untraced, setup_wall_s, peak_rss_mb, wall=True)
    listing.update({f"wall.{name}": wall[name] for name in wall if name != "peak_rss_mb"})
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(cli, rounds, args.seconds - untraced_s, reference, tracer)
        finally:
            tracer.uninstall()
        phases.append(traced)
        problems += traced.problems
        metrics, self_problems = per_layer(tracer, traced, untraced, import_s)
        problems += self_problems
        listing.update(metrics)
        OUTPUT.mkdir(exist_ok=True)
        spans_path = OUTPUT / f"spans-{workload.name}-seed{args.seed}.npz"
        tracer.write(spans_path)
        listing_note = f"spans written to {spans_path.relative_to(ROOT)}"
    else:
        listing_note = "per-layer metrics: rerun with --trace 1"

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "kernel_backend": getattr(flexmech, "KERNEL_BACKEND", "unknown"),
        **workload.describe(),
        "cold_starts": COLD_STARTS, "rounds": [len(p.rounds) for p in phases],
        "reference_ms": 1e3 * statistics.median(r[3] for r in untraced.rounds),
        "reference_speed_ms": 1e3 * speed.REFERENCE_S,
        "ops": [p.attempted for p in phases], "failed_frac": failed / attempted,
        "reference_checked": bool(reference),
        "loop": "closed, one caller, no threads",
    }
    print(f"meta {json.dumps(meta)}")
    for name, (value, unit) in listing.items():
        print(f"metric {name:40s} {value:14.6g} {unit}")
    print(listing_note)
    for problem in problems[:20]:
        print(f"problem {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        flexmech = import_program()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUTPUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUTPUT))
    try:
        result = run(args, flexmech, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
