"""Record the reference outputs of the default seed into reference.json.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs each workload's ops for the default seed once through the CLI and
stores the values the checks compare against: K and the RCC heights of
every corpus design, the creep fits, and the full tables of the first
REFERENCE_SWEEPS sweep files.  Refuses to record outputs that fail the
structural checks.
"""

import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads

REFERENCE_SWEEPS = 2


def main():
    flexmech = run.import_program()
    bundled = run.BUNDLED.read_text(encoding="utf-8")
    run.OUTPUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUTPUT))
    reference = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(run.DEFAULT_SEED, workdir, bundled)
            if name == "cli_analyze":
                ops = workload.analyze_ops + workload.creep_ops
            else:
                ops = itertools.chain.from_iterable(
                    itertools.islice(workload.rounds(), REFERENCE_SWEEPS))
            entries = {}
            for op in ops:
                phase = run.Phase()
                run.run_op(flexmech.cli, op, phase, {})
                if phase.failed:
                    sys.exit(f"not recording: {phase.problems[0]}")
                text = op.out.read_text(encoding="utf-8")
                if op.kind == "analyze":
                    k, _, rcc = checks.analyze_values(text)
                    entries[op.ref_key] = {"k": k.ravel().tolist(), "rcc": list(rcc[:2])}
                elif op.kind == "creep":
                    entries[op.ref_key] = list(checks.creep_values(text)[:3])
                else:
                    entries[op.ref_key] = checks.sweep_reference_rows(text, op.expect)
            reference[name] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
