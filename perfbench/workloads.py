"""The three workloads as plans of CLI calls over generated input files.

An op is one in-process call of ``flexmech.cli.main(argv)``.  A round is the
unit the rates are computed over: one pass over the cli_analyze corpus, or
one sweep.  The benchmark runs whole rounds in a closed loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs


@dataclass(frozen=True)
class Op:
    kind: str               # "analyze", "creep" or "sweep"
    argv: tuple
    out: Path
    points: int             # designs (analyze) or grid points (sweep) evaluated
    expect: object          # CreepTrace or SweepFile the output is checked against
    ref_key: str            # key into the recorded reference of the default seed
    bytes_in: int           # size of the mechanism file handed to the parser


def _write(path: Path, text: str) -> int:
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


class CliAnalyze:
    """`analyze --rcc --out` over the corpus and `creep --out` over traces, 3:1."""

    name = "cli_analyze"

    def __init__(self, seed, workdir: Path, bundled_text):
        self.analyze_ops = []
        for name, text in inputs.corpus(seed):
            path = workdir / f"{name}.mech"
            size = _write(path, text)
            out = workdir / "analyze.out"
            self.analyze_ops.append(Op("analyze", ("analyze", str(path), "--rcc", "--out", str(out)),
                                       out, 1, None, name, size))
        self.creep_ops = []
        for i, trace in enumerate(inputs.creep_traces(seed)):
            path = workdir / f"creep_{i}.dat"
            _write(path, trace.text)
            out = workdir / "creep.out"
            self.creep_ops.append(Op("creep", ("creep", str(path), "--out", str(out)),
                                     out, 0, trace, f"creep_{i}", 0))
        # one fixed seeded order, repeated every round, so every round costs
        # the same and rounds are comparable
        order = np.random.default_rng([seed, 99]).permutation(len(self.analyze_ops))
        analyze = [self.analyze_ops[i] for i in order]
        per = inputs.ANALYZE_PER_CREEP
        self.round = []
        for k, creep in enumerate(self.creep_ops):
            self.round += analyze[k * per:(k + 1) * per] + [creep]

    def cold_op(self):
        return self.analyze_ops[0]

    def warmup_ops(self):
        return list(self.round)

    def rounds(self):
        return itertools.repeat(self.round)

    def describe(self):
        return {"corpus_designs": len(self.analyze_ops), "creep_traces": len(self.creep_ops),
                "ops_per_round": len(self.round),
                "limb_counts": list(inputs.LIMB_COUNTS), "member_counts": list(inputs.MEMBER_COUNTS),
                "creep_samples": inputs.CREEP_SAMPLES}


class _Sweep:
    """Shared plumbing of the two sweep workloads; make(index) -> (key, SweepFile)."""

    def __init__(self, seed, workdir: Path, bundled_text):
        self.seed = seed
        self.workdir = workdir
        self.bundled = bundled_text

    def _op(self, key, sweep):
        path = self.workdir / f"{self.name}_{key}.mech"
        size = _write(path, sweep.text)
        out = self.workdir / f"{self.name}.tsv"
        return Op("sweep", ("sweep", str(path), "--out", str(out)),
                  out, sweep.points, sweep, str(key), size)

    def cold_op(self):
        return self._op(*self.make(0))

    def warmup_ops(self):
        # an index the measured ops never reach, so they cannot reuse its
        # geometries; its key is not in the reference
        return [self._op("warm-up", self.make(10**6)[1])]

    def rounds(self):
        for index in itertools.count():
            yield [self._op(*self.make(index))]

    def describe(self):
        return {"grid": "x".join(str(n) for n in self.grid), "grid_points": int(np.prod(self.grid))}


class SweepPlacement(_Sweep):
    """`sweep` of the bundled design over 16 leg angles x 16 limb y offsets."""

    name = "sweep_placement"
    grid = inputs.PLACEMENT_GRID

    def make(self, index):
        key = index % inputs.PLACEMENT_FILES
        return key, inputs.placement_sweep(self.bundled, self.seed, key)


class SweepGeometry(_Sweep):
    """`sweep` of the bundled design over 8 neck t x 8 radius r, new ranges per op."""

    name = "sweep_geometry"
    grid = inputs.GEOMETRY_GRID

    def make(self, index):
        return index, inputs.geometry_sweep(self.bundled, self.seed, index)


WORKLOADS = {w.name: w for w in (CliAnalyze, SweepPlacement, SweepGeometry)}
