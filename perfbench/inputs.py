"""Seeded input generation: mechanism corpus, creep traces and sweep files.

Every input is a pure function of the benchmark seed (and, for sweep files,
of the op index), so the same seed gives byte-identical files.  The program
under test only ever sees the generated files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HEADER = "flexmech mechanism format 1\nunits mm deg N\n"
MATERIAL = "material copolyester E=43.8 nu=0.48"
# every generated mechanism shares this hinge, so cli_analyze only ever hits
# the kernel cache after the warm-up op
HINGE = "hinge notch material=copolyester r=1.25 t=2.82 w=5 h1=0"

# designs per (limbs, members) cell.  Op time grows with limbs x members and
# creep fits are the cheapest ops; these counts put the median op inside the
# 4-limb/3-member group and the 90th percentile inside the 8-limb/5-member
# group, away from the steps between groups, so the percentiles do not jump
# between groups from run to run.
CORPUS_CELLS = {(2, 3): 2, (2, 5): 2, (4, 3): 4, (4, 5): 4, (8, 3): 2, (8, 5): 4}
LIMB_COUNTS = (2, 4, 8)
MEMBER_COUNTS = (3, 5)
CREEP_TRACES = 6             # a third of the corpus size, for the 3:1 op mix
CREEP_SAMPLES = 61
ANALYZE_PER_CREEP = 3        # cli_analyze op mix, analyze : creep

PLACEMENT_GRID = (16, 16)    # sweep_placement: angle x y
GEOMETRY_GRID = (8, 8)       # sweep_geometry: t x r
PLACEMENT_FILES = 8          # sweep_placement cycles through this many files

_STREAM_CORPUS, _STREAM_CREEP, _STREAM_PLACEMENT, _STREAM_GEOMETRY = range(4)


def _rng(seed, stream, index=0):
    return np.random.default_rng([seed, stream, index])


def _f(x):
    return repr(round(float(x), 6))


@dataclass(frozen=True)
class CreepTrace:
    """A noisy sample file and the parameters that generated it."""

    text: str
    f0: float
    f_ss: float
    tau: float
    sigma: float
    times: tuple


def _limb_lines(name, sign, members, lean, dims):
    """One limb section; sign=-1 mirrors y offsets and lean."""
    lines = [f"[limb {name}]",
             f"member notch r={_f(dims['base_x'])},{_f(sign * dims['base_y'])},0 theta=0",
             f"member column r={_f(dims['column_r'])},0,0 theta={_f(sign * lean)}"]
    if members == 5:
        lines += [f"member notch r={_f(dims['mid_r'])},0,0 theta=0",
                  f"member upper r={_f(dims['upper_r'])},0,0 theta=0"]
    lines.append(f"member notch r={_f(dims['top_r'])},0,0 theta=0")
    return lines


def mechanism_text(rng, limbs, members):
    """A mechanism of `limbs` limbs in mirrored pairs, `members` per limb."""
    lean = rng.uniform(14.0, 26.0)
    dims = {
        "base_x": rng.uniform(38.0, 47.0),
        "base_y": rng.uniform(11.0, 18.0),
        "column_r": rng.uniform(8.5, 12.5),
        "mid_r": rng.uniform(16.0, 22.0),
        "upper_r": rng.uniform(6.0, 9.0),
        "top_r": rng.uniform(7.5, 10.5),
    }
    column = f"beam column material=copolyester l={_f(rng.uniform(8.5, 12.5))} w=5 s={_f(rng.uniform(4.6, 6.0))}"
    upper = f"beam upper material=copolyester l={_f(rng.uniform(5.0, 8.0))} w=5 s={_f(rng.uniform(4.6, 6.0))}"
    out = [HEADER, "[materials]", MATERIAL, "", "[elements]", HINGE, column]
    if members == 5:
        out.append(upper)
    out.append("")
    out += _limb_lines("left", 1.0, members, lean, dims) + [""]
    out += _limb_lines("right", -1.0, members, lean, dims) + [""]
    out += ["[mechanism]", "reference platform centre"]
    x_off = rng.uniform(1.0, 4.0)
    y_off = rng.uniform(8.0, 13.0)
    pairs = limbs // 2
    # mirrored pairs spread symmetrically along z; a single pair sits at z=0
    z_levels = [0.0] if pairs == 1 else list(np.linspace(-1.0, 1.0, pairs) * rng.uniform(6.0, 11.0))
    for z in z_levels:
        out.append(f"limb left  r={_f(-x_off)},{_f(y_off)},{_f(z)}")
        out.append(f"limb right r={_f(-x_off)},{_f(-y_off)},{_f(z)}")
    return "\n".join(out) + "\n"


def corpus(seed):
    """The cli_analyze mechanism corpus: (name, text) per design.

    The number of designs per (limbs, members) cell does not depend on the
    seed, so neither does the op-cost mix.
    """
    rng = _rng(seed, _STREAM_CORPUS)
    out = []
    for (limbs, members), copies in CORPUS_CELLS.items():
        for copy in range(copies):
            out.append((f"mech_{limbs}l{members}m_{copy}", mechanism_text(rng, limbs, members)))
    return out


def creep_traces(seed):
    """Noisy relaxation traces F = F_ss + (F0 - F_ss) exp(-t/tau) + noise."""
    rng = _rng(seed, _STREAM_CREEP)
    out = []
    for _ in range(CREEP_TRACES):
        f_ss = rng.uniform(12.0, 25.0)
        f0 = f_ss + rng.uniform(2.0, 6.0)
        tau = rng.uniform(120.0, 320.0)
        sigma = rng.uniform(0.005, 0.02)
        t = np.linspace(0.0, 6.0 * tau, CREEP_SAMPLES)
        f = f_ss + (f0 - f_ss) * np.exp(-t / tau) + rng.normal(0.0, sigma, t.size)
        lines = ["# generated creep trace: time_s force_n"]
        lines += [f"{ti!r} {fi!r}" for ti, fi in zip(t.tolist(), f.tolist())]
        out.append(CreepTrace("\n".join(lines) + "\n", f0, f_ss, tau, sigma, tuple(t.tolist())))
    return out


@dataclass(frozen=True)
class SweepFile:
    """A sweep input: mechanism text with a [sweep] section, and its grid."""

    text: str
    axes: tuple          # ((name, lo, hi, n), ...) in file order
    target: float

    @property
    def points(self):
        return math.prod(n for _, _, _, n in self.axes)


def _sweep_section(axes, target):
    lines = ["[sweep]"]
    lines += [f"vary {name} {_f(lo)} {_f(hi)} {n}" for name, lo, hi, n in axes]
    lines.append(f"target rcc_height {_f(target)} weight=1")
    return "\n".join(lines) + "\n"


def _with_sweep(base_text, axes, target):
    axes = tuple((name, float(_f(lo)), float(_f(hi)), n) for name, lo, hi, n in axes)
    return SweepFile(base_text.rstrip("\n") + "\n\n" + _sweep_section(axes, target),
                     axes, float(_f(target)))


def placement_sweep(bundled_text, seed, index):
    """sweep_placement file: 16 leg angles x 16 limb y offsets, fixed hinge."""
    rng = _rng(seed, _STREAM_PLACEMENT, index)
    n_angle, n_y = PLACEMENT_GRID
    a_lo = rng.uniform(12.0, 16.0)
    y_lo = rng.uniform(8.0, 9.5)
    axes = (("angle", a_lo, a_lo + rng.uniform(8.0, 12.0), n_angle),
            ("y", y_lo, y_lo + rng.uniform(2.0, 4.0), n_y))
    return _with_sweep(bundled_text, axes, rng.uniform(24.0, 32.0))


def geometry_sweep(bundled_text, seed, index):
    """sweep_geometry file for op `index`: 8 neck t x 8 radius r.

    The ranges start at continuous draws, so no hinge geometry repeats
    within a run and every grid point misses the kernel cache.  The range
    widths are fixed, so every op covers about the same region and costs
    about the same: kernel cost depends on t and r.
    """
    rng = _rng(seed, _STREAM_GEOMETRY, index)
    n_t, n_r = GEOMETRY_GRID
    t_lo = rng.uniform(2.0, 2.1)
    r_lo = rng.uniform(1.0, 1.05)
    axes = (("t", t_lo, t_lo + 0.8, n_t), ("r", r_lo, r_lo + 0.4, n_r))
    return _with_sweep(bundled_text, axes, rng.uniform(24.0, 32.0))
