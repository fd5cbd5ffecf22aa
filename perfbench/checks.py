"""Output checks run after every op.

Each check returns a list of problems; an empty list means the output is
correct.  Structural checks hold for any seed.  For the default seed the
outputs are also compared with reference values recorded from flexmech
0.1.0 with the pure-Python kernels (``reference.json``).

Reports carry 6 significant digits, so one unit in the last digit is up to
1e-5 of a value.  Every tolerance here is at least ten times that, so a
more accurate kernel or a reordered sum still passes, while a wrong entry,
sign or row does not.
"""

from __future__ import annotations

import math

import numpy as np

REF_RTOL = 1e-4        # reference comparison, relative to the entry's scale
ROUND_RTOL = 1e-4      # identities between rounded report values
IDENTITY_TOL = 1e-3    # K C = I, after diagonal equilibration
CREEP_SIGMAS = 6.0     # fitted parameters within this many standard errors


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _matrix(kv, label):
    return np.array([[float(kv[f"{label}.{i}.{j}"]) for j in range(1, 7)] for i in range(1, 7)])


def analyze_values(text):
    """(K, C, (height, ideal center, precision)) from a machine report."""
    kv = parse_kv(text)
    rcc = tuple(float(kv[k]) for k in
                ("rcc.height_mm", "rcc.ideal_center_mm", "rcc.rotational_precision_mm"))
    return _matrix(kv, "k"), _matrix(kv, "c"), rcc


def _close(a, b, scale, rtol):
    return abs(a - b) <= rtol * scale


def check_analyze(text, ref=None):
    try:
        k, c, (height, ideal, precision) = analyze_values(text)
    except (KeyError, ValueError) as exc:
        return [f"machine report incomplete: {exc}"]
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(c))):
        return ["non-finite matrix entry"]
    problems = []
    dk, dc = np.sqrt(np.abs(np.diag(k))), np.sqrt(np.abs(np.diag(c)))
    # an entry is judged against sqrt(K_ii K_jj), so near-zero couplings and
    # the mixed N/mm, N/rad, Nmm/rad blocks all get the same relative test
    k_scale, c_scale = np.outer(dk, dk), np.outer(dc, dc)
    if np.any(np.abs(k - k.T) > ROUND_RTOL * k_scale):
        problems.append("K is not symmetric")
    if np.any(np.diag(k) <= 0.0):
        problems.append("K has a non-positive diagonal")
        return problems
    d = np.diag(1.0 / dk)
    if np.linalg.eigvalsh(d @ k @ d).min() <= 0.0:
        problems.append("K is not positive definite")
    if np.abs(d @ k @ c @ np.diag(dk) - np.eye(6)).max() > IDENTITY_TOL:
        problems.append("K C differs from the identity")
    if c[5, 1] == 0.0 or not _close(height, -c[1, 1] / c[5, 1], abs(height), ROUND_RTOL):
        problems.append(f"rcc.height_mm {height} is not -C22/C62")
    if not _close(precision, abs(height - ideal), max(abs(height), abs(ideal)), ROUND_RTOL):
        problems.append("rotational precision is not |height - ideal center|")
    if ref is not None:
        k_ref = np.array(ref["k"]).reshape(6, 6)
        ref_scale = np.sqrt(np.outer(np.abs(np.diag(k_ref)), np.abs(np.diag(k_ref))))
        if np.any(np.abs(k - k_ref) > REF_RTOL * ref_scale):
            problems.append("K differs from the reference")
        for got, want, name in zip((height, ideal), ref["rcc"], ("height", "ideal center")):
            if not _close(got, want, abs(want), REF_RTOL):
                problems.append(f"rcc {name} {got} differs from the reference {want}")
    return problems


def creep_values(text):
    kv = parse_kv(text)
    return (float(kv["creep.f0_n"]), float(kv["creep.f_ss_n"]), float(kv["creep.tau_s"]),
            float(kv["creep.residual_norm_n"]), kv["creep.tau_identifiable"])


def _creep_standard_errors(trace):
    """Standard errors of (f0, f_ss, tau) for the trace's noise level."""
    t = np.array(trace.times)
    decay = np.exp(-t / trace.tau)
    jac = np.column_stack([decay, 1.0 - decay,
                           (trace.f0 - trace.f_ss) * t / trace.tau**2 * decay])
    return trace.sigma * np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))


def check_creep(text, trace, ref=None):
    try:
        f0, f_ss, tau, resid, identifiable = creep_values(text)
    except (KeyError, ValueError) as exc:
        return [f"creep report incomplete: {exc}"]
    problems = []
    if identifiable != "yes":
        problems.append("tau reported unidentifiable on a decaying trace")
    se = _creep_standard_errors(trace)
    for got, want, err, name in zip((f0, f_ss, tau), (trace.f0, trace.f_ss, trace.tau), se,
                                    ("f0", "f_ss", "tau")):
        if abs(got - want) > CREEP_SIGMAS * err:
            problems.append(f"creep {name} {got} misses the generating {want:.6g}")
    # the residual norm of a good fit is about sigma sqrt(n - 3)
    expected = trace.sigma * math.sqrt(len(trace.times) - 3)
    if not 0.5 * expected <= resid <= 1.5 * expected:
        problems.append(f"creep residual norm {resid} is not near {expected:.6g}")
    if ref is not None:
        for got, want, name in zip((f0, f_ss, tau), ref, ("f0", "f_ss", "tau")):
            if not _close(got, want, abs(want), REF_RTOL):
                problems.append(f"creep {name} {got} differs from the reference {want}")
    return problems


def sweep_rows(text, n_params):
    """Parsed table rows: (rank, params, feasible, score, rcc, k_diag)."""
    lines = text.splitlines()
    rows = []
    for line in lines[1:]:
        cells = line.split("\t")
        params = tuple(float(v) for v in cells[1:1 + n_params])
        rest = cells[1 + n_params:]
        feasible = rest[0] == "yes"
        nums = tuple(float(v) for v in rest[1:]) if feasible else ()
        rows.append((int(cells[0]), params, feasible,
                     nums[0] if nums else math.inf, nums[1] if nums else math.nan, nums[2:]))
    return lines[0].split("\t"), rows


def sweep_reference_rows(text, sweep):
    """Reference form of a table: params key -> [score, rcc, k11..k66]."""
    _, rows = sweep_rows(text, len(sweep.axes))
    return {",".join(f"{v:.6g}" for v in params): [score, rcc, *k]
            for _, params, _, score, rcc, k in rows}


def check_sweep(text, sweep, ref=None):
    names = [name for name, *_ in sweep.axes]
    try:
        header, rows = sweep_rows(text, len(names))
    except (IndexError, ValueError) as exc:
        return [f"sweep table malformed: {exc}"]
    problems = []
    if header[1:1 + len(names)] != names:
        problems.append(f"sweep header {header} does not name {names}")
    if len(rows) != sweep.points:
        return problems + [f"sweep table has {len(rows)} rows for {sweep.points} grid points"]
    if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
        problems.append("sweep ranks are not 1..N")
    # every grid point appears exactly once
    for col, (name, lo, hi, n) in enumerate(sweep.axes):
        axis = np.linspace(lo, hi, n)
        got = np.array(sorted({r[1][col] for r in rows}))
        if got.size != n or np.any(np.abs(got - axis) > ROUND_RTOL * np.abs(axis)):
            problems.append(f"sweep column {name} does not cover its grid")
    if len({r[1] for r in rows}) != len(rows):
        problems.append("sweep table repeats a grid point")
    if not all(r[2] for r in rows):
        problems.append(f"{sum(not r[2] for r in rows)} valid grid points reported infeasible")
        return problems
    scores = [r[3] for r in rows]
    if any(b < a for a, b in zip(scores, scores[1:])):
        problems.append("sweep table is not sorted by score")
    for _, params, _, score, rcc, k in rows:
        if len(k) != 6 or min(k) <= 0.0:
            problems.append(f"sweep row {params} has a non-positive stiffness")
            break
        # the objective is |rcc - target| with weight 1
        if not _close(score, abs(rcc - sweep.target), max(abs(rcc), sweep.target), ROUND_RTOL):
            problems.append(f"sweep row {params} score does not match its rcc height")
            break
    if ref is not None:
        got = sweep_reference_rows(text, sweep)
        if got.keys() != ref.keys():
            problems.append("sweep grid differs from the reference")
        else:
            for key, want in ref.items():
                have = got[key]
                scale = [sweep.target] + [abs(w) for w in want[1:]]
                if any(not _close(h, w, s, REF_RTOL) for h, w, s in zip(have, want, scale)):
                    problems.append(f"sweep row {key} differs from the reference")
                    break
    return problems
