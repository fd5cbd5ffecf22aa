"""Command-line interface.

Subcommands: analyze, sweep, creep, validate.  Exit codes: 0 success,
1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .analysis import fit_creep, run_sweep
from .errors import FlexmechError, MechanismFileError, SingularMatrixError
from .mechanism import analyze
from .mechfile import (CREEP_COLUMNS, numeric_rows, parse_measured, parse_mechanism,
                       read_lines, text_entries)
from .report import build_report, creep_report, human_report, machine_report, sweep_table

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2


def _write_out(path, text):
    """Write a report file; an unwritable path is an input error naming it."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise MechanismFileError(f"cannot write {path}: {exc.strerror}") from None


def cmd_analyze(args):
    parsed = parse_mechanism(args.file)
    measured = parsed.measured
    if args.measured:
        measured = parse_measured(text_entries(read_lines(args.measured)))
    result = analyze(parsed.mechanism)
    report = build_report(result, measured)
    sys.stdout.write(human_report(report, show_rcc=args.rcc))
    if args.out:
        _write_out(args.out, machine_report(report))
    return EXIT_OK


def cmd_sweep(args):
    parsed = parse_mechanism(args.file)
    if parsed.sweep is None:
        raise MechanismFileError(f"{args.file} has no [sweep] section")
    table = sweep_table(run_sweep(parsed.sweep, parsed.mechanism))
    sys.stdout.write(table)
    if args.out:
        _write_out(args.out, table)
    return EXIT_OK


def cmd_creep(args):
    samples = numeric_rows(text_entries(read_lines(args.samples)), CREEP_COLUMNS)
    try:
        fit = fit_creep(samples)
    except ValueError as exc:
        raise MechanismFileError(str(exc)) from None
    text = creep_report(fit)
    sys.stdout.write(text)
    if args.out:
        _write_out(args.out, text)
    return EXIT_OK


def cmd_validate(args):
    parsed = parse_mechanism(args.file)
    n_limbs = len(parsed.mechanism.limbs)
    n_elems = sum(len(limb.members) for limb, _ in parsed.mechanism.limbs)
    sys.stdout.write(f"{args.file}: ok ({n_limbs} limbs, {n_elems} members, "
                     f"{len(parsed.materials)} materials)\n")
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="flexmech",
        description="Spatial stiffness analysis of compound flexure mechanisms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="assemble the 6x6 stiffness of a mechanism file")
    p.add_argument("file")
    p.add_argument("--rcc", action="store_true",
                   help="print remote-center height and rotational precision lines")
    p.add_argument("--out", help="write machine-readable report to this path")
    p.add_argument("--measured", help="measured directional stiffness file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="run the parametric design sweep of a mechanism file")
    p.add_argument("file")
    p.add_argument("--out", help="write the ranked table to this path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("creep", help="fit the exponential creep model to a sample file")
    p.add_argument("samples")
    p.add_argument("--out", help="write the fit report to this path")
    p.set_defaults(func=cmd_creep)

    p = sub.add_parser("validate", help="parse a mechanism file and report problems")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MechanismFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SingularMatrixError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FlexmechError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
