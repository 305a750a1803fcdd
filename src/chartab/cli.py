"""Command-line interface.

Exit codes: 0 = success / no violations, 1 = violations found,
2 = usage or parse errors, 3 = internal inconsistency (a failed
self-consistency check of the table computation).
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from .arith import check_prime
from .chartable import compute_table, format_table, table_document
from .fields import field_from_label
from .fplinalg import InconsistentTable
from .groupspec import GroupExprError, construct
from .harness import (check_central_product, check_group, fuzz_lemmas,
                      json_text, parse_corpus, sharpness_scan, verify_corpus)
from .invariants import average_degree
from .permgroup import DenseCapExceeded


def default_corpus_text() -> str:
    return resources.files("chartab.data").joinpath("corpus.txt").read_text()


def _load_corpus(path: str) -> str:
    if path == "default":
        return default_corpus_text()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chartab",
        description="Exact character tables and average degree invariants "
                    "of finite permutation groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print the character table of a group")
    p_table.add_argument("expr")
    p_table.add_argument("--json", action="store_true")

    p_acd = sub.add_parser("acd", help="average p'-degree of a group")
    p_acd.add_argument("expr")
    p_acd.add_argument("--prime", type=int, required=True)
    p_acd.add_argument("--field", choices=["Q", "Qp", "R", "C"], default="C")

    p_check = sub.add_parser("check", help="run all theorem checks on one group")
    p_check.add_argument("expr")
    p_check.add_argument("--prime", type=int, action="append", default=None)
    p_check.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run the harness over a corpus file")
    p_verify.add_argument("--corpus", required=True,
                          help="corpus file path, or 'default' for the bundled corpus")
    p_verify.add_argument("--max-order", type=_positive_int, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--jobs", type=_positive_int, default=1)
    p_verify.add_argument("--seed", type=int, default=0)

    p_fuzz = sub.add_parser("fuzz", help="fuzz the counting lemmas on random subgroups")
    p_fuzz.add_argument("expr")
    p_fuzz.add_argument("--trials", type=int, required=True)
    p_fuzz.add_argument("--seed", type=int, required=True)

    sub.add_parser("centralproduct",
                   help="verify the central-product degree-count identities")

    p_sharp = sub.add_parser("sharpness", help="minimal acd among conclusion failures")
    p_sharp.add_argument("--corpus", required=True)
    p_sharp.add_argument("--prime", type=int, required=True)
    p_sharp.add_argument("--mode", choices=["solvability", "pnilpotency"],
                         required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (GroupExprError, DenseCapExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconsistentTable as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "table":
        table = compute_table(construct(args.expr))
        if args.json:
            sys.stdout.write(json_text(table_document(table)))
        else:
            print(format_table(table))
        return 0

    if args.command == "acd":
        check_prime(args.prime)
        spec = field_from_label(args.field, args.prime)
        value = average_degree(compute_table(construct(args.expr)), args.prime, spec)
        print(f"{value.numerator}/{value.denominator}")
        return 0

    if args.command == "check":
        report = check_group(construct(args.expr), primes=args.prime, name=args.expr)
        if args.json:
            sys.stdout.write(json_text(report.to_doc()))
        else:
            print(f"group {report.group}  order {report.order}")
            for rec in report.primes:
                print(f"  p={rec.p}: acd={rec.acd_all.numerator}/{rec.acd_all.denominator}"
                      f"  acd_Q={rec.acd_Q.numerator}/{rec.acd_Q.denominator}"
                      f"  p-complement={rec.has_normal_p_complement}"
                      f"  solvable={rec.is_solvable}")
                for v in rec.verdicts:
                    mark = " *sharp*" if v.sharp else ""
                    print(f"    {v.entry_id:8s} acd={v.acd.numerator}/{v.acd.denominator}"
                          f"  {v.verdict}{mark}")
        return 1 if report.violations else 0

    if args.command == "verify":
        text = _load_corpus(args.corpus)
        entries, warnings = parse_corpus(text)
        summary = verify_corpus(entries, max_order=args.max_order,
                                jobs=args.jobs, seed=args.seed,
                                warnings=warnings)
        doc = summary.to_json()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(doc)
        else:
            sys.stdout.write(doc)
        for w in summary.warnings:
            print(f"warning: {w}", file=sys.stderr)
        print(f"groups checked: {len(summary.reports)}  "
              f"violations: {len(summary.violations)}  "
              f"sharpness witnesses: {len(summary.sharpness_witnesses)}",
              file=sys.stderr)
        return 1 if summary.violations else 0

    if args.command == "fuzz":
        report = fuzz_lemmas(construct(args.expr), trials=args.trials,
                             seed=args.seed, name=args.expr)
        sys.stdout.write(json_text(report.to_doc()))
        return 1 if report.violations else 0

    if args.command == "centralproduct":
        report = check_central_product()
        sys.stdout.write(json_text(report.to_doc()))
        return 1 if report.violations else 0

    if args.command == "sharpness":
        text = _load_corpus(args.corpus)
        entries, warnings = parse_corpus(text)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        best, witnesses = sharpness_scan(entries, args.prime, args.mode)
        if best is None:
            print("no witnesses")
        else:
            print(f"{best.numerator}/{best.denominator}")
            for w in witnesses:
                print(f"  {w}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
