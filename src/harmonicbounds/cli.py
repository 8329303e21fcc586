"""Command-line surface for the certified harmonic-number toolkit.

Four subcommands:

  eval     print H(n), exactly or as a decimal enclosure
  bounds   check the bound catalog at one index
  verify   run the verification sweeps and serialize the report
  compare  the refinement-containment report on its own

Exit codes: 0 when everything passes (equalities count as passes), 1 when
any check fails, 2 for usage errors, 3 when a comparison stayed undecided
at the precision cap.  Reports are deterministic: identical flags produce
identical bytes regardless of --jobs.
"""

from __future__ import annotations

import argparse
import csv
import sys
from decimal import Decimal
from typing import Sequence

from . import specfun
from .ball import Ball, DEFAULT_PRECISION, MAX_PRECISION, MIN_PRECISION, enclosure_str
from .bounds import bound_ids, check_bound, target_value
from .report import (
    VerificationReport,
    ball_mid_str,
    ball_rad_str,
    render_table,
)
from .verify import CHECK_NAMES, refinement_check, verify_all

__all__ = ["build_parser", "main"]

_TABLE_DIGITS = 24
# H(n)'s denominator has about 1.44 n bits; at this n it prints in about a second
EXACT_MAX_N = 10**5

BOUNDS_CSV_HEADER = [
    "bound_id",
    "n",
    "lower_mid",
    "lower_rad",
    "target_mid",
    "target_rad",
    "upper_mid",
    "upper_rad",
    "verdict",
]


def _int_at_least(least: int, most: int | None = None):
    """The argparse type of an integer in [least, most]."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            # int() refuses a numeral only past the interpreter's digit limit
            if text.strip().lstrip("+-").isdecimal():
                limit = sys.get_int_max_str_digits()
                raise argparse.ArgumentTypeError(f"has more than {limit} digits") from None
            # echo short text whole, long text cut, so the error stays short
            shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
            raise argparse.ArgumentTypeError(f"not an integer: {shown}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be <= {most}")
        return value

    return parse


def _check_list(text: str) -> tuple[str, ...]:
    """The argparse type of a comma-separated list of check names."""
    checks = tuple(c.strip() for c in text.split(",") if c.strip())
    unknown = sorted(set(checks) - set(CHECK_NAMES))
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown checks: {', '.join(unknown)}")
    if not checks:
        raise argparse.ArgumentTypeError("must name at least one check")
    return checks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonic-bounds",
        description="Certified harmonic-number enclosures and bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_precision(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--precision",
            type=_int_at_least(MIN_PRECISION, MAX_PRECISION),
            default=DEFAULT_PRECISION,
            metavar="BITS",
            help=f"working precision in bits (default {DEFAULT_PRECISION})",
        )

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("table", "json", "csv"),
            default="table",
            help="output format (default table)",
        )

    p = sub.add_parser("eval", help="print H(n) exactly or as a decimal enclosure")
    p.add_argument("n", type=_int_at_least(1), help="index of the harmonic number")
    p.add_argument(
        "--exact",
        action="store_true",
        help="print the exact fraction instead of a decimal enclosure "
        f"(its denominator has about 1.44 n bits; n at most {EXACT_MAX_N})",
    )
    add_precision(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bounds", help="check the bound catalog at one index")
    p.add_argument("n", type=_int_at_least(1), help="index to check the bounds at")
    p.add_argument(
        "--bound",
        choices=("all",) + bound_ids(),
        default="all",
        help="restrict to one catalog entry (default all)",
    )
    add_format(p)
    add_precision(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run the verification sweeps")
    p.add_argument(
        "--max-n",
        dest="max_n",
        type=_int_at_least(3),
        default=1000,
        help="sweep indices 1..max_n (default 1000)",
    )
    p.add_argument(
        "--checks",
        type=_check_list,
        default=None,
        metavar="LIST",
        help="comma-separated subset of: " + ", ".join(CHECK_NAMES),
    )
    p.add_argument(
        "--jobs",
        type=_int_at_least(1),
        default=1,
        help="processes for the bound stage, the only stage that fans out: "
        "jobs - 1 forked children and this process, at most one per core; it "
        "fans out only at max-n >= 4*jobs where fork exists (default 1)",
    )
    add_format(p)
    add_precision(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="refinement-containment report")
    p.add_argument(
        "--max-n",
        dest="max_n",
        type=_int_at_least(2),
        default=1000,
        help="compare over indices 2..max_n (default 1000)",
    )
    add_format(p)
    add_precision(p)
    p.set_defaults(func=cmd_compare)

    return parser


def _enc(b: Ball) -> str:
    return enclosure_str(b, _TABLE_DIGITS)


def cmd_eval(args: argparse.Namespace) -> int:
    if args.exact:
        if args.n > EXACT_MAX_N:
            print(f"error: eval --exact needs n <= {EXACT_MAX_N}", file=sys.stderr)
            return 2
        h = specfun.harmonic_exact(args.n)
        # Decimal prints an int without the interpreter's int-to-str digit limit
        parts = [h.numerator] + ([h.denominator] if h.denominator > 1 else [])
        print("/".join(str(Decimal(v)) for v in parts))
    else:
        print(enclosure_str(target_value("H", args.n, args.precision)))
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    ids = bound_ids() if args.bound == "all" else (args.bound,)
    checks = [check_bound(bid, args.n, args.precision) for bid in ids]
    rep = VerificationReport([chk.record() for chk in checks])

    if args.fmt == "table":
        rows = [["bound", "lower", "target", "upper", "margin", "verdict"]]
        for chk in checks:
            rows.append(
                [
                    chk.bound_id,
                    _enc(chk.lower),
                    _enc(chk.target),
                    _enc(chk.upper),
                    _enc(chk.margin),
                    chk.verdict_label(),
                ]
            )
        print(render_table(rows))
    elif args.fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(BOUNDS_CSV_HEADER)
        for chk in checks:
            writer.writerow(
                [
                    chk.bound_id,
                    str(chk.n),
                    ball_mid_str(chk.lower),
                    ball_rad_str(chk.lower),
                    ball_mid_str(chk.target),
                    ball_rad_str(chk.target),
                    ball_mid_str(chk.upper),
                    ball_rad_str(chk.upper),
                    chk.verdict_label(),
                ]
            )
    else:
        print(rep.to_json())
    return rep.exit_code()


def _emit_report(rep: VerificationReport, fmt: str) -> int:
    if fmt == "json":
        print(rep.to_json())
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(rep.to_csv_rows())
    else:
        s = rep.summary()
        print(
            "summary: pass={pass} equality={equality} fail={fail} undecided={undecided}".format(**s)
        )
        print(render_table(rep.to_csv_rows()))
    return rep.exit_code()


def cmd_verify(args: argparse.Namespace) -> int:
    rep = verify_all(args.max_n, args.precision, checks=args.checks, jobs=args.jobs)
    return _emit_report(rep, args.fmt)


def cmd_compare(args: argparse.Namespace) -> int:
    rep = refinement_check(args.max_n, args.precision)
    return _emit_report(rep, args.fmt)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
