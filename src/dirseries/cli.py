"""Command-line front end.

Subcommands::

    coeff          -e EXPR -n INDEX                print one coefficient
    series         -e EXPR -N TRUNC [--json|--csv] print a series
    matrix         --kind {mult,column,rd,riordan} -e EXPR [-e2 EXPR]
                   -N SIZE [--csv|--json]          print a matrix; -e2 is
                                                   required by rd and riordan
                                                   and refused by the others
    bell           [--tilde] -N ROWS -M COLS [--symbolic]
                                                   partition/factorization
                                                   polynomial tables as CSV
    factorizations -n N -m M                       ordered factorizations
    verify         --suite NAME [-N BOUND] [--jobs K] [--timings]
                                                   run identity suites;
                                                   --timings prints each
                                                   suite's wall seconds and
                                                   record count on stderr

Caps: series truncations, ``coeff`` indices and the declared truncation
of a loaded series file are at most ``SERIES_CAP`` (10000), matrix sizes
at most 500.

Exit codes: 0 on success, 1 when a verification suite reports a failure,
2 on usage errors (bad flags, values out of range or over a cap,
malformed expressions or series files, precondition violations).  Every
usage error is a ``DirAlgebraError`` or an ``OSError``, printed by
``main`` as one ``error:`` line on stderr without a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DirAlgebraError
from .exprlang import _expect_kind, eval_expr, parse_expr
from .partitions import bell_B, bell_btilde, ordered_factorizations
from .poly import Polynomial, coeff_symbol
from .serialize import (
    matrix_to_csv,
    matrix_to_json_text,
    series_to_csv,
    series_to_json_text,
)
from .series import SERIES_CAP
from .verify import SUITES, run_suites

MATRIX_CAP = 500


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirseries",
        description="exact symbolic algebra of series under Dirichlet composition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="print a single coefficient")
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("-n", "--index", required=True, type=int)

    p = sub.add_parser("series", help="print a series")
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("-N", "--trunc", type=int, default=64)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")

    p = sub.add_parser("matrix", help="print a matrix family")
    p.add_argument("--kind", required=True, choices=("mult", "column", "rd", "riordan"))
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("-e2", "--expr2")
    p.add_argument("-N", "--size", type=int, default=16)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")

    p = sub.add_parser("bell", help="partition/factorization polynomial tables")
    p.add_argument("--tilde", action="store_true", help="factorization family")
    p.add_argument("-N", "--rows", required=True, type=int)
    p.add_argument("-M", "--cols", required=True, type=int)
    p.add_argument("--symbolic", action="store_true", help="indeterminate values")

    p = sub.add_parser("factorizations", help="ordered factorizations of n")
    p.add_argument("-n", required=True, type=int)
    p.add_argument("-m", required=True, type=int)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p.add_argument("-N", "--bound", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timings", action="store_true",
                   help="print each suite's wall seconds and record count on stderr")

    return parser


def _cmd_coeff(args) -> int:
    if args.index > SERIES_CAP:
        raise DirAlgebraError(f"coefficient index must be at most {SERIES_CAP}")
    series = eval_expr(parse_expr(args.expr), max(args.index, 1))
    if args.index < series.first:
        raise DirAlgebraError(
            f"this series has no index {args.index}; indices start at {series.first}"
        )
    print(series[args.index].to_text())
    return 0


def _cmd_series(args) -> int:
    if not 1 <= args.trunc <= SERIES_CAP:
        raise DirAlgebraError(f"series truncation must be in 1..{SERIES_CAP}")
    series = eval_expr(parse_expr(args.expr), args.trunc)
    if args.csv:
        sys.stdout.write(series_to_csv(series))
    else:
        print(series_to_json_text(series))
    return 0


def _cmd_matrix(args) -> int:
    from .matrices import build_column, build_mult, build_rd, build_riordan_ord

    if not 1 <= args.size <= MATRIX_CAP:
        raise DirAlgebraError(f"matrix size must be in 1..{MATRIX_CAP}")
    if args.kind in ("rd", "riordan") and not args.expr2:
        raise DirAlgebraError(f"matrix --kind {args.kind} needs -e and -e2")
    if args.kind in ("mult", "column") and args.expr2:
        raise DirAlgebraError(f"matrix --kind {args.kind} takes -e only, not -e2")
    what = f"matrix --kind {args.kind}"
    want = "ord" if args.kind == "riordan" else "dir"
    first = _expect_kind(what, eval_expr(parse_expr(args.expr), args.size), want)

    if args.kind == "mult":
        matrix = build_mult(first, args.size)
    elif args.kind == "column":
        matrix = build_column(first, args.size)
    else:
        second = _expect_kind(what, eval_expr(parse_expr(args.expr2), args.size), want)
        build = build_rd if args.kind == "rd" else build_riordan_ord
        matrix = build(first, second, args.size)

    if args.json:
        print(matrix_to_json_text(matrix))
    else:
        sys.stdout.write(matrix_to_csv(matrix))
    return 0


def _cmd_bell(args) -> int:
    if not 1 <= args.rows <= SERIES_CAP or args.cols < 1:
        raise DirAlgebraError(f"bell needs 1 <= N <= {SERIES_CAP} and M >= 1")
    lines = []
    if args.tilde:
        values = (
            [Polynomial.symbol(coeff_symbol(k)) for k in range(2, args.rows + 1)]
            if args.symbolic
            else [1] * max(args.rows - 1, 0)
        )
        for n in range(2, args.rows + 1):
            cells = [bell_btilde(n, m, values).to_text() for m in range(1, args.cols + 1)]
            lines.append(",".join([str(n)] + cells))
    else:
        values = (
            [Polynomial.symbol(coeff_symbol(k)) for k in range(1, args.rows + 1)]
            if args.symbolic
            else [1] * args.rows
        )
        for n in range(1, args.rows + 1):
            cells = [
                bell_B(n, m, values).to_text() if m <= n else "0"
                for m in range(1, args.cols + 1)
            ]
            lines.append(",".join([str(n)] + cells))
    print("\n".join(lines))
    return 0


def _cmd_factorizations(args) -> int:
    if args.n < 1 or args.m < 0:
        raise DirAlgebraError("factorizations needs n >= 1 and m >= 0")
    for tup in ordered_factorizations(args.n, args.m):
        print(",".join(str(k) for k in tup))
    return 0


def _cmd_verify(args) -> int:
    if args.bound is not None and args.bound < 1:
        raise DirAlgebraError("verify bound must be >= 1")
    names = [args.suite] if args.suite != "all" else ["all"]

    def print_timing(name: str, seconds: float, count: int) -> None:
        if args.timings:
            print(f"timing {name}: {seconds:.3f} s, {count} records", file=sys.stderr)

    records, all_ok = run_suites(
        names, bound=args.bound, jobs=max(args.jobs, 1), on_suite_done=print_timing
    )
    for record in records:
        print(record.line())
    summary = {
        "suite": args.suite,
        "bound": args.bound,
        "total": len(records),
        "passed": sum(1 for r in records if r.ok),
        "failed": sum(1 for r in records if not r.ok),
        "failures": [r.line() for r in records if not r.ok][:50],
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    # exact output may need more than Python's default 4300 digits per
    # integer; versions without the limit have no such function
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "coeff": _cmd_coeff,
        "series": _cmd_series,
        "matrix": _cmd_matrix,
        "bell": _cmd_bell,
        "factorizations": _cmd_factorizations,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (DirAlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
