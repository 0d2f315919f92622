"""Command-line front end.

Subcommands::

    coeff          -e EXPR -n INDEX                print one coefficient
    series         -e EXPR -N TRUNC [--json|--csv] print a series
    matrix         --kind {mult,column,rd,riordan} -e EXPR [-e2 EXPR]
                   -N SIZE [--csv|--json]          print a matrix
    bell           [--tilde] -N ROWS -M COLS [--symbolic]
                                                   partition/factorization
                                                   polynomial tables as CSV
    factorizations -n N -m M                       ordered factorizations
    verify         --suite NAME [-N BOUND] [--jobs K]
                                                   run identity suites

Exit codes: 0 on success, 1 when a verification suite reports a failure,
2 on usage errors (bad flags, malformed expressions, precondition
violations).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DirAlgebraError
from .exprlang import eval_expr, parse_expr
from .partitions import bell_B, bell_btilde, ordered_factorizations
from .poly import Polynomial, coeff_symbol
from .serialize import (
    matrix_to_csv,
    matrix_to_json_text,
    series_to_csv,
    series_to_json_text,
)
from .series import DirSeries, OrdSeries
from .verify import SUITES, run_suites

SERIES_CAP = 10_000
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

    return parser


def _cmd_coeff(args) -> int:
    ast = parse_expr(args.expr)
    series = eval_expr(ast, max(args.index, 1))
    first = 1 if isinstance(series, DirSeries) else 0
    if args.index < first:
        print(f"error: this series has no index {args.index}; indices start at {first}",
              file=sys.stderr)
        return 2
    print(series[args.index].to_text())
    return 0


def _cmd_series(args) -> int:
    if not 1 <= args.trunc <= SERIES_CAP:
        print(f"series truncation must be in 1..{SERIES_CAP}", file=sys.stderr)
        return 2
    series = eval_expr(parse_expr(args.expr), args.trunc)
    if args.csv:
        sys.stdout.write(series_to_csv(series))
    else:
        print(series_to_json_text(series))
    return 0


def _cmd_matrix(args) -> int:
    from .matrices import build_column, build_mult, build_rd, build_riordan_ord

    if not 1 <= args.size <= MATRIX_CAP:
        print(f"matrix size must be in 1..{MATRIX_CAP}", file=sys.stderr)
        return 2
    first = eval_expr(parse_expr(args.expr), args.size)
    second = eval_expr(parse_expr(args.expr2), args.size) if args.expr2 else None

    if args.kind == "mult":
        matrix = build_mult(_want_dir(first), args.size)
    elif args.kind == "column":
        matrix = build_column(_want_dir(first), args.size)
    elif args.kind == "rd":
        if second is None:
            print("matrix --kind rd needs -e (first) and -e2 (second)", file=sys.stderr)
            return 2
        matrix = build_rd(_want_dir(first), _want_dir(second), args.size)
    else:  # riordan
        if second is None:
            print("matrix --kind riordan needs -e and -e2", file=sys.stderr)
            return 2
        matrix = build_riordan_ord(_want_ord(first), _want_ord(second), args.size)

    if args.json:
        print(matrix_to_json_text(matrix))
    else:
        sys.stdout.write(matrix_to_csv(matrix))
    return 0


def _want_dir(series) -> DirSeries:
    if not isinstance(series, DirSeries):
        raise DirAlgebraError("this matrix kind needs a composition series")
    return series


def _want_ord(series) -> OrdSeries:
    if not isinstance(series, OrdSeries):
        raise DirAlgebraError("this matrix kind needs an ordinary series")
    return series


def _cmd_bell(args) -> int:
    if not 1 <= args.rows <= SERIES_CAP or args.cols < 1:
        print("bell needs 1 <= N and 1 <= M", file=sys.stderr)
        return 2
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
        print("error: factorizations needs n >= 1 and m >= 0", file=sys.stderr)
        return 2
    for tup in ordered_factorizations(args.n, args.m):
        print(",".join(str(k) for k in tup))
    return 0


def _cmd_verify(args) -> int:
    if args.bound is not None and args.bound < 1:
        print("error: verify bound must be >= 1", file=sys.stderr)
        return 2
    names = [args.suite] if args.suite != "all" else ["all"]
    records, all_ok = run_suites(names, bound=args.bound, jobs=max(args.jobs, 1))
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
    except DirAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
