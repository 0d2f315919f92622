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

Caps: series truncations, ``coeff`` indices, the declared truncation of
a loaded series file, both ``bell -N`` and ``bell -M`` and
``factorizations -n`` are at most ``SERIES_CAP`` (10000), matrix sizes at
most 500, ``verify -N`` at most ``VERIFY_CAP`` (1000), ``verify --jobs``
at least 1, and the exponent k of ``twist(a,k)`` at most
``TWIST_CAP`` (64) in absolute value.  The exponent of ``dpow_int(a,k)``
is bounded by the work budget ``POW_INT_CAP`` at the series length
(|k| < 2^25 at N = 10000 for a lead of 1 or -1), and an exponent in
polynomial text by ``POWER_CAP``.  The ordinary ``bell`` table (without
``--tilde``) is refused before any work when its powers take more than
``BELL_PRODUCTS_CAP`` coefficient products or, with ``--symbolic``, when
it has more than ``BELL_TERMS_CAP`` terms.

Exit codes: 0 on success, 1 when a verification suite reports a failure,
2 on usage errors (bad flags, values out of range or over a cap,
malformed expressions or series files, precondition violations).  Every
usage error is a ``DirAlgebraError`` or an ``OSError``, printed by
``main`` as one ``error:`` line on stderr without a traceback.

Each command starts a fresh interpreter, so the handlers of ``matrix``,
``factorizations`` and ``verify`` import ``matrices``, ``partitions`` and
``verify`` inside themselves, and no other command pays for them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ArgumentOutOfRange, DirAlgebraError
from .exprlang import _expect_kind, eval_expr, parse_expr
from .poly import ONE, ZERO, Polynomial, coeff_symbol
from .serialize import (
    matrix_to_csv,
    matrix_to_json_text,
    series_to_csv,
    series_to_json_text,
)
from .series import SERIES_CAP, DirSeries, OrdSeries, powers

MATRIX_CAP = 500

# the largest ``verify -N``: every suite's default bound lies within it,
# and the work of abel grows about 2.4 times per doubling of N
VERIFY_CAP = 1000

# the budget of the ordinary ``bell`` table: on a 2-core x86-64 with
# Python 3.11, a million products of its powers take about 2.5 s, and 50k
# terms of a --symbolic table about 1.2 s at M = 6 (more terms per
# coefficient also make each product slower)
BELL_PRODUCTS_CAP = 1_000_000
BELL_TERMS_CAP = 50_000


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
    p.add_argument("--suite", default="all", help="a suite name, or all (the default)")
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
    if not 1 <= args.rows <= SERIES_CAP or not 1 <= args.cols <= SERIES_CAP:
        raise DirAlgebraError(f"bell needs 1 <= N <= {SERIES_CAP} and 1 <= M <= {SERIES_CAP}")
    # cell (n, m) is [x^n] g^m for g = sum of v_k x^k: from k = 2 under
    # composition (the factorization family), from k = 1 under the Cauchy
    # product (the partition family); g is zero at the first index either way
    kind, low = (DirSeries, 2) if args.tilde else (OrdSeries, 1)
    if not args.tilde:
        _check_bell_budget(args.rows, args.cols, args.symbolic)
    values = [
        Polynomial.symbol(coeff_symbol(k)) if args.symbolic else ONE
        for k in range(low, args.rows + 1)
    ]
    g = kind(args.rows, (ZERO, *values))
    columns = []
    for power in powers(g, args.cols):
        if not any(power.coeffs):
            break  # every later power is zero too
        columns.append([c.to_text() for c in power.coeffs[1:]])
    columns += [["0"] * len(values)] * (args.cols - len(columns))
    rows = zip(range(low, args.rows + 1), *columns)
    print("\n".join(",".join(map(str, row)) for row in rows))
    return 0


def _check_bell_budget(rows: int, cols: int, symbolic: bool) -> None:
    """Refuse an ordinary table over budget.  Power m of g = sum of x^k
    (k >= 1) is nonzero at indices m..N, so g^(m+1) = g^m * g takes
    (N-m+1)(N-m+2)/2 products, for m < min(M, N+1).  Cell (n, m) of a
    symbolic table has one term per partition of n into m parts, so row n
    has as many as n has partitions into parts of at most M."""
    products = sum((rows - m + 1) * (rows - m + 2) // 2 for m in range(1, min(cols, rows + 1)))
    if products > BELL_PRODUCTS_CAP:
        raise ArgumentOutOfRange(
            f"bell -N {rows} -M {cols} takes {products} coefficient products,"
            f" over the budget of {BELL_PRODUCTS_CAP}"
        )
    if not symbolic:
        return
    # partitions of 0..N, counted with part sizes 1..k; the total only
    # grows with k, so the count stops once it is over the budget
    counts = [1] + [0] * rows
    for k in range(1, min(cols, rows) + 1):
        for n in range(k, rows + 1):
            counts[n] += counts[n - k]
        terms = sum(counts) - 1
        if terms > BELL_TERMS_CAP:
            raise ArgumentOutOfRange(
                f"bell --symbolic -N {rows} -M {cols} has at least {terms} terms,"
                f" over the budget of {BELL_TERMS_CAP}"
            )


def _cmd_factorizations(args) -> int:
    from .partitions import ordered_factorizations
    if not 1 <= args.n <= SERIES_CAP or args.m < 0:
        raise DirAlgebraError(f"factorizations needs 1 <= n <= {SERIES_CAP} and m >= 0")
    for tup in ordered_factorizations(args.n, args.m):
        print(",".join(str(k) for k in tup))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suites
    if args.bound is not None and not 1 <= args.bound <= VERIFY_CAP:
        raise DirAlgebraError(f"verify bound must be in 1..{VERIFY_CAP}")
    if args.jobs < 1:
        raise DirAlgebraError("verify --jobs must be at least 1")

    def print_timing(name: str, seconds: float, count: int) -> None:
        if args.timings:
            print(f"timing {name}: {seconds:.3f} s, {count} records", file=sys.stderr)

    records, all_ok = run_suites(
        [args.suite], bound=args.bound, jobs=args.jobs, on_suite_done=print_timing
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
