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
at least 1, the exponent k of ``twist(a,k)`` at most ``TWIST_CAP`` (64)
in absolute value, and an exponent in polynomial text at most
``POWER_CAP``.  Every command but ``verify`` also has a work budget:
``main`` resets ``poly.METER`` to ``WORK_CAP`` units, which the arithmetic
charges as it runs, and a command that passes it is refused.

Exit codes: 0 on success, 1 when a verification suite reports a failure,
2 on usage errors (bad flags, values out of range or over a cap,
malformed expressions or series files, precondition violations).  Every
usage error is a ``DirAlgebraError`` or an ``OSError``, printed by
``main`` as one ``error:`` line on stderr without a traceback.

Each command starts a fresh interpreter, so each handler imports the
layers only it runs: ``coeff``, ``series`` and ``matrix`` import
``exprlang`` (which loads ``serialize`` and ``transforms``), ``series``,
``matrix`` and ``bell`` take their writers from ``serialize``, and
``matrix``, ``factorizations`` and ``verify`` import ``matrices``,
``partitions`` and ``verify``.  No other command pays for them; ``bell``
runs on ``poly``, ``series`` and ``serialize`` alone.

``series`` and ``matrix`` charge the text of their whole output before
they write its first byte, and write it in chunks with the budget lifted,
so a command refused for its output prints nothing.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DirAlgebraError
from .poly import METER, ONE, ZERO, Polynomial, coeff_symbol, powers, text_units
from .series import SERIES_CAP, DirSeries, OrdSeries

MATRIX_CAP = 500

# the largest ``verify -N``: every suite's default bound lies within it,
# and the work of abel grows about 2.4 times per doubling of N
VERIFY_CAP = 1000

# the work budget of every command but ``verify``, in units of
# ``poly.METER``: about 4 s of arithmetic on a 2-core x86-64 with Python 3.11
WORK_CAP = 200_000_000


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
    from .exprlang import eval_expr, parse_expr
    if args.index > SERIES_CAP:
        raise DirAlgebraError(f"coefficient index must be at most {SERIES_CAP}")
    series = eval_expr(parse_expr(args.expr), max(args.index, 1))
    if args.index < series.first:
        raise DirAlgebraError(
            f"this series has no index {args.index}; indices start at {series.first}"
        )
    print(series[args.index].to_text())
    return 0


def _write_priced(polys, writer, obj) -> None:
    """Charge the text of all ``polys``, then let ``writer`` write ``obj``
    to stdout with the budget lifted: a command refused for its output
    prints nothing, and ``METER.spent`` keeps the units."""
    METER.charge(text_units(polys))
    METER.budget = None
    writer(obj, sys.stdout.write)


def _cmd_series(args) -> int:
    from .exprlang import eval_expr, parse_expr
    from .serialize import series_to_csv, series_to_json_text
    if not 1 <= args.trunc <= SERIES_CAP:
        raise DirAlgebraError(f"series truncation must be in 1..{SERIES_CAP}")
    series = eval_expr(parse_expr(args.expr), args.trunc)
    _write_priced(series.coeffs, series_to_csv if args.csv else series_to_json_text, series)
    return 0


def _cmd_matrix(args) -> int:
    from .exprlang import _expect_kind, eval_expr, parse_expr
    from .matrices import build_column, build_mult, build_rd, build_riordan_ord
    from .serialize import matrix_to_csv, matrix_to_json_text
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

    writer = matrix_to_json_text if args.json else matrix_to_csv
    _write_priced(matrix.entries.values(), writer, matrix)
    return 0


def _cmd_bell(args) -> int:
    from .serialize import write_chunked
    if not 1 <= args.rows <= SERIES_CAP or not 1 <= args.cols <= SERIES_CAP:
        raise DirAlgebraError(f"bell needs 1 <= N <= {SERIES_CAP} and 1 <= M <= {SERIES_CAP}")
    # cell (n, m) is [x^n] g^m for g = sum of v_k x^k: from k = 2 under
    # composition (the factorization family), from k = 1 under the Cauchy
    # product (the partition family); g is zero at the first index either way
    kind, low = (DirSeries, 2) if args.tilde else (OrdSeries, 1)
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
    # a table without rows (``--tilde -N 1``) prints nothing
    write_chunked((",".join(map(str, row)) + "\n" for row in rows), sys.stdout.write)
    return 0


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
    # ``verify`` is bounded by ``VERIFY_CAP``, and its workers run unmetered
    METER.reset(None if args.command == "verify" else WORK_CAP)
    try:
        return handlers[args.command](args)
    except (DirAlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        METER.reset()  # library calls after the command run without a budget


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
