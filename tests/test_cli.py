import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import dirseries
import dirseries.cli
import dirseries.poly
from dirseries.cli import MATRIX_CAP, VERIFY_CAP, WORK_CAP, build_parser, main
from dirseries.intfactor import is_prime
from dirseries.partitions import bell_B, bell_btilde
from dirseries.poly import (
    METER,
    NESTING_CAP,
    PSI,
    SYMBOL_INDEX_CAP,
    Polynomial,
    WorkMeter,
    coeff_symbol,
    parse_polynomial,
)
from dirseries.series import TWIST_CAP
from dirseries.verify import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def units_of(capsys, monkeypatch, *argv):
    """The units the meter counts for a command that runs, and its stdout."""
    spent = []
    reset = WorkMeter.reset

    def recorded(self, budget=None):
        spent.append(self.spent)
        reset(self, budget)

    monkeypatch.setattr(WorkMeter, "reset", recorded)
    code, out, err = run_cli(capsys, *argv)
    monkeypatch.setattr(WorkMeter, "reset", reset)
    assert (code, err) == (0, "")
    return spent[-1], out


# a twentieth of the budget: a refused command stops within a second, and
# test_work_past_the_budget_is_refused_in_time runs the real budget
LOW_CAP = WORK_CAP // 20


def refused_below_the_cap(capsys, monkeypatch, *argv):
    """Check that a command is refused in process at ``LOW_CAP``."""
    monkeypatch.setattr(dirseries.cli, "WORK_CAP", LOW_CAP)
    refused = f"error: the work passed the budget of {LOW_CAP} units\n"
    assert run_cli(capsys, *argv) == (2, "", refused)


def test_coeff_eps_power(capsys):
    code, out, _ = run_cli(capsys, "coeff", "-e", "dpow_param(eps)", "-n", "12")
    assert code == 0
    assert parse_polynomial(out.strip()) == Polynomial.symbol(PSI) ** 3 * Fraction(1, 2)


def test_coeff_mobius(capsys):
    code, out, _ = run_cli(capsys, "coeff", "-e", "dinv(zeta)", "-n", "30")
    assert code == 0
    assert out.strip() == "-1"


def test_series_json_reingest(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "series", "-e", "dlog(zeta)", "-N", "20", "--json")
    assert code == 0
    path = tmp_path / "log_zeta.json"
    path.write_text(out.strip())
    code, out2, _ = run_cli(capsys, "series", "-e", f'load("{path}")', "-N", "20")
    assert code == 0
    assert out2.strip() == out.strip()  # byte-exact round trip


def test_load_without_the_digit_limit(tmp_path, capsys, monkeypatch):
    # Python 3.10.0-3.10.6 has no sys.set_int_max_str_digits: the CLI
    # leaves the limit alone and load() reads its file by plain json.load
    monkeypatch.chdir(tmp_path)
    series = {"kind": "dir", "trunc": 4, "coeffs": {"1": "1", "3": "-1/3*phi + 2"}}
    (tmp_path / "f.json").write_text(json.dumps(series))
    argv = ["series", "-e", 'load("f.json")', "-N", "3"]
    with_limit = run_cli(capsys, *argv)
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    assert run_cli(capsys, *argv) == with_limit
    assert with_limit[0] == 0 and json.loads(with_limit[1])["coeffs"]["3"] == "2 - 1/3*phi"


def test_series_csv(capsys):
    code, out, _ = run_cli(capsys, "series", "-e", "zeta", "-N", "3", "--csv")
    assert code == 0
    assert out.splitlines() == ["index,coefficient", "1,1", "2,1", "3,1"]


def test_series_cap(capsys):
    code, _, err = run_cli(capsys, "series", "-e", "zeta", "-N", "20000")
    assert code == 2
    assert "truncation" in err


def test_matrix_golden_column(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--kind", "column", "-e", "geom2", "-N", "13", "--csv"
    )
    assert code == 0
    rows = out.splitlines()
    assert rows[7] == "0,1,2,1"  # index 8
    assert rows[11] == "0,1,4,3"  # index 12


def test_matrix_rd_requires_two_series(capsys):
    code, _, err = run_cli(capsys, "matrix", "--kind", "rd", "-e", "zeta", "-N", "8")
    assert code == 2
    assert "rd" in err


def test_matrix_mult_json(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--kind", "mult", "-e", "zeta", "-N", "4", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["entries"]["4,2"] == "1"


def test_matrix_riordan(tmp_path, capsys):
    # the inner series needs a zero constant term, which load() supplies
    path = tmp_path / "xseries.json"
    path.write_text('{"kind": "ord", "trunc": 4, "coeffs": {"1": "1"}}')
    code, out, _ = run_cli(
        capsys, "matrix", "--kind", "riordan", "-e", "onepx", "-e2",
        f'load("{path}")', "-N", "4", "--csv",
    )
    assert code == 0
    # (1+x, x) is the two-band Pascal fragment
    assert out.splitlines() == ["1,0,0,0,0", "1,1,0,0,0", "0,1,1,0,0",
                                "0,0,1,1,0", "0,0,0,1,1"]


def test_matrix_riordan_rejects_unit_constant(capsys):
    code, _, err = run_cli(
        capsys, "matrix", "--kind", "riordan", "-e", "onepx", "-e2", "expx",
        "-N", "4",
    )
    assert code == 2
    assert "constant" in err.lower()


def test_bell_tables(capsys):
    code, out, _ = run_cli(capsys, "bell", "--tilde", "-N", "16", "-M", "4", "--symbolic")
    assert code == 0
    by_row = {line.split(",")[0]: line for line in out.splitlines()}
    assert by_row["16"].split(",")[3] == "3*a2^2*a4"
    code, out, _ = run_cli(capsys, "bell", "-N", "6", "-M", "3")
    assert code == 0
    assert out.splitlines()[5].startswith("6,1,")


@pytest.mark.parametrize("flags", [("--tilde",), ("--tilde", "--symbolic")])
def test_empty_bell_table_prints_nothing(capsys, flags):
    # the factorization family starts at row 2, so one row leaves no row
    code, out, err = run_cli(capsys, "bell", *flags, "-N", "1", "-M", "3")
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("tilde", (False, True))
@pytest.mark.parametrize("symbolic", (False, True))
def test_bell_rows_equal_the_enumerations(capsys, tilde, symbolic):
    # the CLI reads column m off the m-th power of g, the enumerations sum
    # over partitions; M = 14 passes the last nonzero power of both families
    rows, cols = 12, 14
    flags = ["--tilde"] * tilde + ["--symbolic"] * symbolic
    code, out, err = run_cli(capsys, "bell", "-N", str(rows), "-M", str(cols), *flags)
    assert (code, err) == (0, "")
    low = 2 if tilde else 1
    values = [Polynomial.symbol(coeff_symbol(k)) if symbolic else 1 for k in range(low, rows + 1)]
    bell = bell_btilde if tilde else bell_B
    want = [
        [str(n)] + [bell(n, m, values).to_text() if m <= n else "0" for m in range(1, cols + 1)]
        for n in range(low, rows + 1)
    ]
    assert [line.split(",") for line in out.splitlines()] == want


@pytest.mark.parametrize("rows, cols", [(9, 4), (7, 12), (1, 3)])
def test_bell_budget_counts_the_work_of_the_table(capsys, monkeypatch, rows, cols):
    # the meter counts the same units on every run of a command, so the
    # table runs at a budget of exactly its units and is refused one below
    argv = ("bell", "-N", str(rows), "-M", str(cols), "--symbolic")
    units, out = units_of(capsys, monkeypatch, *argv)
    assert 0 < units <= WORK_CAP
    monkeypatch.setattr(dirseries.cli, "WORK_CAP", units)
    assert run_cli(capsys, *argv) == (0, out, "")
    monkeypatch.setattr(dirseries.cli, "WORK_CAP", units - 1)
    refused = f"error: the work passed the budget of {units - 1} units\n"
    assert run_cli(capsys, *argv) == (2, "", refused)


def symbolic_series_text(trunc: int, seed: int) -> dict:
    """A composition series file with lead 1 and, at every other index, up
    to three terms in phi, beta and L2 with exponents 0..2."""
    rng = random.Random(seed)
    coeffs = {"1": "1"}
    for n in range(2, trunc + 1):
        terms = "".join(
            f" {rng.choice('+-')} {rng.randint(1, 3)}/{rng.randint(1, 3)}"
            f"*phi^{rng.randint(0, 2)}*beta^{rng.randint(0, 2)}*L2^{rng.randint(0, 2)}"
            for _ in range(rng.randint(0, 3))
        )
        if c := parse_polynomial("0" + terms):
            coeffs[str(n)] = c.to_text()
    return {"kind": "dir", "trunc": trunc, "coeffs": coeffs}


@pytest.mark.parametrize(
    "argv, units",
    [(("bell", "--tilde", "-N", "200", "-M", "4", "--symbolic"), 497_870),
     (("series", "-e", "lagrange_ord(onepx,beta)", "-N", "20"), 2_584_050),
     # 115 units below the first record: dpow_param no longer subtracts x,
     # whose one priced product, 1 - 1 at index 1, cost them
     (("series", "-e", 'dpow_param(load("{path}"))', "-N", "200"), 9_181_447)],
    ids=["bell-tilde-symbolic", "lagrange-ord-beta", "dpow-param-symbolic"],
)
def test_symbolic_products_keep_their_prices(tmp_path, capsys, monkeypatch, argv, units):
    # units recorded before the monomial product took its one-symbol path:
    # the meter prices each product from its operands' sizes, not from the
    # way their monomials are merged
    path = tmp_path / "s.json"
    path.write_text(json.dumps(symbolic_series_text(200, 24)))
    argv = [arg.format(path=path) for arg in argv]
    assert units_of(capsys, monkeypatch, *argv)[0] == units


def test_main_resets_the_meter(capsys, monkeypatch):
    # each command starts from zero units, and library calls after it run
    # without a budget; the benchmark's traced run calls main repeatedly
    argv = ("series", "-e", "dinv(zeta)", "-N", "200")
    units, out = units_of(capsys, monkeypatch, *argv)
    monkeypatch.setattr(dirseries.cli, "WORK_CAP", units)
    assert run_cli(capsys, "series", "-e", "dinv(zeta)", "-N", "2000")[0] == 2
    assert run_cli(capsys, *argv) == (0, out, "")
    assert METER.budget is None


def test_verify_runs_without_a_budget(capsys, monkeypatch):
    # VERIFY_CAP bounds verify, and its pool workers are not metered
    monkeypatch.setattr(dirseries.cli, "WORK_CAP", 1)
    code, out, err = run_cli(capsys, "verify", "--suite", "thm2", "--jobs", "2")
    assert (code, err) == (0, "")
    assert json.loads(out.splitlines()[-1])["failed"] == 0


@pytest.mark.parametrize("depth, code", [(NESTING_CAP, 0), (NESTING_CAP + 1, 2)])
def test_nesting_cap(tmp_path, capsys, depth, code):
    expr = "star(" * depth + "zeta" + ")" * depth
    got, out, err = run_cli(capsys, "coeff", "-e", expr, "-n", "2")
    assert (got, out) == (code, f"L2^{depth}\n" if code == 0 else "")
    assert err == ("" if code == 0 else f"error: nesting deeper than {NESTING_CAP} levels"
                   f" (at offset {5 * NESTING_CAP + 4})\n")
    path = tmp_path / "nested.json"
    text = "(" * depth + "3" + ")" * depth
    path.write_text(json.dumps({"kind": "dir", "trunc": 1, "coeffs": {"1": text}}))
    got, out, err = run_cli(capsys, "coeff", "-e", f'load("{path}")', "-n", "1")
    assert (got, out) == (code, "3\n" if code == 0 else "")
    assert ("nesting deeper" in err) == (code == 2)


def test_factorizations(capsys):
    code, out, _ = run_cli(capsys, "factorizations", "-n", "12", "-m", "2")
    assert code == 0
    assert out.splitlines() == ["2,6", "3,4", "4,3", "6,2"]


def test_expr_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "coeff", "-e", "dlog(nope)", "-n", "4")
    assert code == 2
    assert "unknown" in err.lower()


@pytest.mark.parametrize(
    "argv, file_text, message",
    [(*row, None) for row in [
        (["coeff", "-e", "expx", "-n", "-1"], None),
        (["factorizations", "-n", "0", "-m", "2"], None),
        (["series", "-e", 'load("{path}")', "-N", "4"], "not json"),
        (["series", "-e", 'load("{path}")', "-N", "4"],
         '{"kind": "dir", "trunc": 4, "coeffs": {"1": "1", "9": "1"}}'),
        (["verify", "-N", "-3"], None),
        (["verify", "--suite", "pow", "-N", "0"], None),
        (["series", "-e", 'load("{path}")', "-N", "4"], '{"kind": "dir"}'),
        (["series", "-e", 'load("{path}")', "-N", "4"],
         '{"kind": "dir", "trunc": 3000000, "coeffs": {"1": "1"}}'),
        (["coeff", "-e", "dinv(zeta)", "-n", "200000"], None),
        (["series", "-e", "zeta", "-N", "20000"], None),
        (["matrix", "--kind", "rd", "-e", "zeta", "-N", "8"], None),
        (["bell", "-N", "0", "-M", "1"], None),
        (["matrix", "--kind", "mult", "-e", "zeta", "-e2", "dlog(zeta)", "-N", "3"], None),
        (["matrix", "--kind", "column", "-e", "geom2", "-e2", "zeta", "-N", "3"], None),
        (["coeff", "-e", "subst_xk(zeta,0)", "-n", "6"], None),
        (["coeff", "-e", "subst_xk(zeta,-2)", "-n", "6"], None),
        (["coeff", "-e", "dlog(1)", "-n", "4"], None),
        (["coeff", "-e", "dlog(beta)", "-n", "4"], None),
        (["coeff", "-e", 'dlog("f")', "-n", "4"], None),
        (["coeff", "-e", "load(3)", "-n", "4"], None),
        (["coeff", "-e", "load(zeta)", "-n", "4"], None),
        (["coeff", "-e", 'lagrange_dir(eps,"x")', "-n", "4"], None),
        (["bell", "-N", "2", "-M", "10001"], None),
        (["coeff", "-e", "zeta()", "-n", "3"], None),
        (["coeff", "-e", "dinv()", "-n", "3"], None),
        (["factorizations", "-n", "100000000000000000000000000000000", "-m", "1"], None),
        (["factorizations", "-n", "1000000000000000000", "-m", "2"], None),
        (["factorizations", "-n", "10001", "-m", "1"], None),
        (["verify", "--suite", "pow", "--jobs", "0"], None),
        (["verify", "--suite", "pow", "--jobs", "-3"], None),
        (["coeff", "-e", "star(" * 2000 + "zeta" + ")" * 2000, "-n", "4"], None),
        (["series", "-e", 'load("{path}")', "-N", "4"],
         '{"kind": "dir", "trunc": 4, "coeffs": {"1": "' + "(" * 300 + "1" + ")" * 300 + '"}}'),
        (["bell", "-N", "2000", "-M", "6"], None),
        (["bell", "-N", "500", "-M", "500"], None),
        (["bell", "-N", "60", "-M", "6", "--symbolic"], None),
        (["series", "-e", 'load("{path}")', "-N", "3"], "[" * 100_000 + "]" * 100_000),
        (["series", "-e", 'load("{path}")', "-N", "3"],
         '{"kind": "dir", "trunc": 3, "coeffs": {"1": "1"}, "coefs": {"2": "5"}}'),
    ]] + [
        (["matrix", "--kind", "mult", "-e", "zeta", "-N", "0"], None,
         "matrix size must be in 1..500"),
        (["matrix", "--kind", "mult", "-e", "zeta", "-N", "501"], None,
         "matrix size must be in 1..500"),
        (["coeff", "-e", "", "-n", "1"], None, "expected a name (at offset 0)"),
        (["series", "-e", ",zeta", "-N", "3"], None, "expected a name (at offset 0)"),
    ],
    ids=["ord-index", "factorizations", "load-not-json", "load-key-range",
         "verify-negative", "verify-zero", "load-not-a-series", "load-trunc-over-cap",
         "coeff-index-over-cap", "series-over-cap", "rd-without-e2", "bell-zero-rows",
         "mult-with-e2", "column-with-e2", "subst-xk-zero", "subst-xk-negative",
         "number-for-series", "beta-for-series", "string-for-series", "number-for-path",
         "series-for-path", "string-for-param", "bell-cols-over-cap", "empty-call",
         "empty-call-of-unary", "factorizations-n-10^32", "factorizations-n-10^18",
         "factorizations-n-over-cap", "verify-jobs-zero", "verify-jobs-negative",
         "expr-nested-2000", "coefficient-nested-300", "bell-2000-6", "bell-500-500",
         "bell-symbolic-60-6", "load-nested-100000", "load-unknown-key", "matrix-size-zero",
         "matrix-size-over-cap", "expr-empty", "expr-without-name"],
)
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv, file_text, message):
    path = tmp_path / "input.json"
    if file_text is not None:
        path.write_text(file_text)
    code, out, err = run_cli(capsys, *(a.replace("{path}", str(path)) for a in argv))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert "FAIL" not in out
    if file_text is not None:
        assert str(path) in err
    if message is not None:
        assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, file_text, message",
    [
        (["coeff", "-e", "dexp(zeta)", "-n", "3"], None,
         "dexp needs coefficient 0 at index 1, got 1"),
        (["coeff", "-e", "dinv(geom2)", "-n", "3"], None,
         "dinv needs a nonzero rational coefficient at index 1, got 0"),
        (["series", "-e", "dpow_int(geom2,-1)", "-N", "4"], None,
         "dpow_int needs a nonzero rational coefficient at index 1, got 0"),
        (["matrix", "--kind", "column", "-e", "zeta", "-N", "3"], None,
         "matrix --kind column needs coefficient 0 at index 1, got 1"),
        (["matrix", "--kind", "rd", "-e", "zeta", "-e2", "geom2", "-N", "3"], None,
         "matrix --kind rd needs coefficient 1 at index 1 of the second series, got 0"),
        (["matrix", "--kind", "rd", "-e", "geom2", "-e2", "zeta", "-N", "3"], None,
         "matrix --kind rd needs a nonzero rational coefficient at index 1"
         " of the first series, got 0"),
        (["matrix", "--kind", "rd", "-e", "geom2", "-e2", "geom2", "-N", "3"], None,
         "matrix --kind rd needs coefficient 1 at index 1 of the second series, got 0"),
        (["matrix", "--kind", "riordan", "-e", "onepx", "-e2", "expx", "-N", "4"], None,
         "matrix --kind riordan needs coefficient 0 at index 0, the constant term, got 1"),
        (["series", "-e", 'lift(load("{path}"))', "-N", "8"],
         '{"kind": "ord", "trunc": 4, "coeffs": {"0": "2", "1": "1"}}',
         "lift needs coefficient 1 at index 0, the constant term, got 2"),
    ],
    ids=["dexp", "dinv", "dpow_int", "column", "rd-second", "rd-first", "rd-both", "riordan",
         "lift"],
)
def test_precondition_error_names_operation_and_value(tmp_path, capsys, argv, file_text, message):
    path = tmp_path / "input.json"
    if file_text is not None:
        path.write_text(file_text)
    code, _, err = run_cli(capsys, *(a.replace("{path}", str(path)) for a in argv))
    assert code == 2
    assert err == f"error: {message}\n"


NINES_5000 = "9" * 5000


@pytest.mark.parametrize(
    "argv, file_text",
    [
        (["coeff", "-e", f"dpow_int(zeta,{NINES_5000})", "-n", "2"], None),
        (["series", "-e", 'load("{path}")', "-N", "2"],
         '{"kind": "dir", "trunc": 2, "coeffs": {"1": "1", "2": "%s"}}' % NINES_5000),
        # C(k+2, 3) at index 8 for k = 10**2000 - 1 has about 6000 digits
        (["coeff", "-e", f"dpow_int(zeta,{'9' * 2000})", "-n", "8"], None),
    ],
    ids=["parse-5000-digits", "load-5000-digits", "print-over-4300-digits"],
)
def test_long_integers_are_exact(tmp_path, capsys, argv, file_text):
    # Python refuses integer text over 4300 digits unless the limit is lifted
    path = tmp_path / "big.json"
    if file_text is not None:
        path.write_text(file_text)
    code, out, err = run_cli(capsys, *(a.replace("{path}", str(path)) for a in argv))
    assert (code, err) == (0, "")
    assert max(len(tok) for tok in out.replace('"', " ").split()) >= 5000


def run_child(*argv):
    """The CLI in a child process with a timeout; returns the result and
    its wall time."""
    env = {**os.environ, "PYTHONPATH": str(Path(dirseries.__file__).parents[1])}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "dirseries.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return done, time.perf_counter() - start


def test_twist_exponent_over_the_cap_is_refused_at_once():
    # uncapped, twist(zeta,-99999999) ran for minutes; a child process
    # bounds the test's time either way
    done, seconds = run_child("coeff", "-e", "twist(zeta,-99999999)", "-n", "4")
    assert seconds < 10
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: twist needs |k| <= {TWIST_CAP}, got -99999999\n"


@pytest.mark.parametrize(
    "expr, trunc, file_text",
    [
        # uncapped, 31 s and 496 MB of stdout
        ("lagrange_ord(onepx,beta)", "200", None),
        # uncapped, 70 MB of stdout: the numbers grow with those of the input
        ('lagrange_ord(load("{path}"),beta)', "40", f'"1": "{10**200}/7"'),
        # uncapped, 14 s at N = 13: the terms grow with the symbols of the input
        ('lagrange_ord(load("{path}"),1)', "13",
         ", ".join(f'"{k}": "a{k} + phi*beta + 3/7"' for k in range(1, 14))),
        # over two minutes at N = 10000 while a product with a zero was free:
        # the logarithm x of e^x pairs each index with every nonzero a_j,
        # and all but one of those pairs hold a zero
        ("lagrange_ord(expx,1)", "10000", None),
    ],
)
def test_lagrange_ord_over_the_budget_is_refused_at_once(
    tmp_path, capsys, monkeypatch, expr, trunc, file_text
):
    path = tmp_path / "a.json"
    if file_text:
        path.write_text(f'{{"kind": "ord", "trunc": {trunc}, "coeffs": {{"0": "1", {file_text}}}}}')
    expr = expr.replace("{path}", str(path))
    refused_below_the_cap(capsys, monkeypatch, "series", "-e", expr, "-N", trunc)


@pytest.mark.parametrize("beta, top", [(None, 66), (1, 78)])
def test_lagrange_ord_budget_boundary(capsys, beta, top):
    # the largest N that README names for 1 + x runs within the budget;
    # verify's N = 24 and the benchmark's N = 40 lie below both
    expr = f"lagrange_ord(onepx,{'beta' if beta is None else beta})"
    code, out, err = run_cli(capsys, "series", "-e", expr, "-N", str(top))
    assert (code, err) == (0, "")
    assert json.loads(out)["trunc"] == top


def decimal(n: int) -> str:
    """The decimal text of n, past Python's default limit on its length."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


K_PAST_THE_BUDGET = decimal(2**100_000 - 1)

# a composition series file with 1 at index 1 and a<k> at every k >= 2
SYMBOLIC_2000 = {
    "kind": "dir", "trunc": 2000, "coeffs": {"1": "1", **{str(k): f"a{k}" for k in range(2, 2001)}}
}


@pytest.mark.parametrize(
    "argv, file",
    [
        # N = 10000 ran for minutes before the meter
        (["series", "-e", 'lagrange_dir(load("{path}"),beta)', "-N", "2000"], SYMBOLIC_2000),
        (["series", "-e", 'dpow_param(load("{path}"))', "-N", "2000"], SYMBOLIC_2000),
        # 200k compositions of length 2: the minimum charge per kernel call
        (["series", "-e", f"dpow_int(zeta,{K_PAST_THE_BUDGET})", "-N", "2"], None),
        # numbers of 400k bits: the bits of each slice update
        (["series", "-e", f"dpow_int(zeta,{K_PAST_THE_BUDGET})", "-N", "16"], None),
        # 20.8 s before the meter: each sum copies the terms it adds to
        (["bell", "-N", "1000", "-M", "2", "--symbolic"], None),
    ],
    ids=["lagrange-dir-symbolic", "dpow-param-symbolic", "dpow-int-length-2",
         "dpow-int-length-16", "bell-symbolic"],
)
def test_work_past_the_budget_is_refused(tmp_path, capsys, monkeypatch, argv, file):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(file))
    refused_below_the_cap(capsys, monkeypatch, *(a.replace("{path}", str(path)) for a in argv))


def test_long_loaded_number_is_refused_before_it_is_read(tmp_path, capsys, monkeypatch):
    # int() of n digits takes time quadratic in n: a 10^6-digit coefficient
    # was parsed and printed for about 30 s before its text was charged
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"kind": "dir", "trunc": 1, "coeffs": {"1": "1" + "0" * 10**6}}))
    monkeypatch.setattr(dirseries.cli, "WORK_CAP", LOW_CAP)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "series", "-e", f'load("{path}")', "-N", "1")
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (2, "", f"error: {path}: the work passed the budget of {LOW_CAP} units\n")


def test_long_json_integer_is_refused_before_it_is_read(tmp_path, capsys):
    # a series file's JSON integers are read under Python's default digit
    # limit: with the limit lifted, this one took about 9 s to read
    path = tmp_path / "a.json"
    path.write_text('{"kind": "dir", "trunc": 1' + "0" * 10**6 + ', "coeffs": {"1": "1"}}')
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "series", "-e", f'load("{path}")', "-N", "1")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: Exceeds the limit (4300 digits)")


def test_sparse_riordan_array_at_the_matrix_cap_is_admitted(tmp_path, capsys):
    # each Cauchy product of a column b*x^k with x pairs only the nonzero
    # coefficients; pairing every index with every other, zeros included,
    # priced this array at over 2e9 units
    path = tmp_path / "x.json"
    path.write_text(f'{{"kind": "ord", "trunc": {MATRIX_CAP}, "coeffs": {{"1": "1"}}}}')
    code, out, err = run_cli(
        capsys, "matrix", "--kind", "riordan", "-e", "onepx", "-e2", f'load("{path}")',
        "-N", str(MATRIX_CAP),
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "33daa89049cd5d45dae0b418f91fa7426039d240595529809e45b7388301615e"
    )


@pytest.mark.parametrize(
    "expr, trunc, file, where",
    [
        # 10.6 s and 258 MB before the meter
        ('lagrange_dir(load("{path}"),beta)', 2000, SYMBOLIC_2000, ""),
        # the first term of 1 + C*phi is 1, and its squares grow numbers of up
        # to 10^8 digits; the expansion clause of the exponent refused it
        ('dinv(load("{path}"))', 3,
         {"kind": "dir", "trunc": 3, "coeffs": {"1": "1", "2": f"(1+{'7' * 100_000}*phi)^1000"}},
         "{path}: "),
    ],
    ids=["lagrange-dir-symbolic", "loaded-power-of-a-long-number"],
)
def test_work_past_the_budget_is_refused_in_time(tmp_path, expr, trunc, file, where):
    # at the real budget, in a child process that bounds the test's time
    path = tmp_path / "a.json"
    path.write_text(json.dumps(file))
    expr, where = (text.replace("{path}", str(path)) for text in (expr, where))
    done, seconds = run_child("series", "-e", expr, "-N", str(trunc))
    assert seconds < 10
    error = f"error: {where}the work passed the budget of {WORK_CAP} units\n"
    assert (done.returncode, done.stdout, done.stderr) == (2, "", error)


@pytest.mark.parametrize("k", (TWIST_CAP, -TWIST_CAP, TWIST_CAP + 1, -TWIST_CAP - 1))
def test_twist_cap_boundary(capsys, k):
    code, out, err = run_cli(capsys, "coeff", "-e", f"twist(zeta,{k})", "-n", "4")
    if abs(k) <= TWIST_CAP:
        assert (code, err) == (0, "")
        assert parse_polynomial(out.strip()) == Polynomial.const(Fraction(4) ** k)
    else:
        assert (code, out) == (2, "")
        assert err == f"error: twist needs |k| <= {TWIST_CAP}, got {k}\n"


@pytest.mark.parametrize("k", ("100000000000000000000", "1" + "0" * 300))
def test_dpow_int_exponent_over_the_cap_is_refused_at_once(capsys, monkeypatch, k):
    # unmetered, dpow_int(zeta,10^20) took 6 s at N = 10000 and 10^300
    # had not finished after 300 s
    refused_below_the_cap(capsys, monkeypatch, "series", "-e", f"dpow_int(zeta,{k})", "-N", "10000")


@pytest.mark.parametrize(
    "lead, k, old_refusal",
    [
        ("1", 2**25 - 1, None),
        ("-1", -(2**25) + 1, None),
        ("1", 2**25, "|k| < 2^25"),
        ("-1", -(2**25), "|k| < 2^25"),
        ("2", 25, None),
        ("2", -25, None),
        ("2", 26, "|k| <= 25 at N = 10000 with 2 at index 1"),
        ("2", -26, "|k| <= 25 at N = 10000 with 2 at index 1"),
        ("1 + phi", 5, None),
        ("1 + phi", 6, "|k| <= 5 at N = 10000 with 1 + phi at index 1"),
        ("0", 26, "|k| <= 25 at N = 10000 with 0 at index 1"),
    ],
)
def test_dpow_int_cap_boundary(tmp_path, capsys, lead, k, old_refusal):
    # the lead times x: its powers are cheap, so every k runs, also those
    # that the growth cap, which the work meter replaced, refused with
    # "dpow_int needs <old_refusal>"; the exponent itself has no cap
    path = tmp_path / "lead.json"
    path.write_text(json.dumps({"kind": "dir", "trunc": 10000, "coeffs": {"1": lead}}))
    argv = ["coeff", "-e", f'dpow_int(load("{path}"),{k})', "-n"]
    code, out, err = run_cli(capsys, *argv, "10000")
    assert (code, out.strip(), err) == (0, "0", "")
    code, out, err = run_cli(capsys, *argv, "1")
    base = parse_polynomial(lead)
    want = base**k if k > 0 else Polynomial.const(1 / base.constant_value() ** -k)
    assert parse_polynomial(out.strip()) == want


@pytest.mark.parametrize(
    "text, offset", [("2^99999999", 2), ("(1+phi+beta)^100000", 13)]
)
def test_loaded_power_over_the_cap_is_refused_at_once(tmp_path, text, offset):
    # uncapped, a loaded 2^99999999 ran until killed at 20 s
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "dir", "trunc": 3, "coeffs": {"1": "1", "2": text}}))
    done, seconds = run_child("series", "-e", f'dinv(load("{path}"))', "-N", "3")
    assert seconds < 10
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {path}: coefficient 2: exponent too large (at offset {offset})\n"


@pytest.mark.parametrize(
    "name, shown",
    [("L" + "1" * 44, "L" + "1" * 39 + "..."), ("L" + "1" * 20, "L" + "1" * 20), ("L02", "L02"),
     ("a01", "a01"), ("L\u0663", "L\u0663"), ("a" + "7" * 300_000, "a" + "7" * 39 + "...")],
    ids=["L-44-digits", "L-20-digits", "L-leading-zero", "a-leading-zero", "L-arabic-digit",
         "a-300000-digits"],
)
def test_loaded_symbol_index_off_the_vocabulary_is_refused_at_once(
    tmp_path, capsys, monkeypatch, name, shown
):
    # L<44 digits> crashed in the prime sieve (OverflowError), L<20 digits>
    # asked for a sieve of about 3 * 10^9 bytes, and a long a<k> ran unmetered;
    # the index is checked before any primality test, which refuses to sieve
    def is_prime_below_the_cap(n):
        assert n <= SYMBOL_INDEX_CAP, f"primality test of the unchecked index {n}"
        return is_prime(n)

    monkeypatch.setattr(dirseries.poly, "is_prime", is_prime_below_the_cap)
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "dir", "trunc": 3, "coeffs": {"1": "1", "2": name}}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "series", "-e", f'load("{path}")', "-N", "3")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: {path}: coefficient 2: unknown symbol {shown!r} (at offset 0)\n"


@pytest.mark.parametrize(
    "text, message",
    [("phi + gamma", "unknown symbol 'gamma' (at offset 6)"), ("(phi", "expected ')' (at offset 4)")],
)
def test_bad_loaded_coefficient_names_file_and_key(tmp_path, capsys, text, message):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "dir", "trunc": 3, "coeffs": {"1": "1", "3": text}}))
    code, out, err = run_cli(capsys, "series", "-e", f'dinv(load("{path}"))', "-N", "3")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: coefficient 3: {message}\n"


@pytest.mark.parametrize(
    "suite, bound", [("binomf", VERIFY_CAP + 1), ("oracle", 20000), ("all", 10**9)]
)
def test_verify_bound_over_the_cap_is_a_usage_error(capsys, suite, bound):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "-N", str(bound))
    assert (code, out) == (2, "")
    assert err == f"error: verify bound must be in 1..{VERIFY_CAP}\n"


def test_verify_unknown_suite_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "nosuch")
    assert (code, out) == (2, "")
    assert err == f"error: unknown suite 'nosuch', not one of all, {', '.join(SUITES)}\n"


@pytest.mark.parametrize("suite", ("all",) + SUITES)
def test_verify_suite_names_parse(suite):
    assert build_parser().parse_args(["verify", "--suite", suite]).suite == suite


def test_factorizations_n_at_the_cap_runs(capsys):
    code, out, err = run_cli(capsys, "factorizations", "-n", "10000", "-m", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "2,5000"


def test_cli_import_loads_no_command_only_modules():
    # every command starts a fresh interpreter; what cli imports at module
    # level, every command pays for, so each handler imports its own layers
    env = {**os.environ, "PYTHONPATH": str(Path(dirseries.__file__).parents[1])}
    unwanted = ("dirseries.verify", "dirseries.matrices", "dirseries.partitions",
                "dirseries.exprlang", "dirseries.serialize", "dirseries.transforms",
                "concurrent.futures", "multiprocessing", "dataclasses", "inspect", "csv")
    code = f"import sys, dirseries.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n"


def test_no_layer_imports_dataclasses_or_inspect():
    # together they load a dozen more modules (ast, dis, tokenize, ...)
    # into every process, pool workers included
    env = {**os.environ, "PYTHONPATH": str(Path(dirseries.__file__).parents[1])}
    code = ("import sys, dirseries.cli, dirseries.verify, dirseries.matrices\n"
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n"


def test_verify_without_a_pool_loads_no_pool_modules():
    # the process pool loads about 40 modules; only verify --jobs above 1
    # needs them
    env = {**os.environ, "PYTHONPATH": str(Path(dirseries.__file__).parents[1])}
    code = ("import contextlib, io, sys\n"
            "import dirseries.verify\n"
            "pool = ('concurrent.futures', 'multiprocessing')\n"
            "imported = [m for m in pool if m in sys.modules]\n"
            "from dirseries import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.main(['verify', '--suite', 'pow', '--jobs', '1'])\n"
            "print(status, imported, [m for m in pool if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "0 [] []\n"


def test_traced_run_finds_every_traced_name():
    # the benchmark's traced run rebinds module-level names of the package;
    # install fails on a traced name that no longer exists, and a call the
    # package makes past a rebound name records no span
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import contextlib, io, json, layers\n"
        "from dirseries import cli\n"
        "recorder = layers.Recorder()\n"
        "layers.install(recorder, layers.new_counters())\n"
        "commands = [['series', '-e', 'dinv(zeta)', '-N', '8'],\n"
        "            ['series', '-e', 'dpow_int(zeta,3)', '-N', '8'],\n"
        "            ['verify', '--suite', 'abel', '-N', '8'],\n"
        "            ['matrix', '--kind', 'rd', '-e', 'zeta', '-e2', 'eps', '-N', '8', '--json'],\n"
        "            ['series', '-e', 'dinv(geom2)', '-N', '4']]\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "    codes = [cli.main(command) for command in commands]\n"
        "counts = layers.span_counts(recorder.names, recorder.name)\n"
        "spans = sorted(name for name, n in counts.items() if n)\n"
        "print(json.dumps([codes, err.getvalue(), spans]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    codes, err, spans = json.loads(done.stdout)
    assert codes == [0, 0, 0, 0, 2]
    assert err == "error: dinv needs a nonzero rational coefficient at index 1, got 0\n"
    wanted = {"series.dir_inverse", "exprlang.parse_expr", "exprlang.eval_expr", "serialize.emit",
              "series.dir_pow_int", "verify.suite.abel", "transforms.abel_check",
              "matrices.build_rd"}
    assert wanted <= set(spans)


def test_verify_bound_at_the_cap_runs(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "binomf", "-N", str(VERIFY_CAP))
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith(f"PASS binomf.sum-power n={VERIFY_CAP}") for line in lines)
    summary = json.loads(lines[-1])
    assert (summary["bound"], summary["failed"]) == (VERIFY_CAP, 0)


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "coeff", "-e", "zeta")  # missing -n
    assert code == 2


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "binomf", "-N", "40")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("PASS binomf.sum-power n=40") for line in lines)
    summary = json.loads(lines[-1])
    assert summary["failed"] == 0


def test_verify_thm1_above_512(capsys):
    # the lift to N reads ordinary coefficients up to log2(N), past order 8
    code, out, _ = run_cli(capsys, "verify", "--suite", "thm1", "-N", "600")
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert (summary["failed"], summary["total"]) == (0, 9)


def test_verify_jobs_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "abel", "-N", "30")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "abel", "-N", "30", "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    # every suite at once, through one pool
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "all", "-N", "64")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "all", "-N", "64", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_timings_go_to_stderr_only(capsys):
    code, plain, _ = run_cli(capsys, "verify", "--suite", "pow")
    code_t, timed, err = run_cli(capsys, "verify", "--suite", "pow", "--timings")
    assert code == code_t == 0
    assert timed == plain
    total = json.loads(plain.splitlines()[-1])["total"]
    assert re.fullmatch(rf"timing pow: \d+\.\d{{3}} s, {total} records\n", err)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_timings_one_line_per_suite(capsys, jobs):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "-N", "16", "--jobs", jobs,
                             "--timings")
    assert code == 0
    counts = {}
    for line in out.splitlines()[:-1]:
        suite = line.split()[1].split(".")[0]
        counts[suite] = counts.get(suite, 0) + 1
    lines = err.splitlines()
    assert len(lines) == len(SUITES)
    for line in lines:
        match = re.fullmatch(r"timing (\w+): \d+\.\d{3} s, (\d+) records", line)
        assert match, line
        assert int(match[2]) == counts.pop(match[1])
    assert counts == {}
