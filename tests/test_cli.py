import json
import re
from fractions import Fraction

import pytest

from dirseries.cli import main
from dirseries.poly import PSI, Polynomial, parse_polynomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_factorizations(capsys):
    code, out, _ = run_cli(capsys, "factorizations", "-n", "12", "-m", "2")
    assert code == 0
    assert out.splitlines() == ["2,6", "3,4", "4,3", "6,2"]


def test_expr_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "coeff", "-e", "dlog(nope)", "-n", "4")
    assert code == 2
    assert "unknown" in err.lower()


@pytest.mark.parametrize(
    "argv, file_text",
    [
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
    ],
    ids=["ord-index", "factorizations", "load-not-json", "load-key-range",
         "verify-negative", "verify-zero", "load-not-a-series", "load-trunc-over-cap",
         "coeff-index-over-cap", "series-over-cap", "rd-without-e2", "bell-zero-rows",
         "mult-with-e2", "column-with-e2", "subst-xk-zero", "subst-xk-negative"],
)
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv, file_text):
    path = tmp_path / "input.json"
    if file_text is not None:
        path.write_text(file_text)
    code, out, err = run_cli(capsys, *(a.replace("{path}", str(path)) for a in argv))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "argv, file_text, message",
    [
        (["coeff", "-e", "dexp(zeta)", "-n", "3"], None,
         "dexp needs coefficient 0 at index 1, got 1"),
        (["coeff", "-e", "dinv(geom2)", "-n", "3"], None,
         "dinv needs a nonzero rational coefficient at index 1, got 0"),
        (["matrix", "--kind", "column", "-e", "zeta", "-N", "3"], None,
         "matrix --kind column needs coefficient 0 at index 1, got 1"),
        (["matrix", "--kind", "rd", "-e", "zeta", "-e2", "geom2", "-N", "3"], None,
         "matrix --kind rd needs coefficient 1 at index 1 of the second series, got 0"),
        (["matrix", "--kind", "rd", "-e", "geom2", "-e2", "zeta", "-N", "3"], None,
         "matrix --kind rd needs a nonzero rational coefficient at index 1"
         " of the first series, got 0"),
        (["matrix", "--kind", "riordan", "-e", "onepx", "-e2", "expx", "-N", "4"], None,
         "matrix --kind riordan needs coefficient 0 at index 0, the constant term, got 1"),
        (["series", "-e", 'lift(load("{path}"))', "-N", "8"],
         '{"kind": "ord", "trunc": 4, "coeffs": {"0": "2", "1": "1"}}',
         "lift needs coefficient 1 at index 0, the constant term, got 2"),
    ],
    ids=["dexp", "dinv", "column", "rd-second", "rd-first", "riordan", "lift"],
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


def test_verify_timings_go_to_stderr_only(capsys):
    code, plain, _ = run_cli(capsys, "verify", "--suite", "pow")
    code_t, timed, err = run_cli(capsys, "verify", "--suite", "pow", "--timings")
    assert code == code_t == 0
    assert timed == plain
    total = json.loads(plain.splitlines()[-1])["total"]
    assert re.fullmatch(rf"timing pow: \d+\.\d{{3}} s, {total} records\n", err)
