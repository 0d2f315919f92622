"""Acceptance suite: one test per criterion, exact equality throughout.

Every test prints a PASS/FAIL line (run with ``pytest -s`` or check the
captured output); a FAIL line is followed by the assertion failure."""

import gc
import json
import random
import time
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

import dirseries.series
from dirseries.cli import _write_priced as cli_write_priced
from dirseries.cli import main as cli_main
from dirseries.intfactor import (
    binom_f,
    divisors,
    f_of,
    factorize,
    is_prime,
    mobius_upto,
    s_of,
)
from dirseries.matrices import (
    build_column,
    build_rd,
    build_riordan_ord,
    identity_matrix,
    matmul,
    rd_inverse,
    rd_multiply,
)
from dirseries.partitions import bell_btilde, ordered_factorizations
from dirseries.poly import (
    BETA,
    METER,
    ONE,
    PHI,
    PSI,
    ZERO,
    Polynomial,
    WorkMeter,
    _sizes,
    binom_poly,
    coeff_symbol,
    log_n_poly,
    parse_polynomial,
    rising_poly,
)
from dirseries.randgen import random_dir_series, random_ord_series, random_polynomial
from dirseries.serialize import series_from_json, series_to_json_text
from dirseries.series import (
    DirSeries,
    dir_exp_param,
    dir_from_fn,
    dir_inverse,
    dir_log,
    dir_mul,
    dir_pow_int,
    dir_pow_param,
    dir_x,
    ord_from_fn,
    ord_mul,
    series_substitute_symbol,
)
from dirseries.transforms import (
    abel_check,
    classic_abel_check,
    eps,
    eps_param,
    expand_over_basis,
    geom2,
    lagrange_dir,
    lagrange_middle_member,
    lagrange_ord,
    lift_multiplicative,
    onepx,
    reconstruct_from_expansion,
    zeta,
)

phi = Polynomial.symbol(PHI)
beta = Polynomial.symbol(BETA)
psi = Polynomial.symbol(PSI)


class Criterion:
    """Context manager printing one PASS/FAIL line per criterion."""

    def __init__(self, number: int, title: str):
        self.number = number
        self.title = title

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number:2d}: {self.title}")
        return False


def sym(k):
    return Polynomial.symbol(coeff_symbol(k))


def test_criterion_01_golden_column_matrix(capsys):
    with Criterion(1, "printed power-column matrix of ones-from-2, size 13"):
        started = time.time()
        code = cli_main(["matrix", "--kind", "column", "-e", "geom2", "-N", "13", "--csv"])
        elapsed = time.time() - started
        out = capsys.readouterr().out
        assert code == 0
        rows = out.splitlines()
        golden = [
            "1,0,0,0", "0,1,0,0", "0,1,0,0", "0,1,1,0", "0,1,0,0", "0,1,2,0",
            "0,1,0,0", "0,1,2,1", "0,1,1,0", "0,1,2,0", "0,1,0,0", "0,1,4,3",
        ]
        assert rows[:12] == golden
        assert rows[7] == "0,1,2,1" and rows[11] == "0,1,4,3"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_golden_column_symbolic():
    with Criterion(2, "printed symbolic power-column matrix through row 16"):
        a = dir_from_fn(16, lambda k: 0 if k == 1 else sym(k))
        m = build_column(a, 16)
        assert m.entry(12, 2) == sym(2) * sym(6) * 2 + sym(4) * sym(3) * 2
        assert m.entry(16, 3) == sym(2) ** 2 * sym(4) * 3
        assert m.entry(16, 4) == sym(2) ** 4
        golden_col2 = {
            4: sym(2) ** 2, 6: sym(2) * sym(3) * 2, 8: sym(2) * sym(4) * 2,
            9: sym(3) ** 2, 10: sym(2) * sym(5) * 2, 14: sym(2) * sym(7) * 2,
            15: sym(3) * sym(5) * 2, 16: sym(2) * sym(8) * 2 + sym(4) ** 2,
        }
        for n, want in golden_col2.items():
            assert m.entry(n, 2) == want, f"col 2 row {n}"
        assert m.entry(8, 3) == sym(2) ** 3
        assert m.entry(12, 3) == sym(2) ** 2 * sym(3) * 3
        for n in range(2, 17):
            assert m.entry(n, 1) == sym(n)
        for n in (2, 3, 5, 7, 11, 13):
            assert all(not m.entry(n, c) for c in range(2, m.col_hi + 1))


def test_criterion_03_golden_riordan_rows():
    with Criterion(3, "printed ordinary composition matrix through row 6"):
        a = ord_from_fn(6, lambda n: 0 if n == 0 else sym(n))
        one = ord_from_fn(6, lambda n: 1 if n == 0 else 0)
        m = build_riordan_ord(one, a, 6)
        assert m.entry(6, 2) == sym(1) * sym(5) * 2 + sym(2) * sym(4) * 2 + sym(3) ** 2
        assert (
            m.entry(6, 3)
            == sym(1) ** 2 * sym(4) * 3 + sym(1) * sym(2) * sym(3) * 6 + sym(2) ** 3
        )
        assert m.entry(6, 4) == sym(1) ** 3 * sym(3) * 4 + sym(1) ** 2 * sym(2) ** 2 * 6
        assert m.entry(6, 5) == sym(1) ** 4 * sym(2) * 5
        assert m.entry(6, 6) == sym(1) ** 6
        assert m.entry(5, 2) == sym(1) * sym(4) * 2 + sym(2) * sym(3) * 2
        assert m.entry(4, 3) == sym(1) ** 2 * sym(2) * 3
        assert m.entry(3, 2) == sym(1) * sym(2) * 2


def test_criterion_04_power_group_law():
    with Criterion(4, "parametric power group law, 5 random series at size 64"):
        started = time.time()
        rng = random.Random("acceptance-4")
        for _ in range(5):
            a = random_dir_series(rng, 64)
            p = dir_pow_param(a)
            lhs = dir_mul(
                series_substitute_symbol(p, PSI, phi),
                series_substitute_symbol(p, PSI, beta),
            )
            assert lhs == series_substitute_symbol(p, PSI, phi + beta)
        assert time.time() - started < 30.0


def test_criterion_05_logarithm_suite():
    with Criterion(5, "logarithm homomorphism and exp/log round trip at size 64"):
        rng = random.Random("acceptance-5")
        a = random_dir_series(rng, 64)
        b = random_dir_series(rng, 64)
        assert dir_log(dir_mul(a, b)) == dir_log(a) + dir_log(b)
        assert dir_exp_param(dir_log(a)) == dir_pow_param(a)


def test_criterion_06_lift():
    with Criterion(6, "multiplicative lift homomorphism and closed forms"):
        rng = random.Random("acceptance-6")
        for _ in range(5):
            a = random_ord_series(rng, 8)
            b = random_ord_series(rng, 8)
            la = lift_multiplicative(a, 60)
            lb = lift_multiplicative(b, 60)
            lc = lift_multiplicative(ord_mul(a, b), 60)
            assert dir_mul(la, lb) == lc  # symbolic power parameter
        p = dir_pow_param(zeta(120))
        for n in range(1, 121):
            want = ONE
            for _, m in factorize(n):
                want = want * rising_poly(PSI, m) * Fraction(1, factorial(m))
            assert p[n] == want
        e = eps_param(120)
        for n in range(1, 121):
            assert e[n] == psi ** s_of(n) * Fraction(1, f_of(n))


def test_criterion_07_shifted_family():
    with Criterion(7, "shifted-family coefficient law and matrix inverse pairing"):
        rng = random.Random("acceptance-7")
        for base in (eps(64), zeta(64), random_dir_series(rng, 64)):
            fam = lagrange_dir(base)
            mid = lagrange_middle_member(base)
            for n in range(1, 65):
                shift = phi + beta * log_n_poly(n)
                assert mid[n].substitute(PSI, shift) == fam[n]
        size = 24
        for base in (eps(size), random_dir_series(rng, size)):
            for beta_val in (Fraction(1), Fraction(-1), Fraction(2)):
                neg = series_substitute_symbol(dir_pow_param(base), PSI, -beta_val)
                shifted = series_substitute_symbol(lagrange_dir(base, beta=beta_val), PHI, beta_val)
                prod = matmul(
                    build_rd(dir_x(size), neg, size),
                    build_rd(dir_x(size), shifted, size),
                )
                assert prod == identity_matrix(size)


def test_criterion_08_matrix_group():
    with Criterion(8, "matrix group law vs raw product, identity and inverses"):
        rng = random.Random("acceptance-8")
        size = 24
        for _ in range(5):
            b = random_dir_series(rng, size, lead=Fraction(rng.randint(1, 3)))
            a = random_dir_series(rng, size)
            f = random_dir_series(rng, size, lead=Fraction(rng.randint(1, 2)))
            g = random_dir_series(rng, size)
            m1, m2 = build_rd(b, a, size), build_rd(f, g, size)
            assert rd_multiply((b, a), (f, g), size) == matmul(m1, m2)
        x = dir_x(size)
        assert build_rd(x, x, size) == identity_matrix(size)
        pair = (random_dir_series(rng, size, lead=Fraction(2)), random_dir_series(rng, size))
        m = build_rd(*pair, size)
        assert rd_multiply(pair, (x, x), size) == m and rd_multiply((x, x), pair, size) == m
        inv = rd_inverse(m)
        assert matmul(m, inv) == identity_matrix(size)
        assert matmul(inv, m) == identity_matrix(size)


def test_criterion_09_abel_identities():
    with Criterion(9, "divisor-indexed Abel analogs for n in [2,200]"):
        started = time.time()
        for n in range(2, 201):
            left, right = abel_check(n)
            assert left == right, f"n={n}"
        for p in (2, 3):
            for m in range(1, 8):
                left, right = classic_abel_check(p, m)
                assert left == right, f"classic p={p} m={m}"
                assert abel_check(p**m) == (left, right), f"divisor sides p={p} m={m}"
        assert time.time() - started < 120.0


def test_criterion_10_mobius_oracle():
    with Criterion(10, "inverse of the all-ones series is the Mobius function"):
        mu = mobius_upto(1000)
        inv = dir_inverse(zeta(1000))
        for n in range(1, 1001):
            assert inv[n] == Polynomial.const(mu[n])


def test_criterion_11_btilde_oracle():
    with Criterion(11, "factorization polynomials: counts and binomial identity"):
        for n in range(2, 121):
            for m in range(1, s_of(n) + 1):
                assert bell_btilde(n, m, [1] * (n - 1)) == Polynomial.const(
                    len(ordered_factorizations(n, m))
                )
        for n in range(2, 121):
            lhs = ZERO
            for m in range(1, s_of(n) + 1):
                lhs = lhs + binom_poly(PHI, m) * bell_btilde(n, m, [1] * (n - 1))
            rhs = ONE
            for _, s in factorize(n):
                rhs = rhs * binom_poly(PHI, s).substitute(PHI, phi + (s - 1))
            assert lhs == rhs, f"binomial identity at n={n}"


def test_criterion_12_binom_f_identities():
    with Criterion(12, "f-weighted binomial sums for n up to 500"):
        for n in range(1, 501):
            ds = divisors(n)
            assert sum(binom_f(n, d) for d in ds) == 2 ** s_of(n)
            if not is_prime(n):
                alt = ZERO
                for d in ds:
                    alt = alt + log_n_poly(d) * binom_f(n, d) * Fraction(
                        (-1) ** s_of(n // d)
                    )
                assert not alt, f"alternating identity at n={n}"


def test_criterion_13_expansion_roundtrip():
    with Criterion(13, "expansion over log-indexed powers reconstructs exactly"):
        rng = random.Random("acceptance-13")
        for _ in range(5):
            a = random_dir_series(rng, 32)
            b = random_dir_series(rng, 32, lead=Fraction(rng.randint(1, 4)))
            coeffs = expand_over_basis(b, a, 32)
            assert reconstruct_from_expansion(coeffs, a, 32) == b


def test_criterion_14_cli_contract(capsys):
    with Criterion(14, "verify exits 0 when sound, 1 under kernel corruption"):
        assert cli_main(["verify", "--suite", "all"]) == 0
        capsys.readouterr()  # drop the (large) passing report

        pristine = dirseries.series.dirichlet_convolve
        try:
            for index in (2, 6, 13, 28, 50):

                def corrupted(a, b, trunc, _idx=index, _orig=pristine):
                    out = _orig(a, b, trunc)
                    if trunc >= _idx:
                        out[_idx - 1] = out[_idx - 1] + ONE
                    return out

                dirseries.series.dirichlet_convolve = corrupted
                code = cli_main(["verify", "--suite", "all", "-N", "64"])
                capsys.readouterr()
                assert code == 1, f"corruption at index {index} went undetected"
        finally:
            dirseries.series.dirichlet_convolve = pristine
        assert cli_main(["verify", "--suite", "oracle", "-N", "64"]) == 0
        capsys.readouterr()



def rational_series_text(seed: int, trunc: int = 10_000) -> str:
    """A composition series file with 1 at index 1 and p/q elsewhere, p in
    -4..4 and q in 1..3: 18 distinct texts at about 8900 keys."""
    rng = random.Random(seed)
    coeffs = {"1": "1"}
    for n in range(2, trunc + 1):
        if c := Fraction(rng.randint(-4, 4), rng.randint(1, 3)):
            coeffs[str(n)] = str(c)
    return json.dumps({"kind": "dir", "trunc": trunc, "coeffs": coeffs})


def test_criterion_15_equal_loaded_texts_share_one_polynomial():
    with Criterion(15, "a loaded series holds one polynomial per distinct text"):
        obj = json.loads(rational_series_text(31))
        texts = obj["coeffs"]
        s = series_from_json(obj)
        assert s == DirSeries(10_000, tuple(
            parse_polynomial(texts.get(str(n), "0")) for n in range(1, 10_001)
        ))
        assert len({id(c) for c in s.coeffs if c}) == len(set(texts.values())) == 18


def test_criterion_16_loaded_series_heap():
    # the heap a loaded series keeps once its JSON object is dropped: 2.37 MB
    # when each key built its own polynomial, dict and ``Fraction``, 0.08 MB
    # (the tuple of 10000 references) when equal texts share one polynomial
    with Criterion(16, "a loaded 10000-index rational series holds under 0.5 MB"):
        text = rational_series_text(31)
        tracemalloc.start()
        try:
            obj = json.loads(text)
            s = series_from_json(obj)
            del obj
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.trunc == 10_000
        assert held < 500_000


def traced(step):
    """The result of ``step()``, the heap it holds once it has returned and
    cyclic garbage is collected, and the peak heap while it ran, by
    tracemalloc.  A full collection first empties the free lists, so that
    every object ``step`` makes is traced."""
    gc.collect()
    tracemalloc.start()
    try:
        result = step()
        _, peak = tracemalloc.get_traced_memory()
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_criterion_17_a_result_keeps_each_monomial_once():
    # before the pool: 1199 monomial tuples for 290 monomials, 2578 for 301
    # and 377 for 165 in these three results
    with Criterion(17, "equal monomials across a symbolic result are one tuple"):
        rng = random.Random("acceptance-17")
        a, b = (
            dir_from_fn(64, lambda n: 1 if n == 1 else random_polynomial(rng)) for _ in range(2)
        )
        for result in (lagrange_dir(eps(200)), lagrange_ord(onepx(24)), dir_mul(a, b)):
            monomials = [m for c in result.coeffs for m in c.terms]
            assert len({id(m) for m in monomials}) == len(set(monomials))


def test_criterion_18_lagrange_heap():
    # the heap lagrange_dir(eps(1000)) holds: 3.14 MB with one tuple per
    # term, 1.02 MB with the result's monomials and pairs pooled
    with Criterion(18, "lagrange_dir(eps(1000)) holds under 2 MB"):
        e = eps(1000)
        family, held, _ = traced(lambda: lagrange_dir(e))
        assert family.trunc == 1000
        assert held < 2_000_000


def test_criterion_19_composition_peak():
    # composing g o g for g = a2 x^2 + ... + a2000 x^2000, as ``bell --tilde
    # --symbolic`` does: a peak of 1.93 MB while a tuple was gathered per
    # product, 1.28 MB with one int per product
    with Criterion(19, "the first composition of bell's g peaks under 1.6 MB"):
        g = DirSeries(2000, (ZERO, *(sym(k) for k in range(2, 2001))))
        square, _, peak = traced(lambda: dir_mul(g, g))
        assert square[4] == sym(2) ** 2
        assert peak < 1_600_000


@pytest.mark.parametrize(
    "argv, units",
    [(("bell", "--tilde", "-N", "2000", "-M", "6", "--symbolic"), 12_266_480),
     (("series", "-e", "lagrange_dir(eps,beta)", "-N", "1000"), 19_504_533)],
    ids=["bell-tilde-symbolic", "lagrange-dir-beta"],
)
def test_criterion_20_pooled_results_keep_their_prices(capsys, monkeypatch, argv, units):
    # units recorded when each term kept its own monomial tuple: pooling
    # and gathering change no product and so no charge
    with Criterion(20, f"{argv[0]} is charged the units it was before pooling"):
        spent = []
        reset = WorkMeter.reset

        def recorded(self, budget=None):
            spent.append(self.spent)
            reset(self, budget)

        monkeypatch.setattr(WorkMeter, "reset", recorded)
        assert cli_main(list(argv)) == 0
        capsys.readouterr()
        assert spent[-1] == units


def test_criterion_21_abel_table_heap():
    # the table suite_abel keeps for N = 600, the family terms of the proper
    # divisors: 1,375,999 bytes both before and after ``shared_monomials``
    # became one pool through ``pooled``
    def table():
        family = {}
        for n in range(2, 601):
            abel_check(n, family)
        return family

    with Criterion(21, "the Abel table at N = 600 holds at most 1.38 MB"):
        table()  # the prime sieve of ``intfactor`` grows untraced
        family, held, _ = traced(table)
        assert len(family) == 300
        assert held <= 1_380_000



def test_criterion_22_numeric_results_share_equal_values():
    # before the sharing, one polynomial per index of each result, and
    # one ``Fraction`` per term: 9,766 of them for 321 values in dexp(geom2)
    with Criterion(22, "a numeric result holds each distinct value once"):
        r = series_from_json(json.loads(rational_series_text(31)))
        for result in (dir_inverse(r), dir_log(r), dir_pow_int(r, 4), dir_mul(r, zeta(10_000))):
            values = {frozenset(c.terms.items()) for c in result.coeffs}
            assert len({id(c) for c in result.coeffs}) == len(values)
        for result in (dir_pow_param(r), dir_exp_param(geom2(10_000))):
            scalars = [v for c in result.coeffs for v in c.terms.values()]
            assert len({id(v) for v in scalars}) == len(set(scalars))


@pytest.mark.parametrize(
    "build, peak_bound, held_bound",
    [(dir_pow_param, 4_800_000, 4_000_000),
     (lambda r: dir_exp_param(geom2(10_000)), 4_000_000, 3_200_000)],
    ids=["dpow_param", "dexp-geom2"],
)
def test_criterion_23_numeric_result_heap(build, peak_bound, held_bound):
    # peak and held heap above the input at N = 10000: dir_pow_param 5.36
    # and 4.47 MB, dir_exp_param(geom2) 4.77 and 3.41 MB while every index
    # had its own term dict and every term its own ``Fraction``; 4.27 and
    # 3.69 MB, 3.30 and 2.94 MB with equal values shared
    with Criterion(23, "the parametric power and exponential at N = 10000 stay in their heap"):
        r = series_from_json(json.loads(rational_series_text(31)))
        build(r)  # the prime sieve of ``intfactor`` grows untraced
        result, held, peak = traced(lambda: build(r))
        assert result.trunc == 10_000
        assert peak < peak_bound
        assert held < held_bound


NUMERIC_COMMANDS = {
    "dinv": (["series", "-e", "dinv({f})", "-N", "10000"], 2_734_812),
    "dlog": (["series", "-e", "dlog({f})", "-N", "10000"], 22_688_408),
    "dpow_param": (["series", "-e", "dpow_param({f})", "-N", "10000", "--csv"], 34_564_196),
    "dpow_int4": (["series", "-e", "dpow_int({f},4)", "-N", "10000"], 5_690_231),
    "dmul_zeta": (["series", "-e", "dmul({f},zeta)", "-N", "10000"], 2_814_384),
    "dexp_geom2": (["series", "-e", "dexp(geom2)", "-N", "10000"], 22_839_795),
}


@pytest.mark.parametrize("name", NUMERIC_COMMANDS)
def test_criterion_24_numeric_commands_keep_their_prices(name, capsys, monkeypatch, tmp_path):
    # units recorded while every index built its own coefficient: sharing
    # equal values changes no product and so no charge
    with Criterion(24, f"{name} is charged the units it was before the sharing"):
        path = tmp_path / "r.json"
        path.write_text(rational_series_text(31))
        argv, units = NUMERIC_COMMANDS[name]
        spent = []
        reset = WorkMeter.reset

        def recorded(self, budget=None):
            spent.append(self.spent)
            reset(self, budget)

        monkeypatch.setattr(WorkMeter, "reset", recorded)
        assert cli_main([a.replace("{f}", f'load("{path}")') for a in argv]) == 0
        capsys.readouterr()
        assert spent[-1] == units


def test_criterion_25_shared_coefficients_are_never_mutated(capsys):
    with Criterion(25, "the shared coefficients of an inverse stay as they were"):
        r = series_from_json(json.loads(rational_series_text(31, 2000)))
        inverse = dir_inverse(r)
        shared = {id(c): c for c in inverse.coeffs}.values()
        assert len(shared) < len(inverse.coeffs)  # equal values share
        before = [(c._terms, dict(c._terms), _sizes(c)) for c in shared]
        a = dir_from_fn(2000, lambda n: 1 if n == 1 else phi * n)
        try:
            METER.reset(10**12)  # a budget: the meter sizes every operand
            dir_mul(inverse, inverse)
            dir_mul(a, inverse)
            series_substitute_symbol(inverse, PHI, Fraction(1, 3))
            series_substitute_symbol(dir_mul(a, inverse), PHI, Fraction(1, 3))
            [c.to_text() for c in inverse.coeffs]
            cli_write_priced(inverse.coeffs, series_to_json_text, inverse)
        finally:
            METER.reset()
        capsys.readouterr()
        for c, (terms, items, sizes) in zip(shared, before):
            assert c._terms is terms and c._terms == items
            assert c._sizes == sizes == _sizes(Polynomial(items))
