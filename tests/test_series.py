import csv
import io
import json
import random
import time
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, lcm

import pytest

import dirseries.poly
import dirseries.series

from dirseries.errors import (
    ArgumentOutOfRange,
    LeadingCoefficientNotOne,
    LeadingCoefficientNotZero,
    NonUnitLeadingCoefficient,
    TruncationTooSmall,
)
from dirseries.intfactor import divisors, factorize, mobius_upto, s_max
from dirseries.poly import (
    BETA,
    CALL_UNITS,
    INDEX_UNITS,
    METER,
    ONE,
    PHI,
    PSI,
    ZERO,
    Polynomial,
    binom_poly,
    constant_values,
    int_units,
    log_n_poly,
    parse_polynomial,
    repeated_squaring,
)
from dirseries.randgen import random_dir_series, random_ord_series, random_polynomial
from dirseries.serialize import series_from_json, series_to_csv, series_to_json_text
from dirseries.series import (
    DirSeries,
    TWIST_CAP,
    OrdSeries,
    _apply_series_scaled,
    _convolve,
    _convolve_polys,
    _inverse_polys,
    _inverse_recurrence,
    _scaled_integers,
    dir_apply_series,
    dir_exp_param,
    dir_from_fn,
    dir_inverse,
    dir_log,
    dir_mul,
    dir_pow_int,
    dir_pow_param,
    dir_subst_xk,
    dir_x,
    dirichlet_convolve,
    ord_exp,
    ord_from_fn,
    ord_log,
    ord_mul,
    ord_one,
    ord_pow_param,
    ord_x,
    perfect_power_embed,
    series_substitute_symbol,
    star_derivative,
    twist_int,
)

psi = Polynomial.symbol(PSI)
phi = Polynomial.symbol(PHI)
beta = Polynomial.symbol(BETA)


def zeta_series(n):
    return dir_from_fn(n, lambda _: 1)


def geom2_series(n):
    return dir_from_fn(n, lambda k: 0 if k == 1 else 1)


def divisor_sum(a, b, trunc, zero):
    """(a o b)_n straight from the definition, for lists indexed from n = 1:
    the sum of a_d * b_(n/d) over every d in 1..n that divides n."""
    out = []
    for n in range(1, trunc + 1):
        acc = zero
        for d in range(1, n + 1):
            if n % d == 0:
                acc = acc + a[d - 1] * b[n // d - 1]
        out.append(acc)
    return out


def inverse_by_definition(a, inv_lead, zero):
    """b with a o b = x, solved index by index from the divisor sum."""
    b = [inv_lead]
    for n in range(2, len(a) + 1):
        acc = zero
        for d in range(2, n + 1):
            if n % d == 0:
                acc = acc + a[d - 1] * b[n // d - 1]
        b.append(-acc * inv_lead)
    return b


def random_values(rng, length, lead):
    """``lead`` then rationals with zeros, both signs and denominators to 9."""
    return [lead] + [Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(length - 1)]


def consts(values):
    return [Polynomial.const(v) for v in values]


def symbolic_values(rng, length, lead):
    return [Polynomial.const(lead)] + [
        random_polynomial(rng, ("phi", "L2"), max_terms=3, max_deg=2) for _ in range(length - 1)
    ]


# -- Dirichlet multiplication ------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_convolve_rational_matches_divisor_sum(seed):
    rng = random.Random(seed)
    a = random_values(rng, 90, Fraction(-3, 4))
    b = random_values(rng, 70, Fraction(5, 2))
    for trunc in (1, 13, 64, 70):  # all below the length of a, the last equal to b's
        want = consts(divisor_sum(a, b, trunc, Fraction(0)))
        assert dirichlet_convolve(consts(a), consts(b), trunc) == want
        assert dirichlet_convolve(consts(b), consts(a), trunc) == want
    prod = dir_mul(dir_from_fn(90, lambda n: a[n - 1]), dir_from_fn(70, lambda n: b[n - 1]))
    assert list(prod.coeffs) == consts(divisor_sum(a, b, 70, Fraction(0)))


def test_convolve_constant_with_symbolic_matches_polynomial_divisor_sum():
    rng = random.Random(9)
    a = consts(random_values(rng, 60, Fraction(2, 3)))
    b = symbolic_values(rng, 50, Fraction(-1, 2))
    for x, y in ((a, b), (b, a)):
        want = divisor_sum(x, y, 45, ZERO)
        got = dirichlet_convolve(x, y, 45)
        assert got == want
        assert [p.to_text() for p in got] == [p.to_text() for p in want]


def zero_head(rng, length, zeros):
    """``zeros`` zeros, then integers in -5..5 with zeros among them."""
    return [0] * zeros + [rng.randint(-5, 5) for _ in range(length - zeros)]


@pytest.mark.parametrize(
    "x_zeros, y_zeros", [(0, 1), (0, 2), (0, 63), (3, 0), (3, 1)],
    ids=["ys-from-2", "ys-from-3", "ys-zero", "xs-from-4", "both-heads"],
)
def test_convolve_past_zero_heads_matches_divisor_sum(x_zeros, y_zeros):
    # only x_d with d <= trunc // q0 meets a nonzero y_q, q0 the first index
    # of a nonzero y; the kernel stops there
    rng = random.Random(x_zeros * 100 + y_zeros)
    xs, ys = zero_head(rng, 63, x_zeros), zero_head(rng, 63, y_zeros)
    for trunc in (1, 2, 3, 4, 10, 31, 32, 62, 63):
        assert _convolve(xs, ys, trunc) == divisor_sum(xs, ys, trunc, 0), trunc
        assert _convolve(ys, xs, trunc) == divisor_sum(ys, xs, trunc, 0), trunc


@pytest.mark.parametrize("y_zeros", (0, 1, 2, 40))
def test_convolve_charges_only_the_slice_updates_that_run(y_zeros):
    # each nonzero x_d with d <= trunc // q0 costs one slice update; the
    # x_d past it, which meet no nonzero y_q, cost nothing
    trunc = 40
    xs = [3 ** (d % 7) * (-1) ** d for d in range(1, trunc + 1)]
    ys = [0] * y_zeros + [5**q for q in range(y_zeros + 1, trunc + 1)]
    ybits = list(accumulate(map(int.bit_length, ys)))
    want = CALL_UNITS + INDEX_UNITS * trunc + sum(
        int_units(trunc // d, xs[d - 1].bit_length(), ybits[trunc // d - 1])
        for d in range(1, trunc // (y_zeros + 1) + 1)
    )
    try:
        METER.reset(10**18)
        _convolve(xs, ys, trunc)
        assert METER.spent == want
    finally:
        METER.reset()


def test_wide_denominators_stay_on_the_polynomial_path():
    # the common denominator of 1/(n^2+1) grows past the integer path's
    # guard; convolving the scaled integers anyway took about 12 times as
    # long as this brute-force divisor sum
    n = 3000
    a = [Fraction(1, k) for k in range(1, n + 1)]
    b = [Fraction(1, k * k + 1) for k in range(1, n + 1)]
    start = time.perf_counter()
    want = consts(divisor_sum(a, b, n, Fraction(0)))
    brute_s = time.perf_counter() - start
    start = time.perf_counter()
    got = dir_mul(dir_from_fn(n, lambda k: a[k - 1]), dir_from_fn(n, lambda k: b[k - 1]))
    kernel_s = time.perf_counter() - start
    assert list(got.coeffs) == want
    assert kernel_s < 5 * brute_s, (kernel_s, brute_s)



def test_dir_mul_identity():
    rng = random.Random(1)
    a = random_dir_series(rng, 40)
    assert dir_mul(dir_x(40), a) == a


def test_dir_mul_monomials():
    x2 = dir_from_fn(64, lambda n: 1 if n == 2 else 0)
    x3 = dir_from_fn(64, lambda n: 1 if n == 3 else 0)
    prod = dir_mul(x2, x3)
    assert prod == dir_from_fn(64, lambda n: 1 if n == 6 else 0)


def test_dir_mul_divisor_count():
    z = zeta_series(200)
    zz = dir_mul(z, z)
    for n in range(1, 201):
        assert zz[n] == Polynomial.const(len(divisors(n)))


def test_dir_mul_commutative():
    rng = random.Random(2)
    a = random_dir_series(rng, 64, lead=Fraction(2, 3))
    b = random_dir_series(rng, 64, lead=Fraction(-1, 2))
    assert dir_mul(a, b) == dir_mul(b, a)


# -- inversion ----------------------------------------------------------------


def test_dir_inverse_of_x():
    assert dir_inverse(dir_x(16)) == dir_x(16)


def test_dir_inverse_zeta_is_mobius():
    mu = mobius_upto(1000)
    inv = dir_inverse(zeta_series(1000))
    for n in range(1, 1001):
        assert inv[n] == Polynomial.const(mu[n]), f"mu mismatch at {n}"


def test_dir_inverse_roundtrip():
    rng = random.Random(3)
    for _ in range(3):
        a = random_dir_series(rng, 64)
        assert dir_mul(a, dir_inverse(a)) == dir_x(64)


def test_dir_inverse_rational_matches_definition():
    rng = random.Random(8)
    a = random_values(rng, 300, Fraction(2, 3))
    got = dir_inverse(dir_from_fn(300, lambda n: a[n - 1]))
    assert list(got.coeffs) == consts(inverse_by_definition(a, Fraction(3, 2), Fraction(0)))


def test_dir_inverse_symbolic_matches_definition():
    rng = random.Random(10)
    a = symbolic_values(rng, 80, Fraction(-5, 2))
    got = dir_inverse(DirSeries(80, tuple(a)))
    want = inverse_by_definition(a, Polynomial.const(Fraction(-2, 5)), ZERO)
    assert list(got.coeffs) == want
    assert [p.to_text() for p in got.coeffs] == [p.to_text() for p in want]


def test_dir_inverse_zeta_is_mobius_at_the_cap():
    mu = mobius_upto(10_000)
    assert list(dir_inverse(zeta_series(10_000)).coeffs) == consts(mu[1:])


INVERSE_LEADS = (1, -1, Fraction(3, 2), Fraction(-7, 5), 5)


def inverse_input(rng, trunc, lead, kind):
    """``lead`` at index 1, then runs of zero coefficients between random
    ones: small denominators ("small"), integers and a few over a 64-bit
    multiple of the lead's denominator or over Q65 ("64-bit", "65-bit"),
    or polynomials ("symbolic")."""
    out = [Fraction(lead)]
    lead_den = out[0].denominator
    for n in range(2, trunc + 1):
        if (n // 7) % 3 == 1:  # indices 7..13, 28..34, ... stay zero
            out.append(Fraction(0))
        elif kind == "small":
            out.append(Fraction(rng.randint(-6, 6), rng.randint(1, 9)))
        else:
            den = P64 - P64 % lead_den if kind == "64-bit" else Q65
            out.append(Fraction(rng.randint(-6, 6), den if n % 5 == 2 else 1))
    if kind == "symbolic":
        return [Polynomial.const(out[0])] + [
            ZERO if not v else random_polynomial(rng, ("phi", "L2"), 2, 2)
            for v in out[1:]
        ]
    return out


@pytest.mark.parametrize(
    "kind, scaled", [("small", 1), ("64-bit", 1), ("65-bit", 0), ("symbolic", 0)]
)
@pytest.mark.parametrize("lead", INVERSE_LEADS, ids=str)
def test_dir_inverse_paths_match_definition(monkeypatch, lead, kind, scaled):
    # a rational series whose common denominator fits in 64 bits is
    # inverted in scaled integers; one past the guard, or a symbolic one,
    # runs its recurrence in ``Polynomial``
    calls = []
    pristine = dirseries.series._inverse_scaled

    def spied(numerators, den):
        calls.append(den)
        return pristine(numerators, den)

    monkeypatch.setattr(dirseries.series, "_inverse_scaled", spied)
    rng = random.Random(hash((str(lead), kind)) % 1000)
    values = inverse_input(rng, 100, lead, kind)
    if kind == "symbolic":
        zero, inv_lead = ZERO, Polynomial.const(1 / Fraction(lead))
        coeffs = values
    else:
        zero, inv_lead = Fraction(0), 1 / Fraction(lead)
        coeffs = consts(values)
    for trunc in range(1, 101):
        calls.clear()
        got = list(dir_inverse(DirSeries(trunc, tuple(coeffs[:trunc]))).coeffs)
        want = inverse_by_definition(values[:trunc], inv_lead, zero)
        want = want if kind == "symbolic" else consts(want)
        assert got == want, trunc
        assert [p.to_text() for p in got] == [p.to_text() for p in want]
        # a prefix may be constant, or free of wide denominators, already
        head = constant_values(coeffs[:trunc])
        narrow = head is not None and lcm(*(Fraction(v).denominator for v in head)) < 2**64
        assert len(calls) == narrow, trunc
    assert narrow == scaled


@pytest.mark.parametrize("lead", INVERSE_LEADS, ids=str)
@pytest.mark.parametrize("kind", ("small", "64-bit", "65-bit"))
def test_dpow_int_minus_three_matches_repeated_divisor_sums(lead, kind):
    values = inverse_input(random.Random(41), 80, lead, kind)
    inv = inverse_by_definition(values, 1 / Fraction(lead), Fraction(0))
    want = [Fraction(1)] + [Fraction(0)] * 79
    for _ in range(3):
        want = divisor_sum(want, inv, 80, Fraction(0))
    assert list(dir_pow_int(DirSeries(80, tuple(consts(values))), -3).coeffs) == consts(want)


def test_dir_inverse_requires_unit():
    bad = dir_from_fn(8, lambda n: 0 if n == 1 else 1)
    with pytest.raises(NonUnitLeadingCoefficient):
        dir_inverse(bad)
    symbolic = dir_from_fn(8, lambda n: phi if n == 1 else 0)
    with pytest.raises(NonUnitLeadingCoefficient):
        dir_inverse(symbolic)


# -- integer powers -------------------------------------------------------------


def test_dir_pow_int_basics():
    rng = random.Random(4)
    a = random_dir_series(rng, 32)
    assert dir_pow_int(a, 0) == dir_x(32)
    x2 = dir_from_fn(16, lambda n: 1 if n == 2 else 0)
    assert dir_pow_int(x2, 3) == dir_from_fn(16, lambda n: 1 if n == 8 else 0)


def test_dir_pow_binomial_support():
    # (x + x^2)^(k) has coefficient C(k, n) at index 2**n
    a = dir_from_fn(16, lambda n: 1 if n in (1, 2) else 0)
    p3 = dir_pow_int(a, 3)
    expected = {1: 1, 2: 3, 4: 3, 8: 1}
    for n in range(1, 17):
        assert p3[n] == Polynomial.const(expected.get(n, 0))


@pytest.mark.parametrize("kind", ["scaled-rational", "symbolic"])
def test_integer_powers_match_a_left_to_right_composition_chain(kind):
    rng = random.Random(21)
    if kind == "scaled-rational":
        a = random_dir_series(rng, 24, lead=Fraction(-2, 3))
        assert _scaled_integers(a.coeffs) is not None
    else:
        a = dir_from_fn(12, lambda n: phi + n if n % 2 else beta * Fraction(1, n))
    chain = dir_x(a.trunc)
    for k in range(10):
        assert dir_pow_int(a, k) == chain, k
        if k:
            assert repeated_squaring(a, k) == chain, k
        chain = dir_mul(chain, a)


@pytest.mark.parametrize(
    "kernel, trunc",
    [(lambda: _convolve([1, 2, 3], [4, 5, 6], 3), 3),
     (lambda: _inverse_recurrence([1, 2, 3]), 3),
     (lambda: _convolve_polys([ONE, ONE], [ONE, ONE], 2), 2),
     (lambda: _inverse_polys([ONE, ONE], ONE), 2),
     (lambda: ord_mul(ord_one(2), ord_one(2)), 3)],
    ids=["convolve", "inverse", "convolve-polynomial", "inverse-polynomial", "cauchy"],
)
def test_each_kernel_call_charges_its_minimum_first(kernel, trunc):
    try:
        METER.reset(CALL_UNITS + INDEX_UNITS * trunc - 1)
        with pytest.raises(ArgumentOutOfRange, match="work passed the budget"):
            kernel()
    finally:
        METER.reset()


@pytest.mark.parametrize(
    "kernel, trunc",
    [(lambda: _convolve([1, 2, 3], [4, 5, 6], 3), 3),
     (lambda: _inverse_recurrence([1, 2, 3]), 3)],
    ids=["convolve", "inverse"],
)
def test_int_kernels_charge_each_slice_update(kernel, trunc):
    # a budget of exactly the call's minimum refuses the first slice update
    try:
        METER.reset(CALL_UNITS + INDEX_UNITS * trunc)
        with pytest.raises(ArgumentOutOfRange, match="work passed the budget"):
            kernel()
    finally:
        METER.reset()


def test_scaled_ladder_charges_each_row():
    # top = 1 makes no composition, so the row of f_1 is the first charge
    f = ord_from_fn(1, lambda m: m)
    try:
        METER.reset(0)
        with pytest.raises(ArgumentOutOfRange, match="work passed the budget"):
            _apply_series_scaled(f, [0, 1, 2], 1, 1)
    finally:
        METER.reset()


def test_symbolic_products_accumulate_without_sums(monkeypatch):
    # each coefficient is one sum of products; adding product by product
    # copied the partial sum at every step
    calls = []
    add = Polynomial.__add__

    def spy(self, other):
        calls.append(1)
        return add(self, other)

    rng = random.Random(71)
    d = dir_from_fn(24, lambda n: 1 if n == 1 else random_polynomial(rng))
    o = ord_from_fn(12, lambda n: random_polynomial(rng))
    want_d, want_o = dir_mul(d, d), ord_mul(o, o)
    monkeypatch.setattr(Polynomial, "__add__", spy)
    assert (dir_mul(d, d), ord_mul(o, o)) == (want_d, want_o)
    assert calls == []


def test_symbolic_kernels_pair_only_nonzero_coefficients(monkeypatch):
    # a product with a zero operand is charged, so the kernels must not
    # form one: pairing every index with every other priced a sparse
    # Riordan array at N = 500 past the work budget
    rng = random.Random(72)
    support = {1, 2, 3, 7, 11, 30}
    d = dir_from_fn(60, lambda n: 1 if n == 1 else random_polynomial(rng) if n in support else 0)
    o = ord_from_fn(60, lambda n: random_polynomial(rng) if n in support else 0)
    inverse = dir_inverse(d)
    nz_d = [n for n in range(1, 61) if d[n]]
    nz_o = [n for n in range(61) if o[n]]
    nz_inv = [n for n in range(1, 61) if inverse[n]]
    pairs = {
        "dir_mul": sum(i * j <= 60 for i in nz_d for j in nz_d),
        "ord_mul": sum(i + j <= 60 for i in nz_o for j in nz_o),
        "dir_inverse": sum(k * n <= 60 for n in nz_inv for k in nz_d if k > 1),
    }
    calls = []
    add_product = dirseries.poly._add_product

    def spy(out, p, q):
        assert p and q
        calls.append(1)
        add_product(out, p, q)

    monkeypatch.setattr(dirseries.poly, "_add_product", spy)
    for name, run in (("dir_mul", lambda: dir_mul(d, d)), ("ord_mul", lambda: ord_mul(o, o)),
                      ("dir_inverse", lambda: dir_inverse(d))):
        calls.clear()
        run()
        assert len(calls) == pairs[name], name


def test_dir_pow_int_has_no_budget_as_a_library_call(monkeypatch):
    # a library call runs without a budget at any k; the compositions of
    # the scaled power are stubbed, and binary powering makes about two per
    # binary digit of k
    calls = []

    def stub(xs, ys, trunc):
        calls.append(trunc)
        return xs

    monkeypatch.setattr(dirseries.series, "_convolve", stub)
    k = 2**100_000 - 1
    assert METER.budget is None
    assert dir_pow_int(dir_from_fn(16, lambda n: 1), k).trunc == 16
    assert len(calls) == 2 * k.bit_length() - 2


def test_dir_pow_int_composes_log_k_times(monkeypatch):
    # binary powering: k = 1000 needs at most 2 * 10 + 1 compositions, and
    # zeta^(k) has coefficient C(k + 2, 3) at index 8
    calls = []
    pristine = dirseries.series._convolve

    def counted(xs, ys, trunc):
        calls.append(trunc)
        return pristine(xs, ys, trunc)

    monkeypatch.setattr(dirseries.series, "_convolve", counted)
    k = 1000
    power = dir_pow_int(dir_from_fn(16, lambda n: 1), k)
    assert len(calls) <= 2 * k.bit_length() + 1
    assert power[8] == Polynomial.const(comb(k + 2, 3))
    assert power[6] == Polynomial.const(k * k)


def test_dir_pow_int_matches_repeated_divisor_sums(monkeypatch):
    # binary powering starts from the first factor, never from x
    calls = []
    pristine = dirseries.series._convolve

    def counted(xs, ys, trunc):
        calls.append(trunc)
        return pristine(xs, ys, trunc)

    monkeypatch.setattr(dirseries.series, "_convolve", counted)
    rng = random.Random(12)
    a = random_values(rng, 64, Fraction(-2, 3))
    inv = inverse_by_definition(a, Fraction(-3, 2), Fraction(0))
    for k, compositions in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (-1, 0), (-3, 2)):
        factor = a if k >= 0 else inv
        want = [Fraction(1)] + [Fraction(0)] * 63
        for _ in range(abs(k)):
            want = divisor_sum(want, factor, 64, Fraction(0))
        calls.clear()
        assert list(dir_pow_int(dir_from_fn(64, lambda n: a[n - 1]), k).coeffs) == consts(want)
        assert len(calls) == compositions, k


def test_dir_pow_negative_two_paths():
    rng = random.Random(5)
    a = random_dir_series(rng, 48)
    via_inverse = dir_pow_int(a, -2)
    via_param = series_substitute_symbol(dir_pow_param(a), PSI, -2)
    assert via_inverse == via_param


# -- substitution x -> x^k ------------------------------------------------------


def test_dir_subst_xk():
    rng = random.Random(6)
    a = random_dir_series(rng, 64)
    assert dir_subst_xk(a, 1) == a
    z2 = dir_subst_xk(zeta_series(20), 2)
    for n in range(1, 21):
        assert z2[n] == Polynomial.const(1 if n % 2 == 0 else 0)
    xk = dir_from_fn(64, lambda n: 1 if n == 5 else 0)
    assert dir_subst_xk(a, 5) == dir_mul(xk, a)


# -- applying ordinary series ---------------------------------------------------


def test_dir_apply_series_golden_column():
    # applying x^2 to x^2/(1-x) gives the 2-fold composition power whose
    # printed values at 4, 6, 8, 9, 10, 12 are 1, 2, 2, 1, 2, 4
    f = ord_from_fn(8, lambda n: 1 if n == 2 else 0)
    col2 = dir_apply_series(f, geom2_series(13))
    expected = {4: 1, 6: 2, 8: 2, 9: 1, 10: 2, 12: 4}
    for n, v in expected.items():
        assert col2[n] == Polynomial.const(v)


def test_dir_apply_series_trivial():
    a = geom2_series(32)
    const1 = ord_one(8)
    assert dir_apply_series(const1, a) == dir_x(32)
    assert dir_apply_series(ord_x(8), a) == a
    with pytest.raises(LeadingCoefficientNotZero):
        dir_apply_series(ord_x(8), zeta_series(32))
    with pytest.raises(TruncationTooSmall):
        dir_apply_series(ord_x(2), geom2_series(64))


def ladder_reference(f, a):
    """x*f_0 + sum of f_m * a^(m) for m up to log2(trunc), every power a
    brute-force divisor sum of ``Polynomial`` coefficients."""
    coeffs = list(a.coeffs)
    out = [f[0]] + [ZERO] * (a.trunc - 1)
    power = coeffs
    for m in range(1, a.trunc.bit_length()):
        if m > 1:
            power = divisor_sum(power, coeffs, a.trunc, ZERO)
        out = [o + f[m] * p for o, p in zip(out, power)]
    return out


# each ladder: the operation, the lead it needs and the ordinary series it applies
LADDERS = {
    "dlog": (dir_log, 1, lambda m: Fraction((-1) ** (m + 1), m) if m else 0),
    "dpow_param": (dir_pow_param, 1, lambda m: binom_poly(PSI, m) if m else 1),
    "dexp": (dir_exp_param, 0, lambda m: psi**m * Fraction(1, factorial(m)) if m else 1),
}

P64 = 2**64 - 59  # the largest prime of 64 bits
Q65 = 2**64 + 1  # 65 bits, past the scaled-integer guard


def ladder_input(rng, trunc, lead, second, kind):
    """A composition series with ``lead`` at index 1, ``second`` at index 2
    and random coefficients after: small denominators ("small"), integers
    and a few over P64 or Q65 ("64-bit", "65-bit"), or polynomials."""
    if kind == "symbolic":
        rest = symbolic_values(rng, trunc - 1, second)
    elif kind == "small":
        rest = consts(random_values(rng, trunc - 1, Fraction(second)))
    else:
        den = P64 if kind == "64-bit" else Q65
        rest = consts(
            [Fraction(second)]
            + [Fraction(rng.randint(-6, 6), den if n % 5 == 2 else 1) for n in range(trunc - 2)]
        )
    return DirSeries(trunc, (Polynomial.const(lead), *rest))


@pytest.mark.parametrize("second", (1, -1))
@pytest.mark.parametrize(
    "kind, scaled", [("small", 1), ("64-bit", 1), ("65-bit", 0), ("symbolic", 0)]
)
@pytest.mark.parametrize("name", sorted(LADDERS))
def test_ladder_paths_match_polynomial_reference(monkeypatch, name, kind, scaled, second):
    # a rational series whose common denominator fits in 64 bits is summed
    # in scaled integers; one past the guard, or a symbolic one, is not
    op, lead, fm = LADDERS[name]
    a = ladder_input(random.Random(len(name) * 7 + second), 64, lead, second, kind)
    calls = []
    pristine = dirseries.series._apply_series_scaled

    def spied(*args):
        calls.append(args[-1])
        return pristine(*args)

    monkeypatch.setattr(dirseries.series, "_apply_series_scaled", spied)
    got = list(op(a).coeffs)
    want = ladder_reference(ord_from_fn(6, fm), a - dir_x(64) if lead else a)
    assert got == want
    assert [p.to_text() for p in got] == [p.to_text() for p in want]
    assert len(calls) == scaled


def test_ladder_refuses_a_lead_of_minus_one_on_both_paths():
    for kind in ("small", "symbolic"):
        a = ladder_input(random.Random(3), 16, -1, 1, kind)
        for op in (dir_log, dir_pow_param):
            with pytest.raises(LeadingCoefficientNotOne, match="got -1"):
                op(a)


@pytest.mark.parametrize("kind", ("small", "64-bit", "65-bit", "symbolic"))
def test_ladder_convolves_once_per_power_after_the_first(monkeypatch, kind):
    # every power after the first is one convolution: an input that scales
    # to integers reaches ``_convolve`` directly, any other reaches
    # ``_convolve_polys`` through ``dirichlet_convolve`` (the "65-bit" input
    # has no 65-bit denominator below trunc 5)
    calls = {"dirichlet_convolve": 0, "_convolve": 0, "_convolve_polys": 0}
    for name in calls:
        pristine = getattr(dirseries.series, name)

        def counted(*args, name=name, pristine=pristine):
            calls[name] += 1
            return pristine(*args)

        monkeypatch.setattr(dirseries.series, name, counted)
    for trunc in (2, 3, 4, 63, 64, 100):
        for op, lead, _ in LADDERS.values():
            a = ladder_input(random.Random(trunc), trunc, lead, 1, kind)
            powers = s_max(trunc) - 1
            via_polynomials = 0 if _scaled_integers(a.coeffs) is not None else powers
            calls.update(dict.fromkeys(calls, 0))
            op(a)
            assert calls == {
                "dirichlet_convolve": via_polynomials,
                "_convolve": powers - via_polynomials,
                "_convolve_polys": via_polynomials,
            }, (
                op.__name__, trunc,
            )


def test_integral_kernel_output_is_stored_as_int():
    rng = random.Random(31)
    a = [Fraction(rng.randint(-5, 5)) for _ in range(40)]
    b = [Fraction(rng.randint(-5, 5) * (n % 3 == 0)) for n in range(40)]
    out = dirichlet_convolve(consts(a), consts(b), 40)
    assert out == consts(divisor_sum(a, b, 40, Fraction(0)))
    values = constant_values(out)
    assert values.count(0) > 0
    assert all(type(v) is int for v in values)
    assert all(p is ZERO for p, v in zip(out, values) if not v)
    halves = dirichlet_convolve(consts([Fraction(v, 2) for v in a]), consts(b), 40)
    assert all(p is ZERO for p, v in zip(halves, values) if not v)
    assert halves == consts([Fraction(v, 2) for v in values])


def test_scaled_output_coefficients_are_stored_normalised():
    # the scaled ladder and the scaled integer power wrap their term dicts
    # without ``_scalar``: each coefficient is an ``int`` when integral and
    # otherwise a ``Fraction`` with denominator > 1
    a = dir_from_fn(120, lambda n: 1 if n == 1 else Fraction((7 * n) % 11 - 5, n % 3 + 1))
    assert _scaled_integers(a.coeffs)[1] == 6
    outputs = (dir_exp_param(geom2_series(256)), dir_log(a), dir_pow_param(a), dir_pow_int(a, 3))
    for name, out in zip(("dexp", "dlog", "dpow_param", "dpow_int"), outputs):
        values = [c for p in out.coeffs for c in p.terms.values()]
        assert any(type(c) is int for c in values), name
        assert any(type(c) is Fraction for c in values), name
        assert all(type(c) is int or c.denominator > 1 for c in values), name


# -- parametric powers ----------------------------------------------------------


def test_dir_pow_param_of_x():
    assert dir_pow_param(dir_x(32)) == dir_x(32)


def test_dir_pow_param_binomial():
    a = dir_from_fn(64, lambda n: 1 if n in (1, 2) else 0)
    p = dir_pow_param(a)
    for n in range(1, 65):
        f = factorize(n)
        if n == 1:
            assert p[n] == ONE
        elif len(f) == 1 and f[0][0] == 2:
            assert p[n] == binom_poly(PSI, f[0][1])
        else:
            assert not p[n]


def test_dir_pow_param_specializes_to_int_power():
    rng = random.Random(7)
    a = random_dir_series(rng, 64)
    assert series_substitute_symbol(dir_pow_param(a), PSI, 3) == dir_pow_int(a, 3)
    assert series_substitute_symbol(dir_pow_param(a), PSI, 0) == dir_x(64)
    assert series_substitute_symbol(dir_pow_param(a), PSI, log_n_poly(1)) == dir_x(64)


def test_series_substitution_builds_one_ladder(monkeypatch):
    # the powers of the replacement are built once for the whole series,
    # not once per coefficient, and give each coefficient's own substitution
    a = random_dir_series(random.Random(24), 48)
    p = dir_pow_param(a)
    want = [c.substitute(PSI, log_n_poly(6)) for c in p.coeffs]
    calls = []
    powers = dirseries.poly.powers

    def spy(base, top, *args):
        calls.append(top)
        return powers(base, top, *args)

    monkeypatch.setattr(dirseries.poly, "powers", spy)
    got = series_substitute_symbol(p, PSI, log_n_poly(6))
    assert list(got.coeffs) == want
    assert calls == [max(max((e for s, e in m if s == PSI), default=0) for c in p.coeffs
                             for m in c.terms)]
    calls.clear()
    assert series_substitute_symbol(got, PSI, 2).coeffs == got.coeffs
    assert calls == []  # no coefficient carries psi: each is kept as it is
    assert all(x is y for x, y in zip(series_substitute_symbol(a, PSI, 2).coeffs, a.coeffs))


def test_dir_pow_param_requires_unit_lead():
    with pytest.raises(LeadingCoefficientNotOne):
        dir_pow_param(geom2_series(8))


def test_power_group_law_symbolic():
    rng = random.Random(8)
    a = random_dir_series(rng, 64)
    p = dir_pow_param(a)
    p_phi = series_substitute_symbol(p, PSI, phi)
    p_beta = series_substitute_symbol(p, PSI, beta)
    assert dir_mul(p_phi, p_beta) == series_substitute_symbol(p, PSI, phi + beta)


def test_iterated_power():
    rng = random.Random(9)
    a = random_dir_series(rng, 32)
    for k in (2, 3):
        base = dir_pow_int(a, k)
        lhs = dir_pow_param(base)
        rhs = series_substitute_symbol(dir_pow_param(a), PSI, psi * k)
        assert lhs == rhs


def test_product_power_distributes():
    rng = random.Random(10)
    a = random_dir_series(rng, 48)
    b = random_dir_series(rng, 48)
    lhs = dir_pow_param(dir_mul(a, b))
    rhs = dir_mul(dir_pow_param(a), dir_pow_param(b))
    assert lhs == rhs


# -- logarithm and exponential ----------------------------------------------------


def test_dir_log_of_x_and_homomorphism():
    assert dir_log(dir_x(32)) == dir_from_fn(32, lambda n: 0)
    rng = random.Random(11)
    a = random_dir_series(rng, 64)
    b = random_dir_series(rng, 64)
    assert dir_log(dir_mul(a, b)) == dir_log(a) + dir_log(b)


def test_dir_log_zeta_prime_powers():
    lz = dir_log(zeta_series(200))
    for n in range(1, 201):
        f = factorize(n)
        if len(f) == 1:
            assert lz[n] == Polynomial.const(Fraction(1, f[0][1]))
        else:
            assert not lz[n], f"expected zero at {n}"


def test_dir_log_scales_powers():
    rng = random.Random(12)
    a = random_dir_series(rng, 32)
    lhs = dir_log(dir_pow_param(a))
    assert lhs == dir_log(a) * psi


def test_exp_log_roundtrip():
    rng = random.Random(13)
    a = random_dir_series(rng, 64)
    assert dir_exp_param(dir_log(a)) == dir_pow_param(a)


def test_dir_exp_of_zero():
    z = dir_from_fn(16, lambda n: 0)
    assert dir_exp_param(z) == dir_x(16)


# -- star derivative -----------------------------------------------------------


def test_star_derivative_basics():
    assert star_derivative(dir_x(16)) == dir_from_fn(16, lambda n: 0)
    z = star_derivative(zeta_series(16))
    assert z[12] == log_n_poly(12)


def test_star_derivative_leibniz():
    rng = random.Random(14)
    a = random_dir_series(rng, 48, lead=Fraction(1, 2))
    b = random_dir_series(rng, 48, lead=Fraction(3))
    lhs = star_derivative(dir_mul(a, b))
    rhs = dir_mul(a, star_derivative(b)) + dir_mul(star_derivative(a), b)
    assert lhs == rhs


def test_star_chain_rule_parametric():
    # the star derivative of the psi-power is psi * (power at psi - 1) o star(a)
    rng = random.Random(15)
    a = random_dir_series(rng, 32)
    p = dir_pow_param(a)
    lhs = star_derivative(p)
    shifted = series_substitute_symbol(p, PSI, psi - 1)
    rhs = dir_mul(shifted, star_derivative(a)) * psi
    assert lhs == rhs


def test_star_of_log():
    rng = random.Random(16)
    a = random_dir_series(rng, 48)
    lhs = star_derivative(dir_log(a))
    rhs = dir_mul(star_derivative(a), dir_inverse(a))
    assert lhs == rhs


# -- twist --------------------------------------------------------------------


def test_twist_basics():
    rng = random.Random(17)
    a = random_dir_series(rng, 64)
    assert twist_int(a, 0) == a
    assert twist_int(dir_x(16), 5) == dir_x(16)


def test_twist_homomorphism():
    rng = random.Random(18)
    a = random_dir_series(rng, 64)
    b = random_dir_series(rng, 64)
    for k in (1, 2, -1):
        lhs = twist_int(dir_mul(a, b), k)
        rhs = dir_mul(twist_int(a, k), twist_int(b, k))
        assert lhs == rhs


def test_twist_exponent_is_capped():
    a = zeta_series(8)
    assert twist_int(a, TWIST_CAP)[2] == Polynomial.const(2**TWIST_CAP)
    assert twist_int(a, -TWIST_CAP)[2] == Polynomial.const(Fraction(1, 2**TWIST_CAP))
    for k in (TWIST_CAP + 1, -TWIST_CAP - 1, -99999999):
        with pytest.raises(ArgumentOutOfRange, match=f"twist needs \\|k\\| <= {TWIST_CAP}, got {k}"):
            twist_int(a, k)


# -- perfect-power embedding -----------------------------------------------------


def test_embed_basics():
    one_plus_x = ord_from_fn(1, lambda n: 1)
    assert perfect_power_embed(one_plus_x, 2) == dir_from_fn(
        2, lambda n: 1 if n in (1, 2) else 0
    )
    const = ord_one(3)
    assert perfect_power_embed(const, 3, trunc=5) == dir_x(5)


def test_embed_homomorphism():
    rng = random.Random(19)
    a = random_ord_series(rng, 8)
    b = random_ord_series(rng, 8)
    ea = perfect_power_embed(a, 2, trunc=256)
    eb = perfect_power_embed(b, 2, trunc=256)
    assert dir_mul(ea, eb) == perfect_power_embed(ord_mul(a, b), 2, trunc=256)


# -- ordinary series operations ---------------------------------------------------


def test_ord_log_one_plus_x():
    one_plus_x = ord_from_fn(16, lambda n: 1 if n <= 1 else 0)
    lg = ord_log(one_plus_x)
    for n in range(1, 17):
        assert lg[n] == Polynomial.const(Fraction((-1) ** (n + 1), n))
    assert not lg[0]


def test_ord_exp_log_roundtrip():
    rng = random.Random(21)
    a = random_ord_series(rng, 24)
    assert ord_exp(ord_log(a)) == a


def test_ord_pow_param_binomial():
    one_plus_x = ord_from_fn(12, lambda n: 1 if n <= 1 else 0)
    p = ord_pow_param(one_plus_x)
    for n in range(13):
        assert p[n] == binom_poly(PSI, n)


def test_ord_pow_param_specializes():
    rng = random.Random(22)
    a = random_ord_series(rng, 24)
    sq = series_substitute_symbol(ord_pow_param(a), PSI, 2)
    assert sq == ord_mul(a, a)


def test_ord_pow_param_exp_coeffs():
    expx = ord_from_fn(12, lambda n: Fraction(1, factorial(n)))
    p = ord_pow_param(expx)
    for n in range(13):
        assert p[n] == psi**n * Fraction(1, factorial(n))


# -- the shared series class ------------------------------------------------------


@pytest.mark.parametrize(
    "cls, random_series, product",
    [(DirSeries, random_dir_series, dir_mul), (OrdSeries, random_ord_series, ord_mul)],
    ids=["dir", "ord"],
)
def test_series_kinds_share_one_class(cls, random_series, product):
    rng = random.Random(24)
    a, b = random_series(rng, 10), random_series(rng, 7)
    first = cls.first
    assert type(a) is cls and first == (1 if cls is DirSeries else 0)
    assert a[first] == a.coeffs[0] and a[10] == a.coeffs[-1]
    for n in (first - 1, 11):
        with pytest.raises(IndexError):
            a[n]
    with pytest.raises(ValueError):
        cls(3, (ONE,) * 5)

    # arithmetic is index by index and takes the smaller truncation
    indices = range(first, 8)
    assert [(a + b)[n] for n in indices] == [a[n] + b[n] for n in indices]
    assert [(a - b)[n] for n in indices] == [a[n] - b[n] for n in indices]
    assert (a + b).trunc == (a - b).trunc == 7
    assert [(-a)[n] for n in range(first, 11)] == [-a[n] for n in range(first, 11)]
    assert a * psi == cls(10, tuple(v * psi for v in a.coeffs))
    assert 3 * a == a * 3 == a + a + a
    assert a.truncated(7) == cls(7, a.coeffs[: 8 - first])
    with pytest.raises(TruncationTooSmall):
        b.truncated(8)

    # two series of one kind multiply by the product of the kind
    assert a * b == product(a, b)
    other = random_ord_series(rng, 10) if cls is DirSeries else random_dir_series(rng, 10)
    assert a != other and cls(a.trunc, a.coeffs) == a
    with pytest.raises(TypeError):
        a + other
    with pytest.raises(TypeError):
        a - other

    text = series_to_json_text(a)
    assert json.loads(text)["kind"] == cls.kind
    assert series_from_json(json.loads(text)) == a
    rows = list(csv.reader(io.StringIO(series_to_csv(a))))
    assert rows[0] == ["index", "coefficient"]
    assert cls(10, tuple(parse_polynomial(v) for _, v in rows[1:])) == a
    assert [int(n) for n, _ in rows[1:]] == list(range(first, 11))


def test_series_equality_reads_kind_trunc_and_coeffs():
    a = DirSeries(3, (ONE, ZERO, psi))
    assert a == DirSeries(3, (ONE, ZERO, psi)) and not a != DirSeries(3, (ONE, ZERO, psi))
    assert a != DirSeries(3, (ONE, ZERO, ONE))
    assert a != a.truncated(2) and a.truncated(2) == DirSeries(2, (ONE, ZERO))
    # the same coefficients in the other algebra are another series
    o = OrdSeries(2, (ONE, ZERO, psi))
    assert a != o and o != a and not a == o
    assert a != (3, (ONE, ZERO, psi))


@pytest.mark.parametrize(
    "cls, trunc, coeffs, message",
    [
        (DirSeries, 0, (), "^DirSeries needs trunc >= 1$"),
        (OrdSeries, -1, (), "^OrdSeries needs trunc >= 0$"),
        (DirSeries, 2, (ONE,), r"^DirSeries needs one coefficient per index 1\.\.2$"),
        (OrdSeries, 3, (ONE,), r"^OrdSeries needs one coefficient per index 0\.\.3$"),
    ],
)
def test_series_constructor_messages(cls, trunc, coeffs, message):
    with pytest.raises(ValueError, match=message):
        cls(trunc, coeffs)


def test_series_fields_cannot_be_assigned():
    a = OrdSeries(1, (ONE, ONE))
    with pytest.raises(AttributeError):
        a.trunc = 5
    with pytest.raises(AttributeError):
        a.coeffs = (ONE,)
    with pytest.raises(AttributeError):
        del a.trunc
    assert (a.trunc, a.coeffs) == (1, (ONE, ONE))


def test_nonzero_scan_indexes_from_the_first_index():
    a = DirSeries(4, (ONE, ZERO, psi, ZERO))
    assert dirseries.series._nonzero(a.coeffs, a.first) == [(1, ONE), (3, psi)]
    assert dirseries.series._nonzero(a.coeffs, 0) == [(0, ONE), (2, psi)]
