import csv
import io
import json
import random
import time
from fractions import Fraction
from math import comb, factorial

import pytest

import dirseries.series

from dirseries.errors import (
    LeadingCoefficientNotOne,
    LeadingCoefficientNotZero,
    NonUnitLeadingCoefficient,
    TruncationTooSmall,
)
from dirseries.intfactor import divisors, factorize, mobius_upto
from dirseries.poly import BETA, PHI, PSI, Polynomial, binom_poly, log_n_poly, parse_polynomial
from dirseries.randgen import random_dir_series, random_ord_series, random_polynomial
from dirseries.serialize import series_from_json, series_to_csv, series_to_json_text
from dirseries.series import (
    DirSeries,
    OrdSeries,
    dir_apply_series,
    dir_exp_param,
    dir_from_fn,
    dir_inverse,
    dir_log,
    dir_mul,
    dir_scale,
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
        want = divisor_sum(x, y, 45, Polynomial.zero())
        got = dirichlet_convolve(x, y, 45)
        assert got == want
        assert [p.to_text() for p in got] == [p.to_text() for p in want]


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
    want = inverse_by_definition(a, Polynomial.const(Fraction(-2, 5)), Polynomial.zero())
    assert list(got.coeffs) == want
    assert [p.to_text() for p in got.coeffs] == [p.to_text() for p in want]


def test_dir_inverse_zeta_is_mobius_at_the_cap():
    mu = mobius_upto(10_000)
    assert list(dir_inverse(zeta_series(10_000)).coeffs) == consts(mu[1:])


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


def test_dir_pow_int_composes_log_k_times(monkeypatch):
    # binary powering: k = 1000 needs at most 2 * 10 + 1 compositions, and
    # zeta^(k) has coefficient C(k + 2, 3) at index 8
    calls = []
    pristine = dirseries.series.dirichlet_convolve

    def counted(a, b, trunc):
        calls.append(trunc)
        return pristine(a, b, trunc)

    monkeypatch.setattr(dirseries.series, "dirichlet_convolve", counted)
    k = 1000
    power = dir_pow_int(dir_from_fn(16, lambda n: 1), k)
    assert len(calls) <= 2 * k.bit_length() + 1
    assert power[8] == Polynomial.const(comb(k + 2, 3))
    assert power[6] == Polynomial.const(k * k)


def test_dir_pow_int_matches_repeated_divisor_sums(monkeypatch):
    # binary powering starts from the first factor, never from x
    calls = []
    pristine = dirseries.series.dirichlet_convolve

    def counted(a, b, trunc):
        calls.append(trunc)
        return pristine(a, b, trunc)

    monkeypatch.setattr(dirseries.series, "dirichlet_convolve", counted)
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


# -- parametric powers ----------------------------------------------------------


def test_dir_pow_param_of_x():
    assert dir_pow_param(dir_x(32)) == dir_x(32)


def test_dir_pow_param_binomial():
    a = dir_from_fn(64, lambda n: 1 if n in (1, 2) else 0)
    p = dir_pow_param(a)
    for n in range(1, 65):
        f = factorize(n)
        if n == 1:
            assert p[n] == Polynomial.one()
        elif len(f) == 1 and f[0][0] == 2:
            assert p[n] == binom_poly(PSI, f[0][1])
        else:
            assert p[n].is_zero()


def test_dir_pow_param_specializes_to_int_power():
    rng = random.Random(7)
    a = random_dir_series(rng, 64)
    assert series_substitute_symbol(dir_pow_param(a), PSI, 3) == dir_pow_int(a, 3)
    assert series_substitute_symbol(dir_pow_param(a), PSI, 0) == dir_x(64)
    assert series_substitute_symbol(dir_pow_param(a), PSI, log_n_poly(1)) == dir_x(64)


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
            assert lz[n].is_zero(), f"expected zero at {n}"


def test_dir_log_scales_powers():
    rng = random.Random(12)
    a = random_dir_series(rng, 32)
    lhs = dir_log(dir_pow_param(a))
    assert lhs == dir_scale(dir_log(a), psi)


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
    rhs = dir_scale(dir_mul(shifted, star_derivative(a)), psi)
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
    assert lg[0].is_zero()


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
        cls(3, (Polynomial.one(),) * 5)

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
