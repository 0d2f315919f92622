import random
from fractions import Fraction
from math import factorial

import pytest

import dirseries.transforms
from dirseries.errors import LeadingCoefficientNotOne
from dirseries.intfactor import f_of, factorize, is_prime, s_of
from dirseries.matrices import (
    build_column,
    build_rd,
    exp_conjugate,
    identity_matrix,
    matmul,
    rd_inverse,
    row_polynomial,
)
from dirseries.poly import BETA, PHI, PSI, Polynomial, log_n_poly, rising_poly
from dirseries.randgen import random_dir_series, random_ord_series
from dirseries.series import (
    dir_from_fn,
    dir_log,
    dir_mul,
    dir_pow_int,
    dir_pow_param,
    dir_x,
    ord_from_fn,
    ord_log,
    ord_mul,
    ord_pow_param,
    series_substitute_symbol,
)
from dirseries.transforms import (
    abel_check,
    classic_abel_check,
    eps,
    eps_param,
    expand_over_basis,
    expx,
    inverse_pair_check,
    lagrange_dir,
    lagrange_middle_member,
    lagrange_ord,
    lift_multiplicative,
    reconstruct_from_expansion,
    zeta,
)

phi = Polynomial.symbol(PHI)
beta = Polynomial.symbol(BETA)
psi = Polynomial.symbol(PSI)


def geom_ord(n):
    return ord_from_fn(n, lambda _: 1)


def expx_ord(n):
    return ord_from_fn(n, lambda k: Fraction(1, factorial(k)))


def one_plus_x_ord(n):
    return ord_from_fn(n, lambda k: 1 if k <= 1 else 0)


def zeta_param_closed(n):
    out = Polynomial.one()
    for _, m in factorize(n):
        out = out * rising_poly(PSI, m) * Fraction(1, factorial(m))
    return out


def eps_param_closed(n):
    return psi ** s_of(n) * Fraction(1, f_of(n))


# -- special series ------------------------------------------------------------


def test_zeta_param_closed_form():
    p = dir_pow_param(zeta(120))
    for n in range(1, 121):
        assert p[n] == zeta_param_closed(n), f"mismatch at {n}"
    assert p[4] == (psi**2 + psi) * Fraction(1, 2)


def test_eps_param_closed_form():
    e = eps_param(120)
    for n in range(1, 121):
        assert e[n] == eps_param_closed(n), f"mismatch at {n}"
    assert e[12] == psi**3 * Fraction(1, 2)


def test_log_eps_is_prime_indicator():
    lg = dir_log(eps(200))
    for n in range(1, 201):
        expected = Polynomial.const(1 if is_prime(n) else 0)
        assert lg[n] == expected


def test_log_eps_powers_counting():
    lg = dir_log(eps(120))
    for m in (1, 2, 3, 4):
        power = dir_pow_int(lg, m)
        for n in range(1, 121):
            if s_of(n) == m:
                assert power[n] == Polynomial.const(Fraction(factorial(m), f_of(n)))
            else:
                assert power[n].is_zero()


# -- the multiplicative lift -----------------------------------------------------


def test_lift_geometric_is_zeta_family():
    lifted = lift_multiplicative(geom_ord(8), 120)
    assert lifted == dir_pow_param(zeta(120))


def test_lift_exponential_is_eps_family():
    assert lift_multiplicative(expx_ord(8), 60) == eps_param(60)


def test_lift_one_plus_x_squarefree():
    lifted = series_substitute_symbol(lift_multiplicative(one_plus_x_ord(8), 60), PSI, 1)
    for n in range(1, 61):
        squarefree = all(m == 1 for _, m in factorize(n))
        assert lifted[n] == Polynomial.const(1 if squarefree else 0)


def test_lift_homomorphism():
    rng = random.Random(60)
    for _ in range(5):
        a = random_ord_series(rng, 8)
        b = random_ord_series(rng, 8)
        c = ord_mul(a, b)
        la, lb, lc = (lift_multiplicative(s, 60) for s in (a, b, c))
        assert dir_mul(la, lb) == lc  # symbolic power parameter throughout
        at1 = lambda s: series_substitute_symbol(s, PSI, 1)
        assert dir_mul(at1(la), at1(lb)) == at1(lc)


def test_lift_raises_only_the_order_it_reads(monkeypatch):
    # multiplicities of indices up to 1000 are at most 9 = floor(log2 1000)
    orders = []
    pristine = dirseries.transforms.ord_pow_param

    def spy(a):
        orders.append(a.trunc)
        return pristine(a)

    monkeypatch.setattr(dirseries.transforms, "ord_pow_param", spy)
    lifted = lift_multiplicative(expx(1000), 1000)
    assert orders == [9]
    assert lifted == eps_param(1000)


def test_lift_is_a_power_family():
    rng = random.Random(61)
    a = random_ord_series(rng, 8)
    lifted = lift_multiplicative(a, 60)
    base = series_substitute_symbol(lifted, PSI, 1)
    assert dir_pow_param(base) == lifted


def test_lift_log_support():
    rng = random.Random(62)
    a = random_ord_series(rng, 8)
    lifted = series_substitute_symbol(lift_multiplicative(a, 60), PSI, 1)
    lg = dir_log(lifted)
    ord_lg = ord_log(a)
    for n in range(2, 61):
        f = factorize(n)
        if len(f) == 1:
            assert lg[n] == ord_lg[f[0][1]]
        else:
            assert lg[n].is_zero()


def test_lift_requires_unit_constant():
    with pytest.raises(LeadingCoefficientNotOne):
        lift_multiplicative(ord_from_fn(8, lambda k: 2 if k == 0 else 1), 16)


# -- shifted-power families -------------------------------------------------------


def test_lagrange_dir_beta_zero():
    rng = random.Random(63)
    a = random_dir_series(rng, 32)
    fam = lagrange_dir(a, beta=0)
    assert fam.series == series_substitute_symbol(dir_pow_param(a), PSI, phi)


def test_lagrange_dir_eps_closed_form():
    fam = lagrange_dir(eps(64), beta=1)
    for n in range(2, 65):
        expected = (
            phi * (phi + log_n_poly(n)) ** (s_of(n) - 1) * Fraction(1, f_of(n))
        )
        assert fam.series[n] == expected, f"mismatch at {n}"
    assert fam.series[1] == Polynomial.one()


def test_lagrange_dir_middle_member():
    rng = random.Random(64)
    for a in (eps(32), zeta(32), random_dir_series(rng, 32)):
        fam = lagrange_dir(a)  # symbolic beta
        mid = lagrange_middle_member(a)
        for n in range(1, 33):
            shift = phi + beta * log_n_poly(n)
            assert mid[n].substitute(PSI, shift) == fam.series[n], f"n={n}"


def test_lagrange_dir_requires_unit_lead():
    with pytest.raises(LeadingCoefficientNotOne):
        lagrange_dir(dir_from_fn(8, lambda n: 2 if n == 1 else 1))


def test_divisibility_guarantee():
    rng = random.Random(65)
    a = random_dir_series(rng, 64)
    p = dir_pow_param(a)
    for n in range(2, 65):
        p[n].divide_by_symbol(PSI)  # raises NotDivisible on failure


def test_lagrange_ord_binomial():
    fam = lagrange_ord(one_plus_x_ord(24))
    for n in range(1, 25):
        expected = phi * Fraction(1, factorial(n))
        for i in range(1, n):
            expected = expected * (phi + beta * n - i)
        assert fam.series[n] == expected
    assert fam.series[0] == Polynomial.one()


def test_lagrange_ord_exponential():
    fam = lagrange_ord(expx_ord(24))
    for n in range(1, 25):
        expected = phi * (phi + beta * n) ** (n - 1) * Fraction(1, factorial(n))
        assert fam.series[n] == expected


def test_lagrange_ord_beta_zero():
    rng = random.Random(66)
    a = random_ord_series(rng, 24)
    fam = lagrange_ord(a, beta=0)
    assert fam.series == series_substitute_symbol(ord_pow_param(a), PSI, phi)


# -- matrix inverse pairing --------------------------------------------------------


@pytest.mark.parametrize("beta_val", [Fraction(1), Fraction(-1), Fraction(2)])
def test_inverse_pairing_matrices(beta_val):
    rng = random.Random(67)
    size = 16
    for a in (eps(size), random_dir_series(rng, size)):
        neg_pow = series_substitute_symbol(dir_pow_param(a), PSI, -beta_val)
        shifted = lagrange_dir(a, beta=beta_val).at_power(beta_val)
        left = build_rd(dir_x(size), neg_pow, size)
        right = build_rd(dir_x(size), shifted, size)
        assert matmul(left, right) == identity_matrix(size)


def test_rd_inverse_matches_shifted_family():
    size = 16
    a = eps(size)
    m = build_rd(dir_x(size), a, size)  # a = power at -beta with beta = -1
    shifted = lagrange_dir(a, beta=Fraction(-1)).at_power(Fraction(-1))
    assert rd_inverse(m) == build_rd(dir_x(size), shifted, size)


def test_rd_action_reproduces_shifted_exponential():
    # acting with the shifted exponential base on the parametric exponential
    # gives the shifted family itself
    from dirseries.matrices import rd_action

    size = 50
    fam = lagrange_dir(eps(size), beta=Fraction(1))
    eps_phi = series_substitute_symbol(eps_param(size), PSI, phi)
    shifted_base = fam.at_power(1)
    assert rd_action(shifted_base, eps_phi) == fam.series


def test_log_star_pairing_inverse():
    # with b the shifted family base of a, the matrices built from
    # x + (log o b)* over b and x - (log o a)* over the inverse of a
    # are mutually inverse, and the first maps star(a) to star(b)
    from dirseries.matrices import apply_to_series
    from dirseries.series import dir_inverse, star_derivative

    rng = random.Random(72)
    size = 16
    a = random_dir_series(rng, size)
    b = lagrange_dir(a, beta=Fraction(1)).at_power(1)
    m1 = build_rd(dir_x(size) + star_derivative(dir_log(b)), b, size)
    m2 = build_rd(dir_x(size) - star_derivative(dir_log(a)), dir_inverse(a), size)
    assert matmul(m1, m2) == identity_matrix(size)
    assert matmul(m2, m1) == identity_matrix(size)
    assert apply_to_series(m1, star_derivative(a)) == star_derivative(b)


def test_row_polynomial_shift_relation():
    # the exponential row polynomials of the shifted family satisfy
    # (x + beta*log n) * shifted_row_n(x) = x * row_n(x + beta*log n)
    size = 16
    beta_val = Fraction(1)
    for a in (eps(size), zeta(size)):
        base_rows = exp_conjugate(build_column(dir_log(a), size))
        shifted = lagrange_dir(a, beta=beta_val).at_power(1)
        shifted_rows = exp_conjugate(build_column(dir_log(shifted), size))
        for n in range(1, size + 1):
            log_n = log_n_poly(n)
            lhs = (phi + log_n * beta_val) * row_polynomial(shifted_rows, n, PHI)
            rhs = phi * row_polynomial(base_rows, n, PHI).substitute(
                PHI, phi + log_n * beta_val
            )
            assert lhs == rhs, f"n={n}"


# -- Abel-type identities ----------------------------------------------------------


def test_abel_prime_degenerates():
    report = abel_check(5)
    assert report.ok
    # identity (1) at a prime reduces to (phi + beta) = phi + beta
    assert report.results[0]


def test_abel_all_small():
    for n in range(2, 61):
        report = abel_check(n)
        assert report.ok, report.failure


def test_abel_classic_reduction():
    for p in (2, 3):
        for m in range(1, 6):
            assert all(classic_abel_check(p, m)), f"p={p}, m={m}"


def test_abel_rejects_n1():
    with pytest.raises(ValueError):
        abel_check(1)


# -- mutually inverse relations ------------------------------------------------------


def test_inverse_pair_exponential():
    report = inverse_pair_check(expx_ord(8), Fraction(1), 40)
    assert report.ok, report.failures


def test_inverse_pair_geometric():
    report = inverse_pair_check(geom_ord(8), Fraction(1), 60)
    assert report.ok, report.failures


def test_inverse_pair_random_beta():
    rng = random.Random(68)
    a = random_ord_series(rng, 8)
    report = inverse_pair_check(a, Fraction(-2, 3), 32)
    assert report.ok, report.failures


# -- expansion over log-indexed powers -------------------------------------------------


def test_expand_over_basis_x_base():
    rng = random.Random(69)
    b = random_dir_series(rng, 32, lead=Fraction(2))
    coeffs = expand_over_basis(b, dir_x(32), 32)
    assert coeffs == [b[n] for n in range(1, 33)]
    assert reconstruct_from_expansion(coeffs, dir_x(32), 32) == b


def test_expand_over_basis_x_argument():
    rng = random.Random(70)
    a = random_dir_series(rng, 32)
    p = dir_pow_param(a)
    coeffs = expand_over_basis(dir_x(32), a, 32)
    for n in range(1, 33):
        assert coeffs[n - 1] == p[n].substitute(PSI, log_n_poly(n))
    assert reconstruct_from_expansion(coeffs, a, 32) == dir_x(32)


def test_expand_over_basis_roundtrip_random():
    rng = random.Random(71)
    for _ in range(3):
        a = random_dir_series(rng, 32)
        b = random_dir_series(rng, 32, lead=Fraction(rng.randint(-3, 3)) or Fraction(1))
        coeffs = expand_over_basis(b, a, 32)
        assert reconstruct_from_expansion(coeffs, a, 32) == b
