import hashlib
import random
from fractions import Fraction
from math import factorial

import pytest

import dirseries.transforms
from dirseries.errors import LeadingCoefficientNotOne, ShapeMismatch
from dirseries.intfactor import divisors, f_of, factorize, is_prime, s_of
from dirseries.matrices import (
    apply_to_series,
    build_column,
    build_mult,
    build_rd,
    exp_conjugate,
    identity_matrix,
    matmul,
    rd_action,
    rd_inverse,
    row_polynomial,
)
from dirseries.partitions import bell_B, multiplicative_partitions, ordered_factorizations
from dirseries.poly import (
    BETA,
    ONE,
    PHI,
    PSI,
    Polynomial,
    binom_poly,
    coeff_symbol,
    log_n_poly,
    rising_poly,
)
from dirseries.randgen import random_dir_series, random_ord_series
from dirseries.series import (
    dir_from_fn,
    dir_inverse,
    dir_log,
    dir_mul,
    dir_pow_int,
    dir_pow_param,
    dir_x,
    log_power_sum,
    ord_from_fn,
    ord_log,
    ord_mul,
    ord_pow_param,
    perfect_power_embed,
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
    out = ONE
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
                assert not power[n]


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
            assert not lg[n]


def test_lift_requires_unit_constant():
    with pytest.raises(LeadingCoefficientNotOne):
        lift_multiplicative(ord_from_fn(8, lambda k: 2 if k == 0 else 1), 16)


# -- shifted-power families -------------------------------------------------------


def test_lagrange_dir_beta_zero():
    rng = random.Random(63)
    a = random_dir_series(rng, 32)
    fam = lagrange_dir(a, beta=0)
    assert fam == series_substitute_symbol(dir_pow_param(a), PSI, phi)


def test_lagrange_dir_eps_closed_form():
    fam = lagrange_dir(eps(64), beta=1)
    for n in range(2, 65):
        expected = (
            phi * (phi + log_n_poly(n)) ** (s_of(n) - 1) * Fraction(1, f_of(n))
        )
        assert fam[n] == expected, f"mismatch at {n}"
    assert fam[1] == ONE


def test_lagrange_dir_middle_member():
    rng = random.Random(64)
    for a in (eps(32), zeta(32), random_dir_series(rng, 32)):
        fam = lagrange_dir(a)  # symbolic beta
        mid = lagrange_middle_member(a)
        for n in range(1, 33):
            shift = phi + beta * log_n_poly(n)
            assert mid[n].substitute(PSI, shift) == fam[n], f"n={n}"


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
        assert fam[n] == expected
    assert fam[0] == ONE


def test_lagrange_ord_exponential():
    fam = lagrange_ord(expx_ord(24))
    for n in range(1, 25):
        expected = phi * (phi + beta * n) ** (n - 1) * Fraction(1, factorial(n))
        assert fam[n] == expected


def test_lagrange_ord_beta_zero():
    rng = random.Random(66)
    a = random_ord_series(rng, 24)
    fam = lagrange_ord(a, beta=0)
    assert fam == series_substitute_symbol(ord_pow_param(a), PSI, phi)


# -- matrix inverse pairing --------------------------------------------------------


@pytest.mark.parametrize("beta_val", [Fraction(1), Fraction(-1), Fraction(2)])
def test_inverse_pairing_matrices(beta_val):
    rng = random.Random(67)
    size = 16
    for a in (eps(size), random_dir_series(rng, size)):
        neg_pow = series_substitute_symbol(dir_pow_param(a), PSI, -beta_val)
        shifted = series_substitute_symbol(lagrange_dir(a, beta=beta_val), PHI, beta_val)
        left = build_rd(dir_x(size), neg_pow, size)
        right = build_rd(dir_x(size), shifted, size)
        assert matmul(left, right) == identity_matrix(size)


def test_rd_inverse_matches_shifted_family():
    size = 16
    a = eps(size)
    m = build_rd(dir_x(size), a, size)  # a = power at -beta with beta = -1
    shifted = series_substitute_symbol(lagrange_dir(a, beta=Fraction(-1)), PHI, Fraction(-1))
    assert rd_inverse(m) == build_rd(dir_x(size), shifted, size)


def test_rd_action_reproduces_shifted_exponential():
    # acting with the shifted exponential base on the parametric exponential
    # gives the shifted family itself
    from dirseries.matrices import rd_action

    size = 50
    fam = lagrange_dir(eps(size), beta=Fraction(1))
    eps_phi = series_substitute_symbol(eps_param(size), PSI, phi)
    shifted_base = series_substitute_symbol(fam, PHI, 1)
    assert rd_action(shifted_base, eps_phi) == fam


def test_log_star_pairing_inverse():
    # with b the shifted family base of a, the matrices built from
    # x + (log o b)* over b and x - (log o a)* over the inverse of a
    # are mutually inverse, and the first maps star(a) to star(b)
    from dirseries.matrices import apply_to_series
    from dirseries.series import dir_inverse, star_derivative

    rng = random.Random(72)
    size = 16
    a = random_dir_series(rng, size)
    b = series_substitute_symbol(lagrange_dir(a, beta=Fraction(1)), PHI, 1)
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
        shifted = series_substitute_symbol(lagrange_dir(a, beta=beta_val), PHI, 1)
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
    left, right = abel_check(5)
    assert left == right
    # identity (1) at a prime reduces to (phi + beta) = phi + beta
    assert left[1] == right[1] == phi + beta


def test_abel_all_small():
    for n in range(2, 61):
        left, right = abel_check(n)
        assert list(left) == list(right) == [1, 2, 3, 4]
        assert left == right, f"n={n}"


def test_abel_classic_reduction():
    for p in (2, 3):
        for m in range(1, 6):
            left, right = classic_abel_check(p, m)
            assert left == right, f"p={p}, m={m}"
            # at n = p**m the divisor-indexed sides are the classical ones
            assert abel_check(p**m) == (left, right), f"p={p}, m={m}"


def test_abel_rejects_n1():
    with pytest.raises(ValueError):
        abel_check(1)


@pytest.mark.parametrize("order", [1, -1])
def test_abel_table_shared_over_many_n_gives_the_fresh_sides(order):
    fresh = {n: abel_check(n) for n in range(2, 201)}
    family = {}
    for n in range(2, 201)[::order]:
        before = set(family)
        assert abel_check(n, family) == fresh[n], f"n={n}"
        # each call stores only the proper divisors of n, never n itself
        assert all(t < n and n % t == 0 for t in set(family) - before), f"n={n}"
        if order == 1:
            assert max(family) < n
    assert set(family) == set(range(1, 101))
    # the sides the package gave when each call built its terms afresh
    sides = (side for n in range(2, 201) for both in fresh[n] for side in both.values())
    assert hashlib.sha256("\n".join(v.to_text() for v in sides).encode()).hexdigest() == (
        "6a252fcff6b78569d953d89a261e8e77a4729959ff0572321089639f61b5f51d"
    )


# -- mutually inverse relations ------------------------------------------------------


def assert_relations_hold(pairs, trunc):
    forward, backward = pairs
    for relation, (got, want) in (("forward", forward), ("backward", backward)):
        assert list(got) == list(want) == [(relation, n) for n in range(2, trunc + 1)]
        assert got == want, relation


def test_inverse_pair_exponential():
    assert_relations_hold(inverse_pair_check(expx_ord(8), Fraction(1), 40), 40)


def test_inverse_pair_geometric():
    assert_relations_hold(inverse_pair_check(geom_ord(8), Fraction(1), 60), 60)


def test_inverse_pair_random_beta():
    rng = random.Random(68)
    a = random_ord_series(rng, 8)
    assert_relations_hold(inverse_pair_check(a, Fraction(-2, 3), 32), 32)


@pytest.mark.parametrize("beta", [0.1, "1/3"], ids=["float", "str"])
def test_inverse_pair_takes_only_an_exact_beta(beta):
    with pytest.raises(TypeError, match="not an exact scalar"):
        inverse_pair_check(expx_ord(8), beta, 6)


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


# -- the shared log-power action -------------------------------------------------------


def digest(values):
    return hashlib.sha256("\n".join(v.to_text() for v in values).encode()).hexdigest()


def test_log_power_sum_callers_keep_their_values():
    # digests of the values these callers gave when each wrote out its own sum
    rng = random.Random(1818)
    a = random_dir_series(rng, 32)
    b = random_dir_series(rng, 32, lead=Fraction(2))
    assert digest(expand_over_basis(b, a, 32)) == (
        "1a59f622c4fcddf9542c5f912e509508081525853d2b2da94485a8e60773cfce"
    )
    sparse = dir_from_fn(24, lambda n: Polynomial.symbol(f"a{n}") if n in (1, 4, 6, 9) else 0)
    assert digest(rd_action(a.truncated(24), sparse).coeffs) == (
        "c9dcbbf902cc4e6f834a99444f184b7d1fbfd0f172ea92576b8040148988effd"
    )
    forward, backward = inverse_pair_check(random_ord_series(rng, 8), Fraction(-2, 3), 40)
    for (got, want), want_digest in (
        (forward, "7182813ceb2ca05cb50f6189b6298b58e52995545c09e7ae6f450ec90932cd00"),
        (backward, "8ef084c9a625824275fce36a0890f53aeaddd68c4481a607048b9c7e26e0f141"),
    ):
        assert digest(got.values()) == digest(want.values()) == want_digest


def test_log_power_sum_at_minus_log_is_the_action_of_the_inverse():
    # a^(-t) = (a^(-1))^t, so the power at -log d is the inverse's at log d
    rng = random.Random(1819)
    a = random_dir_series(rng, 24)
    c = dir_from_fn(24, lambda n: Polynomial.symbol(coeff_symbol(n)) if n % 5 != 3 else 0)
    got = log_power_sum(c.coeffs, dir_pow_param(a), PSI, -1)
    assert got == rd_action(dir_inverse(a), c)
    # the sum is exact up to the shorter of the series and the family
    assert log_power_sum(c.coeffs[:10], dir_pow_param(a), PSI, -1) == got.truncated(10)


def test_inverse_pair_forward_family_is_lagrange_dir_of_the_lifted_base():
    rng = random.Random(1820)
    a = random_ord_series(rng, 8)
    (got, _), _ = inverse_pair_check(a, Fraction(-2, 3), 40)
    base = series_substitute_symbol(lift_multiplicative(a, 40), PSI, 1)
    family = lagrange_dir(base, Fraction(-2, 3))
    assert got == {("forward", n): family[n] for n in range(2, 41)}


NEGATIVE_PARTS = "need n >= 1 and m >= 0, got n=0, m=1"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: phi.constant_value(), ValueError, "not a constant polynomial: phi"),
        (lambda: phi**-1, ValueError, "negative polynomial powers are not defined"),
        (lambda: binom_poly(PHI, -1), ValueError, "binom_poly needs m >= 0"),
        (lambda: rising_poly(PHI, -1), ValueError, "rising_poly needs m >= 0"),
        (lambda: log_n_poly(0), ValueError, "log_n_poly needs n >= 1"),
        # rows without an error pin the value's text
        (lambda: 3 - phi, None, "3 - phi"),
        (lambda: Polynomial.const(True).terms, None, "{(): 1}"),
        (lambda: (phi == object(), phi.__eq__(object())), None, "(False, NotImplemented)"),
        (lambda: factorize(0), ValueError, "factorize needs n >= 1, got 0"),
        (lambda: divisors(0), ValueError, "divisors needs n >= 1, got 0"),
        (lambda: multiplicative_partitions(0, 1), ValueError, NEGATIVE_PARTS),
        (lambda: ordered_factorizations(0, 1), ValueError, NEGATIVE_PARTS),
        (lambda: bell_B(4, 2, [1, 1]), ValueError, "need 4 values, got 2"),
        (lambda: perfect_power_embed(expx_ord(4), 1), ValueError,
         "perfect_power_embed needs m >= 2"),
        (lambda: build_mult(dir_x(3), 3).entry(4, 1), IndexError,
         "(4,1) outside matrix index range"),
        (lambda: apply_to_series(build_mult(dir_x(3), 3), dir_x(4)), ShapeMismatch,
         "matrix columns 1..3 vs series 1..4"),
        (lambda: classic_abel_check(4, 1), ValueError, "needs a prime p and m >= 1"),
    ],
    ids=["constant_value", "negative-power", "binom_poly", "rising_poly", "log_n_poly",
         "rsub", "const-bool", "eq-other", "factorize", "divisors", "multiplicative_partitions",
         "ordered_factorizations", "bell_B-values", "perfect_power_embed", "entry",
         "apply_to_series", "classic_abel_check"],
)
def test_library_preconditions(call, error, message):
    if error is None:
        assert str(call()) == message
    else:
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == message
