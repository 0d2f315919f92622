"""Named constructions on top of the series algebra.

* ``zeta``            the all-ones series, the composition analog of the
                      geometric series, and ``geom2``, its part from index 2,
* ``eps_param``       the composition analog of the exponential series,
                      built as the parametric exponential of the prime
                      indicator; its closed coefficient form psi^s(n)/f(n)
                      is used as a test oracle only,
* ``expx`` / ``onepx``  the ordinary series e^x and 1 + x,
* ``lift_multiplicative``  turns an ordinary series with constant term 1
                      into the composition series whose coefficient at n is
                      the product over the prime multiplicities m_i of n of
                      the ordinary psi-power coefficients at m_i,
* ``lagrange_dir`` / ``lagrange_ord``   shifted-power families: the
                      coefficient at n of the derived series is
                      phi * q(phi + beta*log n) where q is the exact
                      quotient by psi of the parametric power coefficient
                      (log n is replaced by n itself in the ordinary case),
* ``abel_check``      both sides of the four divisor-indexed identities
                      generalizing the classical Abel identities, as
                      polynomials, and ``classic_abel_check`` both sides
                      of the classical ones, which they reduce to at
                      prime powers,
* ``inverse_pair_check``  both sides of the pair of mutually inverse
                      divisor-sum relations satisfied by a lifted family,
* ``expand_over_basis``   expansion of a series over the log-indexed powers
                      of a base series, with an exact reconstruction.

Exponents like s(d) - 1 that would go negative at d = 1 never arise here:
every identity is evaluated through series coefficients (divide by the
power parameter first, then substitute), so the degenerate terms come out
as the correct constants automatically, and identities stated with a
quotient by log n are multiplied through by log n.  The identity
functions build the two sides and compare nothing; the ``verify`` suites
decide equality and name the first mismatch.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .intfactor import binom_f, divisors, factorize, is_prime, s_max, s_of
from .poly import (
    BETA,
    ONE,
    PHI,
    PSI,
    ZERO,
    Polynomial,
    Scalar,
    as_poly,
    log_n_poly,
    log_symbol,
    sum_of_products,
)
from .series import (
    DirSeries,
    OrdSeries,
    Series,
    dir_exp_param,
    dir_from_fn,
    dir_log,
    dir_mul,
    dir_pow_param,
    dir_x,
    ord_from_fn,
    ord_pow_param,
    require_lead,
    series_substitute_symbol,
    star_derivative,
)

_phi = Polynomial.symbol(PHI)
_beta = Polynomial.symbol(BETA)


def zeta(trunc: int) -> DirSeries:
    """The all-ones series."""
    return dir_from_fn(trunc, lambda n: 1)


def geom2(trunc: int) -> DirSeries:
    """The all-ones series without its index-1 term."""
    return dir_from_fn(trunc, lambda n: 0 if n == 1 else 1)


def expx(trunc: int) -> OrdSeries:
    """The ordinary exponential series e^x."""
    fac = [1]
    for i in range(1, trunc + 1):
        fac.append(fac[-1] * i)
    return ord_from_fn(trunc, lambda n: Fraction(1, fac[n]))


def onepx(trunc: int) -> OrdSeries:
    """The ordinary series 1 + x."""
    return ord_from_fn(trunc, lambda n: 1 if n <= 1 else 0)


def prime_indicator(trunc: int) -> DirSeries:
    return dir_from_fn(trunc, lambda n: 1 if is_prime(n) else 0)


def eps_param(trunc: int) -> DirSeries:
    """Parametric exponential analog: the psi-exponential of the prime
    indicator.  Its coefficient at n is psi^s(n) / f(n)."""
    return dir_exp_param(prime_indicator(trunc))


def eps(trunc: int) -> DirSeries:
    """The exponential analog itself (the parametric form at psi = 1)."""
    return series_substitute_symbol(eps_param(trunc), PSI, 1)


def lift_multiplicative(a: OrdSeries, trunc: int) -> DirSeries:
    """Lift an ordinary series with constant term 1 to the composition
    algebra.  The coefficient of the lifted parametric power at
    n = prod p_i^{m_i} is the product of the [x^{m_i}] coefficients of the
    ordinary psi-power; the result carries psi symbolically.  Only the
    terms of ``a`` up to order floor(log2 trunc) are read or powered."""
    require_lead(a, 1, "lift")
    top = s_max(trunc)  # largest multiplicity that can occur
    pow_a = ord_pow_param(a.truncated(top))
    out = [ZERO] * trunc
    out[0] = ONE
    for n in range(2, trunc + 1):
        term = ONE
        for _, m in factorize(n):
            term = term * pow_a[m]
        out[n - 1] = term
    return DirSeries(trunc, tuple(out))


# ---------------------------------------------------------------------------
# shifted-power (generalized Lagrange) families
# ---------------------------------------------------------------------------


def lagrange_dir(a: DirSeries, beta=None) -> DirSeries:
    """Shifted-power family of a composition series with leading
    coefficient 1.  ``beta=None`` keeps beta symbolic."""
    require_lead(a, 1, "lagrange_dir")
    return _lagrange(a, beta, dir_pow_param, log_n_poly)


def lagrange_ord(a: OrdSeries, beta=None) -> OrdSeries:
    """Ordinary-algebra counterpart: the shift at index n is beta*n."""
    require_lead(a, 1, "lagrange_ord")
    return _lagrange(a, beta, ord_pow_param, lambda n: n)


def _lagrange(a: Series, beta, power, shift) -> Series:
    """The shifted-power family of ``a``, which has lead 1, as a series of
    the kind of ``a``: 1 at the first index, and at every later index n
    phi * q_n(phi + beta*shift(n)), where q_n is the exact quotient by psi
    of [x^n] of the parametric power ``power(a)`` and the shift is log n
    (composition) or n itself (ordinary).  ``beta=None`` keeps the symbol
    beta; a rational beta is folded into the coefficients.  Substituting a
    value for phi (``series_substitute_symbol``) gives the family at that
    power."""
    b = _beta if beta is None else as_poly(beta)
    p = power(a)
    out = [ONE]
    for n in range(a.first + 1, a.trunc + 1):
        # every term of [x^n] of the parametric power carries psi, so the
        # quotient is exact; a failure here is a structural bug
        q = p[n].divide_by_symbol(PSI)
        out.append(_phi * q.substitute(PSI, _phi + b * shift(n)))
    return type(a)(a.trunc, tuple(out))


def lagrange_middle_member(a: DirSeries) -> DirSeries:
    """The middle member of the family's defining transform: the series
    (x - beta*(log o a)*) o a^(psi), kept symbolic in psi and beta.
    Substituting psi -> phi + beta*log n into its coefficient at n must
    reproduce the family coefficient; the verification suite checks
    exactly that."""
    lead = dir_x(a.trunc) - star_derivative(dir_log(a)) * _beta
    return dir_mul(lead, dir_pow_param(a))


# ---------------------------------------------------------------------------
# Abel-type identities
# ---------------------------------------------------------------------------


def _abel_A(sym_poly: Polynomial, d: int) -> Polynomial:
    """f(d) times the coefficient at d of the shifted exponential family:
    1 at d = 1, otherwise X*(X + log d)^(s(d)-1) with X the given value."""
    if d == 1:
        return ONE
    return sym_poly * (sym_poly + log_n_poly(d)) ** (s_of(d) - 1)


def _abel_B(sym_poly: Polynomial, d: int) -> Polynomial:
    """(X + log d)^s(d); uniform, no special case at d = 1."""
    return (sym_poly + log_n_poly(d)) ** s_of(d)


def abel_check(n: int) -> tuple[dict[int, Polynomial], dict[int, Polynomial]]:
    """The two sides of the four divisor-indexed Abel-analog identities at
    n, as polynomials in phi, beta and prime logarithms: ``(left, right)``,
    each keyed 1..4 by identity.  The identities hold when the sides are
    equal.  They are (1) the addition rule of the shifted family, (2) its
    variant absorbing one shift into a plain power, (3) the connection to
    plain powers, stated with a quotient by log n, so both of its sides
    are multiplied through by log n, and (4) the inversion back to the
    plain power."""
    if n < 2:
        raise ValueError("abel_check needs n >= 2")
    log_n = log_n_poly(n)
    left = {
        1: _abel_A(_phi + _beta, n),
        2: _abel_B(_phi + _beta, n),
        3: _abel_A(_phi, n) * log_n,
        4: _phi ** s_of(n),
    }
    pairs: dict[int, list] = {key: [] for key in left}
    for d in divisors(n):
        w = binom_f(n, d)
        a_phi, a_beta = _abel_A(_phi, d) * w, _abel_A(_beta, n // d)
        pairs[1].append((a_phi, a_beta))
        pairs[2].append((_abel_B(_phi, d) * w, a_beta))
        pairs[3].append((_phi ** s_of(d) * log_n_poly(d) * w, log_n ** s_of(n // d)))
        pairs[4].append((a_phi, (-log_n_poly(d)) ** s_of(n // d)))
    return left, {key: sum_of_products(p) for key, p in pairs.items()}


def classic_abel_check(p: int, m: int) -> tuple[dict[int, Polynomial], dict[int, Polynomial]]:
    """The two sides of the four classical Abel identities of degree m with
    a = log p, built directly from binomial coefficients: ``(left, right)``,
    each keyed 1..4 by identity.  At n = p**m they are also the sides that
    ``abel_check(n)`` builds from divisors."""
    if not is_prime(p) or m < 1:
        raise ValueError("needs a prime p and m >= 1")
    a = Polynomial.symbol(log_symbol(p))

    def A(sym_poly: Polynomial, k: int) -> Polynomial:
        return ONE if k == 0 else sym_poly * (sym_poly + a * k) ** (k - 1)

    def B(sym_poly: Polynomial, k: int) -> Polynomial:
        return (sym_poly + a * k) ** k

    # identity (3) is multiplied through by log n = m*a
    left = {1: A(_phi + _beta, m), 2: B(_phi + _beta, m), 3: A(_phi, m) * a * m, 4: _phi**m}
    right = dict.fromkeys(left, ZERO)
    for k in range(m + 1):
        w = comb(m, k)
        right[1] = right[1] + A(_phi, k) * A(_beta, m - k) * w
        right[2] = right[2] + B(_phi, k) * A(_beta, m - k) * w
        right[3] = right[3] + _phi**k * (a * k) * (a * m) ** (m - k) * w
        right[4] = right[4] + A(_phi, k) * (-a * k) ** (m - k) * w
    return left, right


# ---------------------------------------------------------------------------
# mutually inverse relations of a lifted family
# ---------------------------------------------------------------------------


def inverse_pair_check(
    a: OrdSeries, beta: Scalar, trunc: int
) -> tuple[tuple[dict, dict], tuple[dict, dict]]:
    """For the lifted family of an ordinary series, the two sides of the
    pair of mutually inverse divisor-sum relations connecting the
    parametric power and its shifted family, for every n from 2 up to the
    truncation: one ``(got, want)`` pair of dicts per relation, forward
    first, keyed ``("forward", n)`` and ``("backward", n)``.  The
    relations hold when each pair is equal.

    Written out per divisor d of n, with u_d the parametric-power
    coefficient scaled by f(d) and E(m, d) the shifted-family coefficient
    at m specialized to power beta*log d:

        forward:  [x^n] shifted family  = sum over d of u_d(phi)/f(d) * E(n/d, d)
        backward: [x^n] parametric power = sum over d of shifted_d * u_{n/d}(-beta*log d)/f(n/d)
    """
    beta_val = Fraction(beta)
    lifted = lift_multiplicative(a, trunc)
    power = series_substitute_symbol(lifted, PSI, _phi)  # carries phi

    # q_n = u_n / psi with the psi-power coefficients; shifted-family value
    # at power value v and index m is v * q_m(v + beta*log m)
    quotients = [None] + [
        lifted[m].divide_by_symbol(PSI) if m >= 2 else None for m in range(1, trunc + 1)
    ]

    def family_at(m: int, value: Polynomial) -> Polynomial:
        if m == 1:
            return ONE
        q = quotients[m]
        return value * q.substitute(PSI, value + beta_val * log_n_poly(m))

    fam = dir_from_fn(trunc, lambda n: family_at(n, _phi))

    ns = range(2, trunc + 1)
    want_f, want_b = {}, {}
    for n in ns:
        divs = divisors(n)
        want_f["forward", n] = sum_of_products(
            (power[d], family_at(n // d, beta_val * log_n_poly(d))) for d in divs
        )
        want_b["backward", n] = sum_of_products(
            (fam[d], lifted[n // d].substitute(PSI, -beta_val * log_n_poly(d))) for d in divs
        )
    forward = ({("forward", n): fam[n] for n in ns}, want_f)
    backward = ({("backward", n): power[n] for n in ns}, want_b)
    return forward, backward


# ---------------------------------------------------------------------------
# expansion over log-indexed powers
# ---------------------------------------------------------------------------


def expand_over_basis(b: DirSeries, a: DirSeries, trunc: int) -> list[Polynomial]:
    """Coefficients c_n = [x^n] b o a^(log n) for n = 1..trunc."""
    require_lead(a, 1, "expand_over_basis")
    p = dir_pow_param(a.truncated(trunc))
    b = b.truncated(trunc)
    out: list[Polynomial] = []
    for n in range(1, trunc + 1):
        spec = series_substitute_symbol(p.truncated(n), PSI, log_n_poly(n))
        prod = dir_mul(b.truncated(n), spec)
        out.append(prod[n])
    return out


def reconstruct_from_expansion(
    coeffs: list[Polynomial], a: DirSeries, trunc: int
) -> DirSeries:
    """Rebuild the expanded series: apply (x - (log o a)*) under composition
    to the sum over n of c_n times the (-log n)-power of the base evaluated
    at x^n.  Exact up to the truncation."""
    a = a.truncated(trunc)
    p = dir_pow_param(a)
    pairs: list[list] = [[] for _ in range(trunc)]  # c_n * spec_n at index n*j
    for n in range(1, trunc + 1):
        c = coeffs[n - 1]
        if c.is_zero():
            continue
        spec = series_substitute_symbol(p.truncated(trunc // n), PSI, -log_n_poly(n))
        for at, v in zip(pairs[n - 1 :: n], spec.coeffs):
            if v:
                at.append((v, c))
    total = DirSeries(trunc, tuple(map(sum_of_products, pairs)))
    lead = dir_x(trunc) - star_derivative(dir_log(a))
    return dir_mul(lead, total)
