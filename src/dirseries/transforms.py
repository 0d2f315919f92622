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
                      polynomials, read from a caller's table of the
                      family terms of the proper divisors, and
                      ``classic_abel_check`` both sides of the classical
                      ones, which they reduce to at prime powers,
* ``inverse_pair_check``  both sides of the pair of mutually inverse
                      divisor-sum relations satisfied by a lifted family,
* ``expand_over_basis``   expansion of a series over the log-indexed powers
                      of a base series, with an exact reconstruction.

The reconstruction and both inverse relations evaluate ``log_power_sum``,
the action of the basic group matrix (``matrices.rd_action``) in ``series``.

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

from .intfactor import divisors, f_of, factorize, is_prime, s_max, s_of
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
    pooled,
    powers,
    shared_monomials,
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
    log_power_sum,
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
    return _lagrange(dir_pow_param(a), beta, log_n_poly)


def lagrange_ord(a: OrdSeries, beta=None) -> OrdSeries:
    """Ordinary-algebra counterpart: the shift at index n is beta*n."""
    require_lead(a, 1, "lagrange_ord")
    return _lagrange(ord_pow_param(a), beta, lambda n: n)


def _lagrange(p: Series, beta, shift) -> Series:
    """The shifted-power family of the parametric power ``p`` of a series
    with lead 1, as a series of the kind of ``p``: 1 at the first index,
    and at every later index n phi * q_n(phi + beta*shift(n)), where q_n is
    the exact quotient by psi of [x^n] of ``p`` and the shift is log n
    (composition) or n itself (ordinary).  ``beta=None`` keeps the symbol
    beta; a rational beta is folded into the coefficients.  Substituting a
    value for phi (``series_substitute_symbol``) gives the family at that
    power."""
    b = _beta if beta is None else as_poly(beta)
    out = [ONE]
    pool: dict = {}  # the coefficients share their equal monomials
    for n in range(p.first + 1, p.trunc + 1):
        # every term of [x^n] of the parametric power carries psi, so the
        # quotient is exact; a failure here is a structural bug
        q = p[n].divide_by_symbol(PSI)
        out.append(pooled(_phi * q.substitute(PSI, _phi + b * shift(n)), pool))
    return type(p)(p.trunc, tuple(out))


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


def _abel_terms(t: int) -> tuple:
    """The Abel family terms of index t: s(t), f(t), A(phi,t), B(phi,t),
    A(beta,t), phi^s(t)*log t and the list of powers (-log t)^k for
    k = 0, 1, ..., which callers extend as far as they need.
    A(X,t) = X*(X + log t)^(s(t)-1) is f(t) times the coefficient at t of
    the shifted exponential family, and B(X,t) = (X + log t)^s(t); both are
    1 at t = 1, and both come from one power.  The polynomials share their
    monomials, which keeps a table of them 15-18% smaller (tracemalloc of
    the table for n = 2..N: 1.38 against 1.63 MB at N = 600, 2.54 against
    3.08 MB at N = 1000)."""
    if t == 1:
        return 0, 1, ONE, ONE, ONE, ZERO, [ONE, ZERO]
    s, log_t = s_of(t), log_n_poly(t)
    shifted = _phi + log_t
    power = shifted ** (s - 1)
    a_phi = _phi * power
    terms = a_phi, power * shifted, a_phi.substitute(PHI, _beta), _phi**s * log_t, -log_t
    *terms, neg_log = shared_monomials(terms)
    return s, f_of(t), *terms, [ONE, neg_log]


def _family_terms(family: dict[int, tuple], t: int) -> tuple:
    terms = family.get(t)
    if terms is None:
        terms = family[t] = _abel_terms(t)
    return terms


def abel_check(
    n: int, family: dict[int, tuple] | None = None
) -> tuple[dict[int, Polynomial], dict[int, Polynomial]]:
    """The two sides of the four divisor-indexed Abel-analog identities at
    n, as polynomials in phi, beta and prime logarithms: ``(left, right)``,
    each keyed 1..4 by identity.  The identities hold when the sides are
    equal.  They are (1) the addition rule of the shifted family, (2) its
    variant absorbing one shift into a plain power, (3) the connection to
    plain powers, stated with a quotient by log n, so both of its sides
    are multiplied through by log n, and (4) the inversion back to the
    plain power.

    ``family`` is a table of the terms of the proper divisors t < n, which
    a caller checking many n passes to every call: each call reads the
    terms of its proper divisors from it, adds those it lacks, and builds
    the terms of n itself without storing them."""
    if n < 2:
        raise ValueError("abel_check needs n >= 2")
    family = {} if family is None else family
    own = _abel_terms(n)
    s, f_n, a_n, b_n = own[:4]
    log_n = log_n_poly(n)
    log_powers = [ONE, *powers(log_n, s)]
    phi_beta = _phi + _beta
    left = {
        1: a_n.substitute(PHI, phi_beta),
        2: b_n.substitute(PHI, phi_beta),
        3: a_n * log_n,
        4: _phi**s,
    }
    pairs: dict[int, list] = {key: [] for key in left}
    for d in divisors(n):
        _, f_d, a_phi, b_phi, _, phi_log, neg_logs = own if d == n else _family_terms(family, d)
        k, f_k, _, _, a_beta, _, _ = own if d == 1 else _family_terms(family, n // d)
        w = f_n // (f_d * f_k)  # exact: the product of C(m, j) over the p^m exactly dividing n
        a_phi = a_phi * w
        if len(neg_logs) <= k:
            neg_logs[1:] = powers(neg_logs[1], k)
        pairs[1].append((a_phi, a_beta))
        pairs[2].append((b_phi * w, a_beta))
        pairs[3].append((phi_log * w, log_powers[k]))
        pairs[4].append((a_phi, neg_logs[k]))
    return left, {key: sum_of_products(p) for key, p in pairs.items()}


def classic_abel_check(p: int, m: int) -> tuple[dict[int, Polynomial], dict[int, Polynomial]]:
    """The two sides of the four classical Abel identities of degree m with
    a = log p, built directly from binomial coefficients: ``(left, right)``,
    each keyed 1..4 by identity.  At n = p**m they are also the sides that
    ``abel_check(n)`` builds from divisors."""
    if not is_prime(p) or m < 1:
        raise ValueError("needs a prime p and m >= 1")
    a = log_n_poly(p)

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

    Both right sides are ``log_power_sum``s.
    """
    lifted = lift_multiplicative(a, trunc)
    power = series_substitute_symbol(lifted, PSI, _phi)  # carries phi
    fam = _lagrange(lifted, beta, log_n_poly)
    want_f = log_power_sum(power.coeffs, fam, PHI, beta)
    want_b = log_power_sum(fam.coeffs, lifted, PSI, -beta)
    ns = range(2, trunc + 1)
    forward = ({("forward", n): fam[n] for n in ns}, {("forward", n): want_f[n] for n in ns})
    backward = ({("backward", n): power[n] for n in ns}, {("backward", n): want_b[n] for n in ns})
    return forward, backward


# ---------------------------------------------------------------------------
# expansion over log-indexed powers
# ---------------------------------------------------------------------------


def expand_over_basis(b: DirSeries, a: DirSeries, trunc: int) -> list[Polynomial]:
    """Coefficients c_n = [x^n] b o a^(log n) for n = 1..trunc: the sum
    over divisors d of n of b_d times [x^{n/d}] a^(psi) at psi = log n."""
    require_lead(a, 1, "expand_over_basis")
    p = dir_pow_param(a.truncated(trunc))
    b = b.truncated(trunc)
    out: list[Polynomial] = []
    for n in range(1, trunc + 1):
        log_n = log_n_poly(n)
        terms = ((b[d], p[n // d].substitute(PSI, log_n)) for d in divisors(n) if b[d])
        out.append(sum_of_products(terms))
    return out


def reconstruct_from_expansion(
    coeffs: list[Polynomial], a: DirSeries, trunc: int
) -> DirSeries:
    """Rebuild the expanded series: apply (x - (log o a)*) under composition
    to the sum over n of c_n times the (-log n)-power of the base evaluated
    at x^n, the ``log_power_sum`` of the c_n over a^(psi) with scale -1.
    Exact up to the truncation."""
    a = a.truncated(trunc)
    total = log_power_sum(coeffs, dir_pow_param(a), PSI, -1)
    lead = dir_x(trunc) - star_derivative(dir_log(a))
    return dir_mul(lead, total)
