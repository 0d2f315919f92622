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
* ``abel_check``      the four divisor-indexed identities generalizing the
                      classical Abel identities, evaluated as structural
                      polynomial identities,
* ``inverse_pair_check``  the pair of mutually inverse divisor-sum
                      relations satisfied by a lifted family,
* ``expand_over_basis``   expansion of a series over the log-indexed powers
                      of a base series, with an exact reconstruction.

Exponents like s(d) - 1 that would go negative at d = 1 never arise here:
every identity is evaluated through series coefficients (divide by the
power parameter first, then substitute), so the degenerate terms come out
as the correct constants automatically, and identities stated with a
quotient by log n are multiplied through by log n before comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import TruncationTooSmall
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
    dir_subst_xk,
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
    if a.trunc < top:
        raise TruncationTooSmall(f"need ordinary trunc >= {top}, have {a.trunc}")
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


@dataclass(frozen=True)
class LagrangeFamily:
    """A base series together with its shifted-power family, in either
    algebra; ``series`` has the kind of ``base``.

    ``series`` carries the derived coefficients: at the first index it is
    1, and at every later index n it is phi * q_n(phi + beta*shift(n)),
    where q_n is the exact quotient by psi of [x^n] of the parametric power
    of ``base`` and the shift is log n (composition) or n (ordinary).
    ``beta`` is either the symbol beta (symbolic mode) or a fixed rational,
    already folded into the coefficients.
    """

    base: Series
    beta: Polynomial
    series: Series

    def at_power(self, value: Polynomial | Scalar) -> Series:
        """Specialize the power parameter phi to a value."""
        return series_substitute_symbol(self.series, PHI, value)


def lagrange_dir(a: DirSeries, beta=None) -> LagrangeFamily:
    """Shifted-power family of a composition series with leading
    coefficient 1.  ``beta=None`` keeps beta symbolic."""
    return _lagrange(a, beta, dir_pow_param, log_n_poly)


def lagrange_ord(a: OrdSeries, beta=None) -> LagrangeFamily:
    """Ordinary-algebra counterpart: the shift at index n is beta*n."""
    return _lagrange(a, beta, ord_pow_param, lambda n: n)


def _lagrange(a: Series, beta, power, shift) -> LagrangeFamily:
    """The family of ``a`` from its parametric power ``power(a)`` and the
    index shift ``shift(n)`` (log n, or n itself)."""
    require_lead(a, 1, f"lagrange_{a.kind}")
    b = _beta if beta is None else as_poly(beta)
    p = power(a)
    out = [ONE]
    for n in range(a.first + 1, a.trunc + 1):
        # every term of [x^n] of the parametric power carries psi, so the
        # quotient is exact; a failure here is a structural bug
        q = p[n].divide_by_symbol(PSI)
        out.append(_phi * q.substitute(PSI, _phi + b * shift(n)))
    return LagrangeFamily(base=a, beta=b, series=type(a)(a.trunc, tuple(out)))


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


@dataclass(frozen=True)
class AbelReport:
    n: int
    results: tuple[bool, bool, bool, bool]
    failure: str | None

    @property
    def ok(self) -> bool:
        return all(self.results)


def abel_check(n: int) -> AbelReport:
    """Verify the four divisor-indexed Abel-analog identities at n as
    structural polynomial identities in phi, beta and prime logarithms."""
    if n < 2:
        raise ValueError("abel_check needs n >= 2")
    ds = divisors(n)
    weights = {d: binom_f(n, d) for d in ds}
    log_n = log_n_poly(n)
    s_n = s_of(n)

    # (1) addition rule for the shifted family
    lhs1 = _abel_A(_phi + _beta, n)
    rhs1 = ZERO
    for d in ds:
        rhs1 = rhs1 + _abel_A(_phi, d) * _abel_A(_beta, n // d) * weights[d]

    # (2) variant absorbing one shift into a plain power
    lhs2 = _abel_B(_phi + _beta, n)
    rhs2 = ZERO
    for d in ds:
        rhs2 = rhs2 + _abel_B(_phi, d) * _abel_A(_beta, n // d) * weights[d]

    # (3) connection to plain powers; stated with a quotient by log n, so
    # both sides are multiplied through by log n before comparison
    lhs3 = _abel_A(_phi, n) * log_n
    rhs3 = ZERO
    for d in ds:
        rhs3 = rhs3 + (_phi ** s_of(d)) * log_n_poly(d) * log_n ** s_of(n // d) * weights[d]

    # (4) inversion back to the plain power
    lhs4 = _phi**s_n
    rhs4 = ZERO
    for d in ds:
        rhs4 = rhs4 + _abel_A(_phi, d) * (-log_n_poly(d)) ** s_of(n // d) * weights[d]

    results = (lhs1 == rhs1, lhs2 == rhs2, lhs3 == rhs3, lhs4 == rhs4)
    failure = None
    for i, ok in enumerate(results, start=1):
        if not ok:
            pairs = ((lhs1, rhs1), (lhs2, rhs2), (lhs3, rhs3), (lhs4, rhs4))
            lhs, rhs = pairs[i - 1]
            failure = f"identity {i} at n={n}: {lhs} != {rhs} (difference {lhs - rhs})"
            break
    return AbelReport(n=n, results=results, failure=failure)


def classic_abel_check(p: int, m: int) -> tuple[bool, bool, bool, bool]:
    """The four classical Abel identities with a = log p, built directly
    from binomial coefficients, and compared against the divisor-indexed
    evaluator at n = p**m.  Returns one flag per identity."""
    if not is_prime(p) or m < 1:
        raise ValueError("needs a prime p and m >= 1")
    a = Polynomial.symbol(log_symbol(p))
    n = p**m

    def A(sym_poly: Polynomial, k: int) -> Polynomial:
        return ONE if k == 0 else sym_poly * (sym_poly + a * k) ** (k - 1)

    def B(sym_poly: Polynomial, k: int) -> Polynomial:
        return (sym_poly + a * k) ** k

    lhs1 = A(_phi + _beta, m)
    rhs1 = ZERO
    for k in range(m + 1):
        rhs1 = rhs1 + A(_phi, k) * A(_beta, m - k) * comb(m, k)

    lhs2 = B(_phi + _beta, m)
    rhs2 = ZERO
    for k in range(m + 1):
        rhs2 = rhs2 + B(_phi, k) * A(_beta, m - k) * comb(m, k)

    # identity (3) multiplied through by m*a
    lhs3 = A(_phi, m) * a * m
    rhs3 = ZERO
    for k in range(m + 1):
        rhs3 = rhs3 + _phi**k * (a * k) * (a * m) ** (m - k) * comb(m, k)

    lhs4 = _phi**m
    rhs4 = ZERO
    for k in range(m + 1):
        rhs4 = rhs4 + A(_phi, k) * (-a * k) ** (m - k) * comb(m, k)

    classic = (lhs1 == rhs1, lhs2 == rhs2, lhs3 == rhs3, lhs4 == rhs4)
    general = abel_check(n)
    return tuple(c and g for c, g in zip(classic, general.results))


# ---------------------------------------------------------------------------
# mutually inverse relations of a lifted family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InversePairReport:
    trunc: int
    beta: Fraction
    forward_ok: bool
    backward_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.forward_ok and self.backward_ok


def inverse_pair_check(a: OrdSeries, beta: Scalar, trunc: int) -> InversePairReport:
    """For the lifted family of an ordinary series, verify the pair of
    mutually inverse divisor-sum relations connecting the parametric power
    and its shifted family, for every n up to the truncation.

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

    failures: list[str] = []
    forward_ok = True
    backward_ok = True
    for n in range(2, trunc + 1):
        ds = divisors(n)
        rhs_f = ZERO
        rhs_b = ZERO
        for d in ds:
            rhs_f = rhs_f + power[d] * family_at(n // d, beta_val * log_n_poly(d))
            rhs_b = rhs_b + fam[d] * lifted[n // d].substitute(
                PSI, -beta_val * log_n_poly(d)
            )
        if fam[n] != rhs_f:
            forward_ok = False
            failures.append(f"forward relation fails at n={n}: {fam[n]} != {rhs_f}")
        if power[n] != rhs_b:
            backward_ok = False
            failures.append(f"backward relation fails at n={n}: {power[n]} != {rhs_b}")
    return InversePairReport(
        trunc=trunc,
        beta=beta_val,
        forward_ok=forward_ok,
        backward_ok=backward_ok,
        failures=tuple(failures),
    )


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
    total = dir_from_fn(trunc, lambda n: 0)
    for n in range(1, trunc + 1):
        c = coeffs[n - 1]
        if c.is_zero():
            continue
        rows = trunc // n
        spec = series_substitute_symbol(p.truncated(rows), PSI, -log_n_poly(n))
        placed = dir_subst_xk(
            DirSeries(trunc, spec.coeffs + (ZERO,) * (trunc - rows)), n
        )
        total = total + placed * c
    lead = dir_x(trunc) - star_derivative(dir_log(a))
    return dir_mul(lead, total)
