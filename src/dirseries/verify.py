"""Identity verification suites behind the ``verify`` CLI command.

Each suite re-derives a family of identities and reports one record per
identity (and per index n for the divisor-indexed families).  Records are
ordered by identity name and index regardless of evaluation order, and
every suite seeds its own random stream, so runs with ``--jobs`` produce
byte-identical reports.

``run_suites`` schedules a whole run at once.  With ``--jobs k`` above 1
it forks at most k workers (no more than there are cores or work items),
which inherit the work items and take them over pipes, heaviest first:
each suite is one item, except ``abel``, whose per-n checks go in chunks
of a few indices; every worker is reaped before the run returns.  With
one worker, or where ``os.fork`` is missing or fails, each suite runs
whole in process.
The Abel family terms of the divisors met so far are kept in a table, so
each term is built once per process, not once per divisor pair: an
in-process ``abel`` suite keeps its table for the call, and a worker
keeps its table for the worker's life, which ends with the run.

Suites: ``pow`` (composition powers), ``log`` (logarithms and the star
derivative), ``thm1`` (the multiplicative lift), ``thm2`` (shifted-power
families), ``thm3`` (the matrix group), ``abel`` (divisor-indexed Abel
analogs), ``binomf`` (the f-weighted binomial identities), ``oracle``
(cross-checks of independent computation paths), or ``all``.
"""

from __future__ import annotations

import json
import os
import random
import select
import time
from collections import Counter
from fractions import Fraction
from math import comb, factorial
from typing import Callable, NamedTuple

from .errors import ArgumentOutOfRange
from .intfactor import (
    binom_f,
    divisors,
    f_of,
    factorize,
    is_prime,
    mobius_upto,
    s_max,
    s_of,
)
from .matrices import (
    DirMatrix,
    apply_to_series,
    build_column,
    build_mixed,
    build_mult,
    build_rd,
    build_riordan_ord,
    diagonal_log_matrix,
    exp_conjugate,
    identity_matrix,
    matmul,
    rd_action,
    rd_inverse,
    rd_multiply,
    row_polynomial,
)
from .partitions import bell_B, bell_btilde, ordered_factorizations
from .poly import (
    BETA,
    ONE,
    PHI,
    PSI,
    ZERO,
    Polynomial,
    binom_poly,
    log_n_poly,
    powers,
    rising_poly,
)
from .randgen import random_dir_series, random_ord_series, random_polynomial
from .series import (
    Series,
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
    ord_from_fn,
    ord_log,
    ord_mul,
    ord_one,
    ord_x,
    perfect_power_embed,
    series_substitute_symbol,
    star_derivative,
    twist_int,
)
from .transforms import (
    abel_check,
    classic_abel_check,
    eps,
    eps_param,
    expand_over_basis,
    expx,
    geom2,
    inverse_pair_check,
    lagrange_dir,
    lagrange_middle_member,
    lagrange_ord,
    lift_multiplicative,
    onepx,
    prime_indicator,
    reconstruct_from_expansion,
    zeta,
)

_phi = Polynomial.symbol(PHI)
_beta = Polynomial.symbol(BETA)
_psi = Polynomial.symbol(PSI)


class CheckResult(NamedTuple):
    ident: str
    n: int
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f"  {self.detail}" if (self.detail and not self.ok) else ""
        return f"{status} {self.ident} n={self.n}{suffix}"


def _rng(tag: str) -> random.Random:
    return random.Random(f"dirseries.verify.{tag}")


def _first_mismatch(got, want) -> str:
    """Name the first place where ``got`` and ``want`` differ and both values
    there: the index of two series of one kind, the entry key of two
    matrices, the key of two dicts, and otherwise the two whole values."""
    left = right = None
    absent = "absent"
    if isinstance(got, Series) and type(got) is type(want):
        left = dict(enumerate(got.coeffs, got.first))
        right = dict(enumerate(want.coeffs, want.first))
    elif isinstance(got, DirMatrix) and isinstance(want, DirMatrix):
        left, right, absent = got.entries, want.entries, ZERO
    elif isinstance(got, dict) and isinstance(want, dict):
        left, right = got, want
    if left is not None:
        for key in sorted(left.keys() | right.keys()):
            g, w = left.get(key, absent), right.get(key, absent)
            if g != w:
                return f"first mismatch at {key}: {g} != {w}"
    return f"first mismatch at whole value: {got} != {want}"


def _check(ident: str, n: int, *pairs: tuple[object, object]) -> CheckResult:
    """One record: it passes when every ``(got, want)`` pair is equal, and
    otherwise names the first mismatch of the first unequal pair."""
    for got, want in pairs:
        if got != want:
            return CheckResult(ident, n, False, _first_mismatch(got, want))
    return CheckResult(ident, n, True)


def _prime_power_exponent(n: int) -> int:
    """m when n = p**m for a prime p, and 0 otherwise."""
    f = factorize(n)
    return f[0][1] if len(f) == 1 else 0


# ---------------------------------------------------------------------------
# pow
# ---------------------------------------------------------------------------


def suite_pow(bound: int | None = None) -> list[CheckResult]:
    rng = _rng("pow")
    out: list[CheckResult] = []
    size = bound or 64

    a = random_dir_series(rng, size)
    b = random_dir_series(rng, size, lead=Fraction(1, 2))
    out.append(_check("pow.commutative", size, (dir_mul(a, b), dir_mul(b, a))))

    for i in range(3):
        s = random_dir_series(rng, size)
        p = dir_pow_param(s)
        lhs = dir_mul(
            series_substitute_symbol(p, PSI, _phi),
            series_substitute_symbol(p, PSI, _beta),
        )
        rhs = series_substitute_symbol(p, PSI, _phi + _beta)
        out.append(_check(f"pow.group-law.{i}", size, (lhs, rhs)))

    half = max(2, min(size, 32))
    s = random_dir_series(rng, half)
    p = dir_pow_param(s)
    for k in (2, 3):
        lhs = dir_pow_param(dir_pow_int(s, k))
        rhs = series_substitute_symbol(p, PSI, _psi * k)
        out.append(_check(f"pow.iterated.{k}", half, (lhs, rhs)))

    mid = max(2, min(size, 48))
    u = random_dir_series(rng, mid)
    v = random_dir_series(rng, mid)
    rhs = dir_mul(dir_pow_param(u), dir_pow_param(v))
    out.append(_check("pow.product-rule", mid, (dir_pow_param(dir_mul(u, v)), rhs)))

    p = dir_pow_param(a)
    out.append(
        _check(
            "pow.int-specialization",
            size,
            (series_substitute_symbol(p, PSI, 3), dir_pow_int(a, 3)),
            (series_substitute_symbol(p, PSI, 0), dir_x(size)),
        )
    )
    w = random_dir_series(rng, mid)
    lhs = series_substitute_symbol(dir_pow_param(w), PSI, -2)
    out.append(_check("pow.negative-paths", mid, (lhs, dir_pow_int(w, -2))))

    for k in (1, 2, -1):
        lhs = twist_int(dir_mul(a, b), k)
        rhs = dir_mul(twist_int(a, k), twist_int(b, k))
        out.append(_check(f"pow.twist-homomorphism.{k}", size, (lhs, rhs)))

    embed_n = max(4, min(bound or 256, 256))
    oa = random_ord_series(rng, 8)
    ob = random_ord_series(rng, 8)
    lhs = dir_mul(perfect_power_embed(oa, 2, embed_n), perfect_power_embed(ob, 2, embed_n))
    rhs = perfect_power_embed(ord_mul(oa, ob), 2, embed_n)
    out.append(_check("pow.embed-homomorphism", embed_n, (lhs, rhs)))

    two = dir_from_fn(16, lambda n: 1 if n in (1, 2) else 0)
    want = dir_from_fn(16, lambda n: comb(3, s_max(n)) if n in (1, 2, 4, 8) else 0)
    out.append(_check("pow.binomial-support", 16, (dir_pow_int(two, 3), want)))

    xk = dir_from_fn(size, lambda n: 1 if n == 5 else 0)
    out.append(_check("pow.subst-xk", size, (dir_subst_xk(a, 5), dir_mul(xk, a))))
    return out


# ---------------------------------------------------------------------------
# log
# ---------------------------------------------------------------------------


def suite_log(bound: int | None = None) -> list[CheckResult]:
    rng = _rng("log")
    out: list[CheckResult] = []
    size = bound or 64

    a = random_dir_series(rng, size)
    b = random_dir_series(rng, size)
    rhs = dir_log(a) + dir_log(b)
    out.append(_check("log.homomorphism", size, (dir_log(dir_mul(a, b)), rhs)))
    rhs = dir_pow_param(a)
    out.append(_check("log.exp-roundtrip", size, (dir_exp_param(dir_log(a)), rhs)))

    half = max(2, min(size, 32))
    s = random_dir_series(rng, half)
    rhs = dir_log(s) * _psi
    out.append(_check("log.power-scaling", half, (dir_log(dir_pow_param(s)), rhs)))

    span = bound or 200
    want = dir_from_fn(span, lambda n: Fraction(1, m) if (m := _prime_power_exponent(n)) else 0)
    out.append(_check("log.zeta-prime-powers", span, (dir_log(zeta(span)), want)))
    out.append(_check("log.eps-primes", span, (dir_log(eps(span)), prime_indicator(span))))

    mid = max(2, min(size, 48))
    u = random_dir_series(rng, mid, lead=Fraction(1, 3))
    v = random_dir_series(rng, mid, lead=Fraction(-2))
    rhs = dir_mul(u, star_derivative(v)) + dir_mul(star_derivative(u), v)
    out.append(_check("log.star-leibniz", mid, (star_derivative(dir_mul(u, v)), rhs)))

    s = random_dir_series(rng, half)
    p = dir_pow_param(s)
    rhs = dir_mul(series_substitute_symbol(p, PSI, _psi - 1), star_derivative(s))
    rhs = rhs * _psi
    out.append(_check("log.star-chain", half, (star_derivative(p), rhs)))

    w = random_dir_series(rng, mid)
    rhs = dir_mul(star_derivative(w), dir_inverse(w))
    out.append(_check("log.star-of-log", mid, (star_derivative(dir_log(w)), rhs)))

    # row polynomials of the conjugated column matrix match the factorial
    # sums of the factorization polynomials of the log coefficients
    small = max(4, min(size, 16))
    t = random_dir_series(rng, small)
    lg = dir_log(t)
    conj = exp_conjugate(build_column(lg, small))
    values = [lg[k] for k in range(2, small + 1)]
    rows, sums = {}, {}
    for n in range(2, small + 1):
        rows[n] = row_polynomial(conj, n, PHI)
        sums[n] = ZERO
        for m in range(1, s_max(n) + 1):
            term = bell_btilde(n, m, values)
            sums[n] = sums[n] + term * _phi**m * Fraction(factorial(n), factorial(m))
    out.append(_check("log.row-polynomials", small, (rows, sums)))
    return out


# ---------------------------------------------------------------------------
# thm1
# ---------------------------------------------------------------------------


def _zeta_power_coeff(n: int) -> Polynomial:
    """[x^n] of zeta^(psi): the product of rising(psi, m) / m! over the
    prime powers p^m exactly dividing n."""
    out = ONE
    for _, m in factorize(n):
        out = out * rising_poly(PSI, m) * Fraction(1, factorial(m))
    return out


def suite_thm1(bound: int | None = None) -> list[CheckResult]:
    rng = _rng("thm1")
    out: list[CheckResult] = []
    size = bound or 60
    # the lift to size reads multiplicities up to log2(size)
    order = max(8, s_max(size))

    for i in range(2):
        a = random_ord_series(rng, order)
        b = random_ord_series(rng, order)
        la = lift_multiplicative(a, size)
        lb = lift_multiplicative(b, size)
        lc = lift_multiplicative(ord_mul(a, b), size)
        out.append(_check(f"thm1.homomorphism.{i}", size, (dir_mul(la, lb), lc)))

    a = random_ord_series(rng, order)
    lifted = lift_multiplicative(a, size)
    base = series_substitute_symbol(lifted, PSI, 1)
    out.append(_check("thm1.power-family", size, (dir_pow_param(base), lifted)))

    span = bound or 120
    want = dir_from_fn(span, _zeta_power_coeff)
    out.append(_check("thm1.zeta-closed-form", span, (dir_pow_param(zeta(span)), want)))

    want = dir_from_fn(span, lambda n: _psi ** s_of(n) * Fraction(1, f_of(n)))
    out.append(_check("thm1.eps-closed-form", span, (eps_param(span), want)))

    lhs = lift_multiplicative(expx(order), size)
    out.append(_check("thm1.eps-from-exp", size, (lhs, eps_param(size))))

    sq = series_substitute_symbol(lift_multiplicative(onepx(order), size), PSI, 1)
    want = dir_from_fn(size, lambda n: 1 if all(m == 1 for _, m in factorize(n)) else 0)
    out.append(_check("thm1.squarefree", size, (sq, want)))

    # the log of the lift at psi = 1 lives on the prime powers p^m, where it
    # is [x^m] of the ordinary log
    olg = ord_log(a)
    want = dir_from_fn(size, lambda n: olg[m] if (m := _prime_power_exponent(n)) else 0)
    out.append(_check("thm1.log-support", size, (dir_log(base), want)))

    le = dir_log(eps(span))
    pairs = [
        (
            dir_pow_int(le, m),
            dir_from_fn(span, lambda n: Fraction(factorial(m), f_of(n)) if s_of(n) == m else 0),
        )
        for m in (1, 2, 3)
    ]
    out.append(_check("thm1.log-eps-powers", span, *pairs))
    return out


# ---------------------------------------------------------------------------
# thm2
# ---------------------------------------------------------------------------


def _ord_binomial_coeff(n: int) -> Polynomial | int:
    """[x^n] of the shifted family of 1 + x: 1 at n = 0, and otherwise
    phi/n! times the product of phi + beta*n - i for i = 1..n-1."""
    if n == 0:
        return 1
    out = _phi
    for i in range(1, n):
        out = out * (_phi + _beta * n - i)
    return out * Fraction(1, factorial(n))


def suite_thm2(bound: int | None = None) -> list[CheckResult]:
    rng = _rng("thm2")
    out: list[CheckResult] = []
    size = bound or 64

    # psi divides a coefficient exactly when it vanishes at psi = 0
    p = dir_pow_param(random_dir_series(rng, size))
    at_zero = {n: p[n].substitute(PSI, 0) for n in range(2, size + 1)}
    zeros = dict.fromkeys(at_zero, ZERO)
    out.append(_check("thm2.divisibility", size, (at_zero, zeros)))

    bases = {
        "eps": eps(size),
        "zeta": zeta(size),
        "random": random_dir_series(rng, size),
    }
    for name, base in bases.items():
        fam = lagrange_dir(base)
        mid = lagrange_middle_member(base)
        want = dir_from_fn(size, lambda n: mid[n].substitute(PSI, _phi + _beta * log_n_poly(n)))
        out.append(_check(f"thm2.coefficient-law.{name}", size, (fam, want)))

    pair_size = max(4, min(bound or 24, 24))
    pair_bases = {"eps": eps(pair_size), "random": random_dir_series(rng, pair_size)}
    for name, base in pair_bases.items():
        for beta_val in (Fraction(1), Fraction(-1), Fraction(2)):
            neg = series_substitute_symbol(dir_pow_param(base), PSI, -beta_val)
            shifted = series_substitute_symbol(lagrange_dir(base, beta_val), PHI, beta_val)
            prod = matmul(
                build_rd(dir_x(pair_size), neg, pair_size),
                build_rd(dir_x(pair_size), shifted, pair_size),
            )
            ident = f"thm2.inverse-pairing.{name}.beta={beta_val}"
            out.append(_check(ident, pair_size, (prod, identity_matrix(pair_size))))

    row_size = max(4, min(bound or 16, 16))
    for name, base in (("eps", eps(row_size)), ("zeta", zeta(row_size))):
        base_rows = exp_conjugate(build_column(dir_log(base), row_size))
        shifted = series_substitute_symbol(lagrange_dir(base, Fraction(1)), PHI, 1)
        shifted_rows = exp_conjugate(build_column(dir_log(shifted), row_size))
        lhs, rhs = {}, {}
        for n in range(1, row_size + 1):
            log_n = log_n_poly(n)
            lhs[n] = (_phi + log_n) * row_polynomial(shifted_rows, n, PHI)
            rhs[n] = _phi * row_polynomial(base_rows, n, PHI).substitute(PHI, _phi + log_n)
        out.append(_check(f"thm2.row-shift.{name}", row_size, (lhs, rhs)))

    ord_size = max(4, min(bound or 24, 24))
    fam = lagrange_ord(onepx(ord_size))
    want = ord_from_fn(ord_size, _ord_binomial_coeff)
    out.append(_check("thm2.ord-binomial", ord_size, (fam, want)))

    fam = lagrange_ord(expx(ord_size))
    want = ord_from_fn(
        ord_size,
        lambda n: _phi * (_phi + _beta * n) ** (n - 1) * Fraction(1, factorial(n)) if n else 1,
    )
    out.append(_check("thm2.ord-exponential", ord_size, (fam, want)))

    rel_size = max(4, min(bound or 40, 60))
    for name, a, beta in (
        ("exp", expx(8), Fraction(1)),
        ("geom", ord_from_fn(8, lambda n: 1), Fraction(1)),
        ("random", random_ord_series(rng, 8), Fraction(-2, 3)),
    ):
        pairs = inverse_pair_check(a, beta, rel_size)
        out.append(_check(f"thm2.inverse-relations.{name}", rel_size, *pairs))

    exp_size = max(4, min(bound or 32, 32))
    for i in range(2):
        base = random_dir_series(rng, exp_size)
        target = random_dir_series(rng, exp_size, lead=Fraction(2))
        coeffs = expand_over_basis(target, base, exp_size)
        got = reconstruct_from_expansion(coeffs, base, exp_size)
        out.append(_check(f"thm2.expand-roundtrip.{i}", exp_size, (got, target)))
    return out


# ---------------------------------------------------------------------------
# thm3
# ---------------------------------------------------------------------------


def suite_thm3(bound: int | None = None) -> list[CheckResult]:
    rng = _rng("thm3")
    out: list[CheckResult] = []
    size = max(4, min(bound or 24, 24))

    for i in range(2):
        b = random_dir_series(rng, size, lead=Fraction(rng.randint(1, 3)))
        a = random_dir_series(rng, size)
        f = random_dir_series(rng, size, lead=Fraction(rng.randint(1, 2)))
        g = random_dir_series(rng, size)
        m1, m2 = build_rd(b, a, size), build_rd(f, g, size)
        prod = rd_multiply((b, a), (f, g), size)
        out.append(_check(f"thm3.group-law.{i}", size, (prod, matmul(m1, m2))))

    small = max(4, min(bound or 16, 16))
    b = random_dir_series(rng, small, lead=Fraction(2))
    a = random_dir_series(rng, small)
    m = build_rd(b, a, small)
    x = dir_x(small)
    e = build_rd(x, x, small)
    one = identity_matrix(small)
    right, left = rd_multiply((b, a), (x, x), small), rd_multiply((x, x), (b, a), small)
    out.append(_check("thm3.identity-axiom", small, (right, m), (left, m), (e, one)))
    inv = rd_inverse(m)
    out.append(
        _check("thm3.inverse-axiom", small, (matmul(m, inv), one), (matmul(inv, m), one))
    )

    a = random_dir_series(rng, size)
    b = random_dir_series(rng, size)
    lhs = matmul(build_rd(dir_x(size), a, size), build_rd(dir_x(size), b, size))
    rhs = build_rd(dir_x(size), dir_mul(a, rd_action(a, b)), size)
    out.append(_check("thm3.compose-rule", size, (lhs, rhs)))

    c = random_dir_series(rng, size, lead=Fraction(1, 2))
    lhs = matmul(build_rd(dir_x(size), a, size), build_mult(c, size))
    rhs = build_rd(rd_action(a, c), a, size)
    out.append(_check("thm3.mult-rule", size, (lhs, rhs)))

    rhs = apply_to_series(build_rd(dir_x(size), a, size), c)
    out.append(_check("thm3.action-oracle", size, (rd_action(a, c), rhs)))

    u = random_dir_series(rng, size, lead=Fraction(3))
    v = random_dir_series(rng, size, lead=Fraction(-1, 2))
    mu, mv = build_mult(u, size), build_mult(v, size)
    out.append(_check("thm3.mult-commute", size, (matmul(mu, mv), matmul(mv, mu))))

    za = random_dir_series(rng, small, lead=0)
    f_ord = random_ord_series(rng, 4, const=Fraction(2))
    g_ord = random_ord_series(rng, 4, const=0)
    col = build_column(za, small)
    lhs = matmul(col, build_riordan_ord(f_ord, ord_x(col.col_hi), col.col_hi))
    rhs = build_mixed(dir_apply_series(f_ord, za), za, small)
    out.append(_check("thm3.column-mult", small, (lhs, rhs)))

    lhs = matmul(col, build_riordan_ord(ord_one(col.col_hi), g_ord, col.col_hi))
    rhs = build_column(dir_apply_series(g_ord, za), small)
    out.append(_check("thm3.column-compose", small, (lhs, rhs)))

    zb = random_dir_series(rng, small, lead=Fraction(1, 3))
    mixed = build_mixed(zb, za, small)
    lhs = matmul(mixed, build_riordan_ord(f_ord, g_ord, mixed.col_hi))
    rhs = build_mixed(
        dir_mul(zb, dir_apply_series(f_ord, za)), dir_apply_series(g_ord, za), small
    )
    out.append(_check("thm3.mixed-riordan", small, (lhs, rhs)))

    fr = random_dir_series(rng, small, lead=Fraction(2))
    gr = random_dir_series(rng, small)
    lhs = matmul(build_rd(fr, gr, small), mixed)
    rhs = build_mixed(dir_mul(fr, rd_action(gr, zb)), rd_action(gr, za), small)
    out.append(_check("thm3.complementary", small, (lhs, rhs)))

    w = random_dir_series(rng, small)
    dlog = diagonal_log_matrix(small)
    lhs = matmul(dlog, build_rd(dir_x(small), w, small))
    shifted = dir_x(small) + star_derivative(dir_log(w))
    rhs = matmul(build_rd(shifted, w, small), dlog)
    out.append(_check("thm3.star-conjugation", small, (lhs, rhs)))

    # the nonzero entries of row n of the multiplication matrix of the
    # series at psi = log n, against the entries stacked column by column
    s = random_dir_series(rng, small)
    p = dir_pow_param(s)
    mid = dir_mul(dir_x(small) - star_derivative(dir_log(s)), p)
    pairs = []
    for series in (p, mid):
        stacked: dict[tuple[int, int], Polynomial] = {}
        for mcol in range(1, small + 1):
            for j in range(1, small // mcol + 1):
                val = series[j].substitute(PSI, log_n_poly(j * mcol))
                if val:
                    stacked[(j * mcol, mcol)] = val
        rows: dict[tuple[int, int], Polynomial] = {}
        for n in range(1, small + 1):
            spec = series_substitute_symbol(series, PSI, log_n_poly(n))
            for k, val in enumerate(build_mult(spec, small).row(n), start=1):
                if val:
                    rows[(n, k)] = val
        pairs.append((rows, stacked))
    out.append(_check("thm3.row-scaffolding", small, *pairs))

    lhs = build_rd(zb, gr, small)
    rhs = matmul(build_mult(zb, small), build_rd(dir_x(small), gr, small))
    out.append(_check("thm3.rd-factorization", small, (lhs, rhs)))
    return out


# ---------------------------------------------------------------------------
# abel (per-n, in chunks that a pool can take one at a time) and binomf
# ---------------------------------------------------------------------------

# indices per chunk: enough to amortize a round trip to a pool worker
_CHUNK = 8


def _chunks(ns: range) -> list[range]:
    return [ns[i : i + _CHUNK] for i in range(0, len(ns), _CHUNK)]


# the Abel family terms of the proper divisors met so far in a forked
# worker, shared by the abel chunks it runs; it lives as long as the
# worker, which exits with its run.  An in-process ``suite_abel`` passes
# its own table instead.
_ABEL_TERMS: dict[int, tuple] = {}


def _abel_chunk(ns: range, family: dict = _ABEL_TERMS) -> list[CheckResult]:
    return [_check("abel.identities", n, abel_check(n, family)) for n in ns]


def _classic_chunk(pairs: list[tuple[int, int]], family: dict = _ABEL_TERMS) -> list[CheckResult]:
    """The classical identities, and the divisor-indexed sides at p**m
    against the classical ones: at n = p**m the divisor weights are the
    binomials C(m, k) and log p**k is k * log p."""
    out = []
    for p, m in pairs:
        left, right = classic_abel_check(p, m)
        general_left, general_right = abel_check(p**m, family)
        sides = (left, right), (general_left, left), (general_right, right)
        out.append(_check(f"abel.classic.p={p}", p**m, *sides))
    return out


def _abel_parts(bound: int | None) -> list[tuple[Callable, object]]:
    top = bound or 200
    pairs = [(p, m) for p in (2, 3) for m in range(1, 8) if p**m <= max(top, 2**7)]
    return [(_abel_chunk, ns) for ns in _chunks(range(2, top + 1))] + [(_classic_chunk, pairs)]


def suite_abel(bound: int | None = None) -> list[CheckResult]:
    family: dict[int, tuple] = {}  # one table for the parts of this call
    return [rec for fn, arg in _abel_parts(bound) for rec in fn(arg, family)]


def suite_binomf(bound: int | None = None) -> list[CheckResult]:
    out = []
    for n in range(1, (bound or 500) + 1):
        weights = {d: binom_f(n, d) for d in divisors(n)}
        out.append(_check("binomf.sum-power", n, (sum(weights.values()), 2 ** s_of(n))))
        mirrored = {d: weights[n // d] for d in weights}
        out.append(_check("binomf.symmetry", n, (weights, mirrored)))
        if not is_prime(n):
            alt = ZERO
            for d, weight in weights.items():
                alt = alt + log_n_poly(d) * weight * Fraction((-1) ** s_of(n // d))
            out.append(_check("binomf.log-alternating", n, (alt, ZERO)))
    return out


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def suite_oracle(bound: int | None = None) -> list[CheckResult]:
    rng = _rng("oracle")
    out: list[CheckResult] = []

    trials = [tuple(random_polynomial(rng) for _ in range(3)) for _ in range(12)]
    distributive = ({i: p * (q + r) for i, (p, q, r) in enumerate(trials)},
                    {i: p * q + p * r for i, (p, q, r) in enumerate(trials)})
    associative = ({i: (p * q) * r for i, (p, q, r) in enumerate(trials)},
                   {i: p * (q * r) for i, (p, q, r) in enumerate(trials)})
    out.append(_check("oracle.ring-axioms", 12, distributive, associative))

    polys = dict(enumerate(random_polynomial(rng) for _ in range(12)))
    quotients = {i: (p * _phi).divide_by_symbol(PHI) for i, p in polys.items()}
    out.append(_check("oracle.divide-roundtrip", 12, (quotients, polys)))

    trials = []
    for _ in range(12):
        p, q = random_polynomial(rng), random_polynomial(rng)
        env = {PHI: Fraction(rng.randint(-5, 5)), BETA: Fraction(rng.randint(-5, 5)),
               "L2": Fraction(rng.randint(-5, 5))}
        trials.append((p, q, env))
    products = ({i: (p * q).eval_at(env) for i, (p, q, env) in enumerate(trials)},
                {i: p.eval_at(env) * q.eval_at(env) for i, (p, q, env) in enumerate(trials)})
    out.append(_check("oracle.eval-multiplicative", 12, products))

    grid = [(m, t) for m in range(0, 6) for t in range(m, m + 6)]
    values = ({(m, t): binom_poly(PHI, m).eval_at({PHI: t}) for m, t in grid},
              {(m, t): comb(t, m) for m, t in grid})
    out.append(_check("oracle.binom-integer", 6, values))

    # row by row, so that one row of the table is held at a time; the left
    # side is built from the factorization of n*m, the right from logs[n]
    span = min(bound or 100, 100)
    cols = range(1, span + 1)
    logs = dict(zip(cols, map(log_n_poly, cols)))
    rows_ident = "oracle.log-additivity"
    rows = (
        _check(rows_ident, span, ({(n, m): log_n_poly(n * m) for m in cols},
                                  {(n, m): logs[n] + logs[m] for m in cols}))
        for n in cols
    )
    out.append(next((r for r in rows if not r.ok), CheckResult(rows_ident, span, True)))

    mob = bound or 1000
    mu = mobius_upto(mob)
    want = dir_from_fn(mob, lambda n: mu[n])
    out.append(_check("oracle.mobius", mob, (dir_inverse(zeta(mob)), want)))

    span = min(bound or 200, 200)
    z = zeta(span)
    want = dir_from_fn(span, lambda n: len(divisors(n)))
    out.append(_check("oracle.divisor-count", span, (dir_mul(z, z), want)))

    size = min(bound or 64, 64)
    a = random_dir_series(rng, size)
    lhs = dir_mul(a, dir_inverse(a))
    out.append(_check("oracle.inverse-roundtrip", size, (lhs, dir_x(size))))

    span = min(bound or 120, 120)
    grid = [(n, m) for n in range(2, span + 1) for m in range(1, s_of(n) + 1)]
    counts = ({(n, m): bell_btilde(n, m, [1] * (n - 1)) for n, m in grid},
              {(n, m): len(ordered_factorizations(n, m)) for n, m in grid})
    out.append(_check("oracle.btilde-counts", span, counts))

    lhs, rhs = {}, {}
    for n in range(2, span + 1):
        lhs[n] = ZERO
        for m in range(1, s_of(n) + 1):
            lhs[n] = lhs[n] + binom_poly(PHI, m) * bell_btilde(n, m, [1] * (n - 1))
        rhs[n] = ONE
        for _, s in factorize(n):
            rhs[n] = rhs[n] * binom_poly(PHI, s).substitute(PHI, _phi + (s - 1))
    out.append(_check("oracle.btilde-binomial", span, (lhs, rhs)))

    size = min(bound or 24, 24)
    vals = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(size)]
    base = ord_from_fn(size, lambda n: 0 if n == 0 else vals[n - 1])
    bell, cauchy = {}, {}
    for m, power in enumerate(powers(base, size), start=1):
        for n in range(m, size + 1):
            bell[(n, m)], cauchy[(n, m)] = bell_B(n, m, vals), power[n]
    out.append(_check("oracle.bell-cauchy", size, (bell, cauchy)))

    col2 = dir_apply_series(ord_from_fn(8, lambda n: 1 if n == 2 else 0), geom2(13))
    golden = {4: 1, 6: 2, 8: 2, 9: 1, 10: 2, 12: 4}
    out.append(_check("oracle.apply-series-golden", 13, ({n: col2[n] for n in golden}, golden)))

    rows = {
        1: (1, 0, 0, 0), 2: (0, 1, 0, 0), 3: (0, 1, 0, 0), 4: (0, 1, 1, 0),
        5: (0, 1, 0, 0), 6: (0, 1, 2, 0), 7: (0, 1, 0, 0), 8: (0, 1, 2, 1),
        9: (0, 1, 1, 0), 10: (0, 1, 2, 0), 11: (0, 1, 0, 0), 12: (0, 1, 4, 3),
    }
    m = build_column(geom2(13), 13)
    got = {(n, k): v for n in rows for k, v in enumerate(m.row(n), start=m.col_lo)}
    want = {(n, k): v for n, row in rows.items() for k, v in enumerate(row)}
    out.append(_check("oracle.column-golden", 13, (got, want)))
    return out


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

# the suites from the slowest to the fastest at the default bounds, as
# timed in process (oracle and thm2 take about half of the run between
# them); the workers take the whole suites in this order
SUITES = ("oracle", "thm2", "abel", "thm3", "binomf", "pow", "log", "thm1")


# a work item is (suite, index, fn, arg): the part at position ``index`` of
# the suite, whose records are ``fn(arg)``; forked workers inherit them
_Item = tuple[str, int, Callable, object]


def _whole_suite(args: tuple[str, int | None]) -> list[CheckResult]:
    name, bound = args
    return globals()[f"suite_{name}"](bound)


def _pool_items(selected: list[str], bound: int | None) -> list[_Item]:
    """The work items of the selected suites, heaviest first: the suites
    that run whole, slowest first, then the chunks of ``abel``, largest n
    first; each chunk is lighter than any whole suite."""
    by_cost = sorted(selected, key=SUITES.index)
    items = [(name, 0, _whole_suite, (name, bound)) for name in by_cost if name != "abel"]
    if "abel" in selected:
        parts = list(enumerate(_abel_parts(bound)))
        items.extend(("abel", i, fn, arg) for i, (fn, arg) in reversed(parts))
    return items


def _run_item(fn: Callable, arg: object) -> tuple[list[CheckResult] | None, str, float]:
    """The records of one part, or None and the repr of what it raised,
    with its wall seconds."""
    start = time.perf_counter()
    # a broken build may raise instead of producing a mismatch; either way
    # the suite must report a failure, not crash the runner
    try:
        records, error = fn(arg), ""
    except Exception as exc:  # noqa: BLE001
        records, error = None, repr(exc)
    return records, error, time.perf_counter() - start


def _serve(items: list[_Item], tasks: int, results: int, inherited: list[int]) -> None:
    """A forked worker: close the ``inherited`` pipe ends, then for each
    position read from ``tasks`` write ``[position, records or null, error,
    seconds]`` as one JSON line to ``results``.  It leaves through
    ``os._exit``, so the parent's exit hooks and buffers stay the parent's."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(tasks) as inbox, open(results, "w") as outbox:
            for line in inbox:
                index = int(line)
                print(json.dumps([index, *_run_item(*items[index][2:])]), file=outbox, flush=True)
        code = 0
    finally:
        os._exit(code)


def _pool_outcomes(items: list[_Item], workers: int):
    """Fork ``workers`` processes, which inherit ``items``, and return an
    iterator of each item with its outcome as it finishes, or None where
    processes cannot be started.  A worker is sent the position of its
    next item as its last outcome arrives; an item whose worker dies, or
    that no worker is left to run, gets an error outcome.  Every worker is
    reaped before the iterator ends or is closed.  (``verify`` starts no
    thread, so forking is safe.)"""
    if not hasattr(os, "fork"):
        return None
    pool: dict = {}  # result pipe -> [pid, task pipe, position of its item or None]

    def stop() -> None:
        for pipe, (pid, task, _) in pool.items():
            os.close(task)
            pipe.close()
            os.waitpid(pid, 0)

    fresh: list[int] = []  # the pipe ends of the worker being started
    try:
        for _ in range(workers):
            fresh = list(os.pipe())
            fresh += os.pipe()
            task_r, task_w, result_r, result_w = fresh
            pid = os.fork()
            if not pid:
                held = [fd for pipe, (_, task, _) in pool.items() for fd in (pipe.fileno(), task)]
                _serve(items, task_r, result_w, [*held, task_w, result_r])
            os.close(task_r)
            os.close(result_w)
            fresh = []
            pool[open(result_r, "rb")] = [pid, task_w, None]
    except OSError:  # sandboxed environments may forbid new processes
        for fd in fresh:
            os.close(fd)
        stop()
        return None
    todo = iter(range(len(items)))

    def give(worker: list) -> None:
        worker[2] = next(todo, None)
        if worker[2] is not None:
            try:
                os.write(worker[1], b"%d\n" % worker[2])
            except BrokenPipeError:  # it died; its result pipe ends unanswered
                pass

    def finished():
        died = ""
        try:
            for worker in pool.values():
                give(worker)
            while busy := [pipe for pipe, worker in pool.items() if worker[2] is not None]:
                for pipe in select.select(busy, [], [])[0]:
                    line, (pid, task, position) = pipe.readline(), pool[pipe]
                    if line.endswith(b"\n"):
                        _, records, error, seconds = json.loads(line)
                        records = records and [CheckResult(*record) for record in records]
                        give(pool[pipe])
                        yield items[position], (records, error, seconds)
                        continue
                    del pool[pipe]
                    pipe.close()
                    os.close(task)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    died = f"a verify worker ended with exit code {code}"
                    yield items[position], (None, died, 0.0)
            for position in todo:  # every worker died
                yield items[position], (None, died, 0.0)
        finally:
            stop()

    return finished()


def _suite_records(name: str, parts: list[tuple]) -> list[CheckResult]:
    """A suite's records from the outcomes of its parts, given as (index,
    records, error, seconds): one exception record, with the error of the
    first part that raised, as an in-process run meets it, if any did."""
    errors = [(index, error) for index, _, error, _ in parts if error]
    if errors:
        return [CheckResult(f"{name}.exception", 0, False, min(errors)[1])]
    return [rec for _, records, _, _ in parts for rec in records]


def _ignore_timing(name: str, seconds: float, records: int) -> None:
    pass


def run_suites(
    names: list[str],
    bound: int | None = None,
    jobs: int = 1,
    on_suite_done: Callable[[str, float, int], None] = _ignore_timing,
) -> tuple[list[CheckResult], bool]:
    """Run the named suites (or all of them) and return ordered records.

    With ``jobs`` > 1, at most ``jobs`` forked workers (and no more than
    there are cores or work items) take the work items of every selected
    suite, heaviest first, and are reaped before the call returns or
    raises; with one worker, or where processes cannot be forked, each
    suite runs whole in process, in the given order.  A suite any part of
    which raises reports one ``<suite>.exception`` record instead of its
    other records.
    ``on_suite_done`` receives each suite's name, summed seconds and
    record count as soon as the suite's last part returns."""
    selected = list(SUITES) if names == ["all"] else names
    for name in selected:
        if name not in SUITES:
            known = ", ".join(("all",) + SUITES)
            raise ArgumentOutOfRange(f"unknown suite {name!r}, not one of {known}")
    items = _pool_items(selected, bound)
    # more workers than cores or items only adds start-up cost
    workers = min(jobs, os.cpu_count() or 1, len(items))
    outcomes = _pool_outcomes(items, workers) if workers > 1 else None
    if outcomes is None:
        items = [(name, 0, _whole_suite, (name, bound)) for name in selected]
        outcomes = ((item, _run_item(*item[2:])) for item in items)
    left = Counter(name for name, *_ in items)
    parts: dict[str, list[tuple]] = {name: [] for name in selected}
    records: list[CheckResult] = []
    try:
        for (name, index, _, _), outcome in outcomes:
            parts[name].append((index, *outcome))
            left[name] -= 1
            if not left[name]:
                suite_records = _suite_records(name, parts[name])
                records.extend(suite_records)
                seconds = sum(part[3] for part in parts[name])
                on_suite_done(name, seconds, len(suite_records))
    finally:
        outcomes.close()  # reaps the workers, also when on_suite_done raises
    records.sort(key=lambda r: (r.ident, r.n))
    return records, all(r.ok for r in records)
