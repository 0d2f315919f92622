from fractions import Fraction

import pytest

from dirseries.errors import NotADivisor
from dirseries.intfactor import (
    binom_f,
    divisors,
    f_of,
    factorize,
    is_prime,
    mobius_upto,
    primes_upto,
    s_of,
    s_upto,
)
from dirseries.poly import ZERO, log_n_poly


def test_factorize():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    for n in range(1, 400):
        prod = 1
        last_p = 0
        for p, m in factorize(n):
            assert p > last_p and m >= 1 and is_prime(p)
            last_p = p
            prod *= p**m
        assert prod == n


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    # squarefree n has 2**r divisors
    assert len(divisors(30)) == 8
    for n in range(1, 200):
        ds = divisors(n)
        assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)


def test_s_f():
    assert (s_of(1), f_of(1)) == (0, 1)
    assert (s_of(12), f_of(12)) == (3, 2)
    assert (s_of(16), f_of(16)) == (4, 24)


def test_binom_f():
    assert binom_f(12, 2) == Fraction(2)
    assert binom_f(12, 1) == Fraction(1)
    assert sum(binom_f(12, d) for d in divisors(12)) == 2 ** s_of(12)
    with pytest.raises(NotADivisor):
        binom_f(12, 5)


def test_binom_f_identities():
    for n in range(1, 501):
        ds = divisors(n)
        assert sum(binom_f(n, d) for d in ds) == 2 ** s_of(n)
        for d in ds:
            assert binom_f(n, d) == binom_f(n, n // d)
        if not is_prime(n):
            alt = ZERO
            for d in ds:
                alt = alt + log_n_poly(d) * binom_f(n, d) * Fraction((-1) ** s_of(n // d))
            assert alt == ZERO, f"alternating identity failed at n={n}"


def test_mobius_sieve():
    mu = mobius_upto(60)
    assert mu[1] == 1 and mu[2] == -1 and mu[4] == 0 and mu[6] == 1 and mu[30] == -1
    # multiplicativity on coprime pairs
    for n in range(1, 30):
        for m in range(1, 30):
            if len(set(p for p, _ in factorize(n)) & set(p for p, _ in factorize(m))) == 0:
                assert mu[n * m] == mu[n] * mu[m] if n * m <= 60 else True
    # summing mu over divisors gives the unit indicator
    for n in range(1, 61):
        assert sum(mu[d] for d in divisors(n)) == (1 if n == 1 else 0)


def test_primes_upto_cache_growth():
    assert primes_upto(10) == [2, 3, 5, 7]
    assert primes_upto(100)[-1] == 97
    assert primes_upto(10) == [2, 3, 5, 7]


def test_s_table_matches_s_of():
    table = s_upto(2000)
    assert table[:2] == [0, 0]
    assert table[1:] == [s_of(n) for n in range(1, 2001)]
    assert s_upto(0) == [0] and s_upto(1) == [0, 0]


def test_mobius_table_matches_factorization():
    mu = mobius_upto(2000)
    for n in range(1, 2001):
        mults = [m for _, m in factorize(n)]
        assert mu[n] == (0 if any(m > 1 for m in mults) else (-1) ** len(mults)), n
