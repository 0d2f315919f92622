"""Integer factorization helpers: sieve, divisors, multiplicity statistics.

Everything here works at desk scale (n up to about 10**6) with trial
division over a cached prime sieve.  The cache only ever grows; a freshly
built list is swapped in atomically, so concurrent readers always see a
complete sieve.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import factorial, isqrt

from .errors import NotADivisor

_primes: list[int] = [2, 3, 5, 7, 11, 13]
_sieve_limit = 14


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, ascending (cached, grows on demand)."""
    global _primes, _sieve_limit
    if limit >= _sieve_limit:
        new_limit = max(2 * _sieve_limit, limit + 1)
        flags = bytearray(b"\x01") * (new_limit + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, isqrt(new_limit) + 1):
            if flags[p]:
                count = (new_limit - p * p) // p + 1
                flags[p * p :: p] = bytes(count)
        fresh = [i for i in range(new_limit + 1) if flags[i]]
        _primes, _sieve_limit = fresh, new_limit
    primes = _primes
    return primes[: bisect_right(primes, limit)]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in primes_upto(isqrt(n)):
        if n % p == 0:
            return n == p
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as [(p, multiplicity)], p ascending."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    rest = n
    for p in primes_upto(isqrt(n)):
        if p * p > rest:
            break
        if rest % p == 0:
            m = 0
            while rest % p == 0:
                rest //= p
                m += 1
            out.append((p, m))
    if rest > 1:
        out.append((rest, 1))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"divisors needs n >= 1, got {n}")
    ds = [1]
    for p, m in factorize(n):
        ds = [d * p**e for d in ds for e in range(m + 1)]
    ds.sort()
    return ds


def s_of(n: int) -> int:
    """Total number of prime factors of n counted with multiplicity."""
    return sum(m for _, m in factorize(n))


def s_max(limit: int) -> int:
    """The largest ``s_of(n)`` for 1 <= n <= limit: floor(log2 limit), as
    m factors >= 2 multiply to at least 2^m."""
    return limit.bit_length() - 1


def f_of(n: int) -> int:
    """Product of the factorials of the prime multiplicities of n."""
    out = 1
    for _, m in factorize(n):
        out *= factorial(m)
    return out


def binom_f(n: int, d: int) -> Fraction:
    """Divisor-indexed binomial analog f(n) / (f(d) * f(n/d)); needs d | n."""
    if d < 1 or n % d != 0:
        raise NotADivisor(f"{d} does not divide {n}")
    return Fraction(f_of(n), f_of(d) * f_of(n // d))


def _smallest_prime_factors(limit: int) -> list[int]:
    """The smallest prime factor of 0..limit by sieve (0 at 0 and 1)."""
    spf = [0] * (limit + 1)
    for p in reversed(primes_upto(limit)):  # smaller primes overwrite larger ones
        spf[p :: p] = [p] * (limit // p)
    return spf


def mobius_upto(limit: int) -> list[int]:
    """Mobius function mu(1..limit) by sieve; index 0 is unused (0)."""
    mu = [0] * (limit + 1)
    if limit >= 1:
        mu[1] = 1
    spf = _smallest_prime_factors(limit)
    for n in range(2, limit + 1):
        p = spf[n]
        rest = n // p
        mu[n] = 0 if rest % p == 0 else -mu[rest]
    return mu


def s_upto(limit: int) -> list[int]:
    """``s_of(1..limit)`` by sieve, the table form of ``s_of``; index 0
    is unused (0)."""
    s = [0] * (limit + 1)
    spf = _smallest_prime_factors(limit)
    for n in range(2, limit + 1):
        s[n] = s[n // spf[n]] + 1
    return s
