"""Partition and factorization enumeration, and the two Bell families.

``bell_B`` sums over additive partitions of n into m parts (the classical
partition polynomials); ``bell_btilde`` sums over unordered decompositions
of n into m factors >= 2, which is the multiplicative counterpart.  Both
accept polynomial values.  They are the enumeration oracles of ``verify``:
the CLI reads the same tables off powers of a series instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .intfactor import divisors, s_max
from .poly import Polynomial, Scalar, as_poly


def partitions_into_parts(n: int, m: int) -> list[tuple[int, ...]]:
    """Multiplicity vectors (m_1..m_n) with sum k*m_k = n and sum m_k = m."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    out: list[tuple[int, ...]] = []
    vec = [0] * n

    def descend(remaining: int, parts_left: int, max_part: int) -> None:
        if parts_left == 0:
            if remaining == 0:
                out.append(tuple(vec))
            return
        # parts are chosen non-increasing; smallest useful part is 1
        for part in range(min(max_part, remaining - parts_left + 1), 0, -1):
            vec[part - 1] += 1
            descend(remaining - part, parts_left - 1, part)
            vec[part - 1] -= 1

    descend(n, m, n)
    return out


def multiplicative_partitions(n: int, m: int) -> list[tuple[int, ...]]:
    """Unordered decompositions of n into m factors >= 2, as non-increasing
    factor tuples in lexicographically decreasing order.

    n = 1 is only decomposable with m = 0 (the empty tuple).
    """
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    if m > s_max(n):
        return []  # m factors >= 2 multiply to at least 2**m > n
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []
    # every factor of a remainder divides n, so one descending list of the
    # divisors >= 2 of n covers every candidate
    candidates = divisors(n)[:0:-1]

    def descend(remaining: int, slots: int, max_factor: int) -> None:
        if slots == 0:
            if remaining == 1:
                out.append(tuple(chosen))
            return
        for d in candidates:
            if d > max_factor:
                continue
            if d**slots < remaining:
                break  # slots factors of at most d cannot reach remaining
            if remaining % d:
                continue
            chosen.append(d)
            descend(remaining // d, slots - 1, d)
            chosen.pop()

    descend(n, m, n)
    return out


def ordered_factorizations(n: int, m: int) -> list[tuple[int, ...]]:
    """Ordered tuples (k_1..k_m), each k_i >= 2, with product n; ascending
    lexicographic order.  (1, 0) yields the single empty tuple."""
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def descend(remaining: int, slots: int) -> None:
        if slots == 0:
            if remaining == 1:
                out.append(tuple(chosen))
            return
        for d in divisors(remaining):
            if d < 2:
                continue
            chosen.append(d)
            descend(remaining // d, slots - 1)
            chosen.pop()

    descend(n, m)
    return out


def bell_B(n: int, m: int, values: Sequence[Polynomial | Scalar]) -> Polynomial:
    """Partition polynomial: sum over partitions of n into m parts of
    m!/(m_1!...m_n!) * prod values[k-1]**m_k.  ``values[k-1]`` is the value
    attached to part size k; at least n values are required."""
    if len(values) < n:
        raise ValueError(f"need {n} values, got {len(values)}")
    vals = [as_poly(v) for v in values[:n]]
    total = Polynomial.zero()
    for vec in partitions_into_parts(n, m):
        weight = Fraction(factorial(m))
        term = Polynomial.one()
        for k, mult in enumerate(vec, start=1):
            if mult:
                weight /= factorial(mult)
                term = term * vals[k - 1] ** mult
        total = total + term * weight
    return total


def bell_btilde(n: int, m: int, values: Sequence[Polynomial | Scalar]) -> Polynomial:
    """Factorization polynomial: sum over unordered decompositions of n
    into m factors >= 2 of m!/(m_2!...m_n!) * prod values[k-2]**m_k.
    ``values[k-2]`` is the value attached to factor k, so n-1 values cover
    factors 2..n.  By convention n=1, m=0 gives 1."""
    if n == 1 and m == 0:
        return Polynomial.one()
    if n < 2 or m < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    if len(values) < n - 1:
        raise ValueError(f"need {n - 1} values, got {len(values)}")
    total = Polynomial.zero()
    for factors in multiplicative_partitions(n, m):
        mults: dict[int, int] = {}
        for k in factors:
            mults[k] = mults.get(k, 0) + 1
        weight = Fraction(factorial(m))
        term = Polynomial.one()
        for k, mult in mults.items():
            weight /= factorial(mult)
            term = term * as_poly(values[k - 2]) ** mult
        total = total + term * weight
    return total
