"""Partition and factorization enumeration, and the two Bell families.

``bell_B`` sums over additive partitions of n into m parts (the classical
partition polynomials); ``bell_btilde`` sums over unordered decompositions
of n into m factors >= 2, which is the multiplicative counterpart.  Both
multiply the given values as they are, polynomial or scalar, weight each
term by an integer multinomial and return a polynomial.  They are the
enumeration oracles of ``verify``: the CLI reads the same tables off
powers of a series instead.
"""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import Iterable, Sequence

from .intfactor import divisors, s_max
from .poly import ONE, Polynomial, Scalar, as_poly


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
        # parts are chosen non-increasing, so the rest are at most this
        # part: it is at least remaining / parts_left, rounded up
        smallest = -(-remaining // parts_left)
        for part in range(min(max_part, remaining - parts_left + 1), smallest - 1, -1):
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
    parts = partitions_into_parts(n, m)
    return _bell_sum(m, ({k: j for k, j in enumerate(vec, 1) if j} for vec in parts), values, 1)


def bell_btilde(n: int, m: int, values: Sequence[Polynomial | Scalar]) -> Polynomial:
    """Factorization polynomial: sum over unordered decompositions of n
    into m factors >= 2 of m!/(m_2!...m_n!) * prod values[k-2]**m_k.
    ``values[k-2]`` is the value attached to factor k, so n-1 values cover
    factors 2..n.  By convention n=1, m=0 gives 1."""
    if n == 1 and m == 0:
        return ONE
    if n < 2 or m < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    if len(values) < n - 1:
        raise ValueError(f"need {n - 1} values, got {len(values)}")
    return _bell_sum(m, map(Counter, multiplicative_partitions(n, m)), values, 2)


def _bell_sum(m: int, multiplicities: Iterable[dict], values: Sequence, first: int) -> Polynomial:
    """The sum over the maps {k: m_k} of m!/(prod of m_k!) * prod of
    values[k - first]**m_k.  Each power is computed once per (k, m_k) in
    the call, from the value as it is."""
    table: dict[tuple[int, int], Polynomial | Scalar] = {}
    total = 0
    for mults in multiplicities:
        weight, term = factorial(m), 1
        for k, mult in mults.items():
            weight //= factorial(mult)
            power = table.get((k, mult))
            if power is None:
                power = table[k, mult] = values[k - first] ** mult
            term = term * power
        total = total + term * weight
    return as_poly(total)
