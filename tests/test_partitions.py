import hashlib
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial

import pytest

from dirseries.intfactor import factorize, s_of
from dirseries.partitions import (
    bell_B,
    bell_btilde,
    multiplicative_partitions,
    ordered_factorizations,
    partitions_into_parts,
)
from dirseries.poly import (
    ONE,
    PHI,
    ZERO,
    Polynomial,
    binom_poly,
    coeff_symbol,
    parse_polynomial,
)


def brute_ordered_factorizations(n, m):
    """Independent oracle: scan the full m-fold product space."""
    if m == 0:
        return [()] if n == 1 else []
    out = []
    for tup in product(range(2, n + 1), repeat=m):
        p = 1
        for k in tup:
            p *= k
        if p == n:
            out.append(tup)
    return sorted(out)


def test_ordered_factorizations_examples():
    assert set(ordered_factorizations(12, 2)) == {(2, 6), (6, 2), (3, 4), (4, 3)}
    assert ordered_factorizations(8, 3) == [(2, 2, 2)]
    assert ordered_factorizations(7, 1) == [(7,)]
    assert ordered_factorizations(1, 0) == [()]
    assert ordered_factorizations(1, 1) == []


def test_ordered_factorizations_sorted_and_complete():
    for n in range(1, 25):
        for m in range(0, min(3, s_of(n)) + 1):
            got = ordered_factorizations(n, m)
            assert got == brute_ordered_factorizations(n, m)
            assert got == sorted(got)
    for n in (48, 96):
        for m in range(0, s_of(n) + 1):
            got = ordered_factorizations(n, m)
            assert got == sorted(set(got))
            for tup in got:
                prod = 1
                for k in tup:
                    assert k >= 2
                    prod *= k
                assert prod == n and len(tup) == m


def test_partitions_into_parts():
    assert {tuple(v) for v in partitions_into_parts(4, 2)} == {
        (1, 0, 1, 0),  # 1+3
        (0, 2, 0, 0),  # 2+2
    }
    assert partitions_into_parts(5, 5) == [(5, 0, 0, 0, 0)]
    assert len(partitions_into_parts(6, 3)) == 3
    for n in range(1, 12):
        for m in range(1, n + 1):
            for vec in partitions_into_parts(n, m):
                assert sum((k + 1) * v for k, v in enumerate(vec, start=0)) == sum(
                    (i + 1) * vec[i] for i in range(n)
                )
                assert sum((i + 1) * vec[i] for i in range(n)) == n
                assert sum(vec) == m


def test_partitions_into_parts_are_every_partition_once():
    # brute force: every multiset of m parts from 1..n, kept when it sums to n
    for n in range(1, 11):
        for m in range(1, n + 1):
            want = set()
            for parts in combinations_with_replacement(range(1, n + 1), m):
                if sum(parts) == n:
                    want.add(tuple(parts.count(k) for k in range(1, n + 1)))
            got = partitions_into_parts(n, m)
            assert len(got) == len(set(got)) and set(got) == want, (n, m)


def brute_multiplicative_partitions(n):
    """Independent oracle: every non-increasing factor tuple of n, of any
    length, found by trying each integer 2..remaining with no pruning."""
    out = []

    def rec(remaining, max_factor, chosen):
        if remaining == 1:
            out.append(tuple(chosen))
        for d in range(2, min(max_factor, remaining) + 1):
            if remaining % d == 0:
                rec(remaining // d, d, chosen + [d])

    rec(n, n, [])
    return out


def test_multiplicative_partitions_match_brute_force():
    # same tuples and the same lexicographically decreasing order
    for n in range(1, 700):
        every = brute_multiplicative_partitions(n)
        for m in range(0, 11):
            want = sorted((t for t in every if len(t) == m), reverse=True)
            assert multiplicative_partitions(n, m) == want, (n, m)
    # more factors than log2(n) allows: empty at once, however wide m is
    assert multiplicative_partitions(720720, 10**9) == []


def test_multiplicative_partitions():
    assert set(multiplicative_partitions(12, 2)) == {(6, 2), (4, 3)}
    assert multiplicative_partitions(8, 3) == [(2, 2, 2)]
    assert multiplicative_partitions(1, 0) == [()]
    for factors in multiplicative_partitions(360, 3):
        assert list(factors) == sorted(factors, reverse=True)


def test_bell_B_symbolic_row6():
    a = [Polynomial.symbol(coeff_symbol(k)) for k in range(1, 7)]
    expected = a[0] * a[4] * 2 + a[1] * a[3] * 2 + a[2] ** 2
    assert bell_B(6, 2, a) == expected
    assert bell_B(5, 5, a) == a[0] ** 5


def test_bell_B_ones_is_binomial():
    for n in range(1, 14):
        for m in range(1, n + 1):
            value = bell_B(n, m, [1] * n)
            assert value == Polynomial.const(comb(n - 1, m - 1))


def test_bell_btilde_symbolic():
    a = [Polynomial.symbol(coeff_symbol(k)) for k in range(2, 17)]
    assert bell_btilde(16, 3, a) == a[0] ** 2 * a[2] * 3
    assert bell_btilde(12, 2, a) == a[0] * a[4] * 2 + a[2] * a[1] * 2
    assert bell_btilde(1, 0, a) == ONE


def test_bell_btilde_counts_match_ordered_factorizations():
    for n in range(2, 121):
        for m in range(1, s_of(n) + 1):
            count = bell_btilde(n, m, [1] * (n - 1))
            assert count == Polynomial.const(len(ordered_factorizations(n, m)))


def test_btilde_binomial_identity():
    # sum_m C(phi, m) * Btilde_{n,m}(1..1) equals the product of
    # C(phi + s_i - 1, s_i) over the prime multiplicities of n
    phi = Polynomial.symbol(PHI)
    for n in range(2, 121):
        lhs = ZERO
        for m in range(1, s_of(n) + 1):
            lhs = lhs + binom_poly(PHI, m) * bell_btilde(n, m, [1] * (n - 1))
        rhs = ONE
        for _, s in factorize(n):
            shifted = binom_poly(PHI, s).substitute(PHI, phi + (s - 1))
            rhs = rhs * shifted
        assert lhs == rhs, f"identity failed at n={n}"


def test_bell_value_errors():
    with pytest.raises(ValueError):
        bell_B(3, 4, [1, 1, 1])
    with pytest.raises(ValueError):
        bell_btilde(6, 1, [1, 1])  # needs values for factors 2..6
    with pytest.raises(ValueError):
        bell_btilde(1, 1, [])


def test_bell_B_weights_sum():
    # total weight over all partitions of n into m parts with unit values
    # must match the multinomial census of compositions
    for n in range(1, 10):
        for m in range(1, n + 1):
            total = Fraction(0)
            for vec in partitions_into_parts(n, m):
                w = Fraction(factorial(m))
                for mult in vec:
                    w /= factorial(mult)
                total += w
            assert total == comb(n - 1, m - 1)


@pytest.mark.parametrize(
    "kind, want",
    [
        ("int", "f0ec100e037cf96f33e36a32eb12802d33551de60a97a92cc0acb6364c11ca69"),
        ("fraction", "9b65fe3dd2b3fb3261ea4ce980d43a9c794111616613d4f5f94f69fa1e2424d3"),
        ("poly", "5429bacf5c7c076cb0ab3a440bb2fbe250507497b3add15f90c115291f4cc8bc"),
    ],
)
def test_bell_oracles_return_the_same_polynomials_for_any_values(kind, want):
    # digests of the values both oracles gave when they made every value a
    # polynomial and weighted terms by Fraction division
    values = {
        "int": list(range(-2, 10)),
        "fraction": [Fraction(k, 3) for k in range(-2, 10)],
        "poly": [parse_polynomial(f"{k}*phi + L2 - {k % 3}") for k in range(12)],
    }[kind]
    got = [bell_B(n, m, values) for n in range(1, 11) for m in range(1, n + 1)]
    got += [bell_btilde(n, m, values) for n in range(2, 13) for m in range(1, 4)]
    assert all(type(p) is Polynomial for p in got)
    assert hashlib.sha256("\n".join(p.to_text() for p in got).encode()).hexdigest() == want


class CountedPower(int):
    """An integer value that records each power taken of it."""

    taken: list = []

    def __pow__(self, mult):
        CountedPower.taken.append((int(self), mult))
        return int(self) ** mult


@pytest.mark.parametrize("kind", ["B", "btilde"])
def test_bell_oracles_take_each_power_once_per_call(kind):
    # a call takes values[k] ** m_k once per (k, m_k) over all its terms,
    # and gives what the uncounted values give
    values = [CountedPower(k + 2) for k in range(48)]
    for n, m in [(12, 3), (24, 3), (24, 2), (16, 4), (48, 3)]:
        CountedPower.taken = []
        bell = bell_B if kind == "B" else bell_btilde
        got = bell(n, m, values)
        assert got == bell(n, m, [int(v) for v in values])
        assert CountedPower.taken and len(CountedPower.taken) == len(set(CountedPower.taken))
