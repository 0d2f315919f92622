"""Seeded random generators for series and polynomials.

Used by the verification suites and the tests; keeping them here means the
CLI verifier and pytest exercise identical distributions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .poly import ONE, Polynomial, Symbol, sum_of_products
from .series import DirSeries, OrdSeries, dir_from_fn, ord_from_fn


def random_fraction(rng: random.Random, span: int = 4, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_dir_series(rng: random.Random, trunc: int, lead: int | Fraction = 1) -> DirSeries:
    """Random rational series; the coefficient at index 1 is ``lead``."""
    return dir_from_fn(trunc, lambda n: lead if n == 1 else random_fraction(rng))


def random_ord_series(rng: random.Random, trunc: int, const: int | Fraction = 1) -> OrdSeries:
    """Random rational ordinary series with the given constant term."""
    return ord_from_fn(trunc, lambda n: const if n == 0 else random_fraction(rng))


def random_polynomial(
    rng: random.Random,
    symbols: tuple[Symbol, ...] = ("phi", "beta", "L2"),
    max_terms: int = 4,
    max_deg: int = 3,
) -> Polynomial:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        term = Polynomial.const(random_fraction(rng, span=6))
        for s in symbols:
            term = term * Polynomial.symbol(s) ** rng.randint(0, max_deg)
        terms.append((term, ONE))
    return sum_of_products(terms)
