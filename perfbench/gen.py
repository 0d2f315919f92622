"""Seeded input series for the benchmark.

The generator uses only ``random.Random(seed)`` and its own polynomial
printer, never ``dirseries.randgen``, so a change to the program cannot
change the inputs.

The smallest indices lie on the most divisor chains, so they set how large
the numbers and polynomials of a composition grow: with every coefficient
drawn from the seed, the cost of the symbolic workload varied tenfold
between seeds.  So the head of each series (indices 2..HEAD) is drawn
once from a fixed stream, and the seed draws the rest, from the same
distribution.  Runs with different seeds then do nearly the same amount
of arithmetic on different inputs.

Polynomials are dicts mapping a monomial (a tuple of ``(symbol,
exponent)`` pairs sorted by symbol name) to a nonzero ``Fraction``; the
empty tuple is the unit monomial.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

RATIONAL_TRUNC = 10_000
SYMBOLIC_TRUNC = 1_000
RATIONAL_HEAD = 128
SYMBOLIC_HEAD = 64
SYMBOLIC_SYMBOLS = ("phi", "beta", "L2")


def poly_text(terms: dict) -> str:
    """Canonical text of a polynomial: terms by total degree, then by
    monomial, signs folded into the separators."""
    if not terms:
        return "0"
    parts = []
    for mono, coeff in sorted(terms.items(), key=lambda kv: (sum(e for _, e in kv[0]), kv[0])):
        body = "*".join(s if e == 1 else f"{s}^{e}" for s, e in mono)
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not parts:
            parts.append(text if coeff > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(parts)


def rational_series(seed: int, trunc: int = RATIONAL_TRUNC) -> list:
    """Coefficients 1..trunc (list index n holds index n; slot 0 unused):
    1 at index 1, p/q with p in -4..4 and q in 1..3 elsewhere; the head
    does not depend on the seed."""
    head, tail = random.Random("rational-head"), random.Random(seed)
    coeffs = [Fraction(0), Fraction(1)]
    for n in range(2, trunc + 1):
        rng = head if n <= RATIONAL_HEAD else tail
        p = rng.randint(-4, 4)
        q = rng.randint(1, 3)
        coeffs.append(Fraction(p, q))
    return coeffs


def symbolic_series(seed: int, trunc: int = SYMBOLIC_TRUNC) -> list:
    """Polynomial coefficients 1..trunc: 1 at index 1, elsewhere at most
    three terms in phi, beta, L2 with every exponent in 0..2; the head does
    not depend on the seed."""
    # streams apart from the rational ones, so the two inputs are unrelated
    head, tail = random.Random("symbolic-head"), random.Random(f"symbolic-{seed}")
    coeffs: list = [{}, {(): Fraction(1)}]
    for n in range(2, trunc + 1):
        rng = head if n <= SYMBOLIC_HEAD else tail
        terms: dict = {}
        for _ in range(rng.randint(0, 3)):
            coeff = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))
            mono = tuple(
                sorted((s, e) for s, e in ((s, rng.randint(0, 2)) for s in SYMBOLIC_SYMBOLS) if e)
            )
            acc = terms.get(mono, 0) + coeff
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        coeffs.append(terms)
    return coeffs


def rational_json(coeffs: list) -> str:
    body = {str(n): str(c) for n, c in enumerate(coeffs) if n and c}
    return json.dumps({"kind": "dir", "trunc": len(coeffs) - 1, "coeffs": body}, sort_keys=True)


def symbolic_json(coeffs: list) -> str:
    body = {str(n): poly_text(c) for n, c in enumerate(coeffs) if n and c}
    return json.dumps({"kind": "dir", "trunc": len(coeffs) - 1, "coeffs": body}, sort_keys=True)
