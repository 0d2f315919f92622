"""Exact sparse multivariate polynomials over the rationals.

Scalars are arbitrary-precision rationals (``fractions.Fraction``).  The
ring's indeterminates come from a fixed vocabulary of named symbols:

* ``phi``, ``beta``  user-facing power parameters,
* ``psi``            the internal power parameter a series carries before
                     the power is specialized,
* ``L<p>``           the formal logarithm of the prime p (``L2``, ``L3``,
                     ...); logarithms of distinct primes are independent
                     symbols, so identities involving logarithms of
                     integers are decided by structural equality,
* ``a<k>``           generic series-coefficient indeterminates, k >= 1.

A monomial is a tuple of (symbol, exponent) pairs sorted by symbol name
with all exponents >= 1; the empty tuple is the unit monomial.  A
polynomial maps monomials to nonzero rational coefficients; the empty map
is zero.  Equality is structural, and the printer emits terms in a fixed
graded-lexicographic order, so printed forms are canonical.

A coefficient that enters a polynomial as an integral value is stored as
an ``int``, any other as a ``Fraction``, so products and sums of integral
coefficients run in ``int`` arithmetic without a gcd per operation.  A
result of mixed arithmetic may be a ``Fraction`` with denominator 1;
equality, hashing and printing go by value, so the two forms are
interchangeable.  ``constant_value`` and ``eval_at`` return ``Fraction``,
so that dividing by their result stays exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Union

from .errors import DirAlgebraError, MissingSymbol, NotDivisible, PolynomialSyntaxError
from .intfactor import factorize, is_prime

Symbol = str

PHI: Symbol = "phi"
BETA: Symbol = "beta"
PSI: Symbol = "psi"

Monomial = tuple[tuple[Symbol, int], ...]
Scalar = Union[int, Fraction]

_UNIT_MONO: Monomial = ()


def log_symbol(p: int) -> Symbol:
    """The symbol ``L<p>`` standing for the logarithm of the prime p."""
    if not is_prime(p):
        raise ValueError(f"L-symbols are indexed by primes, got {p}")
    return f"L{p}"


def coeff_symbol(k: int) -> Symbol:
    """The generic coefficient indeterminate ``a<k>``, k >= 1."""
    if k < 1:
        raise ValueError(f"coefficient symbols need k >= 1, got {k}")
    return f"a{k}"


def validate_symbol(name: str) -> Symbol:
    """Check that a name belongs to the reserved vocabulary."""
    if name in (PHI, BETA, PSI):
        return name
    if len(name) >= 2 and name[1:].isdigit():
        if name[0] == "L" and is_prime(int(name[1:])):
            return name
        if name[0] == "a" and int(name[1:]) >= 1:
            return name
    raise ValueError(f"unknown symbol {name!r}")


def _scalar(value: Scalar) -> Scalar:
    """An integral value as an ``int``, any other as a ``Fraction``.  Only
    an ``int`` (or ``bool``) or a ``Fraction`` is exact; anything else,
    a ``float`` above all, raises ``TypeError``."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for s, e in m2:
        merged[s] = merged.get(s, 0) + e
    return tuple(sorted(merged.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _term_key(mono: Monomial) -> tuple:
    return (_mono_degree(mono), mono)


class Polynomial:
    """Immutable sparse polynomial; supports +, -, *, ** and exact helpers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                c = _scalar(coeff)
                if c:
                    clean[mono] = c
        self._terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _ZERO

    @staticmethod
    def one() -> "Polynomial":
        return _ONE

    @staticmethod
    def const(value: Scalar) -> "Polynomial":
        c = _scalar(value)
        if not c:
            return _ZERO
        if c == 1:
            return _ONE
        return Polynomial({_UNIT_MONO: c})

    @staticmethod
    def symbol(name: Symbol) -> "Polynomial":
        return _wrap({((validate_symbol(name), 1),): 1})

    # -- inspection ----------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Scalar]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and _UNIT_MONO in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial; raises if symbols occur."""
        if not self._terms:
            return Fraction(0)
        if self.is_constant():
            return Fraction(self._terms[_UNIT_MONO])
        raise ValueError(f"not a constant polynomial: {self}")

    def symbols(self) -> set[Symbol]:
        return {s for mono in self._terms for s, _ in mono}

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if not isinstance(other, (Polynomial, int, Fraction)):
            return NotImplemented
        other = as_poly(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = out.get(mono)
            if acc is None:
                out[mono] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _wrap({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if not isinstance(other, (Polynomial, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return -self + other

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _scalar(other)
            if not c:
                return _ZERO
            if c == 1:
                return self
            return _wrap({m: v * c for m, v in self._terms.items()})
        if not self._terms or not other._terms:
            return _ZERO
        # fast path: one side constant
        if other.is_constant():
            return self * other._terms[_UNIT_MONO]
        if self.is_constant():
            return other * self._terms[_UNIT_MONO]
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _mono_mul(m1, m2)
                c = c1 * c2
                acc = out.get(mono)
                if acc is None:
                    out[mono] = c
                else:
                    acc = acc + c
                    if acc:
                        out[mono] = acc
                    else:
                        del out[mono]
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = _ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- structural helpers ------------------------------------------------

    def substitute(self, sym: Symbol, replacement: "Polynomial | Scalar") -> "Polynomial":
        """Replace every occurrence of ``sym``, expanding the result."""
        replacement = as_poly(replacement)
        touched = False
        powers: list[Polynomial] = [_ONE]
        out = _ZERO
        for mono, coeff in self._terms.items():
            exps = dict(mono)
            e = exps.pop(sym, 0)
            if e == 0:
                out = out + _wrap({mono: coeff})
                continue
            touched = True
            while len(powers) <= e:
                powers.append(powers[-1] * replacement)
            rest = _wrap({tuple(sorted(exps.items())): coeff})
            out = out + rest * powers[e]
        return out if touched else self

    def divide_by_symbol(self, sym: Symbol) -> "Polynomial":
        """Exact division by ``sym``; every term must contain it."""
        out: dict[Monomial, Scalar] = {}
        for mono, coeff in self._terms.items():
            exps = dict(mono)
            e = exps.get(sym, 0)
            if e == 0:
                raise NotDivisible(f"term {mono} has no factor {sym}")
            if e == 1:
                del exps[sym]
            else:
                exps[sym] = e - 1
            out[tuple(sorted(exps.items()))] = coeff
        return _wrap(out)

    def eval_at(self, assignment: Mapping[Symbol, Scalar]) -> Fraction:
        """Exact rational value; every occurring symbol must be assigned."""
        missing = self.symbols() - set(assignment)
        if missing:
            raise MissingSymbol(f"no value for {sorted(missing)}")
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            v = coeff
            for s, e in mono:
                v *= Fraction(assignment[s]) ** e
            total += v
        return total

    # -- comparison and printing -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.const(other)
        return NotImplemented

    __hash__ = None  # mutable-dict backing; not hashable

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"

    def to_text(self) -> str:
        """Canonical text form (graded, then lexicographic term order)."""
        terms = self._terms
        if not terms:
            return "0"
        if len(terms) == 1 and _UNIT_MONO in terms:
            return str(terms[_UNIT_MONO])
        parts: list[str] = []
        for mono, coeff in sorted(terms.items(), key=lambda kv: _term_key(kv[0])):
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


def _wrap(terms: dict[Monomial, Scalar]) -> Polynomial:
    p = Polynomial.__new__(Polynomial)
    p._terms = terms
    return p


_ZERO = _wrap({})
_ONE = _wrap({_UNIT_MONO: 1})

ZERO = _ZERO
ONE = _ONE


def as_poly(value: Polynomial | Scalar) -> Polynomial:
    """A polynomial unchanged, or a scalar as a constant polynomial."""
    return value if isinstance(value, Polynomial) else Polynomial.const(value)


def constant_values(polys: Iterable[Polynomial]) -> list[Scalar] | None:
    """The rational values (``int`` or ``Fraction``; zero is the ``int``
    0) of a run of polynomials, in one pass; None as soon as one of them
    carries a symbol."""
    out: list[Scalar] = []
    for p in polys:
        terms = p._terms
        if not terms:
            out.append(0)
        elif len(terms) == 1 and _UNIT_MONO in terms:
            out.append(terms[_UNIT_MONO])
        else:
            return None
    return out


def constant_polys(values: Iterable[Scalar]) -> list[Polynomial]:
    """Constant polynomials with the given ``int`` or ``Fraction`` values,
    which are stored as they are."""
    return [_wrap({_UNIT_MONO: v}) if v else _ZERO for v in values]


def binom_poly(sym: Symbol, m: int) -> Polynomial:
    """Falling-factorial binomial coefficient s(s-1)...(s-m+1)/m! in ``sym``."""
    if m < 0:
        raise ValueError("binom_poly needs m >= 0")
    s = Polynomial.symbol(sym)
    out = _ONE
    for i in range(m):
        out = out * (s - i)
    fac = 1
    for i in range(2, m + 1):
        fac *= i
    return out * Fraction(1, fac)


def rising_poly(sym: Symbol, m: int) -> Polynomial:
    """Rising factorial s(s+1)...(s+m-1) in ``sym``."""
    if m < 0:
        raise ValueError("rising_poly needs m >= 0")
    s = Polynomial.symbol(sym)
    out = _ONE
    for i in range(m):
        out = out * (s + i)
    return out


def log_n_poly(n: int) -> Polynomial:
    """Formal logarithm of n: sum of m_i * L_{p_i} over n = prod p_i^{m_i}."""
    if n < 1:
        raise ValueError("log_n_poly needs n >= 1")
    # factorize yields primes only, so each L<p> is valid as built
    return _wrap({((f"L{p}", 1),): m for p, m in factorize(n)})


# -- text parsing ----------------------------------------------------------
#
# term ::= rational | symbol | term "*" term | term "^" uint | term "+" term
#        | term "-" term | "-" term | "(" term ")"
# with rationals written p/q or as integers.  Whitespace is insignificant.

# the deepest nesting of parentheses either grammar accepts: both parsers
# recurse once per level, and canonical polynomial text has no parentheses
NESTING_CAP = 100


class Scanner:
    """Character scanner shared by the polynomial and expression grammars;
    it raises ``error(message, offset)``, and calls an identifier
    ``ident`` ("a symbol", "a name") when one is missing."""

    def __init__(self, text: str, error: type[DirAlgebraError], ident: str):
        self.text = text
        self.pos = 0
        self.error = error
        self.ident = ident
        self.depth = 0  # parentheses open at ``pos``

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}", self.pos)
        self.pos += 1

    def open(self) -> None:
        """Take "(", at most ``NESTING_CAP`` levels deep."""
        self.expect("(")
        self.depth += 1
        if self.depth > NESTING_CAP:
            raise self.error(f"nesting deeper than {NESTING_CAP} levels", self.pos - 1)

    def close(self) -> None:
        self.expect(")")
        self.depth -= 1

    def take_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than ``sys.get_int_max_str_digits``
            raise self.error("number too long", start) from None

    def take_rational(self) -> int | Fraction:
        """uint ["/" uint] with a nonzero denominator; an ``int`` when
        there is no denominator."""
        num = self.take_uint()
        if self.peek() != "/":
            return num
        self.pos += 1
        den = self.take_uint()
        if den == 0:
            raise self.error("zero denominator", self.pos)
        return Fraction(num, den)

    def take_ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected {self.ident}", start)
        return self.text[start : self.pos]


# the largest size of a power in polynomial text: the exponent times the
# number of terms its expansion can have, so the exponent of one term goes
# up to the largest the CLI prints (phi^N of lagrange_ord, N <= 10000)
POWER_CAP = 10_000

# a rational constant with a nonzero denominator, read without the scanner
_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def parse_polynomial(text: str) -> Polynomial:
    """Parse canonical polynomial text; inverse of Polynomial.to_text."""
    constant = _RATIONAL_TEXT.fullmatch(text)
    if constant:
        num, den = constant.groups()
        try:
            return Polynomial.const(Fraction(int(num), int(den)) if den else int(num))
        except ValueError:
            pass  # a number too long for ``int``; the scanner reports where
    toks = Scanner(text, PolynomialSyntaxError, "a symbol")
    out = _parse_sum(toks)
    toks.skip_ws()
    if toks.pos != len(text):
        raise PolynomialSyntaxError("trailing input", toks.pos)
    return out


def _parse_sum(toks: Scanner) -> Polynomial:
    negate = False
    if toks.peek() == "-":
        toks.take()
        negate = True
    out = _parse_product(toks)
    if negate:
        out = -out
    while toks.peek() in ("+", "-"):
        op = toks.take()
        term = _parse_product(toks)
        out = out + term if op == "+" else out - term
    return out


def _parse_product(toks: Scanner) -> Polynomial:
    out = _parse_power(toks)
    while toks.peek() == "*":
        toks.take()
        out = out * _parse_power(toks)
    return out


def _parse_power(toks: Scanner) -> Polynomial:
    base = _parse_atom(toks)
    if toks.peek() == "^":
        toks.take()
        toks.skip_ws()
        start = toks.pos
        exponent = toks.take_uint()
        terms = max(len(base._terms), 1)
        if exponent > POWER_CAP or comb(exponent + terms - 1, terms - 1) * exponent > POWER_CAP:
            raise PolynomialSyntaxError("exponent too large", start)
        return base**exponent
    return base


def _parse_atom(toks: Scanner) -> Polynomial:
    ch = toks.peek()
    if ch == "(":
        toks.open()
        inner = _parse_sum(toks)
        toks.close()
        return inner
    if ch.isdigit():
        return Polynomial.const(toks.take_rational())
    if ch.isalpha():
        start = toks.pos
        name = toks.take_ident()
        try:
            return Polynomial.symbol(name)
        except ValueError:
            raise PolynomialSyntaxError(f"unknown symbol {name!r}", start) from None
    raise PolynomialSyntaxError("expected a term", toks.pos)
