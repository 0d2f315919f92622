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
from math import isqrt
from typing import Iterable, Mapping, Union

from .errors import (
    ArgumentOutOfRange,
    DirAlgebraError,
    MissingSymbol,
    NotDivisible,
    PolynomialSyntaxError,
)
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


# -- work meter --------------------------------------------------------------
#
# Under a budget, each step charges ``METER`` before it runs, from the
# terms, symbols and bits of all its operands: each product added in by
# ``_add_product``, each product by a scalar and each long number converted
# to or from text here, and the kernel calls and slice updates of
# ``series``.  A unit is about 20 ns on a 2-core x86-64 with Python 3.11.
# Without a budget (library calls, ``verify``) the steps skip the meter.

CALL_UNITS = 1500  # one call of a series kernel ...
INDEX_UNITS = 150  # ... and each index of its output, scaled and wrapped
_INT_UNITS = 15  # one product of two small integers, added up ...
_BIT_PAIRS = 3600  # ... plus a unit per this many pairs of their bits
_LONG_BITS = 600  # past this many bits a product costs about bits ** 1.5
_MUL_CALL = 100  # one ``Polynomial`` product added in, or by a scalar ...
_TERM_UNITS = 100  # ... and each product of two monomials ...
_MONO_UNITS = 30  # ... plus this per symbol of the two
_FRACTION_UNITS = 150  # one product or sum of two small ``Fraction``s
_SHORT_TEXT = 300  # a number costs little to convert up to this many digits ...
_TEXT_DIGITS = 1000  # ... and past it a unit per this many squared digits


class WorkMeter:
    """The units spent since the last ``reset``, and the budget they may
    not pass (None: no budget)."""

    __slots__ = ("spent", "budget")

    def __init__(self):
        self.reset()

    def reset(self, budget: int | None = None) -> None:
        self.spent = 0
        self.budget = budget

    def charge(self, units: int) -> None:
        """Count ``units``; raise ``ArgumentOutOfRange`` past the budget."""
        self.spent += units
        if self.budget is not None and self.spent > self.budget:
            raise ArgumentOutOfRange(f"the work passed the budget of {self.budget} units")


METER = WorkMeter()
_charge = METER.charge  # bound once: the hot paths below call it


def int_units(count: int, bits: int, other_bits: int) -> int:
    """Units of ``count`` products, each added up, of one integer of
    ``bits`` bits with integers of ``other_bits`` bits in all."""
    return count * _INT_UNITS + _factor_bits(bits) * other_bits // _BIT_PAIRS


def _factor_bits(bits: int) -> int:
    """The bits of a factor as its products cost: Karatsuba past ``_LONG_BITS``."""
    return bits if bits <= _LONG_BITS else isqrt(_LONG_BITS * bits)


def _sizes(p: Polynomial) -> tuple[int, int, int, int, int]:
    """Of the terms of ``p``, counted once: their number and symbols, and
    their ``Fraction``s, bits and ``_factor_bits``."""
    if p._sizes is not None:
        return p._sizes
    terms = p._terms
    if len(terms) == 1:  # the most common operand: no passes over the terms
        ((mono, c),) = terms.items()
        p._sizes = sizes = _term_sizes(c, len(mono))
        return sizes
    values = terms.values()
    fractions = len(values) - list(map(type, values)).count(int)
    if fractions:
        bits = [c.numerator.bit_length() + c.denominator.bit_length() for c in values]
    else:
        bits = list(map(int.bit_length, values))
    total = factor_total = sum(bits)
    if total > _LONG_BITS and max(bits) > _LONG_BITS:
        factor_total = sum(map(_factor_bits, bits))
    p._sizes = sizes = (len(terms), sum(map(len, terms)), fractions, total, factor_total)
    return sizes


def _term_sizes(c: Scalar, symbols: int = 0) -> tuple[int, int, int, int, int]:
    """``_sizes`` of one term with coefficient ``c``."""
    fraction = type(c) is not int
    b = c.numerator.bit_length() + c.denominator.bit_length() if fraction else c.bit_length()
    return 1, symbols, fraction, b, _factor_bits(b)


def _products_units(sizes1: tuple, sizes2: tuple) -> int:
    """Units of the product of two polynomials, added up, from their
    ``_sizes``.  Monomials are merged only when both carry symbols, and a
    pair with a ``Fraction`` costs a product and a sum.  Numbers of b <= c
    bits cost k(b) * c pairs of bits, k = ``_factor_bits``: half of
    k(b) * c + b * k(c) at b = c, and more otherwise; that half sums over
    all pairs to (k1 * b2 + b1 * k2) / 2."""
    (t1, y1, f1, b1, k1), (t2, y2, f2, b2, k2) = sizes1, sizes2
    pairs = t1 * t2
    fraction_pairs = pairs - (t1 - f1) * (t2 - f2)
    bit_pairs = (k1 * b2 + b1 * k2) // 2
    units = _MUL_CALL + pairs * _INT_UNITS + fraction_pairs * 2 * _FRACTION_UNITS
    if fraction_pairs:  # the gcds of their product and sum grow with its bits squared
        units += 2 * fraction_pairs * (b1 // t1 + b2 // t2) ** 2 // _BIT_PAIRS
    if y1 and y2:
        units += pairs * _TERM_UNITS + _MONO_UNITS * (t2 * y1 + t1 * y2)
    return units + bit_pairs // _BIT_PAIRS


def _add_product(out: dict[Monomial, Scalar], p: Polynomial, q: Polynomial) -> None:
    """Add p * q into the term dict ``out``, deleting the terms that
    cancel: the one multiply-accumulate of every product and sum.  The
    meter is charged once, before any work."""
    terms1, terms2 = p._terms, q._terms
    if len(terms1) == 1 and _UNIT_MONO in terms1:  # keep a constant factor second
        p, q, terms1, terms2 = q, p, terms2, terms1
    if METER.budget is not None:
        _charge(_products_units(_sizes(p), _sizes(q)))
    get = out.get
    for m2, c2 in terms2.items():  # one pass for a constant factor
        unit = c2 == 1
        for m1, c1 in terms1.items():
            mono = _mono_mul(m1, m2) if m2 else m1
            c = c1 if unit else c1 * c2
            acc = get(mono)
            if acc is None:
                out[mono] = c
            else:
                acc += c
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]


def sum_of_products(pairs: Iterable[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """The sum of p * q over the pairs (p, q) of polynomials, accumulated
    in one term dict, so that no partial sum is copied."""
    out: dict[Monomial, Scalar] = {}
    for p, q in pairs:
        _add_product(out, p, q)
    return _wrap(out) if out else _ZERO


def _charge_digits(digits: int) -> None:
    """Charge for a long number of ``digits`` decimal digits before it is
    converted between text and ``int``, in time quadratic in its digits."""
    if digits > _SHORT_TEXT and METER.budget is not None:
        _charge(digits * digits // _TEXT_DIGITS)


class Polynomial:
    """Immutable sparse polynomial; supports +, -, *, ** and exact helpers."""

    __slots__ = ("_terms", "_sizes")  # ``_sizes`` once the meter has asked

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                c = _scalar(coeff)
                if c:
                    clean[mono] = c
        self._terms = clean
        self._sizes = None

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
        if not other._terms:
            return self
        out = dict(self._terms)  # unmetered: a C-speed copy of terms charged as made
        _add_product(out, other, _ONE)
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
            if self._terms and METER.budget is not None:
                _charge(_products_units(_sizes(self), _term_sizes(c)))
            return _wrap({m: v * c for m, v in self._terms.items()})
        if not self._terms or not other._terms:
            return _ZERO
        # fast path: one side constant
        if other.is_constant():
            return self * other._terms[_UNIT_MONO]
        if self.is_constant():
            return other * self._terms[_UNIT_MONO]
        return sum_of_products(((self, other),))

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
        out: dict[Monomial, Scalar] = {}
        for mono, coeff in self._terms.items():
            exps = dict(mono)
            e = exps.pop(sym, 0)
            if e:
                touched = True
                mono = tuple(sorted(exps.items()))
                while len(powers) <= e:
                    powers.append(powers[-1] * replacement)
            _add_product(out, _wrap({mono: coeff}), powers[e])
        return _wrap(out) if touched else self

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
        if METER.budget is not None:  # before ``str`` writes a long number
            for c in terms.values():  # about 3 digits to 10 bits
                _charge_digits(_term_sizes(c)[3] * 3 // 10)
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
    p._sizes = None
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
        _charge_digits(self.pos - start)
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


# the largest exponent in polynomial text: the largest the CLI prints
# (phi^N of lagrange_ord, N <= 10000)
POWER_CAP = 10_000

# a rational constant with a nonzero denominator, read without the scanner
_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def parse_polynomial(text: str) -> Polynomial:
    """Parse canonical polynomial text; inverse of Polynomial.to_text."""
    constant = _RATIONAL_TEXT.fullmatch(text)
    if constant:
        num, den = constant.groups()
        _charge_digits(len(text))
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
    sign = -1 if toks.peek() == "-" else 1
    if sign < 0:
        toks.take()
    out: dict[Monomial, Scalar] = {}
    while True:
        _add_product(out, _parse_product(toks), Polynomial.const(sign))
        if toks.peek() not in ("+", "-"):
            return _wrap(out)
        sign = 1 if toks.take() == "+" else -1


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
        if exponent > POWER_CAP:
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
