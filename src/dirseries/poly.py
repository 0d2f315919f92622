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
graded-lexicographic order, so printed forms are canonical.  The
polynomials of one result may share their monomial tuples and the pairs in
them: a kernel that builds many coefficients passes each through
``pooled`` with a pool local to the call, so an equal monomial across them
is one tuple.  Tuples are immutable, so no caller can tell.

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
from bisect import bisect_left
from fractions import Fraction
from math import factorial, isqrt
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

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
_exponent = itemgetter(1)  # of a (symbol, exponent) pair

# the largest index of a symbol L<p> or a<k>, the largest the package
# prints: ``log_n_poly`` and ``bell --symbolic`` stop at SERIES_CAP
SYMBOL_INDEX_CAP = 10_000
_INDEX_DIGITS = len(str(SYMBOL_INDEX_CAP))


def coeff_symbol(k: int) -> Symbol:
    """The generic coefficient indeterminate ``a<k>``, k >= 1."""
    if k < 1:
        raise ValueError(f"coefficient symbols need k >= 1, got {k}")
    return f"a{k}"


def validate_symbol(name: str) -> Symbol:
    """Check that a name belongs to the reserved vocabulary; an index must
    be canonical ASCII decimal up to ``SYMBOL_INDEX_CAP``, checked as text first."""
    if name in (PHI, BETA, PSI):
        return name
    head, index = name[:1], name[1:]
    if head in ("L", "a") and index.isascii() and index.isdigit() and len(index) <= _INDEX_DIGITS:
        k = int(index)
        if str(k) == index and k <= SYMBOL_INDEX_CAP and (is_prime(k) if head == "L" else k >= 1):
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
    """The product of two monomials.  A factor of one (symbol, exponent)
    pair is inserted into the other at ``bisect_left(mono, (symbol,))``,
    the first pair whose symbol is not below it, adding the exponents on a
    match; the other pairs are the factors' own tuples.  Only two factors
    of several pairs each are merged in a dict and sorted."""
    if len(m1) == 1:
        m1, m2 = m2, m1
    if len(m2) == 1:
        ((sym, e),) = m2
        i = bisect_left(m1, (sym,))
        if i < len(m1) and m1[i][0] == sym:
            return m1[:i] + ((sym, m1[i][1] + e),) + m1[i + 1 :]
        return m1[:i] + m2 + m1[i:]
    if not m1:
        return m2
    merged = dict(m1)
    for s, e in m2:
        merged[s] = merged.get(s, 0) + e
    return tuple(sorted(merged.items()))


def _term_key(term: tuple[Monomial, Scalar]) -> tuple:
    """The printing order of a (monomial, coefficient) pair: by total
    degree, then by monomial."""
    mono = term[0]
    return sum(map(_exponent, mono)), mono


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
_TEXT_BITS = _SHORT_TEXT * 10 // 3  # a number of up to this many bits costs nothing to print


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
    their ``Fraction``s, bits and ``_factor_bits``, stored on ``p``: a
    caller reads ``p._sizes or _sizes(p)``."""
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
    n1, n2 = len(terms1), len(terms2)
    # the factor of fewer terms runs the outer loop (a constant one on a
    # tie), so a one-term factor sets up its insertion and scale once
    if n1 < n2 or (n1 == n2 == 1 and _UNIT_MONO in terms1):
        p, q, terms1, terms2 = q, p, terms2, terms1
    if METER.budget is not None:
        _charge(_products_units(p._sizes or _sizes(p), q._sizes or _sizes(q)))
    _add_terms(out, terms1, terms2)


def _add_terms(out: dict[Monomial, Scalar], terms1: dict, terms2: dict) -> None:
    """Add the product of two term dicts into ``out``, unmetered, with
    ``terms2`` in the outer loop: the arithmetic of ``_add_product``."""
    get = out.get
    for m2, c2 in terms2.items():  # one pass for a one-term factor
        unit = c2 == 1
        left = type(c2) is not int  # a ``Fraction`` on the left runs its own operator
        key = None
        if len(m2) == 1:  # one pair: inserted into each m1 as ``_mono_mul`` does
            ((sym, e),) = m2
            key = (sym,)
        for m1, c1 in terms1.items():
            if key is None:
                mono = _mono_mul(m1, m2) if m2 else m1
            else:
                i = bisect_left(m1, key)
                if i < len(m1) and m1[i][0] == sym:
                    mono = m1[:i] + ((sym, m1[i][1] + e),) + m1[i + 1 :]
                else:
                    mono = m1[:i] + m2 + m1[i:]
            c = c1 if unit else (c2 * c1 if left else c1 * c2)
            acc = get(mono)
            if acc is None:
                out[mono] = c
            else:
                acc = c + acc if type(acc) is int else acc + c
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
    return _wrap(out) if out else ZERO


def _digits_units(digits: int) -> int:
    """Units of converting a number of ``digits`` decimal digits between
    text and ``int``, in time quadratic in its digits past ``_SHORT_TEXT``."""
    return digits * digits // _TEXT_DIGITS if digits > _SHORT_TEXT else 0


def _charge_digits(digits: int) -> None:
    """Charge for a number of ``digits`` decimal digits before it is read."""
    if digits > _SHORT_TEXT and METER.budget is not None:
        _charge(_digits_units(digits))


def text_units(polys: Iterable[Polynomial]) -> int:
    """The units ``to_text`` charges for writing each of ``polys``: a
    coefficient's digits, about 3 per 10 of the bits ``_term_sizes``
    counts, cost ``_digits_units``.  The bits of each coefficient are
    tested inline; only a number past ``_TEXT_BITS`` is priced by a call."""
    units = 0
    for p in polys:
        for c in p._terms.values():
            if type(c) is int:
                bits = c.bit_length()
            else:
                bits = c.numerator.bit_length() + c.denominator.bit_length()
            if bits > _TEXT_BITS:
                units += _digits_units(bits * 3 // 10)
    return units


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
    def const(value: Scalar) -> "Polynomial":
        c = _scalar(value)
        if not c:
            return ZERO
        if c == 1:
            return ONE
        return _wrap({_UNIT_MONO: c})

    @staticmethod
    def symbol(name: Symbol) -> "Polynomial":
        return _wrap({((validate_symbol(name), 1),): 1})

    # -- inspection ----------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Scalar]:
        return dict(self._terms)

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
        _add_product(out, other, ONE)
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
                return ZERO
            if c == 1:
                return self
            if self._terms and METER.budget is not None:
                _charge(_products_units(self._sizes or _sizes(self), _term_sizes(c)))
            return _wrap({m: v * c for m, v in self._terms.items()})
        if not self._terms or not other._terms:
            return ZERO
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
        return repeated_squaring(self, exponent) if exponent else ONE

    # -- structural helpers ------------------------------------------------

    def substitute(self, sym: Symbol, replacement: "Polynomial | Scalar") -> "Polynomial":
        """Replace every occurrence of ``sym``, expanding the result: the
        ``substitute_symbol`` of this one polynomial."""
        return substitute_symbol((self,), sym, replacement)[0]

    def divide_by_symbol(self, sym: Symbol) -> "Polynomial":
        """Exact division by ``sym``; every term must contain it.  The pair
        of ``sym`` is found by bisection, as in ``substitute_symbol``, and
        sliced out or its exponent lowered."""
        key = (sym,)
        out: dict[Monomial, Scalar] = {}
        for mono, coeff in self._terms.items():
            i = bisect_left(mono, key)
            if i == len(mono) or mono[i][0] != sym:
                raise NotDivisible(f"term {mono} has no factor {sym}")
            e = mono[i][1]
            rest = ((sym, e - 1),) if e > 1 else ()
            out[mono[:i] + rest + mono[i + 1 :]] = coeff
        return _wrap(out)

    def eval_at(self, assignment: Mapping[Symbol, Scalar]) -> Fraction:
        """Exact rational value; every occurring symbol must be assigned
        an ``int`` or a ``Fraction``, read through ``_scalar``."""
        missing = self.symbols() - set(assignment)
        if missing:
            raise MissingSymbol(f"no value for {sorted(missing)}")
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            v = coeff
            for s, e in mono:
                v *= _scalar(assignment[s]) ** e
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
        """Canonical text form (graded, then lexicographic term order).
        Each term is written in one pass from the integers of its
        coefficient, its numerator and denominator (1 for an ``int``): the
        sign, the magnitude and ``/den``, with no ``Fraction`` arithmetic.
        Under a budget, the ``text_units`` of the polynomial are charged
        before ``str`` writes any number."""
        terms = self._terms
        if not terms:
            return "0"
        if METER.budget is not None:
            _charge(text_units((self,)))
        items = terms.items()
        if len(terms) > 1:
            items = sorted(items, key=_term_key)
        parts: list[str] = []
        for mono, coeff in items:
            num, den = coeff.as_integer_ratio()
            negative = num < 0
            if negative:
                num = -num
            mag = str(num) if den == 1 else f"{num}/{den}"
            if not mono:
                text = mag
            else:
                body = "*".join([s if e == 1 else f"{s}^{e}" for s, e in mono])
                text = body if num == 1 and den == 1 else f"{mag}*{body}"
            if parts:
                parts.append(f"- {text}" if negative else f"+ {text}")
            else:
                parts.append(f"-{text}" if negative else text)
        return " ".join(parts)


def _wrap(terms: dict[Monomial, Scalar]) -> Polynomial:
    p = Polynomial.__new__(Polynomial)
    p._terms = terms
    p._sizes = None
    return p


ZERO = _wrap({})
ONE = _wrap({_UNIT_MONO: 1})


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
    return [_wrap({_UNIT_MONO: v}) if v else ZERO for v in values]


def pooled(p: Polynomial, pool: dict) -> Polynomial:
    """``p`` with each monomial taken from ``pool``, a dict local to the
    call that builds a result: the first equal monomial pooled through it,
    whose (symbol, exponent) pairs are pooled too.  The stored ``_sizes``
    of ``p`` are carried over; a polynomial without terms is ``p`` itself."""
    if not p._terms:
        return p
    get = pool.get
    terms = {}
    for m, c in p._terms.items():
        mono = get(m)
        if mono is None:
            mono = tuple([pool.setdefault(pair, pair) for pair in m])
            pool[mono] = mono
        terms[mono] = c
    q = _wrap(terms)
    q._sizes = p._sizes
    return q


def shared_monomials(polys: Iterable[Polynomial]) -> list[Polynomial]:
    """The polynomials ``pooled`` through one pool: a table that keeps
    related polynomials for long then holds one copy of each monomial, not
    one per term."""
    pool: dict = {}
    return [pooled(p, pool) for p in polys]


def powers(a, top: int, product: Callable = mul) -> Iterator:
    """a, a^2, ..., a^top, each the ``product`` of the one before and a; by
    default ``*``, which for a series is the product of its kind."""
    power = a
    for m in range(1, top + 1):
        if m > 1:
            power = product(power, a)
        yield power


def substitute_symbol(
    polys: Sequence[Polynomial], sym: Symbol, replacement: Polynomial | Scalar
) -> list[Polynomial]:
    """Each of ``polys`` with ``sym`` replaced by ``replacement``, expanded.
    The ladder 1, r, r^2, ... up to the largest exponent of ``sym`` among
    them is built once by ``powers``; each term, with ``sym`` removed from
    its monomial by bisection, is multiplied by the rung of its exponent,
    charged the units ``_add_product`` would charge, from the term's own
    sizes and the rung's stored ones, without wrapping the term in a
    polynomial.  A polynomial without ``sym`` is returned as it is,
    unmetered."""
    tops = [max((e for mono in p._terms for s, e in mono if s == sym), default=0) for p in polys]
    if not any(tops):
        return list(polys)
    ladder = [ONE, *powers(as_poly(replacement), max(tops))]
    key = (sym,)
    out = []
    for p, top in zip(polys, tops):
        if top:
            terms: dict[Monomial, Scalar] = {}
            for mono, coeff in p._terms.items():
                i = bisect_left(mono, key)
                e = 0
                if i < len(mono) and mono[i][0] == sym:
                    e = mono[i][1]
                    mono = mono[:i] + mono[i + 1 :]
                rung = ladder[e]
                if METER.budget is not None:  # the units ``_add_product`` charges
                    rung_sizes = rung._sizes or _sizes(rung)
                    _charge(_products_units(_term_sizes(coeff, len(mono)), rung_sizes))
                # the term times its rung, in the loop order ``_add_product`` picks
                if len(rung._terms) > 1 or not mono:
                    _add_terms(terms, rung._terms, {mono: coeff})
                else:
                    _add_terms(terms, {mono: coeff}, rung._terms)
            p = _wrap(terms)
        out.append(p)
    return out


def repeated_squaring(a, k: int, product: Callable = mul):
    """a**k for k >= 1 by ``product``, from the first factor: at most two
    products per binary digit of k.  By default ``product`` is ``*``;
    ``dir_pow_int`` passes ``_convolve`` to power a scaled ``int`` list."""
    out = None
    while True:
        if k & 1:
            out = a if out is None else product(out, a)
        k >>= 1
        if not k:
            return out
        a = product(a, a)


def binom_poly(sym: Symbol, m: int) -> Polynomial:
    """Falling-factorial binomial coefficient s(s-1)...(s-m+1)/m! in ``sym``."""
    if m < 0:
        raise ValueError("binom_poly needs m >= 0")
    s = Polynomial.symbol(sym)
    out = ONE
    for i in range(m):
        out = out * (s - i)
    return out * Fraction(1, factorial(m))


def rising_poly(sym: Symbol, m: int) -> Polynomial:
    """Rising factorial s(s+1)...(s+m-1) in ``sym``."""
    if m < 0:
        raise ValueError("rising_poly needs m >= 0")
    s = Polynomial.symbol(sym)
    out = ONE
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
        text, start = self.text, self.pos
        while self.pos < len(text) and text[self.pos].isascii() and text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number", start)
        _charge_digits(self.pos - start)
        try:
            return int(text[start : self.pos])
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
    if ch.isascii() and ch.isdigit():
        return Polynomial.const(toks.take_rational())
    if ch.isalpha():
        start = toks.pos
        name = toks.take_ident()
        try:
            return Polynomial.symbol(name)
        except ValueError:
            shown = name if len(name) <= 40 else name[:40] + "..."
            raise PolynomialSyntaxError(f"unknown symbol {shown!r}", start) from None
    raise PolynomialSyntaxError("expected a term", toks.pos)
