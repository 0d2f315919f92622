"""Truncated formal power series in two algebras.

``OrdSeries`` is an ordinary truncated power series with indices 0..N and
the Cauchy product.  ``DirSeries`` has indices 1..N (no constant term) and
multiplies by Dirichlet composition,

    (a o b)_n = sum over divisors d of n of a_d * b_{n/d},

whose identity is the series x.  Both subclass the one immutable value
class ``Series``, which holds the truncation and the coefficients and
defines equality, indexing, the arithmetic operators and ``truncated``
once; the two kinds differ only in their class constants ``first`` (the
first index, 1 or 0) and ``kind`` ("dir" or "ord", the tag of the JSON
form), and in which product ``*`` calls.  Code outside this module reads
``s.first`` and ``s.kind`` instead of testing the class.  Coefficients are polynomials,
so one code path serves numeric series, parametric powers (polynomial in
``psi``) and fully symbolic tables.

Truncation contract: every operation is exact for all indices up to the
minimum truncation of its inputs; mixing truncations silently takes the
minimum.  Dirichlet composition at index n never reads indices beyond n,
so no padding is needed.

All series are immutable values; operations are pure functions.  The
parametric power, logarithm and parametric exponential all apply an
ordinary series to a composition series through ``dir_apply_series``.

Rational series skip ``Polynomial`` arithmetic in the composition
kernels, the inverse and the power ladder.  A constant series whose common
denominator d has at most ``SCALED_DEN_BITS`` bits is scaled once to its
integer numerators A = d * a; past that guard, big-integer products would
cost more than the ``Fraction`` work they save, so such inputs keep the
``Fraction`` or ``Polynomial`` loops.  ``dirichlet_convolve`` convolves
scaled ``int`` inputs by the slice updates of ``_convolve``, keeping
integral results ``int``, and the ``Polynomial`` coefficients otherwise by
``_convolve_polys``, which gathers at each index the index of the first
factor of each pair of nonzero coefficients, one shared ``int`` per
product, and sums the pairs of one index at a time; ``ord_mul`` and
``log_power_sum`` gather the same way, and ``_sums`` pools the monomials
of their sums, so a result keeps each repeated monomial once.
``dir_apply_series`` keeps every power A^(m) as an ``int`` list from
``_convolve`` and sums the powers in one ``int`` row per monomial of the
ordinary series, over each power's nonzero support only, dividing once at
the end, row by row.  ``dir_pow_int`` keeps A^(k) an ``int`` list from
the first squaring on, composed by ``_convolve``, while k times the bits
of d is at most ``SCALED_DEN_BITS`` (so d^k fits too), and divides by d^k
once at the end.
``dir_inverse`` runs one forward-accumulating recurrence: on integers
scaled by powers of A_1 for such a series (``_inverse_scaled``), and on
the ``Polynomial`` coefficients otherwise (``_inverse_polys``), a constant
series past the guard included.  Coefficients stay ``Polynomial`` and
results are identical on every path.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, compress
from math import factorial, lcm
from operator import add
from typing import Callable, ClassVar, Sequence

from .errors import (
    ArgumentOutOfRange,
    LeadingCoefficientNotOne,
    LeadingCoefficientNotZero,
    NonUnitLeadingCoefficient,
    TruncationTooSmall,
)
from .intfactor import s_max, s_upto
from .poly import (
    CALL_UNITS,
    INDEX_UNITS,
    METER,
    ONE,
    PSI,
    ZERO,
    Polynomial,
    Scalar,
    Symbol,
    _wrap,
    as_poly,
    binom_poly,
    constant_polys,
    constant_values,
    int_units,
    log_n_poly,
    pooled,
    powers,
    repeated_squaring,
    substitute_symbol,
    sum_of_products,
)

Coeff = Polynomial | Scalar

# the largest truncation, or coefficient index, the CLI and ``load()`` accept
SERIES_CAP = 10_000

# the largest |k| of ``twist_int``: the coefficient at index n grows by
# about k * log2(n) bits, so at N = 10000 its text grows with k
TWIST_CAP = 64

# the largest common denominator, in bits, of an input that the kernels
# scale to integers, and of the k-th power of it in ``dir_pow_int``
SCALED_DEN_BITS = 64


class Series:
    """A truncated series of either kind: the coefficients at indices
    ``first``..``trunc``, so ``coeffs[n - first]`` is the coefficient at
    index n.  Its fields ``trunc`` and ``coeffs`` are its only state and
    cannot be assigned; series of different kinds are never equal."""

    first: ClassVar[int]  # the first index: 1 for composition, 0 for ordinary
    kind: ClassVar[str]  # "dir" or "ord", the kind tag of the JSON form

    def __init__(self, trunc: int, coeffs: tuple[Polynomial, ...]):
        name = type(self).__name__
        if trunc < self.first:
            raise ValueError(f"{name} needs trunc >= {self.first}")
        if len(coeffs) != trunc - self.first + 1:
            raise ValueError(f"{name} needs one coefficient per index {self.first}..{trunc}")
        vars(self).update(trunc=trunc, coeffs=coeffs)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign or delete {name}: a series is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"{type(self).__name__}(trunc={self.trunc!r}, coeffs={self.coeffs!r})"

    def __getitem__(self, n: int) -> Polynomial:
        if not self.first <= n <= self.trunc:
            raise IndexError(f"index {n} outside {self.first}..{self.trunc}")
        return self.coeffs[n - self.first]

    def __add__(self, other):
        if type(other) is not type(self):  # the indices of two kinds do not line up
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        return type(self)(trunc, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        return type(self)(trunc, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        """The product of the kind (``dir_mul`` or ``ord_mul``) with a
        series of the same kind, and scaling by anything else."""
        if type(other) is type(self):
            return dir_mul(self, other) if self.kind == "dir" else ord_mul(self, other)
        c = as_poly(other)
        return type(self)(self.trunc, tuple(v * c for v in self.coeffs))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def truncated(self, n: int):
        if n > self.trunc:
            raise TruncationTooSmall(f"series has trunc {self.trunc}, need {n}")
        return type(self)(n, self.coeffs[: n - self.first + 1])


class DirSeries(Series):
    """Series without constant term under Dirichlet composition."""

    first = 1
    kind = "dir"


class OrdSeries(Series):
    """Ordinary truncated power series with indices 0..N."""

    first = 0
    kind = "ord"


def require_lead(a: Series, value: int | None, op: str, which: str = "") -> None:
    """Raise unless the coefficient at the first index of ``a`` is what the
    operation ``op`` needs: 0 for ``value`` 0 (else ``LeadingCoefficientNotZero``),
    1 for ``value`` 1 (else ``LeadingCoefficientNotOne``) and a nonzero rational
    for ``value`` None (else ``NonUnitLeadingCoefficient``).  The message names
    ``op``, calls the coefficient of an ordinary series its constant term and,
    with ``which`` ("first" or "second"), names the series of a pair."""
    lead = a[a.first]
    where = f"index {a.first}" if a.first else "index 0, the constant term"
    where += f" of the {which} series" if which else ""
    if value == 0 and lead:
        raise LeadingCoefficientNotZero(f"{op} needs coefficient 0 at {where}, got {lead}")
    if value == 1 and lead != ONE:
        raise LeadingCoefficientNotOne(f"{op} needs coefficient 1 at {where}, got {lead}")
    if value is None and (not lead.is_constant() or lead.constant_value() == 0):
        raise NonUnitLeadingCoefficient(
            f"{op} needs a nonzero rational coefficient at {where}, got {lead}"
        )


# ---------------------------------------------------------------------------
# Dirichlet-composition series (indices 1..N)
# ---------------------------------------------------------------------------


def dir_from_fn(trunc: int, fn: Callable[[int], Coeff]) -> DirSeries:
    return DirSeries(trunc, tuple(as_poly(fn(n)) for n in range(1, trunc + 1)))


def dir_x(trunc: int) -> DirSeries:
    """The composition identity x."""
    return dir_from_fn(trunc, lambda n: 1 if n == 1 else 0)


def dirichlet_convolve(
    a: Sequence[Polynomial], b: Sequence[Polynomial], trunc: int
) -> list[Polynomial]:
    """Divisor-indexed convolution kernel of ``dir_mul``, and so of every
    composition product of two series; the power ladder of
    ``dir_apply_series`` and the scaled power of ``dir_pow_int`` convolve
    their ``int`` lists with ``_convolve`` directly.

    When both inputs are constant up to ``trunc`` and each has a common
    denominator of at most ``SCALED_DEN_BITS`` bits, they are scaled to
    integers and convolved in ``int`` arithmetic.  The guard exists
    because the common denominator can grow with the length: for 1/(n^2+1)
    it reaches about 14k bits at N=10000, where big-integer products cost
    far more than the ``Fraction`` work they replace.  Other inputs are
    convolved as ``Polynomial``s.  Both give the same coefficients."""
    scaled_a = _scaled_integers(a[:trunc])
    scaled_b = None if scaled_a is None else _scaled_integers(b[:trunc])
    if scaled_b is None:
        return _convolve_polys(a, b, trunc)
    (xs, da), (ys, db) = scaled_a, scaled_b
    acc = _convolve(xs, ys, trunc)
    den = da * db
    if den == 1:
        return constant_polys(acc)
    return constant_polys(_over(v, den) if v else 0 for v in acc)


def _convolve(xs: Sequence[int], ys: Sequence[int], trunc: int) -> list[int]:
    """The divisor-indexed convolution of two ``int`` lists up to
    ``trunc``.  A slice update per nonzero x_d adds x_d * y_q at every
    index d*q.  With q0 the first index of a nonzero y_q, an x_d with
    d > trunc // q0 meets none, so the updates stop there: in the power
    ladder, whose y is a series with y_1 = 0, every d past trunc / 2 is
    skipped.  Each update that runs is charged as ``_charge_call`` says."""
    ybits = _charge_call(trunc, ys)
    acc = [0] * trunc
    q0 = next(compress(range(1, trunc + 1), ys), trunc + 1)
    for d in compress(range(1, trunc // q0 + 1), xs):
        x = xs[d - 1]
        n = trunc // d
        if ybits:
            METER.charge(int_units(n, x.bit_length(), ybits[n - 1]))
        acc[d - 1 :: d] = map(add, acc[d - 1 :: d], map(x.__mul__, ys[:n]))
    return acc


def _convolve_polys(xs: Sequence[Polynomial], ys: Sequence[Polynomial], trunc: int) -> list:
    """``_convolve`` over ``Polynomial``s: for each nonzero x_d and y_q
    with d*q <= trunc, d is gathered at index d*q, and each index is
    summed once by ``_sums`` over its pairs (x_d, y_q)."""
    _charge_call(trunc)
    firsts: list[list] = [[] for _ in range(trunc)]
    nonzero_y = [q for q, _ in _nonzero(ys[:trunc])]
    for d, _ in _nonzero(xs[:trunc]):
        for q in nonzero_y:
            if d * q > trunc:
                break
            firsts[d * q - 1].append(d)
    return _sums(firsts, lambda n, d: (xs[d - 1], ys[n // d - 1]))


def _sums(firsts: list[list], pair: Callable[[int, int], tuple], first: int = 1) -> list:
    """The ``sum_of_products`` at each index n, counted from ``first``, of
    the pairs ``pair(n, i)`` for the first-factor indices i listed in
    ``firsts[n - first]``; ZERO for an empty list.  The pairs of an index
    are built only while it is summed, its list is dropped then, and the
    sums are ``pooled`` through one pool."""
    pool: dict = {}
    out = []
    for n, ids in enumerate(firsts, first):
        firsts[n - first] = None
        out.append(pooled(sum_of_products([pair(n, i) for i in ids]), pool) if ids else ZERO)
    return out


def _nonzero(values: Sequence, start: int = 1) -> list[tuple[int, Polynomial]]:
    """The pairs (n, v_n) of the nonzero values, indexed from ``start``."""
    return [(n, v) for n, v in enumerate(values, start) if v]


def _charge_call(trunc: int, values: Sequence[int] = ()) -> list[int]:
    """Charge the minimum of a kernel call with ``trunc`` indices; return
    the running bit lengths of the ``int`` ``values``, which price its
    slice updates (empty without a budget)."""
    if METER.budget is None:
        return []
    METER.charge(CALL_UNITS + INDEX_UNITS * trunc)
    return list(accumulate(map(int.bit_length, values[:trunc])))


def _scaled_integers(coeffs: Sequence[Polynomial]) -> tuple[list[int], int] | None:
    """Integer numerators over the common denominator of a run of constant
    polynomials; None when one carries a symbol or the common denominator
    passes ``SCALED_DEN_BITS`` bits."""
    values = constant_values(coeffs)
    if values is None:
        return None
    den = 1
    for q in {v.denominator for v in values}:
        den = lcm(den, q)
        if den.bit_length() > SCALED_DEN_BITS:
            return None
    return [v.numerator * (den // v.denominator) for v in values], den


def dir_mul(a: DirSeries, b: DirSeries) -> DirSeries:
    n = min(a.trunc, b.trunc)
    return DirSeries(n, tuple(dirichlet_convolve(a.coeffs, b.coeffs, n)))


def dir_inverse(a: DirSeries, op: str = "dinv") -> DirSeries:
    """The composition inverse: a o inverse(a) = x.  A constant series
    whose common denominator has at most ``SCALED_DEN_BITS`` bits is
    inverted in scaled integers by ``_inverse_scaled``, any other series
    in ``Polynomial`` arithmetic.  The lead must be a nonzero rational;
    the error names the operation ``op`` that needs the inverse."""
    require_lead(a, None, op)
    scaled = _scaled_integers(a.coeffs)
    if scaled is not None:
        return DirSeries(a.trunc, tuple(constant_polys(_inverse_scaled(*scaled))))
    out = _inverse_polys(a.coeffs, Polynomial.const(1 / a[1].constant_value()))
    return DirSeries(a.trunc, tuple(out))


def _inverse_recurrence(a: Sequence[int]) -> list[int]:
    """b with a o b = x over the integers, for a with a_1 = 1: once b_n is
    known, a_d * b_n is added forward into the accumulator at index d*n for
    every d >= 2.  The meter is charged as in ``_convolve``."""
    trunc = len(a)
    abits = _charge_call(trunc, a)
    acc = [0] * trunc
    out = []
    for n in range(1, trunc + 1):
        bn = 1 if n == 1 else -acc[n - 1]
        out.append(bn)
        if bn:
            if abits:
                q = trunc // n
                METER.charge(int_units(q - 1, bn.bit_length(), abits[q - 1] - abits[0]))
            acc[2 * n - 1 :: n] = map(add, acc[2 * n - 1 :: n], map(bn.__mul__, a[1 : trunc // n]))
    return out


def _inverse_polys(a: Sequence[Polynomial], inv_lead: Polynomial) -> list[Polynomial]:
    """``_inverse_recurrence`` over ``Polynomial``s: once b_n is known, its
    pair with each nonzero a_d, d >= 2, is gathered at index d*n, and
    b_(d*n) is the ``sum_of_products`` there."""
    trunc = len(a)
    _charge_call(trunc)
    pairs: list[list] = [[] for _ in range(trunc)]
    nonzero_a = _nonzero(a)[1:]  # past the nonzero lead a_1
    out = []
    for n in range(1, trunc + 1):
        bn = inv_lead if n == 1 else -sum_of_products(pairs[n - 1]) * inv_lead
        out.append(bn)
        if not bn:
            continue
        for d, ad in nonzero_a:
            if d * n > trunc:
                break
            pairs[d * n - 1].append((ad, bn))
    return out


def _inverse_scaled(numerators: list[int], den: int) -> list[Scalar]:
    """The inverse of a = A / den with A integral, as rationals (an
    integral value as an ``int``, by ``_over``).  With
    L = A_1 and s(n) the number of prime factors of n (``s_upto``),
    B_n = b_n * L^(s(n)+1) / den is an integer, and B solves the integer
    recurrence B_n = -sum over d | n, d > 1 of W_d * B_{n/d} with weights
    W_d = A_d * L^(s(d)-1): the unit-lead ``_inverse_recurrence``.  The
    only division per index is b_n = den * B_n / L^(s(n)+1)."""
    s = s_upto(len(numerators))
    lead_powers = [1, *powers(numerators[0], max(s) + 1)]
    weights = [1] + [x * lead_powers[k - 1] for x, k in zip(numerators[1:], s[2:])]
    out = _inverse_recurrence(weights)
    return [_over(den * bn, lead_powers[k + 1]) for bn, k in zip(out, s[1:])]


def dir_pow_int(a: DirSeries, k: int) -> DirSeries:
    """k-fold composition power; k = 0 gives x, negative k inverts first.
    Binary powering by ``repeated_squaring``.  A constant a = A / d whose
    power's denominator d^k has at most ``SCALED_DEN_BITS`` bits, judged
    as k times the bits of d without computing d^k (d = 1 always
    qualifies), is powered in scaled integers: the ``int`` list A is
    composed by ``_convolve`` from the first squaring on, and A^(k) is
    divided by d^k once, at the end.  Any other series is powered by
    ``*``, which composes."""
    if k < 0:
        return dir_pow_int(dir_inverse(a, "dpow_int"), -k)
    if not k:
        return dir_x(a.trunc)
    scaled = _scaled_integers(a.coeffs)
    if scaled is None or (scaled[1] > 1 and k * scaled[1].bit_length() > SCALED_DEN_BITS):
        return repeated_squaring(a, k)
    numerators, den = scaled
    trunc = a.trunc
    power = repeated_squaring(numerators, k, lambda x, y: _convolve(x, y, trunc))
    if den > 1:
        total = den**k
        power = (_over(v, total) if v else 0 for v in power)
    return DirSeries(trunc, tuple(constant_polys(power)))


def _over(v: int, den: int) -> Scalar:
    """v / den as a coefficient stores it: an ``int`` when integral, else
    a ``Fraction``."""
    q = Fraction(v, den)
    return q.numerator if q.denominator == 1 else q


def dir_subst_xk(a: DirSeries, k: int) -> DirSeries:
    """Substitute x -> x**k: the coefficient at index k*j is a_j."""
    if k < 1:
        raise ArgumentOutOfRange(f"subst_xk needs k >= 1, got {k}")
    out = [ZERO] * a.trunc
    for j in range(1, a.trunc // k + 1):
        out[k * j - 1] = a[j]
    return DirSeries(a.trunc, tuple(out))


def dir_apply_series(f: OrdSeries, a: DirSeries) -> DirSeries:
    """Apply an ordinary series to a composition series with zero leading
    coefficient: x*f_0 + sum of f_m * a^(m) for m >= 1.

    ``dir_pow_param``, ``dir_log`` and ``dir_exp_param`` are this sum for
    f = (1+t)^psi, log(1+t) and e^(psi*t).  A constant ``a`` whose common
    denominator has at most ``SCALED_DEN_BITS`` bits is summed in scaled
    integers by ``_apply_series_scaled``, whose powers are ``int`` lists
    from ``_convolve``; any other ``a`` sums ``Polynomial`` multiples
    of each power a^(m).  Both take the powers from ``powers`` one at a
    time and give the same coefficients."""
    require_lead(a, 0, "dir_apply_series")
    top = s_max(a.trunc)
    if f.trunc < top:
        raise TruncationTooSmall(f"need ordinary trunc >= {top}, have {f.trunc}")
    scaled = _scaled_integers(a.coeffs)
    if scaled is not None:
        return _apply_series_scaled(f, *scaled, top)
    out = DirSeries(a.trunc, (f[0],) + (ZERO,) * (a.trunc - 1))  # x * f_0
    for m, power in enumerate(powers(a, top), start=1):
        fm = f[m]
        if fm:
            out = out + power * fm
    return out


def _apply_series_scaled(f: OrdSeries, numerators: list[int], den: int, top: int) -> DirSeries:
    """``dir_apply_series`` for a = A / den with A integral.  Each power
    A^(m) is an ``int`` list from ``_convolve``.  With F the common
    denominator of f_1..f_top, every monomial mu of f gets one integer
    row, which accumulates f_m[mu] * F * den^(top-m) * A^(m)[n]; the rows
    are divided by F * den^top once, at the end.  A^(m) vanishes at every
    n with fewer than m prime factors, so each power's nonzero support is
    found once and the rows are added to there only; the meter still
    charges each row addition as ``trunc`` products.  The output is built
    row by row: each row is popped, its nonzero entries are divided into
    the term dicts of their indices, and it is freed before the next."""
    trunc = len(numerators)
    terms = [f[m].terms for m in range(top + 1)]
    fden = lcm(1, *(c.denominator for t in terms[1:] for c in t.values()))
    rows = {}
    ladder = powers(numerators, top, lambda x, y: _convolve(x, y, trunc))
    for m, power in enumerate(ladder, start=1):
        weight = fden * den ** (top - m)
        support = list(compress(range(trunc), power))
        values = list(filter(None, power))
        bits = sum(map(int.bit_length, values)) if METER.budget is not None else 0
        for mono, c in terms[m].items():
            w = c.numerator * (weight // c.denominator)
            if bits:
                METER.charge(int_units(trunc, w.bit_length(), bits))
            row = rows.setdefault(mono, [0] * trunc)
            for n, v in zip(support, map(w.__mul__, values)):
                row[n] += v
    total = fden * den**top
    out: list[dict] = [{} for _ in range(trunc)]
    for mono in list(rows):
        row = rows.pop(mono)
        for n in compress(range(trunc), row):
            out[n][mono] = _over(row[n], total)
    coeffs = [_wrap(cell) if cell else ZERO for cell in out]
    coeffs[0] = coeffs[0] + f[0]  # x * f_0
    return DirSeries(trunc, tuple(coeffs))


def dir_pow_param(a: DirSeries) -> DirSeries:
    """The parametric power with exponent ``psi``: the binomial expansion
    of (1 + (a - x))^psi under composition.  Needs leading coefficient 1."""
    require_lead(a, 1, "dpow_param")
    f = ord_from_fn(s_max(a.trunc), lambda m: binom_poly(PSI, m) if m else 1)
    return dir_apply_series(f, _without_lead(a))


def dir_log(a: DirSeries) -> DirSeries:
    """Composition logarithm: the alternating sum of (a - x)^(m) / m."""
    require_lead(a, 1, "dlog")
    f = ord_from_fn(s_max(a.trunc), lambda m: Fraction((-1) ** (m + 1), m) if m else 0)
    return dir_apply_series(f, _without_lead(a))


def _without_lead(a: DirSeries) -> DirSeries:
    """a - x for a with coefficient 1 at index 1: the coefficients of ``a``
    with ZERO in place of that 1, no other coefficient built again."""
    return DirSeries(a.trunc, (ZERO,) + a.coeffs[1:])


def dir_exp_param(b: DirSeries) -> DirSeries:
    """Parametric exponential: x + sum of psi^m / m! * b^(m); needs zero
    leading coefficient."""
    require_lead(b, 0, "dexp")
    psi = Polynomial.symbol(PSI)
    f = ord_from_fn(
        s_max(b.trunc), lambda m: psi**m * Fraction(1, factorial(m)) if m else 1
    )
    return dir_apply_series(f, b)


def star_derivative(a: DirSeries) -> DirSeries:
    """Multiply the coefficient at index n by the formal logarithm of n."""
    return DirSeries(
        a.trunc, tuple(a[n] * log_n_poly(n) for n in range(1, a.trunc + 1))
    )


def series_substitute_symbol(a: Series, sym: Symbol, r: Coeff) -> Series:
    """Replace ``sym`` by ``r`` in every coefficient of a series of either
    kind; the result has the kind of ``a``.  One ``substitute_symbol`` call
    builds the powers of ``r`` once for the whole series, and keeps a
    coefficient without ``sym`` as it is."""
    return type(a)(a.trunc, tuple(substitute_symbol(a.coeffs, sym, r)))


def log_power_sum(
    c: Sequence[Polynomial], family: DirSeries, sym: Symbol, scale: Coeff = 1
) -> DirSeries:
    """The sum over d of c_d * family|_{sym = scale*log d}(x^d), exact up to
    the shorter of ``c`` (c_1, c_2, ...) and ``family``: the action of the
    basic group matrix when ``family`` is a^(psi).  For each nonzero c_d
    and each nonzero coefficient j of its column, d is gathered at index
    d*j, and each index is summed once by ``_sums`` over its pairs of c_d
    and the column's coefficient."""
    trunc = min(len(c), family.trunc)
    firsts: list[list] = [[] for _ in range(trunc)]
    columns = {}  # the coefficients of family|_{sym = scale*log d}, by d
    for d, _ in _nonzero(c[:trunc]):
        column = series_substitute_symbol(family.truncated(trunc // d), sym, log_n_poly(d) * scale)
        columns[d] = column.coeffs
        for j, _ in _nonzero(column.coeffs):
            firsts[d * j - 1].append(d)
    coeffs = _sums(firsts, lambda n, d: (c[d - 1], columns[d][n // d - 1]))
    return DirSeries(trunc, tuple(coeffs))


def twist_int(a: DirSeries, k: int) -> DirSeries:
    """Multiply the coefficient at index n by n**k (k may be negative,
    |k| at most ``TWIST_CAP``)."""
    if abs(k) > TWIST_CAP:
        raise ArgumentOutOfRange(f"twist needs |k| <= {TWIST_CAP}, got {k}")
    return DirSeries(
        a.trunc,
        tuple(a[n] * Fraction(n) ** k for n in range(1, a.trunc + 1)),
    )


def perfect_power_embed(a: OrdSeries, m: int, trunc: int | None = None) -> DirSeries:
    """Embed an ordinary series into the composition algebra by sending the
    coefficient at n to index m**n.  The embedding turns Cauchy products
    into composition products."""
    if m < 2:
        raise ValueError("perfect_power_embed needs m >= 2")
    if trunc is None:
        trunc = m**a.trunc
    out = [ZERO] * trunc
    power = 1
    for n in range(0, a.trunc + 1):
        if power > trunc:
            break
        out[power - 1] = a[n]
        power *= m
    return DirSeries(trunc, tuple(out))


# ---------------------------------------------------------------------------
# Ordinary (Cauchy) series (indices 0..N)
# ---------------------------------------------------------------------------


def ord_from_fn(trunc: int, fn: Callable[[int], Coeff]) -> OrdSeries:
    return OrdSeries(trunc, tuple(as_poly(fn(n)) for n in range(trunc + 1)))


def ord_one(trunc: int) -> OrdSeries:
    return ord_from_fn(trunc, lambda n: 1 if n == 0 else 0)


def ord_x(trunc: int) -> OrdSeries:
    return ord_from_fn(trunc, lambda n: 1 if n == 1 else 0)


def ord_mul(a: OrdSeries, b: OrdSeries) -> OrdSeries:
    """The Cauchy product: for each nonzero a_i and b_j with i + j <= n, i
    is gathered at index i + j, and each index is summed once by ``_sums``
    over its pairs (a_i, b_j); metered like ``_convolve_polys``.  Each
    factor's nonzero coefficients are found by one ``_nonzero`` scan."""
    n = min(a.trunc, b.trunc)
    _charge_call(n + 1)
    firsts: list[list] = [[] for _ in range(n + 1)]
    nonzero_b = [j for j, _ in _nonzero(b.coeffs, 0)]
    for i, _ in _nonzero(a.coeffs[: n + 1], 0):
        for j in nonzero_b:
            if i + j > n:
                break
            firsts[i + j].append(i)
    ac, bc = a.coeffs, b.coeffs
    return OrdSeries(n, tuple(_sums(firsts, lambda k, i: (ac[i], bc[k - i]), 0)))


def ord_log(a: OrdSeries) -> OrdSeries:
    """Logarithm of a series with constant term 1, by the standard
    derivative recurrence n*l_n = n*a_n - sum over 0 < k < n of k*l_k*a_(n-k),
    summed over the nonzero a_j only."""
    require_lead(a, 1, "ord_log")
    out = [ZERO]
    weighted = [ZERO]  # -k * l_k
    lower: list[tuple[int, Polynomial]] = []  # the nonzero (j, a_j), 0 < j < n
    for n in range(1, a.trunc + 1):
        an = a[n]
        pairs = [(an * n, ONE)] if an else []
        pairs += [(weighted[n - j], aj) for j, aj in lower]
        out.append(sum_of_products(pairs) * Fraction(1, n))
        weighted.append(out[n] * -n)
        if an:
            lower.append((n, an))
    return OrdSeries(a.trunc, tuple(out))


def ord_exp(b: OrdSeries) -> OrdSeries:
    """Exponential of a series with constant term 0, by the recurrence
    n*e_n = sum over 0 < k <= n of k*b_k*e_(n-k), summed over the nonzero
    b_k only."""
    require_lead(b, 0, "ord_exp")
    out = [ONE]
    weighted: list[tuple[int, Polynomial]] = []  # the nonzero (k, k*b_k), 0 < k <= n
    for n in range(1, b.trunc + 1):
        if b[n]:
            weighted.append((n, b[n] * n))
        pairs = [(wk, out[n - k]) for k, wk in weighted]
        out.append(sum_of_products(pairs) * Fraction(1, n))
    return OrdSeries(b.trunc, tuple(out))


def ord_pow_param(a: OrdSeries) -> OrdSeries:
    """Parametric power a**psi = exp(psi * log a); constant term must be 1."""
    require_lead(a, 1, "ord_pow_param")
    psi = Polynomial.symbol(PSI)
    return ord_exp(ord_log(a) * psi)

