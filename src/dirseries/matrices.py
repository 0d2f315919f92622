"""Finite matrix families over the divisor lattice.

Four families are built from series:

* ``mult``         column k holds a(x^k): entry(n, k) = a_{n/k} for k | n,
* ``column``       column m holds the m-th composition power of a series
                   with zero leading coefficient (column 0 is x),
* ``mixed``        column m holds b o a^(m),
* ``rd``           column k holds x^k o b o a^(log k); these matrices are
                   the group elements of the divisor-lattice analog of the
                   Riordan group,
* ``riordan_ord``  the ordinary Riordan array: entry(n, k) = [x^n] b * a^k.

Storage is a sparse map keyed by (row, col).  ``mult`` and ``rd`` kinds
live on rows and columns 1..N and are supported on the divisibility order;
``column`` and ``mixed`` kinds keep rows 1..N but have columns 0..C with
C = floor(log2 N); ``riordan_ord`` is indexed 0..N on both sides.  Raw
products (``matmul``) are exact whenever the inner index range of the left
factor covers every index that can contribute, which holds for all the
products used here.

Matrix construction is per column and columns are independent; built
matrices are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import factorial
from typing import Iterable

from .errors import (
    KindMismatch,
    NonUnitLeadingCoefficient,
    ShapeMismatch,
    SingularDiagonal,
    TruncationTooSmall,
)
from .intfactor import s_max
from .poly import ONE, PSI, ZERO, Polynomial, Symbol, log_n_poly
from .series import (
    DirSeries,
    OrdSeries,
    dir_mul,
    dir_pow_param,
    dir_x,
    ord_mul,
    powers,
    require_lead,
    series_substitute_symbol,
)


@dataclass(frozen=True)
class DirMatrix:
    kind: str
    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int
    entries: dict[tuple[int, int], Polynomial]
    base: tuple[DirSeries, DirSeries] | None = field(default=None, compare=False)

    def entry(self, n: int, k: int) -> Polynomial:
        if not (self.row_lo <= n <= self.row_hi and self.col_lo <= k <= self.col_hi):
            raise IndexError(f"({n},{k}) outside matrix index range")
        return self.entries.get((n, k), ZERO)

    def row(self, n: int) -> list[Polynomial]:
        return [self.entry(n, k) for k in range(self.col_lo, self.col_hi + 1)]

    def column(self, k: int) -> list[Polynomial]:
        return [self.entry(n, k) for n in range(self.row_lo, self.row_hi + 1)]

    def __eq__(self, other: object) -> bool:
        # equality is entrywise; the kind tag and base series are bookkeeping
        if not isinstance(other, DirMatrix):
            return NotImplemented
        return (
            (self.row_lo, self.row_hi, self.col_lo, self.col_hi)
            == (other.row_lo, other.row_hi, other.col_lo, other.col_hi)
            and self.entries == other.entries
        )


def _clean(entries: dict[tuple[int, int], Polynomial]) -> dict:
    return {key: val for key, val in entries.items() if not val.is_zero()}


def identity_matrix(size: int) -> DirMatrix:
    return DirMatrix(
        "mult", 1, size, 1, size, {(n, n): ONE for n in range(1, size + 1)}
    )


def diagonal_log_matrix(size: int) -> DirMatrix:
    """Diagonal matrix whose (n, n) entry is the formal logarithm of n."""
    entries = {(n, n): log_n_poly(n) for n in range(2, size + 1)}
    return DirMatrix("product", 1, size, 1, size, _clean(entries))


def build_mult(a: DirSeries, size: int) -> DirMatrix:
    """Multiplication operator of ``a``: column k is a(x^k)."""
    if a.trunc < size:
        raise TruncationTooSmall(f"need trunc >= {size}, have {a.trunc}")
    entries: dict[tuple[int, int], Polynomial] = {}
    for k in range(1, size + 1):
        for j in range(1, size // k + 1):
            v = a[j]
            if not v.is_zero():
                entries[(j * k, k)] = v
    return DirMatrix("mult", 1, size, 1, size, entries)


def build_column(a: DirSeries, size: int) -> DirMatrix:
    """Composition-power columns of a series with zero leading coefficient:
    column m is the m-th composition power (column 0 is x)."""
    if a.trunc < size:
        raise TruncationTooSmall(f"need trunc >= {size}, have {a.trunc}")
    require_lead(a, 0, "matrix --kind column")
    top = s_max(size)
    columns = chain([dir_x(size)], powers(a.truncated(size), top))
    return DirMatrix("column", 1, size, 0, top, _column_entries(columns))


def build_mixed(b: DirSeries, a: DirSeries, size: int) -> DirMatrix:
    """Columns b o a^(m) for m = 0..floor(log2 N); the composition product
    of a multiplication operator and a column matrix."""
    if min(a.trunc, b.trunc) < size:
        raise TruncationTooSmall(f"need trunc >= {size}")
    require_lead(a, 0, "build_mixed")
    top = s_max(size)
    b = b.truncated(size)
    columns = chain([b], (dir_mul(b, p) for p in powers(a.truncated(size), top)))
    return DirMatrix("mixed", 1, size, 0, top, _column_entries(columns))


def _column_entries(columns: Iterable[DirSeries]) -> dict[tuple[int, int], Polynomial]:
    """The nonzero entries (n, m) of the matrix whose column m is the m-th
    series of ``columns``."""
    return {
        (n, m): v
        for m, col in enumerate(columns)
        for n, v in enumerate(col.coeffs, start=1)
        if not v.is_zero()
    }


def _require_rd_bases(b: DirSeries, a: DirSeries) -> None:
    if a[1] != ONE:
        raise NonUnitLeadingCoefficient(
            f"matrix --kind rd needs coefficient 1 at index 1 of the second series, got {a[1]}"
        )
    lead = b[1]
    if not lead.is_constant() or lead.constant_value() == 0:
        raise NonUnitLeadingCoefficient(
            "matrix --kind rd needs a nonzero rational coefficient at index 1"
            f" of the first series, got {lead}"
        )


def build_rd(b: DirSeries, a: DirSeries, size: int) -> DirMatrix:
    """Group-family matrix: column k is x^k o b o a^(log k)."""
    if min(a.trunc, b.trunc) < size:
        raise TruncationTooSmall(f"need trunc >= {size}")
    _require_rd_bases(b, a)
    power = dir_pow_param(a.truncated(size))
    entries: dict[tuple[int, int], Polynomial] = {}
    for k in range(1, size + 1):
        rows = size // k
        col_base = series_substitute_symbol(power.truncated(rows), PSI, log_n_poly(k))
        col = dir_mul(b.truncated(rows), col_base)
        for j in range(1, rows + 1):
            v = col[j]
            if not v.is_zero():
                entries[(j * k, k)] = v
    return DirMatrix("rd", 1, size, 1, size, entries, base=(b, a))


def build_riordan_ord(b: OrdSeries, a: OrdSeries, size: int) -> DirMatrix:
    """Ordinary Riordan array on indices 0..size: entry(n,k) = [x^n] b*a^k."""
    if min(a.trunc, b.trunc) < size:
        raise TruncationTooSmall(f"need trunc >= {size}")
    require_lead(a, 0, "matrix --kind riordan")
    entries: dict[tuple[int, int], Polynomial] = {}
    col = b.truncated(size)
    for k in range(0, size + 1):
        if k > 0:
            col = ord_mul(col, a)
        for n in range(k, size + 1):
            v = col[n]
            if not v.is_zero():
                entries[(n, k)] = v
    return DirMatrix("riordan_ord", 0, size, 0, size, entries)


def matmul(left: DirMatrix, right: DirMatrix) -> DirMatrix:
    """Raw matrix product; inner index ranges must agree."""
    if (left.col_lo, left.col_hi) != (right.row_lo, right.row_hi):
        raise ShapeMismatch(
            f"columns {left.col_lo}..{left.col_hi} vs rows {right.row_lo}..{right.row_hi}"
        )
    by_row: dict[int, list[tuple[int, Polynomial]]] = {}
    for (j, k), v in right.entries.items():
        by_row.setdefault(j, []).append((k, v))
    out: dict[tuple[int, int], Polynomial] = {}
    for (n, j), v in left.entries.items():
        for k, w in by_row.get(j, ()):
            key = (n, k)
            acc = out.get(key)
            prod = v * w
            out[key] = prod if acc is None else acc + prod
    return DirMatrix(
        "product", left.row_lo, left.row_hi, right.col_lo, right.col_hi, _clean(out)
    )


def apply_to_series(m: DirMatrix, b: DirSeries) -> DirSeries:
    """Matrix-vector product over indices 1..N."""
    if (m.col_lo, m.col_hi) != (1, b.trunc):
        raise ShapeMismatch(f"matrix columns {m.col_lo}..{m.col_hi} vs series 1..{b.trunc}")
    out = [ZERO] * (m.row_hi - m.row_lo + 1)
    for (n, k), v in m.entries.items():
        bk = b[k]
        if not bk.is_zero():
            out[n - m.row_lo] = out[n - m.row_lo] + v * bk
    if m.row_lo != 1:
        raise ShapeMismatch("matrix rows must start at 1 to produce a series")
    return DirSeries(m.row_hi, tuple(out))


def rd_action(a: DirSeries, b: DirSeries) -> DirSeries:
    """Action of the basic group matrix with first series x: the result's
    coefficient at n is the divisor sum of b_d times [x^{n/d}] a^(log d)."""
    require_lead(a, 1, "rd_action")
    size = min(a.trunc, b.trunc)
    power = dir_pow_param(a.truncated(size))
    out = [ZERO] * size
    for d in range(1, size + 1):
        bd = b[d]
        if bd.is_zero():
            continue
        spec = series_substitute_symbol(power.truncated(size // d), PSI, log_n_poly(d))
        for j in range(1, size // d + 1):
            v = spec[j]
            if not v.is_zero():
                out[j * d - 1] = out[j * d - 1] + bd * v
    return DirSeries(size, tuple(out))


def rd_multiply(m1: DirMatrix, m2: DirMatrix) -> DirMatrix:
    """Group-law product of two rd matrices, built from the base series of
    the factors without a raw matrix product.  That it equals the raw
    product ``matmul(m1, m2)`` is the group law, which the verification
    suite (``thm3.group-law``) and the tests check."""
    if m1.kind != "rd" or m2.kind != "rd" or m1.base is None or m2.base is None:
        raise KindMismatch("rd_multiply needs two rd-kind matrices")
    if (m1.row_hi, m1.col_hi) != (m2.row_hi, m2.col_hi):
        raise KindMismatch("rd_multiply needs matrices of equal size")
    b, a = m1.base
    f, g = m2.base
    size = m1.row_hi
    new_b = dir_mul(b, rd_action(a, f))
    new_a = dir_mul(a, rd_action(a, g))
    return build_rd(new_b, new_a, size)


def rd_inverse(m: DirMatrix) -> DirMatrix:
    """Inverse by exact triangular solve over the divisibility order; the
    diagonal must consist of nonzero rational constants."""
    if (m.row_lo, m.col_lo) != (1, 1) or m.row_hi != m.col_hi:
        raise KindMismatch("rd_inverse needs a square matrix on indices 1..N")
    size = m.row_hi
    diag: dict[int, Fraction] = {}
    for n in range(1, size + 1):
        d = m.entries.get((n, n), ZERO)
        if not d.is_constant() or d.constant_value() == 0:
            raise SingularDiagonal(f"diagonal entry at {n} is {d}")
        diag[n] = d.constant_value()
    out: dict[tuple[int, int], Polynomial] = {}
    for k in range(1, size + 1):
        out[(k, k)] = Polynomial.const(1 / diag[k])
        for n in range(2 * k, size + 1, k):
            acc = ZERO
            for j in range(k, n, k):  # j runs over k | j | n, j < n
                if n % j == 0:
                    v = m.entries.get((n, j))
                    w = out.get((j, k))
                    if v is not None and w is not None:
                        acc = acc + v * w
            if not acc.is_zero():
                out[(n, k)] = acc * (Fraction(-1) / diag[n])
    return DirMatrix("inverse", 1, size, 1, size, _clean(out))


def exp_conjugate(m: DirMatrix) -> DirMatrix:
    """Conjugate by the diagonal of reciprocal factorials: entry(n, k) goes
    to n! * entry / k!.  Row n of the result, read as a polynomial, is the
    exponential row polynomial of the matrix.  Columns beyond the last row
    are dropped."""
    size = m.row_hi
    if size > 500:
        raise ValueError("exp_conjugate is capped at size 500")
    entries: dict[tuple[int, int], Polynomial] = {}
    for (n, k), v in m.entries.items():
        if k <= size:
            entries[(n, k)] = v * Fraction(factorial(n), factorial(k))
    return DirMatrix(m.kind, m.row_lo, size, m.col_lo, min(m.col_hi, size), entries)


def row_polynomial(m: DirMatrix, n: int, sym: Symbol) -> Polynomial:
    """Row n contracted against powers of a symbol: sum entry(n,k)*sym^k."""
    s = Polynomial.symbol(sym)
    out = ZERO
    for k in range(m.col_lo, m.col_hi + 1):
        v = m.entries.get((n, k))
        if v is not None:
            out = out + v * s**k
    return out
