"""Finite matrix families over the divisor lattice.

Five families are built from series:

* ``mult``         column k holds a(x^k): entry(n, k) = a_{n/k} for k | n,
* ``column``       column m holds the m-th composition power of a series
                   with zero leading coefficient (column 0 is x),
* ``mixed``        column m holds b o a^(m),
* ``rd``           column k holds x^k o b o a^(log k); the pairs (b, a) are
                   the elements of the divisor-lattice analog of the Riordan
                   group, and ``rd_multiply`` is its law on pairs,
* ``riordan_ord``  the ordinary Riordan array: entry(n, k) = [x^n] b * a^k.

``mult`` and ``rd`` are filled by ``_lattice``, which writes coefficient j
of the k-th column series at entry (j*k, k), and the other three by
``_column_entries``, which writes the m-th series of a sequence as column m.
Storage is a sparse map keyed by (row, col).  ``mult`` and ``rd`` kinds
live on rows and columns 1..N and are supported on the divisibility order;
``column`` and ``mixed`` kinds keep rows 1..N but have columns 0..C with
C = floor(log2 N); ``riordan_ord`` is indexed 0..N on both sides.  Raw
products (``matmul``) are exact whenever the inner index range of the left
factor covers every index that can contribute, which holds for all the
products used here.  Built matrices are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import factorial
from typing import Callable, Iterable

from .errors import (
    KindMismatch,
    NonUnitLeadingCoefficient,
    ShapeMismatch,
    SingularDiagonal,
)
from .intfactor import s_max
from .poly import ONE, PSI, ZERO, Polynomial, Symbol, log_n_poly, sum_of_products
from .series import (
    DirSeries,
    OrdSeries,
    Series,
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

    def entry(self, n: int, k: int) -> Polynomial:
        if not (self.row_lo <= n <= self.row_hi and self.col_lo <= k <= self.col_hi):
            raise IndexError(f"({n},{k}) outside matrix index range")
        return self.entries.get((n, k), ZERO)

    def row(self, n: int) -> list[Polynomial]:
        return [self.entry(n, k) for k in range(self.col_lo, self.col_hi + 1)]

    def column(self, k: int) -> list[Polynomial]:
        return [self.entry(n, k) for n in range(self.row_lo, self.row_hi + 1)]

    def __eq__(self, other: object) -> bool:
        # equality is entrywise; the kind tag is bookkeeping
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
    return build_mult(dir_x(size), size)


def diagonal_log_matrix(size: int) -> DirMatrix:
    """Diagonal matrix whose (n, n) entry is the formal logarithm of n."""
    entries = {(n, n): log_n_poly(n) for n in range(2, size + 1)}
    return DirMatrix("product", 1, size, 1, size, _clean(entries))


def _lattice(kind: str, size: int, column: Callable[[int], DirSeries]) -> DirMatrix:
    """The matrix on indices 1..size whose entry (j*k, k) is coefficient j
    of ``column(k)``, a series of length size // k."""
    entries = {
        (j * k, k): v
        for k in range(1, size + 1)
        for j, v in enumerate(column(k).coeffs, start=1)
        if not v.is_zero()
    }
    return DirMatrix(kind, 1, size, 1, size, entries)


def build_mult(a: DirSeries, size: int) -> DirMatrix:
    """Multiplication operator of ``a``: column k is a(x^k)."""
    return _lattice("mult", size, lambda k: a.truncated(size // k))


def build_column(a: DirSeries, size: int) -> DirMatrix:
    """Composition-power columns of a series with zero leading coefficient:
    column m is the m-th composition power (column 0 is x)."""
    require_lead(a, 0, "matrix --kind column")
    top = s_max(size)
    columns = chain([dir_x(size)], powers(a.truncated(size), top))
    return DirMatrix("column", 1, size, 0, top, _column_entries(columns))


def build_mixed(b: DirSeries, a: DirSeries, size: int) -> DirMatrix:
    """Columns b o a^(m) for m = 0..floor(log2 N); the composition product
    of a multiplication operator and a column matrix."""
    require_lead(a, 0, "build_mixed")
    top = s_max(size)
    b = b.truncated(size)
    columns = chain([b], (dir_mul(b, p) for p in powers(a.truncated(size), top)))
    return DirMatrix("mixed", 1, size, 0, top, _column_entries(columns))


def _column_entries(columns: Iterable[Series]) -> dict[tuple[int, int], Polynomial]:
    """The nonzero entries (n, m) of the matrix whose column m is the m-th
    series of ``columns``, its rows numbered from the series' first index."""
    return {
        (n, m): v
        for m, col in enumerate(columns)
        for n, v in enumerate(col.coeffs, start=col.first)
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
    _require_rd_bases(b, a)
    power = dir_pow_param(a.truncated(size))

    def column(k: int) -> DirSeries:
        rows = size // k
        col_base = series_substitute_symbol(power.truncated(rows), PSI, log_n_poly(k))
        return dir_mul(b.truncated(rows), col_base)

    return _lattice("rd", size, column)


def build_riordan_ord(b: OrdSeries, a: OrdSeries, size: int) -> DirMatrix:
    """Ordinary Riordan array on indices 0..size: entry(n,k) = [x^n] b*a^k."""
    require_lead(a, 0, "matrix --kind riordan")
    columns = accumulate(repeat(a.truncated(size), size), ord_mul, initial=b.truncated(size))
    return DirMatrix("riordan_ord", 0, size, 0, size, _column_entries(columns))


def matmul(left: DirMatrix, right: DirMatrix) -> DirMatrix:
    """Raw matrix product; inner index ranges must agree."""
    if (left.col_lo, left.col_hi) != (right.row_lo, right.row_hi):
        raise ShapeMismatch(
            f"columns {left.col_lo}..{left.col_hi} vs rows {right.row_lo}..{right.row_hi}"
        )
    by_row: dict[int, list[tuple[int, Polynomial]]] = {}
    for (j, k), v in right.entries.items():
        by_row.setdefault(j, []).append((k, v))
    pairs: dict[tuple[int, int], list] = {}
    for (n, j), v in left.entries.items():
        for k, w in by_row.get(j, ()):
            pairs.setdefault((n, k), []).append((v, w))
    out = {key: sum_of_products(p) for key, p in pairs.items()}
    return DirMatrix(
        "product", left.row_lo, left.row_hi, right.col_lo, right.col_hi, _clean(out)
    )


def apply_to_series(m: DirMatrix, b: DirSeries) -> DirSeries:
    """Matrix-vector product over indices 1..N."""
    if (m.col_lo, m.col_hi) != (1, b.trunc):
        raise ShapeMismatch(f"matrix columns {m.col_lo}..{m.col_hi} vs series 1..{b.trunc}")
    if m.row_lo != 1:
        raise ShapeMismatch("matrix rows must start at 1 to produce a series")
    pairs: list[list] = [[] for _ in range(m.row_hi)]
    for (n, k), v in m.entries.items():
        if bk := b[k]:
            pairs[n - 1].append((v, bk))
    return DirSeries(m.row_hi, tuple(map(sum_of_products, pairs)))


def rd_action(a: DirSeries, b: DirSeries) -> DirSeries:
    """Action of the basic group matrix with first series x: the result's
    coefficient at n is the divisor sum of b_d times [x^{n/d}] a^(log d)."""
    require_lead(a, 1, "rd_action")
    size = min(a.trunc, b.trunc)
    power = dir_pow_param(a.truncated(size))
    pairs: list[list] = [[] for _ in range(size)]
    for d in range(1, size + 1):
        bd = b[d]
        if bd.is_zero():
            continue
        spec = series_substitute_symbol(power.truncated(size // d), PSI, log_n_poly(d))
        for at, v in zip(pairs[d - 1 :: d], spec.coeffs):
            if v:
                at.append((bd, v))
    return DirSeries(size, tuple(map(sum_of_products, pairs)))


def rd_multiply(
    first: tuple[DirSeries, DirSeries], second: tuple[DirSeries, DirSeries], size: int
) -> DirMatrix:
    """Group law on pairs: the product of the rd matrices of (b, a) and
    (f, g) is the rd matrix of (b o A_a(f), a o A_a(g)), with A_a the
    action ``rd_action`` of a.  Built from the series alone, without a raw
    matrix product; that it equals ``matmul`` of the two matrices is the
    group law, which the verification suite (``thm3.group-law``) and the
    tests check."""
    (b, a), (f, g) = first, second
    return build_rd(dir_mul(b, rd_action(a, f)), dir_mul(a, rd_action(a, g)), size)


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
            acc = sum_of_products(  # j runs over k | j | n, j < n
                (v, w)
                for j in range(k, n, k)
                if n % j == 0 and (v := m.entries.get((n, j))) and (w := out.get((j, k)))
            )
            out[(n, k)] = acc * (Fraction(-1) / diag[n])
    return DirMatrix("inverse", 1, size, 1, size, _clean(out))


def exp_conjugate(m: DirMatrix) -> DirMatrix:
    """Conjugate by the diagonal of reciprocal factorials: entry(n, k) goes
    to n! * entry / k!.  Row n of the result, read as a polynomial, is the
    exponential row polynomial of the matrix.  Columns beyond the last row
    are dropped."""
    size = m.row_hi
    entries: dict[tuple[int, int], Polynomial] = {}
    for (n, k), v in m.entries.items():
        if k <= size:
            entries[(n, k)] = v * Fraction(factorial(n), factorial(k))
    return DirMatrix(m.kind, m.row_lo, size, m.col_lo, min(m.col_hi, size), entries)


def row_polynomial(m: DirMatrix, n: int, sym: Symbol) -> Polynomial:
    """Row n contracted against powers of a symbol: sum entry(n,k)*sym^k."""
    s = Polynomial.symbol(sym)
    return sum_of_products(
        (v, s**k) for k in range(m.col_lo, m.col_hi + 1) if (v := m.entries.get((n, k)))
    )
