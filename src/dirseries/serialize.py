"""JSON and CSV forms for series and matrices.

Series JSON: ``{"kind": "dir"|"ord", "trunc": N, "coeffs": {"<index>":
"<polynomial text>"}}`` with zero coefficients omitted.  Matrix JSON uses
an ``"entries"`` map keyed ``"n,k"``.  CSV emits polynomial text cells in
canonical order, so outputs are stable byte-for-byte.  No cell (polynomial
text, an index or ``0``) holds a comma, a quote or a line break, so no
cell is ever quoted and each line is its cells joined by commas.

The four writers take a ``write`` callable and render one coefficient,
entry or row at a time, handing ``write`` chunks of about ``CHUNK``
characters through ``write_chunked``: the whole text never exists at
once, so printing a table needs memory for one chunk, not for the text
two or three times over.  The JSON writers give the bytes of
``json.dumps(obj, indent=None, sort_keys=True)`` and a newline, with the
keys put in ``sort_keys`` order by ``_decimal_order``.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _quoted
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from .errors import PolynomialSyntaxError, SeriesFormatError
from .poly import METER, ZERO, Polynomial, parse_polynomial
from .series import SERIES_CAP, DirSeries, OrdSeries, Series

if TYPE_CHECKING:  # a series command never loads ``matrices``
    from .matrices import DirMatrix

# the characters handed to ``write`` at a time: each write to an
# unbuffered stdout is a system call
CHUNK = 1 << 16

_SERIES_CLASSES = {cls.kind: cls for cls in (DirSeries, OrdSeries)}


def series_from_json(obj: Any) -> Series:
    """Rebuild a series from its JSON object of "kind", "trunc" and
    "coeffs", which may hold no other key.  Every coefficient key must be an
    index of the series, written as a decimal integer, so that no
    coefficient is dropped; the truncation must be an integer no larger
    than ``SERIES_CAP``, checked before anything is allocated.  Each
    distinct coefficient text is parsed once, and equal coefficients share
    its immutable polynomial; the units of that parse are charged again at
    each later occurrence, so ``METER`` counts and refuses as if every key
    were parsed.  A text that fails to parse is not remembered: the error
    names its first key in the file's order."""
    if not isinstance(obj, dict) or not {"kind", "trunc", "coeffs"} <= obj.keys():
        raise SeriesFormatError('a series is an object with "kind", "trunc" and "coeffs"')
    unknown = obj.keys() - {"kind", "trunc", "coeffs"}
    if unknown:
        raise SeriesFormatError(f"unknown series key {min(unknown)!r}")
    kind, trunc, items = obj["kind"], obj["trunc"], obj["coeffs"]
    series_cls = _SERIES_CLASSES.get(kind) if isinstance(kind, str) else None
    if series_cls is None:
        raise SeriesFormatError(f"unknown series kind {kind!r}")
    lo = series_cls.first
    if type(trunc) is not int or not lo <= trunc <= SERIES_CAP:
        raise SeriesFormatError(
            f"{kind} series need an integer trunc in {lo}..{SERIES_CAP}, got {trunc!r}"
        )
    if not isinstance(items, dict):
        raise SeriesFormatError('"coeffs" must be an object')
    coeffs = [ZERO] * (trunc - lo + 1)
    parsed: dict[str, tuple[Polynomial, int]] = {}  # text -> (its polynomial, the units it cost)
    for key, text in items.items():
        key = str(key)
        n = int(key) if key.isdecimal() else -1
        if str(n) != key or not lo <= n <= trunc:
            raise SeriesFormatError(f"coefficient key {key!r} is not an index in {lo}..{trunc}")
        if not isinstance(text, str):
            raise SeriesFormatError(f"coefficient {key} is {text!r}, not polynomial text")
        seen = parsed.get(text)
        if seen is not None:
            p, units = seen
            METER.charge(units)
        else:
            spent = METER.spent
            try:
                p = parse_polynomial(text)
            except PolynomialSyntaxError as exc:
                raise SeriesFormatError(f"coefficient {key}: {exc}") from None
            parsed[text] = p, METER.spent - spent
        coeffs[n - lo] = p
    return series_cls(trunc, tuple(coeffs))


def write_chunked(pieces: Iterable[str], write: Callable[[str], Any]) -> None:
    """Write the concatenated ``pieces`` by ``write`` in chunks of about
    ``CHUNK`` characters (a piece longer than that is one chunk)."""
    chunk: list[str] = []
    size = 0
    for piece in pieces:
        chunk.append(piece)
        size += len(piece)
        if size >= CHUNK:
            write("".join(chunk))
            chunk.clear()
            size = 0
    if chunk:
        write("".join(chunk))


def _decimal_order(lo: int, hi: int) -> Iterator[int]:
    """The integers lo..hi (lo >= 0) in the order of their decimal text,
    the order of ``sort_keys``: 0, 1, 10, 100, 11, ..., 2, 20, ...  Each
    step goes to n * 10 when it is in range, else one up from n (from
    n // 10 once n reaches hi) with trailing zeros dropped; no text is
    made."""
    if lo == 0 <= hi:
        yield 0
    n = 1
    for _ in range(hi):
        if n >= lo:
            yield n
        if n * 10 <= hi:
            n *= 10
        else:
            if n >= hi:
                n //= 10
            n += 1
            while n % 10 == 0:
                n //= 10


def series_to_json_text(s: Series, write: Callable[[str], Any]) -> None:
    """Write ``json.dumps`` of the series' JSON object with ``sort_keys``,
    and a newline."""
    def pieces():
        yield '{"coeffs": {'
        sep = ""
        for n in _decimal_order(s.first, s.trunc):
            v = s.coeffs[n - s.first]
            if v:
                yield f'{sep}"{n}": {_quoted(v.to_text())}'
                sep = ", "
        yield f'}}, "kind": {_quoted(s.kind)}, "trunc": {s.trunc}}}\n'

    write_chunked(pieces(), write)


def series_to_csv(s: Series, write: Callable[[str], Any]) -> None:
    """Write the header line and one line "index,coefficient" per index."""
    lines = (f"{n},{v.to_text()}\n" for n, v in enumerate(s.coeffs, s.first))
    write_chunked(chain(("index,coefficient\n",), lines), write)


def _by_row(m: DirMatrix) -> dict[int, list]:
    """The (col, entry) pairs of each row that has entries."""
    by_row: dict[int, list] = {}
    for (n, k), v in m.entries.items():
        by_row.setdefault(n, []).append((k, v))
    return by_row


def matrix_to_csv(m: DirMatrix, write: Callable[[str], Any]) -> None:
    """Write one line per row; a cell absent from the entries is written
    as 0.  The entries are grouped by row once, and each line is joined
    from a fresh row of "0" cells filled at its entries' columns, one row
    at a time."""
    by_row = _by_row(m)
    width = m.col_hi - m.col_lo + 1

    def lines():
        for n in range(m.row_lo, m.row_hi + 1):
            row = ["0"] * width
            for k, v in by_row.get(n, ()):
                row[k - m.col_lo] = v.to_text()
            yield ",".join(row) + "\n"

    write_chunked(lines(), write)


def matrix_to_json_text(m: DirMatrix, write: Callable[[str], Any]) -> None:
    """Write ``json.dumps`` of the matrix's JSON object with ``sort_keys``,
    and a newline: the entries are keyed "n,k", whose text order is that
    of n and then of k, so each row's entries follow in the decimal order
    of their columns, the rows in that of their indices."""
    by_row = _by_row(m)

    def pieces():
        yield f'{{"cols": [{m.col_lo}, {m.col_hi}], "entries": {{'
        sep = ""
        for n in _decimal_order(m.row_lo, m.row_hi):
            row = by_row.get(n)
            if row:
                for k, v in sorted(row, key=lambda entry: str(entry[0])):
                    yield f'{sep}"{n},{k}": {_quoted(v.to_text())}'
                    sep = ", "
        yield f'}}, "kind": {_quoted(m.kind)}, "rows": [{m.row_lo}, {m.row_hi}]}}\n'

    write_chunked(pieces(), write)
