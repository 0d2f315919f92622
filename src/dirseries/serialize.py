"""JSON and CSV forms for series and matrices.

Series JSON: ``{"kind": "dir"|"ord", "trunc": N, "coeffs": {"<index>":
"<polynomial text>"}}`` with zero coefficients omitted.  Matrix JSON uses
an ``"entries"`` map keyed ``"n,k"``.  CSV emits polynomial text cells in
canonical order, so outputs are stable byte-for-byte.  No cell (polynomial
text, an index or ``0``) holds a comma, a quote or a line break, so no
cell is ever quoted and each line is its cells joined by commas.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .errors import PolynomialSyntaxError, SeriesFormatError
from .poly import ZERO, parse_polynomial
from .series import SERIES_CAP, DirSeries, OrdSeries, Series

if TYPE_CHECKING:  # a series command never loads ``matrices``
    from .matrices import DirMatrix


_SERIES_CLASSES = {cls.kind: cls for cls in (DirSeries, OrdSeries)}


def series_to_json(s: Series) -> dict[str, Any]:
    coeffs = {str(n): v.to_text() for n, v in enumerate(s.coeffs, s.first) if v}
    return {"kind": s.kind, "trunc": s.trunc, "coeffs": coeffs}


def series_from_json(obj: Any) -> Series:
    """Rebuild a series from its JSON object of "kind", "trunc" and
    "coeffs", which may hold no other key.  Every coefficient key must be an
    index of the series, written as a decimal integer, so that no
    coefficient is dropped; the truncation must be an integer no larger
    than ``SERIES_CAP``, checked before anything is allocated."""
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
    for key, text in items.items():
        key = str(key)
        n = int(key) if key.isdecimal() else -1
        if str(n) != key or not lo <= n <= trunc:
            raise SeriesFormatError(f"coefficient key {key!r} is not an index in {lo}..{trunc}")
        if not isinstance(text, str):
            raise SeriesFormatError(f"coefficient {key} is {text!r}, not polynomial text")
        try:
            coeffs[n - lo] = parse_polynomial(text)
        except PolynomialSyntaxError as exc:
            raise SeriesFormatError(f"coefficient {key}: {exc}") from None
    return series_cls(trunc, tuple(coeffs))


def series_to_json_text(s: Series) -> str:
    return json.dumps(series_to_json(s), indent=None, sort_keys=True)


def series_to_csv(s: Series) -> str:
    lines = [f"{n},{v.to_text()}\n" for n, v in enumerate(s.coeffs, s.first)]
    return "index,coefficient\n" + "".join(lines)


def matrix_to_csv(m: DirMatrix) -> str:
    """One line per row; a cell absent from the entries is written as 0.
    The entries are grouped by row once, and each line is joined from a
    fresh row of "0" cells filled at its entries' columns, one row at a
    time."""
    by_row: dict[int, list] = {}
    for (n, k), v in m.entries.items():
        by_row.setdefault(n, []).append((k, v))
    width = m.col_hi - m.col_lo + 1
    lines = []
    for n in range(m.row_lo, m.row_hi + 1):
        row = ["0"] * width
        for k, v in by_row.get(n, ()):
            row[k - m.col_lo] = v.to_text()
        lines.append(",".join(row) + "\n")
    return "".join(lines)


def matrix_to_json(m: DirMatrix) -> dict[str, Any]:
    entries = {f"{n},{k}": v.to_text() for (n, k), v in sorted(m.entries.items())}
    return {
        "kind": m.kind,
        "rows": [m.row_lo, m.row_hi],
        "cols": [m.col_lo, m.col_hi],
        "entries": entries,
    }


def matrix_to_json_text(m: DirMatrix) -> str:
    return json.dumps(matrix_to_json(m), indent=None, sort_keys=True)
