"""JSON and CSV forms for series and matrices.

Series JSON: ``{"kind": "dir"|"ord", "trunc": N, "coeffs": {"<index>":
"<polynomial text>"}}`` with zero coefficients omitted.  Matrix JSON uses
an ``"entries"`` map keyed ``"n,k"``.  CSV emits polynomial text cells in
canonical order, so outputs are stable byte-for-byte.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

from .errors import SeriesFormatError
from .matrices import DirMatrix
from .poly import ZERO, parse_polynomial
from .series import SERIES_CAP, DirSeries, OrdSeries, Series


_SERIES_CLASSES = {cls.kind: cls for cls in (DirSeries, OrdSeries)}


def series_to_json(s: Series) -> dict[str, Any]:
    coeffs = {str(n): v.to_text() for n, v in enumerate(s.coeffs, s.first) if not v.is_zero()}
    return {"kind": s.kind, "trunc": s.trunc, "coeffs": coeffs}


def series_from_json(obj: Any) -> Series:
    """Rebuild a series from its JSON form.  Every coefficient key must be
    an index of the series, written as a decimal integer, so that no
    coefficient is dropped; the truncation must be an integer no larger
    than ``SERIES_CAP``, checked before anything is allocated."""
    if not isinstance(obj, dict) or not {"kind", "trunc", "coeffs"} <= obj.keys():
        raise SeriesFormatError('a series is an object with "kind", "trunc" and "coeffs"')
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
        coeffs[n - lo] = parse_polynomial(text)
    return series_cls(trunc, tuple(coeffs))


def series_to_json_text(s: Series) -> str:
    return json.dumps(series_to_json(s), indent=None, sort_keys=True)


def series_to_csv(s: Series) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["index", "coefficient"])
    writer.writerows((n, v.to_text()) for n, v in enumerate(s.coeffs, s.first))
    return out.getvalue()


def matrix_to_csv(m: DirMatrix) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for n in range(m.row_lo, m.row_hi + 1):
        writer.writerow([v.to_text() for v in m.row(n)])
    return out.getvalue()


def matrix_to_json(m: DirMatrix) -> dict[str, Any]:
    entries = {
        f"{n},{k}": v.to_text()
        for (n, k), v in sorted(m.entries.items())
        if not v.is_zero()
    }
    return {
        "kind": m.kind,
        "rows": [m.row_lo, m.row_hi],
        "cols": [m.col_lo, m.col_hi],
        "entries": entries,
    }


def matrix_to_json_text(m: DirMatrix) -> str:
    return json.dumps(matrix_to_json(m), indent=None, sort_keys=True)
