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
from .series import SERIES_CAP, DirSeries, OrdSeries


def series_to_json(s: DirSeries | OrdSeries) -> dict[str, Any]:
    if isinstance(s, DirSeries):
        kind, lo = "dir", 1
    else:
        kind, lo = "ord", 0
    coeffs = {}
    for n in range(lo, s.trunc + 1):
        v = s[n]
        if not v.is_zero():
            coeffs[str(n)] = v.to_text()
    return {"kind": kind, "trunc": s.trunc, "coeffs": coeffs}


def series_from_json(obj: Any) -> DirSeries | OrdSeries:
    """Rebuild a series from its JSON form.  Every coefficient key must be
    an index of the series, written as a decimal integer, so that no
    coefficient is dropped; the truncation must be an integer no larger
    than ``SERIES_CAP``, checked before anything is allocated."""
    if not isinstance(obj, dict) or not {"kind", "trunc", "coeffs"} <= obj.keys():
        raise SeriesFormatError('a series is an object with "kind", "trunc" and "coeffs"')
    kind, trunc, items = obj["kind"], obj["trunc"], obj["coeffs"]
    if kind not in ("dir", "ord"):
        raise SeriesFormatError(f"unknown series kind {kind!r}")
    lo = 1 if kind == "dir" else 0
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
    series_cls = DirSeries if kind == "dir" else OrdSeries
    return series_cls(trunc, tuple(coeffs))


def series_to_json_text(s: DirSeries | OrdSeries) -> str:
    return json.dumps(series_to_json(s), indent=None, sort_keys=True)


def series_from_json_text(text: str) -> DirSeries | OrdSeries:
    return series_from_json(json.loads(text))


def series_to_csv(s: DirSeries | OrdSeries) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["index", "coefficient"])
    lo = 1 if isinstance(s, DirSeries) else 0
    for n in range(lo, s.trunc + 1):
        writer.writerow([n, s[n].to_text()])
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
