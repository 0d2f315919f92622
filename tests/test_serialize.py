import csv
import io
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from dirseries.errors import DirAlgebraError, SeriesFormatError
from dirseries.matrices import DirMatrix, build_column, build_mult
from dirseries.poly import ONE, ZERO, Polynomial, coeff_symbol, parse_polynomial
from dirseries.randgen import random_dir_series, random_ord_series
from dirseries.serialize import (
    matrix_to_csv,
    matrix_to_json,
    series_from_json,
    series_to_csv,
    series_to_json,
    series_to_json_text,
)
from dirseries.series import SERIES_CAP, DirSeries, OrdSeries, dir_from_fn


def test_series_json_roundtrip_dir():
    rng = random.Random(90)
    a = random_dir_series(rng, 20)
    obj = series_to_json(a)
    assert obj["kind"] == "dir" and obj["trunc"] == 20
    assert series_from_json(obj) == a


def test_series_json_roundtrip_ord():
    rng = random.Random(91)
    a = random_ord_series(rng, 12, const=Fraction(1, 2))
    assert series_from_json(series_to_json(a)) == a


def test_series_json_omits_zeros():
    a = dir_from_fn(10, lambda n: 1 if n == 3 else 0)
    obj = series_to_json(a)
    assert obj["coeffs"] == {"3": "1"}
    assert series_from_json(obj) == a


def test_series_json_text_stable():
    rng = random.Random(92)
    a = random_dir_series(rng, 16)
    text = series_to_json_text(a)
    assert series_from_json(json.loads(text)) == a
    assert series_to_json_text(series_from_json(json.loads(text))) == text


def test_series_json_bad_kind():
    with pytest.raises(ValueError):
        series_from_json({"kind": "weird", "trunc": 2, "coeffs": {}})


@pytest.mark.parametrize(
    "kind, keys",
    [
        ("dir", ["1", "0"]),
        ("dir", ["1", "9"]),
        ("dir", ["1", "x"]),
        ("dir", ["1", "02"]),
        ("ord", ["0", "-1"]),
        ("ord", ["0", "5"]),
        ("ord", ["0", "1.0"]),
    ],
)
def test_series_json_rejects_keys_outside_range(kind, keys):
    obj = {"kind": kind, "trunc": 4, "coeffs": {k: "1" for k in keys}}
    with pytest.raises(DirAlgebraError):
        series_from_json(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "dir"},
        [1, 2],
        {"kind": "dir", "trunc": 4, "coeffs": {"1": 5}},
        {"kind": "dir", "trunc": "x", "coeffs": {}},
        {"kind": "dir", "trunc": 4, "coeffs": []},
        {"kind": "dir", "trunc": SERIES_CAP + 1, "coeffs": {"1": "1"}},
        {"kind": "dir", "trunc": 3, "coeffs": {"1": "1"}, "coefs": {"2": "5"}},
    ],
    ids=["no-trunc", "list", "coeff-not-text", "trunc-not-int", "coeffs-list",
         "trunc-over-cap", "unknown-key"],
)
def test_series_json_rejects_malformed_objects(obj):
    with pytest.raises(SeriesFormatError):
        series_from_json(obj)


def test_series_json_trunc_over_cap_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(SeriesFormatError):
            series_from_json({"kind": "dir", "trunc": 3_000_000, "coeffs": {"1": "1"}})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # 3M coefficient slots alone would take 24 MB


def test_series_csv():
    a = dir_from_fn(3, lambda n: Fraction(1, n))
    lines = series_to_csv(a).splitlines()
    assert lines[0] == "index,coefficient"
    assert lines[1] == "1,1"
    assert lines[2] == "2,1/2"


def test_matrix_csv_and_json():
    a = dir_from_fn(6, lambda n: 0 if n == 1 else 1)
    m = build_column(a, 6)
    csv_text = matrix_to_csv(m)
    assert csv_text.splitlines()[3] == "0,1,1"  # row 4 of the golden table
    obj = matrix_to_json(m)
    assert obj["rows"] == [1, 6] and obj["cols"] == [0, 2]
    assert obj["entries"]["4,2"] == "1"
    json.dumps(obj)  # serializable


def test_matrix_csv_cells_are_the_entry_texts():
    # a cell absent from the entries prints as "0", the text of ZERO
    cells = {(1, 0): "-1/2 + phi", (2, 2): "-7/3", (3, 1): "3 + a1*beta^2", (2, 1): "0"}
    entries = {key: parse_polynomial(text) for key, text in cells.items()}
    assert entries[2, 1] is ZERO
    m = DirMatrix("product", 1, 3, 0, 2, entries)
    want = "".join(",".join(v.to_text() for v in m.row(n)) + "\n" for n in (1, 2, 3))
    assert matrix_to_csv(m) == want == "-1/2 + phi,0,0\n0,0,-7/3\n0,3 + a1*beta^2,0\n"


def test_matrix_csv_row_major_order():
    rng = random.Random(93)
    a = random_dir_series(rng, 5)
    m = build_mult(a, 5)
    lines = matrix_to_csv(m).splitlines()
    assert len(lines) == 5
    assert lines[0].split(",")[0] == a[1].to_text()


def _csv_reference(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _wide_polynomial(rng: random.Random) -> Polynomial:
    """A seeded sum of up to four terms over phi, beta, psi, L2 and a<k>,
    with signed integer or fractional coefficients of up to 400 digits."""
    total = ZERO
    for _ in range(rng.randint(0, 4)):
        digits = rng.choice((1, 3, 120, 400))
        num = rng.randint(10 ** (digits - 1), 10**digits) * rng.choice((-1, 1))
        term = Polynomial.const(Fraction(num, rng.choice((1, 1, 7, 3**250))))
        for sym in rng.sample(("phi", "beta", "psi", "L2", coeff_symbol(rng.randint(1, 40))), 2):
            term = term * Polynomial.symbol(sym) ** rng.randint(0, 3)
        total = total + term
    return total


@pytest.mark.parametrize("seed", range(4))
def test_csv_text_matches_a_csv_writer(seed):
    # no cell (polynomial text, an index or 0) needs quoting, so the rows
    # joined with commas are what a CSV writer writes
    rng = random.Random(f"csv-{seed}")
    dir_series = DirSeries(12, tuple(_wide_polynomial(rng) for _ in range(12)))
    ord_series = OrdSeries(9, (ONE,) + tuple(_wide_polynomial(rng) for _ in range(9)))
    for s in (dir_series, ord_series):
        cells = [v.to_text() for v in s.coeffs]
        want = _csv_reference([("index", "coefficient"), *enumerate(cells, s.first)])
        assert series_to_csv(s) == want
    entries = {(n, k): _wide_polynomial(rng) for n in range(1, 7) for k in range(0, 4)
               if rng.random() < 0.6}
    m = DirMatrix("column", 1, 6, 0, 3, {key: v for key, v in entries.items() if v})
    assert matrix_to_csv(m) == _csv_reference([[v.to_text() for v in m.row(n)] for n in range(1, 7)])
