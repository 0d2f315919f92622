import csv
import io
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from dirseries.errors import ArgumentOutOfRange, DirAlgebraError, SeriesFormatError
from dirseries.matrices import DirMatrix, build_column, build_mult
from dirseries.poly import METER, ONE, ZERO, Polynomial, coeff_symbol, parse_polynomial
from dirseries.randgen import random_dir_series, random_ord_series
from dirseries.serialize import (
    CHUNK,
    _decimal_order,
    matrix_to_csv,
    matrix_to_json_text,
    series_from_json,
    series_to_csv,
    series_to_json_text,
)
from dirseries.series import SERIES_CAP, DirSeries, OrdSeries, dir_from_fn


def written(writer, obj) -> str:
    """The text ``writer`` writes for ``obj``."""
    out = io.StringIO()
    writer(obj, out.write)
    return out.getvalue()


def series_json_reference(s) -> str:
    """The series JSON form through ``json.dumps``, as the CLI prints it."""
    coeffs = {str(n): v.to_text() for n, v in enumerate(s.coeffs, s.first) if v}
    obj = {"kind": s.kind, "trunc": s.trunc, "coeffs": coeffs}
    return json.dumps(obj, indent=None, sort_keys=True) + "\n"


def matrix_json_reference(m) -> str:
    entries = {f"{n},{k}": v.to_text() for (n, k), v in m.entries.items()}
    obj = {"kind": m.kind, "rows": [m.row_lo, m.row_hi], "cols": [m.col_lo, m.col_hi],
           "entries": entries}
    return json.dumps(obj, indent=None, sort_keys=True) + "\n"


def test_series_json_roundtrip_dir():
    rng = random.Random(90)
    a = random_dir_series(rng, 20)
    obj = json.loads(written(series_to_json_text, a))
    assert obj["kind"] == "dir" and obj["trunc"] == 20
    assert series_from_json(obj) == a


def test_series_json_roundtrip_ord():
    rng = random.Random(91)
    a = random_ord_series(rng, 12, const=Fraction(1, 2))
    assert series_from_json(json.loads(written(series_to_json_text, a))) == a


def test_series_json_omits_zeros():
    a = dir_from_fn(10, lambda n: 1 if n == 3 else 0)
    obj = json.loads(written(series_to_json_text, a))
    assert obj["coeffs"] == {"3": "1"}
    assert series_from_json(obj) == a


def test_series_json_text_stable():
    rng = random.Random(92)
    a = random_dir_series(rng, 16)
    text = written(series_to_json_text, a)
    assert series_from_json(json.loads(text)) == a
    assert written(series_to_json_text, series_from_json(json.loads(text))) == text


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


def test_a_repeated_text_is_charged_at_each_occurrence():
    # a text is parsed once per load, but each of its keys pays the units
    # of its parse, so the meter counts and refuses as if each were parsed
    big = "7" * 400  # past the 300 digits a number is read for free
    obj = {"kind": "dir", "trunc": 50, "coeffs": {str(n): big for n in range(1, 51)}}
    try:
        METER.reset(10**9)
        want = (parse_polynomial(big),) * 50
        once = METER.spent
        METER.reset(10**9)
        assert series_from_json(obj).coeffs == want
        assert METER.spent == 50 * once == 50 * 160
        METER.reset(50 * once)
        series_from_json(obj)
        METER.reset(50 * once - 1)  # refused at the last occurrence
        with pytest.raises(ArgumentOutOfRange):
            series_from_json(obj)
        assert METER.spent == 50 * once
    finally:
        METER.reset()


def test_series_csv():
    a = dir_from_fn(3, lambda n: Fraction(1, n))
    lines = written(series_to_csv, a).splitlines()
    assert lines[0] == "index,coefficient"
    assert lines[1] == "1,1"
    assert lines[2] == "2,1/2"


def test_matrix_csv_and_json():
    a = dir_from_fn(6, lambda n: 0 if n == 1 else 1)
    m = build_column(a, 6)
    csv_text = written(matrix_to_csv, m)
    assert csv_text.splitlines()[3] == "0,1,1"  # row 4 of the golden table
    obj = json.loads(written(matrix_to_json_text, m))
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
    assert written(matrix_to_csv, m) == want == "-1/2 + phi,0,0\n0,0,-7/3\n0,3 + a1*beta^2,0\n"


def test_matrix_csv_row_major_order():
    rng = random.Random(93)
    a = random_dir_series(rng, 5)
    m = build_mult(a, 5)
    lines = written(matrix_to_csv, m).splitlines()
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
        assert written(series_to_csv, s) == want
    entries = {(n, k): _wide_polynomial(rng) for n in range(1, 7) for k in range(0, 4)
               if rng.random() < 0.6}
    m = DirMatrix("column", 1, 6, 0, 3, {key: v for key, v in entries.items() if v})
    assert written(matrix_to_csv, m) == _csv_reference(
        [[v.to_text() for v in m.row(n)] for n in range(1, 7)]
    )


def _wide_series(rng: random.Random, kind, trunc: int):
    first = kind.first
    return kind(trunc, tuple(_wide_polynomial(rng) for _ in range(first, trunc + 1)))


def _wide_matrix(rng: random.Random, rows: range, cols: range) -> DirMatrix:
    entries = {(n, k): v for n in rows for k in cols if (v := _wide_polynomial(rng))}
    return DirMatrix("rd", rows[0], rows[-1], cols[0], cols[-1], entries)


@pytest.mark.parametrize("seed", range(4))
def test_writers_give_the_bytes_of_the_references(seed):
    # multi-symbol, negative, fractional and 400-digit coefficients, past
    # index 9 so that "10" sorts before "9", and rows and columns from 0
    rng = random.Random(f"writers-{seed}")
    for s in (_wide_series(rng, DirSeries, 23), _wide_series(rng, OrdSeries, 12)):
        assert written(series_to_json_text, s) == series_json_reference(s)
        cells = [v.to_text() for v in s.coeffs]
        want = _csv_reference([("index", "coefficient"), *enumerate(cells, s.first)])
        assert written(series_to_csv, s) == want
    for rows, cols in ((range(1, 13), range(1, 13)), (range(0, 11), range(0, 4)),
                       (range(3, 5), range(2, 12))):
        m = _wide_matrix(rng, rows, cols)
        assert written(matrix_to_json_text, m) == matrix_json_reference(m)
        want = _csv_reference([[v.to_text() for v in m.row(n)] for n in rows])
        assert written(matrix_to_csv, m) == want


def test_json_keys_follow_the_order_of_their_text():
    for lo, hi in ((0, 0), (1, 1), (0, 9), (1, 10), (1, 101), (0, 1000), (3, 500), (1, SERIES_CAP)):
        assert list(_decimal_order(lo, hi)) == sorted(range(lo, hi + 1), key=str)
    s = dir_from_fn(120, lambda n: n)
    text = written(series_to_json_text, s)
    assert text == series_json_reference(s)
    assert text.index('"10": ') < text.index('"100": ') < text.index('"11": ') < text.index('"9": ')
    m = build_mult(s, 12)
    text = written(matrix_to_json_text, m)
    assert text == matrix_json_reference(m)
    assert text.index('"1,1": ') < text.index('"10,1": ') < text.index('"10,10": ') < text.index('"10,2": ')


def test_empty_series_and_matrix():
    for s in (DirSeries(12, (ZERO,) * 12), OrdSeries(0, (ZERO,))):
        assert written(series_to_json_text, s) == series_json_reference(s)
        assert written(series_to_csv, s) == _csv_reference(
            [("index", "coefficient"), *((n, "0") for n in range(s.first, s.trunc + 1))]
        )
    m = DirMatrix("product", 1, 3, 1, 2, {})
    assert written(matrix_to_json_text, m) == matrix_json_reference(m)
    assert written(matrix_to_json_text, m) == '{"cols": [1, 2], "entries": {}, "kind": "product", "rows": [1, 3]}\n'
    assert written(matrix_to_csv, m) == "0,0\n" * 3


def test_an_entry_longer_than_a_chunk_is_written_whole():
    big = Polynomial({((coeff_symbol(k), 1),): -(10**200 + k) for k in range(1, 401)})
    assert len(big.to_text()) > CHUNK
    s = DirSeries(3, (ONE, big, ONE))
    for writer, want in ((series_to_json_text, series_json_reference(s)),
                         (series_to_csv, f"index,coefficient\n1,1\n2,{big.to_text()}\n3,1\n")):
        writes = []
        writer(s, writes.append)
        assert "".join(writes) == want
        assert len(writes) == 2 and len(writes[0]) > CHUNK
    m = DirMatrix("column", 1, 2, 0, 1, {(1, 0): big, (2, 1): ONE})
    writes = []
    matrix_to_json_text(m, writes.append)
    assert "".join(writes) == matrix_json_reference(m) and len(writes) == 2


@pytest.mark.parametrize("writer", [series_to_json_text, series_to_csv])
def test_writes_are_few_and_about_a_chunk_each(writer):
    s = dir_from_fn(SERIES_CAP, lambda n: Fraction(n * n + 1, n) * (-1) ** n)
    writes = []
    writer(s, writes.append)
    total = sum(map(len, writes))
    assert total > 2 * CHUNK
    assert len(writes) <= total // CHUNK + 1
    longest_piece = 64  # one line or key of this series, with its separator
    assert all(CHUNK <= len(w) < CHUNK + longest_piece for w in writes[:-1])
    assert 0 < len(writes[-1]) < CHUNK + longest_piece
