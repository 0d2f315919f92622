"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The checks against the CLI run the package from ``src`` at small sizes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import gen
import layers
import oracle
import run
import workloads

REPO = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_generator_same_bytes_for_same_seed(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    workloads.write_inputs(first, 11)
    workloads.write_inputs(second, 11)
    for name in (workloads.RATIONAL, workloads.SYMBOLIC):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    other = tmp_path / "c"
    other.mkdir()
    workloads.write_inputs(other, 12)
    for name in (workloads.RATIONAL, workloads.SYMBOLIC):
        assert (other / name).read_bytes() != (first / name).read_bytes()


def test_generator_head_is_shared_and_tail_is_seeded():
    a, b = gen.rational_series(1), gen.rational_series(2)
    assert a[: gen.RATIONAL_HEAD + 1] == b[: gen.RATIONAL_HEAD + 1]
    assert a[gen.RATIONAL_HEAD + 1 :] != b[gen.RATIONAL_HEAD + 1 :]
    a, b = gen.symbolic_series(1), gen.symbolic_series(2)
    assert a[: gen.SYMBOLIC_HEAD + 1] == b[: gen.SYMBOLIC_HEAD + 1]
    assert a[gen.SYMBOLIC_HEAD + 1 :] != b[gen.SYMBOLIC_HEAD + 1 :]


def test_generator_shapes():
    rational = gen.rational_series(3)
    assert len(rational) == gen.RATIONAL_TRUNC + 1 and rational[1] == 1
    assert all(abs(c.numerator) <= 4 and c.denominator <= 3 for c in rational[2:])
    symbolic = gen.symbolic_series(3)
    assert len(symbolic) == gen.SYMBOLIC_TRUNC + 1 and symbolic[1] == {(): 1}
    for terms in symbolic[2:]:
        assert len(terms) <= 3
        for mono in terms:
            assert all(s in gen.SYMBOLIC_SYMBOLS and 1 <= e <= 2 for s, e in mono)


def test_tampered_stdout_is_a_failure():
    cmd = workloads.WORKLOADS["verify-suite"]["commands"][1]
    good = b'PASS abel\n{"failed": 0, "total": 611}\n'
    digests = {cmd.ref: workloads.sha256(good)}
    assert workloads.check_output(cmd, 0, good, digests) is None
    assert workloads.check_output(cmd, 0, good.replace(b"PASS", b"FAIL"), digests)
    assert workloads.check_output(cmd, 1, good, digests)
    # the summary is checked on top of the digest
    short = b'{"failed": 0, "total": 610}\n'
    assert workloads.check_output(cmd, 0, short, {cmd.ref: workloads.sha256(short)})


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> a [5, 9]; root -> c [6.5, 7] under the second a
    names = ["root", "a", "b", "c"]
    name = array("i", [0, 1, 2, 1, 3])
    parent = array("i", [-1, 0, 1, 0, 3])
    start = array("d", [0.0, 1.0, 2.0, 5.0, 6.5])
    end = array("d", [10.0, 4.0, 3.0, 9.0, 7.0])
    selfs = layers.self_times(names, name, parent, start, end)
    assert selfs == {"root": 3.0, "a": 5.5, "b": 1.0, "c": 0.5}
    assert sum(selfs.values()) == end[0] - start[0]
    assert layers.span_counts(names, name) == {"root": 1, "a": 2, "b": 1, "c": 1}


def test_recorder_nests_spans():
    rec = layers.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [rec.names[i] for i in rec.name] == ["outer", "inner", "inner"]
    assert list(rec.parent) == [-1, 0, 0]
    selfs = layers.self_times(rec.names, rec.name, rec.parent, rec.start, rec.end)
    assert sum(selfs.values()) == pytest.approx(rec.end[0] - rec.start[0])


def test_metric_names_and_units():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


def test_per_layer_metrics_match_the_traced_run():
    expected = {m["name"] for m in BENCHMARK["per_layer"]}
    rec = layers.Recorder()
    produced = set(layers.layer_metrics(rec, layers.new_counters(), [], 0.0))
    produced |= {"trace.overhead_ratio", "verify.parallel_efficiency"}
    assert produced == expected


def _cli(*argv: str, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "dirseries.cli", *argv], capture_output=True, text=True, env=env, cwd=cwd,
        check=True,
    )
    return proc.stdout


def test_oracle_matches_the_cli_at_small_sizes(tmp_path):
    n, n_sym, size = 240, 90, 45
    rational = gen.rational_series(5, n)
    symbolic = gen.symbolic_series(5, n_sym)
    (tmp_path / "r.json").write_text(gen.rational_json(rational))
    (tmp_path / "s.json").write_text(gen.symbolic_json(symbolic))
    spf, omega = oracle.omega_table(n)
    rp = oracle.rational_poly
    r, s = 'load("r.json")', 'load("s.json")'
    cases = [
        ((f"dinv({r})",), oracle.series_json([rp(c) for c in oracle.inverse(rational)])),
        ((f"dlog({r})",), oracle.series_json([rp(c) for c in oracle.log(rational, omega)])),
        ((f"dpow_int({r},4)",), oracle.series_json([rp(c) for c in oracle.power_int(rational, 4, omega)])),
        ((f"dmul({r},zeta)",), oracle.series_json([rp(c) for c in oracle.divisor_sums(rational)])),
        ((f"dpow_param({r})", "--csv"),
         oracle.series_csv([oracle.psi_poly(c) for c in oracle.power_psi(rational, omega)])),
    ]
    for (expr, *fmt), want in cases:
        assert _cli("series", "-e", expr, "-N", str(n), *fmt, cwd=tmp_path) == want, expr
    got = _cli("series", "-e", f"dpow_param({s})", "-N", str(n_sym), cwd=tmp_path)
    assert got == oracle.series_json(oracle.power_psi_symbolic(symbolic, omega))
    eps = oracle.eps(size, omega, spf)
    got = _cli("matrix", "--kind", "rd", "-e", s, "-e2", "eps", "-N", str(size), cwd=tmp_path)
    assert got == oracle.matrix_csv(oracle.rd_matrix(symbolic, eps, size, spf, omega), size)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "run.py"), "--workload", "verify-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
