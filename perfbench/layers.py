"""In-process run of a workload's commands through ``dirseries.cli.main``,
optionally with spans around the calls into each layer.

    python3 perfbench/layers.py --workload NAME --inputs DIR --mode plain|trace

runs from the root of a checkout with ``src`` on ``PYTHONPATH``; ``DIR``
holds the seeded inputs and ``digests.json`` (expected stdout sha256 per
command ref).  The last stdout line is a JSON object with the wall time,
the failures and, in trace mode, the per-layer metrics.

Tracing wraps names from the benchmark's side only: a module-level function
is replaced in every ``dirseries`` module namespace that binds it, and
``Polynomial`` operators are replaced on the class.  Each call records a
span (name, start, end, parent) in flat arrays; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import sys
import time
from array import array
from pathlib import Path

import workloads

# span name -> (module, attribute); "Polynomial.x" means a method
TRACED: dict[str, tuple[tuple[str, str], ...]] = {
    "poly.mul": (("poly", "Polynomial.__mul__"), ("poly", "Polynomial.__rmul__")),
    "poly.add": (("poly", "Polynomial.__add__"), ("poly", "Polynomial.__radd__")),
    "poly.substitute": (("poly", "Polynomial.substitute"),),
    "poly.to_text": (("poly", "Polynomial.to_text"),),
    "poly.log_n_poly": (("poly", "log_n_poly"),),
    "poly.parse_polynomial": (("poly", "parse_polynomial"),),
    "intfactor.factorize": (("intfactor", "factorize"),),
    "intfactor.divisors": (("intfactor", "divisors"),),
    "series.dirichlet_convolve": (("series", "dirichlet_convolve"),),
    "series.dir_inverse": (("series", "dir_inverse"),),
    "series.dir_pow_param": (("series", "dir_pow_param"),),
    "series.dir_log": (("series", "dir_log"),),
    "series.dir_exp_param": (("series", "dir_exp_param"),),
    "series.dir_pow_int": (("series", "dir_pow_int"),),
    "series.ord_log": (("series", "ord_log"),),
    "series.ord_exp": (("series", "ord_exp"),),
    "series.ord_mul": (("series", "ord_mul"),),
    "series.series_substitute_symbol": (("series", "series_substitute_symbol"),),
    "partitions.bell_btilde": (("partitions", "bell_btilde"),),
    "partitions.bell_B": (("partitions", "bell_B"),),
    "partitions.multiplicative_partitions": (("partitions", "multiplicative_partitions"),),
    "matrices.build_rd": (("matrices", "build_rd"),),
    "matrices.matmul": (("matrices", "matmul"),),
    "matrices.rd_multiply": (("matrices", "rd_multiply"),),
    "matrices.rd_inverse": (("matrices", "rd_inverse"),),
    "transforms.lift_multiplicative": (("transforms", "lift_multiplicative"),),
    "transforms.lagrange_dir": (("transforms", "lagrange_dir"),),
    "transforms.lagrange_ord": (("transforms", "lagrange_ord"),),
    "transforms.abel_check": (("transforms", "abel_check"),),
    "transforms.expand_over_basis": (("transforms", "expand_over_basis"),),
    "transforms.inverse_pair_check": (("transforms", "inverse_pair_check"),),
    "serialize.load": (("serialize", "series_from_json"),),
    "serialize.emit": (
        ("serialize", "series_to_json_text"),
        ("serialize", "series_to_csv"),
        ("serialize", "matrix_to_json_text"),
        ("serialize", "matrix_to_csv"),
    ),
    "exprlang.parse_expr": (("exprlang", "parse_expr"),),
    "exprlang.eval_expr": (("exprlang", "eval_expr"),),
    **{
        f"verify.suite.{name}": (("verify", f"suite_{name}"),)
        for name in ("pow", "log", "thm1", "thm2", "thm3", "abel", "binomf", "oracle")
    },
}
ROOT_SPAN = "cli.main"

SELF_TIME = (
    "poly.mul", "poly.add", "poly.substitute", "poly.to_text", "poly.parse_polynomial",
    "intfactor.factorize", "series.dirichlet_convolve", "series.dir_inverse",
    "series.dir_pow_param", "series.dir_log", "series.dir_exp_param", "series.dir_pow_int",
    "series.ord_log", "series.ord_exp", "series.series_substitute_symbol",
    "partitions.bell_btilde", "partitions.bell_B", "matrices.build_rd", "matrices.matmul",
    "matrices.rd_multiply", "matrices.rd_inverse", "transforms.lift_multiplicative",
    "transforms.lagrange_dir", "transforms.lagrange_ord", "transforms.abel_check",
    "transforms.expand_over_basis", "transforms.inverse_pair_check", "serialize.load",
    "serialize.emit", "exprlang.parse_expr", "exprlang.eval_expr",
)
CALLS = (
    "poly.mul", "poly.add", "poly.substitute", "poly.log_n_poly", "intfactor.factorize",
    "intfactor.divisors", "series.dirichlet_convolve", "series.ord_mul",
    "partitions.multiplicative_partitions", "transforms.abel_check",
)
MATRIX_RESULTS = ("matrices.build_rd", "matrices.matmul", "matrices.rd_multiply", "matrices.rd_inverse")


class Recorder:
    """Spans in flat arrays: name id, parent index (-1 for a root), start
    and end in ``perf_counter`` seconds."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span per call; ``observe(args, result)`` runs
        after the call, outside the span."""
        nid = self.name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(ends)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Spans as four native-endian arrays (name id, parent, start, end)
        after a one-line JSON header."""
        header = {"names": self.names, "count": len(self.end), "layout": ["i", "i", "d", "d"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def self_times(names: list[str], name, parent, start, end) -> dict[str, float]:
    """Self time per span name: duration minus the direct children's."""
    child = array("d", bytes(8 * len(end)))
    for i in range(len(end)):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out = dict.fromkeys(names, 0.0)
    for i in range(len(end)):
        out[names[name[i]]] += (end[i] - start[i]) - child[i]
    return out


def span_counts(names: list[str], name) -> dict[str, int]:
    out = dict.fromkeys(names, 0)
    for nid in name:
        out[names[nid]] += 1
    return out


def new_counters() -> dict:
    """Counts the observers in ``install`` keep besides the spans."""
    return {"poly.mul.const": 0, "log_n_args": set(), "matrices.entries_out": 0,
            "serialize.bytes_in": 0}


class _JsonProxy:
    """Stands in for ``json`` in ``exprlang``, whose ``load`` builtin reads
    series files: counts bytes read and records the parse as
    ``serialize.load``."""

    def __init__(self, recorder: Recorder, counters: dict):
        self._counters = counters
        self.load = recorder.wrap("serialize.load", self._load)

    def _load(self, fh):
        text = fh.read()
        self._counters["serialize.bytes_in"] += len(text.encode("utf-8"))
        return json.loads(text)

    def __getattr__(self, attr):
        return getattr(json, attr)


def install(recorder: Recorder, counters: dict) -> None:
    """Wrap every traced name, in every loaded ``dirseries`` module that
    binds it, with the observers behind the count metrics."""
    modules = {
        name: importlib.import_module(f"dirseries.{name}")
        for name in ("poly", "intfactor", "series", "partitions", "matrices", "transforms",
                     "serialize", "exprlang", "verify", "cli")
    }
    poly_cls = modules["poly"].Polynomial

    def observe_mul(args, _result):
        self, other = args
        if not isinstance(other, poly_cls) or other.is_constant() or self.is_constant():
            counters["poly.mul.const"] += 1

    def observe_log(args, _result):
        counters["log_n_args"].add(args[0])

    def observe_matrix(_args, result):
        counters["matrices.entries_out"] += len(result.entries)

    observers = {"poly.mul": observe_mul, "poly.log_n_poly": observe_log}
    observers.update(dict.fromkeys(MATRIX_RESULTS, observe_matrix))

    replacements = {}
    for span, targets in TRACED.items():
        for module, attr in targets:
            if attr.startswith("Polynomial."):
                method = attr.split(".", 1)[1]
                original = poly_cls.__dict__[method]
                setattr(poly_cls, method, recorder.wrap(span, original, observers.get(span)))
            else:
                original = getattr(modules[module], attr)
                replacements[id(original)] = recorder.wrap(span, original, observers.get(span))
    package = [m for name, m in sys.modules.items() if name == "dirseries" or name.startswith("dirseries.")]
    for module in package:
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, attr, replacements[id(value)])
    modules["exprlang"].json = _JsonProxy(recorder, counters)


def run_commands(commands, inputs: str, digests: dict, main) -> tuple[list[dict], float]:
    """Run each command through ``main`` with stdout captured; returns a
    report per command and the total wall time."""
    reports = []
    total = 0.0
    for cmd in commands:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = main(cmd.resolve(inputs))
        wall = time.perf_counter() - t0
        total += wall
        out = buf.getvalue().encode("utf-8")
        reports.append({
            "ref": cmd.ref,
            "wall": wall,
            "bytes_out": len(out),
            "records": _records(out) if cmd.records is not None else 0,
            "error": workloads.check_output(cmd, rc, out, digests),
        })
    return reports, total


def _records(stdout: bytes) -> int:
    try:
        return int(json.loads(stdout.decode("utf-8").strip().splitlines()[-1])["total"])
    except (IndexError, KeyError, ValueError):
        return 0


def layer_metrics(recorder: Recorder, counters: dict, reports: list[dict], import_s: float) -> dict:
    selfs = self_times(recorder.names, recorder.name, recorder.parent, recorder.start, recorder.end)
    counts = span_counts(recorder.names, recorder.name)
    durations = dict.fromkeys(recorder.names, 0.0)
    for i in range(len(recorder.end)):
        durations[recorder.names[recorder.name[i]]] += recorder.end[i] - recorder.start[i]
    m: dict[str, float] = {}
    for span in CALLS:
        m[f"{span}.calls"] = counts.get(span, 0)
    for span in SELF_TIME:
        m[f"{span}.self_s"] = selfs.get(span, 0.0)
    mul_calls = counts.get("poly.mul", 0)
    m["poly.mul.const_share"] = counters["poly.mul.const"] / mul_calls if mul_calls else 0.0
    log_calls = counts.get("poly.log_n_poly", 0)
    m["poly.log_n_poly.distinct_ratio"] = len(counters["log_n_args"]) / log_calls if log_calls else 0.0
    m["matrices.entries_out"] = counters["matrices.entries_out"]
    m["serialize.bytes_in"] = counters["serialize.bytes_in"]
    m["serialize.bytes_out"] = sum(r["bytes_out"] for r in reports)
    m["cli.import_s"] = import_s
    for name in TRACED:
        if name.startswith("verify.suite."):
            m[f"{name}.s"] = durations.get(name, 0.0)
    m["verify.records"] = sum(r["records"] for r in reports)
    # every span nests under a command's root span, so the self times of
    # all spans add up to the root spans' durations; the share left is
    # the bookkeeping outside the root span
    command_wall = sum(r["wall"] for r in reports)
    m["trace.self_share"] = sum(selfs.values()) / command_wall if command_wall else 0.0
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--mode", required=True, choices=("plain", "trace"))
    parser.add_argument("--spans", help="file the spans are written to (trace mode)")
    args = parser.parse_args(argv)

    digests = json.loads((Path(args.inputs) / "digests.json").read_text(encoding="utf-8"))
    commands = [c.in_process() for c in workloads.WORKLOADS[args.workload]["commands"]]

    t0 = time.perf_counter()
    cli = importlib.import_module("dirseries.cli")
    import_s = time.perf_counter() - t0

    recorder = counters = None
    cli_main = cli.main
    if args.mode == "trace":
        recorder = Recorder()
        counters = new_counters()
        install(recorder, counters)
        cli_main = recorder.wrap(ROOT_SPAN, cli.main)

    reports, wall = run_commands(commands, args.inputs, digests, cli_main)
    result = {"wall": wall, "errors": [f"{r['ref']}: {r['error']}" for r in reports if r["error"]],
              "attempted": len(reports)}
    if recorder is not None:
        result["metrics"] = layer_metrics(recorder, counters, reports, import_s)
        result["spans"] = len(recorder.end)
        if args.spans:
            recorder.write(Path(args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
