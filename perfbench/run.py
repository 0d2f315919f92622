"""End-to-end and per-layer benchmark of the ``dirseries`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the CLI is started from ``src`` there,
one fresh process per command, commands back to back from this single
runner (a closed loop with one client).  Only ``verify --jobs 2`` starts
further processes, two pool workers, the machine's core count.

``--trace 0`` repeats the workload's command sequence until ``--seconds``
have passed and reports ``wall_s`` (the sequence's wall time, as the sum of
each command's median), ``setup_s`` (median cold start of ``dirseries
coeff -e zeta -n 1``), both corrected for the host's pace (see
``Runner``), and ``peak_rss_mb`` (largest max RSS of any CLI process,
pool workers included).  ``--trace 1`` runs the sequence in process, once
without and once with spans (see ``layers.py``), and reports the
per-layer metrics.

Every command's exit code and stdout sha256 are checked against a
reference (see ``workloads.py``); a mismatch is a failed operation and is
never retried.  The last stdout line is the JSON result; the lines before
it name each metric with its unit and the run's context.  The seeded
inputs, the spans and a full result file go under ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench"
PROBES_PER_SEQUENCE = 3
# a median needs three samples; series-numeric's sequence takes about 15 s
MIN_REPETITIONS = 3
# median time of host_pace() on the 2-core x86-64 host the benchmark was
# tuned on; it only sets the scale of the corrected times
PACE_REF_S = 0.05
# pace samples taken this long before a step starts or after it ends
# still count for it: the host's slow spells last some seconds
PACE_WINDOW_S = 4.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    start: float
    wall: float
    cpu_s: float
    maxrss_mb: float


def checkout_root() -> Path | None:
    """The working directory, when it holds the package sources."""
    root = Path.cwd()
    if not (root / "src" / "dirseries" / "cli.py").is_file():
        print("run from the root of a dirseries checkout: src/dirseries/cli.py not found", file=sys.stderr)
        return None
    return root


def cli_env(root: Path, tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    return env


# The console entry point, plus an exit hook that reports the process's
# peak RSS.  The CLI's own ru_maxrss would not do: a child started by vfork
# carries its parent's high-water RSS into it, and this runner is about as
# large as the CLI at start-up.  VmHWM counts only the process's own
# memory; RUSAGE_CHILDREN adds the pool workers it reaped.
_ENTRY = """
import atexit, os, resource

def _report_peak():
    with open("/proc/self/status") as fh:
        hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    os.write({fd}, str(max(hwm, workers)).encode())

atexit.register(_report_peak)
from dirseries.cli import console_main
console_main()
"""


def run_cli(argv: list[str], env: dict[str, str]) -> CliResult:
    """Start the CLI's console entry point in a fresh interpreter and wait
    for it and every process it started."""
    peak_r, peak_w = os.pipe()
    try:
        cmd = [sys.executable, "-c", _ENTRY.format(fd=peak_w), *argv]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, pass_fds=(peak_w,)
        )
        os.close(peak_w)
        peak_w = -1
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with os.fdopen(peak_r, "rb") as fh:
            peak_r = -1
            peak_kb = int(fh.read() or 0)
    finally:
        for fd in (peak_r, peak_w):
            if fd >= 0:
                os.close(fd)
    return CliResult(proc.returncode, stdout, t0, wall, usage.ru_utime + usage.ru_stime, peak_kb / 1024)


def _pace_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 8000):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 7 + 1, 3)
    return total


def host_pace() -> float:
    """Seconds a fixed piece of pure-Python rational arithmetic takes now
    (mean of two runs).  The host shares its cores with other machines,
    and its speed drifts by about 20% over spells of some seconds."""
    walls = []
    for _ in range(2):
        t0 = time.perf_counter()
        _pace_work()
        walls.append(time.perf_counter() - t0)
    return sum(walls) / len(walls)


class Runner:
    """Runs and checks commands, keeping the counts behind the result.

    ``host_pace()`` is sampled before the first step and after every step,
    when no CLI process runs.  A step's corrected wall time is wall *
    PACE_REF_S / (median of the samples from PACE_WINDOW_S before it starts
    to PACE_WINDOW_S after it ends)."""

    def __init__(self, env: dict[str, str], inputs: str, digests: dict[str, str]):
        self.env = env
        self.inputs = inputs
        self.digests = digests
        self.attempted = 0
        self.errors: list[str] = []
        self.peak_rss_mb = 0.0
        self.probes: list[CliResult] = []
        self.paces: list[tuple[float, float]] = []
        self.sample_pace()

    def sample_pace(self) -> None:
        self.paces.append((time.perf_counter(), host_pace()))

    def corrected(self, start: float, end: float, wall: float) -> float:
        """``wall``, measured between ``start`` and ``end``, at the
        reference pace."""
        window = [p for t, p in self.paces if start - PACE_WINDOW_S <= t <= end + PACE_WINDOW_S]
        return wall * PACE_REF_S / statistics.median(window)

    def run(self, cmd: workloads.Command) -> CliResult:
        result = run_cli(cmd.resolve(self.inputs), self.env)
        self.sample_pace()
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, result.maxrss_mb)
        error = workloads.check_output(cmd, result.returncode, result.stdout, self.digests)
        if error:
            self.errors.append(f"{cmd.ref}: {error}")
        return result

    def probe(self, count: int) -> None:
        """Cold starts of the cheapest command, for ``setup_s``."""
        self.probes.extend(self.run(workloads.SETUP_PROBE) for _ in range(count))


def _sum_of_medians(rows: list[list[float]]) -> float:
    return sum(statistics.median(column) for column in zip(*rows))


def measure(runner: Runner, commands, seconds: float) -> dict:
    """Repeat the sequence until ``seconds`` have passed, and at least
    MIN_REPETITIONS times.  ``wall_s`` sums each command's median corrected
    wall: the median keeps a burst of outside load that slows one command
    once from moving it, and the correction takes out the host's drift
    between runs made at different times.  The set-up probes run between
    repetitions."""
    runs: list[list[CliResult]] = []
    start = time.perf_counter()
    while len(runs) < MIN_REPETITIONS or time.perf_counter() - start < seconds:
        runner.probe(PROBES_PER_SEQUENCE)
        runs.append([runner.run(cmd) for cmd in commands])

    def ref(r: CliResult) -> float:
        return runner.corrected(r.start, r.start + r.wall, r.wall)

    corrected = [[ref(r) for r in row] for row in runs]
    probes = runner.probes
    return {
        "sequence_walls": [[r.wall for r in row] for row in runs],
        "sequence_walls_corrected": corrected,
        "setup_walls": [r.wall for r in probes],
        "paces": runner.paces,
        "raw_wall_s": _sum_of_medians([[r.wall for r in row] for row in runs]),
        "raw_setup_s": statistics.median(r.wall for r in probes),
        "wall_s": _sum_of_medians(corrected),
        "setup_s": statistics.median(ref(r) for r in probes),
    }


def trace_run(runner: Runner, workload: str, commands, root: Path) -> dict:
    """Per-layer metrics from two in-process runs, plus the pool's
    efficiency from the CLI for the --jobs commands."""
    layers = HERE / "layers.py"
    spans = root / WORK_DIR / f"spans-{workload}.bin"
    walls = {}
    metrics: dict = {}
    for mode in ("plain", "trace"):
        argv = [sys.executable, str(layers), "--workload", workload, "--inputs", runner.inputs,
                "--mode", mode]
        if mode == "trace":
            argv += ["--spans", str(spans)]
        start = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.PIPE, env=runner.env, check=False)
        end = time.perf_counter()
        runner.sample_pace()
        try:
            report = json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])
        except (IndexError, ValueError):
            report = {"wall": 0.0, "errors": [f"layers.py --mode {mode} exit code {proc.returncode}"],
                      "attempted": 1}
        runner.attempted += report["attempted"]
        runner.errors.extend(f"[{mode}] {e}" for e in report["errors"])
        walls[mode] = runner.corrected(start, end, report["wall"])
        metrics.update(report.get("metrics", {}))
    metrics["trace.overhead_ratio"] = walls["trace"] / walls["plain"] if walls["plain"] else 0.0

    cpu = capacity = 0.0
    for cmd in commands:
        if "--jobs" in cmd.argv:
            jobs = int(cmd.argv[cmd.argv.index("--jobs") + 1])
            result = runner.run(cmd)
            cpu += result.cpu_s
            capacity += jobs * result.wall
    metrics["verify.parallel_efficiency"] = cpu / capacity if capacity else 0.0
    return metrics


def context(root: Path) -> dict:
    src = sorted((root / "src" / "dirseries").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = root / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith(".calls") or name in ("verify.records", "matrices.entries_out"):
        return "count"
    if name.startswith("serialize.bytes"):
        return "B"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = checkout_root()
    if root is None:
        return 2
    work = root / WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = os.path.relpath(work, root)
        commands = workloads.WORKLOADS[args.workload]["commands"]
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(work)],
            check=True,
        )
        digests = json.loads((work / "digests.json").read_text(encoding="utf-8"))

        runner = Runner(cli_env(root, work), inputs, digests)
        runner.run(workloads.SETUP_PROBE)  # fills the bytecode cache on a fresh checkout
        if args.trace:
            metrics = trace_run(runner, args.workload, commands, root)
            extra = {}
        else:
            extra = measure(runner, commands, args.seconds)
            metrics = {"wall_s": extra.pop("wall_s"), "setup_s": extra.pop("setup_s"),
                       "peak_rss_mb": runner.peak_rss_mb}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.errors)
    info = context(root)
    for error in runner.errors:
        print(f"FAILED {error}")
    for key, value in info.items():
        print(f"# {key}: {value}")
    print(f"# workload: {args.workload}  seed: {args.seed}  "
          f"why: {workloads.WORKLOADS[args.workload]['why']}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    for name in ("raw_wall_s", "raw_setup_s"):
        if name in extra:
            print(f"# {name} = {extra[name]:.6g} s (not corrected for the host's pace)")
    print(f"fail_ratio = {failed / runner.attempted:.6g} (failed {failed} of {runner.attempted} commands)")

    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    results = root / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, context=info, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, errors=runner.errors, **extra)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
