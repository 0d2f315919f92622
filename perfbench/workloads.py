"""The benchmark's workloads: fixed CLI command sequences over seeded inputs.

A command's expected stdout is named by ``ref``: either a key of
``refs.json`` (digests recorded from the CLI for commands whose input does
not depend on the seed) or ``oracle:<name>`` (computed by ``oracle`` from
the seeded input).  ``records`` is the expected ``total`` of a verify
summary line.

    python3 perfbench/workloads.py --workload NAME --seed N --out DIR

writes a run's inputs and ``digests.json`` (expected stdout sha256 per
ref) into DIR.  The benchmark does this in a process of its own: a child
started by vfork reports the high-water RSS of its parent in its own
``ru_maxrss``, so the process that starts the CLI must stay small.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import gen
import oracle

HERE = Path(__file__).resolve().parent
REFS_FILE = HERE / "refs.json"

RATIONAL = "rational.json"
SYMBOLIC = "symbolic.json"
RD_SIZE = 500


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    ref: str
    records: int | None = None

    def resolve(self, inputs: str) -> list[str]:
        """argv with the input file placeholders bound to paths under
        ``inputs`` (relative to the working directory)."""
        return [
            a.replace("{rational}", f"{inputs}/{RATIONAL}").replace("{symbolic}", f"{inputs}/{SYMBOLIC}")
            for a in self.argv
        ]

    def in_process(self) -> "Command":
        """The form the traced run executes: forked workers' spans are not
        collected, so verify runs at --jobs 1 (same stdout)."""
        argv = list(self.argv)
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = "1"
        return Command(tuple(argv), self.ref, self.records)


def _recorded(*argv: str, records: int | None = None) -> Command:
    return Command(argv, " ".join(argv), records)


def _series(expr: str, trunc: int, oracle_name: str, *fmt: str) -> Command:
    return Command(("series", "-e", expr, "-N", str(trunc), *fmt), f"oracle:{oracle_name}")


SETUP_PROBE = _recorded("coeff", "-e", "zeta", "-n", "1")

WORKLOADS: dict[str, dict] = {
    "verify-suite": {
        "why": "the package's product: about 2300 identity checks in small multi-symbol "
        "polynomial arithmetic, and the only use of the --jobs process pool",
        "commands": (
            _recorded("verify", "--suite", "all", "--jobs", "2", records=1695),
            _recorded("verify", "--suite", "abel", "-N", "600", "--jobs", "2", records=611),
        ),
    },
    "series-numeric": {
        "why": "series kernels at the CLI cap N=10000 on rational and psi-only "
        "coefficients; bypasses the symbolic layers",
        "commands": (
            _series('dinv(load("{rational}"))', gen.RATIONAL_TRUNC, "dinv"),
            _series('dlog(load("{rational}"))', gen.RATIONAL_TRUNC, "dlog"),
            _series('dpow_param(load("{rational}"))', gen.RATIONAL_TRUNC, "dpow_param", "--csv"),
            _series('dpow_int(load("{rational}"),4)', gen.RATIONAL_TRUNC, "dpow_int4"),
            _series('dmul(load("{rational}"),zeta)', gen.RATIONAL_TRUNC, "dmul_zeta"),
            _recorded("series", "-e", "dexp(geom2)", "-N", str(gen.RATIONAL_TRUNC)),
        ),
    },
    "symbolic-tables": {
        "why": "multi-symbol polynomial tables through matrices, transforms and partitions, "
        "with symbolic input parsed and large polynomial text written; never inverts",
        "commands": (
            _recorded("matrix", "--kind", "rd", "-e", "zeta", "-e2", "eps", "-N", str(RD_SIZE), "--json"),
            _recorded("series", "-e", "lift(expx)", "-N", "1000"),
            _recorded("series", "-e", "lagrange_dir(eps,beta)", "-N", "1000"),
            _recorded("series", "-e", "lagrange_ord(onepx,beta)", "-N", "40"),
            _recorded("bell", "--tilde", "-N", "2000", "-M", "6", "--symbolic"),
            _series('dpow_param(load("{symbolic}"))', gen.SYMBOLIC_TRUNC, "dpow_param_symbolic"),
            Command(
                ("matrix", "--kind", "rd", "-e", 'load("{symbolic}")', "-e2", "eps", "-N", str(RD_SIZE)),
                "oracle:rd_symbolic",
            ),
        ),
    },
}

def write_inputs(directory: Path, seed: int) -> tuple[list, list]:
    """Write both seeded inputs; returns their coefficient lists."""
    rational = gen.rational_series(seed)
    symbolic = gen.symbolic_series(seed)
    (directory / RATIONAL).write_text(gen.rational_json(rational), encoding="utf-8")
    (directory / SYMBOLIC).write_text(gen.symbolic_json(symbolic), encoding="utf-8")
    return rational, symbolic


def _oracle_text(name: str, rational: list, symbolic: list) -> str:
    rp = oracle.rational_poly
    if name == "dpow_param_symbolic":
        _, omega = oracle.omega_table(len(symbolic) - 1)
        return oracle.series_json(oracle.power_psi_symbolic(symbolic, omega))
    if name == "rd_symbolic":
        spf, omega = oracle.omega_table(RD_SIZE)
        eps = oracle.eps(RD_SIZE, omega, spf)
        entries = oracle.rd_matrix(symbolic, eps, RD_SIZE, spf, omega)
        return oracle.matrix_csv(entries, RD_SIZE)
    _, omega = oracle.omega_table(len(rational) - 1)
    if name == "dinv":
        return oracle.series_json([rp(c) for c in oracle.inverse(rational)])
    if name == "dlog":
        return oracle.series_json([rp(c) for c in oracle.log(rational, omega)])
    if name == "dpow_param":
        return oracle.series_csv([oracle.psi_poly(c) for c in oracle.power_psi(rational, omega)])
    if name == "dpow_int4":
        return oracle.series_json([rp(c) for c in oracle.power_int(rational, 4, omega)])
    if name == "dmul_zeta":
        return oracle.series_json([rp(c) for c in oracle.divisor_sums(rational)])
    raise KeyError(name)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_digests(commands, rational: list, symbolic: list) -> dict[str, str]:
    """Expected stdout sha256 for each command's ``ref``."""
    recorded = json.loads(REFS_FILE.read_text(encoding="utf-8"))
    out = {}
    for cmd in commands:
        if cmd.ref.startswith("oracle:"):
            text = _oracle_text(cmd.ref[len("oracle:"):], rational, symbolic)
            out[cmd.ref] = sha256(text.encode("utf-8"))
        else:
            out[cmd.ref] = recorded[cmd.ref]
    return out


def check_output(cmd: Command, returncode: int, stdout: bytes, digests: dict[str, str]) -> str | None:
    """None when the command succeeded with the expected stdout, else why not."""
    if returncode != 0:
        return f"exit code {returncode}"
    if sha256(stdout) != digests[cmd.ref]:
        return "stdout digest differs from the reference"
    if cmd.records is not None:
        lines = stdout.decode("utf-8", "replace").strip().splitlines()
        try:
            summary = json.loads(lines[-1])
        except (IndexError, ValueError):
            return "no verify summary line"
        if summary.get("failed") != 0 or summary.get("total") != cmd.records:
            return f"verify summary total={summary.get('total')} failed={summary.get('failed')}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="write a run's inputs and reference digests")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    rational, symbolic = write_inputs(args.out, args.seed)
    commands = (SETUP_PROBE, *WORKLOADS[args.workload]["commands"])
    digests = reference_digests(commands, rational, symbolic)
    (args.out / "digests.json").write_text(json.dumps(digests), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
