"""Record the stdout digests of the seed-independent commands into
``refs.json``.  Run from the repository root on a commit whose outputs are
known good:

    python3 perfbench/record_refs.py

A change that alters these outputs on purpose records them again in a
benchmark-only change.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    root = run.checkout_root()
    if root is None:
        return 2
    commands = [workloads.SETUP_PROBE] + [
        cmd for spec in workloads.WORKLOADS.values() for cmd in spec["commands"]
    ]
    refs = {}
    for cmd in commands:
        if cmd.ref.startswith("oracle:"):
            continue
        result = run.run_cli(cmd.resolve("."), run.cli_env(root, root))
        if result.returncode != 0:
            print(f"{cmd.ref}: exit code {result.returncode}", file=sys.stderr)
            return 1
        refs[cmd.ref] = workloads.sha256(result.stdout)
        print(f"{result.wall:8.3f} s  {cmd.ref}", file=sys.stderr)
    workloads.REFS_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
