#!/usr/bin/env python3
"""Every workload, each in a fresh process, with its metrics by name and unit.

    python3 perfbench/run_all.py --seed 0 --seconds 20 [--trace 1]

A fresh process per workload keeps one workload's peak RSS out of the
next one's.  Runs the ungated workloads too (``workloads.UNGATED``).  Exits
non-zero if any workload run failed or had a failed call.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def main() -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"  {workload}: exit {proc.returncode} {proc.stderr.strip()[-300:]}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
