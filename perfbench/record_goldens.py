#!/usr/bin/env python3
"""Record the goldens of the default seed from the obsalg in ``src/``.

    python3 perfbench/record_goldens.py

Writes the trace CSV and check verdicts of every evolution scenario, the
Weyl sweep CSV, and the audit verdicts of the first ``AUDIT_GOLDEN_CALLS``
consecutive audit seeds (an audit seed that exits non-zero gets no golden
and is printed).  Run it only at a commit whose outputs are meant
to be the reference: the benchmark compares every later run against them.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before NumPy loads

import workloads
from workloads import GOLDENS

AUDIT_GOLDEN_CALLS = 32


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    GOLDENS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.HERE))
    try:
        for name in ("static_evolution", "driven_evolution"):
            for op in workloads.build(name, workloads.DEFAULT_SEED, work, goldens=False):
                code, err = op.call()
                assert code == 0, err
                trace = op.outputs.current / f"{op.scenario.name}_trace.csv"
                with open(trace, "rb") as src, gzip.GzipFile(
                        GOLDENS / f"{op.scenario.name}_trace.csv.gz", "wb", mtime=0) as dst:
                    shutil.copyfileobj(src, dst)
                _, audit = op.read_outputs()
                (GOLDENS / f"{op.scenario.name}_verdicts.json").write_text(
                    json.dumps(workloads.checks.verdicts(audit)) + "\n")
        sweep = workloads.SweepOp(work, with_golden=False)
        code, err = sweep.call()
        assert code == 0, err
        shutil.copyfile(sweep.outputs.current, GOLDENS / "sweep_weyl.csv")
        audit_op = workloads.AuditOp(workloads.DEFAULT_SEED, work, with_goldens=False)
        golden = {}
        for _ in range(AUDIT_GOLDEN_CALLS):
            code, err = audit_op.call()
            if code != 0:  # no golden: the benchmark will count this call as failed
                print(f"audit seed {audit_op.seed}: exit {code}: {err.strip()}")
                continue
            golden[str(audit_op.seed)] = workloads.checks.verdicts(audit_op.read_report())
        (GOLDENS / "audit_verdicts.json").write_text(json.dumps(golden) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
