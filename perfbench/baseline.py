#!/usr/bin/env python3
"""Cross-check of the ROADMAP "Baseline" table, at its shipped sizes.

    python3 perfbench/baseline.py

Each row runs once with tracing off (wall time) and once more under
``tracemalloc`` (wall time and Python-level peak), because the Baseline
times were taken under ``tracemalloc``.  Prints a Markdown table; the
reading of it is in NOTES.md.
"""

from __future__ import annotations

import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import run  # pins the BLAS threads before NumPy loads

import numpy as np

BASELINE = {  # ROADMAP: wall ms, tracemalloc peak MiB (None: not given)
    "rabi run (d=2, 1000 steps)": (248, None),
    "oscillator run (d=32, 200 steps)": (262, None),
    "free_particle run (d=16, 100 steps)": (49, None),
    "abscissa run (d=16, 16 steps)": (13, None),
    "unitary_exponential d=64": (6.4, 4.5),
    "unitary_exponential d=128": (29.6, 34),
    "unitary_exponential d=256": (271, 263),
    "eigh + V diag(e^iw) V^dagger d=256": (10, None),
    "canonical pair + weyl_residual n=64": (136, 99),
    "canonical pair + weyl_residual n=128": (1050, 780),
}


def timed(fn, traced: bool):
    if traced:
        tracemalloc.start()
    start = time.perf_counter()
    fn()
    elapsed = (time.perf_counter() - start) * 1e3
    peak = None
    if traced:
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
    return elapsed, peak


def cases(workdir: Path):
    import workloads
    from obsalg import (Observable, make_canonical_pair, make_position,
                        unitary_exponential, weyl_residual)
    counter = iter(range(10 ** 6))

    def cli_run(name):
        return lambda: workloads.run_cli(["run", name, "--out",
                                          str(workdir / f"{name}-{next(counter)}")])

    for name in ("rabi", "oscillator", "free_particle", "abscissa"):
        label = next(k for k in BASELINE if k.startswith(name + " run"))
        yield label, cli_run(name)
    rng = np.random.default_rng(0)
    for d in (64, 128, 256):
        g = Observable(workloads.random_hermitian_in_branch(rng, d))
        yield f"unitary_exponential d={d}", lambda g=g: unitary_exponential(g)
        if d == 256:
            yield "eigh + V diag(e^iw) V^dagger d=256", lambda g=g: run_eigh(g)
    for n in (64, 128):
        yield (f"canonical pair + weyl_residual n={n}",
               lambda n=n: weyl_residual(make_canonical_pair(make_position(n, 1 / n ** 0.5))))


def run_eigh(g):
    w, v = np.linalg.eigh(g.entries)
    return (v * np.exp(1j * w)) @ v.conj().T


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        print(f"environment: {run.environment()}")
        print("| case | ROADMAP ms | ms | ms under tracemalloc | ROADMAP peak MiB "
              "| tracemalloc peak MiB |")
        print("|---|---|---|---|---|---|")
        for label, fn in cases(Path(tmp)):
            plain, _ = timed(fn, traced=False)
            traced, peak = timed(fn, traced=True)
            ref_ms, ref_peak = BASELINE[label]
            print(f"| {label} | {ref_ms} | {plain:.1f} | {traced:.1f} | "
                  f"{ref_peak if ref_peak is not None else '-'} | {peak:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
