#!/usr/bin/env python3
"""Benchmark of obsalg through its public surface.

    python3 perfbench/run.py --workload static_evolution --seed 0 --seconds 20 --trace 0

Run from the repository root; obsalg is imported from ``src/``.  One
process, closed loop, one call at a time, with BLAS pinned to
``BLAS_THREADS`` threads.  After one untimed warm-up pass, passes repeat
until ``--seconds`` have elapsed.  Every call's output is checked
(``checks.py``); a call that exits non-zero, raises, reports a FAIL check or
misses a golden counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
(``tracer.py``) and the tracing overhead.  Every line but the last is for
people; the last is the JSON result.  A fuller record, with sample counts,
percentiles and the environment stamp, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import os
import sys

# before NumPy loads: the thread count is part of the measurement
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

SETUP_SAMPLES = 9
PERCENTILES = (50, 90, 95, 99, 99.9)
# Traced signatures measured when the benchmark was defined.  They are
# printed, not enforced: a change that stops re-diagonalizing a constant H
# moves the first one on purpose.
SIGNATURES = {
    "static_evolution": ("linalg.eigh.repeat_ratio", ">=", 0.98),
    "driven_evolution": ("linalg.eigh.repeat_ratio", "<=", 0.05),
}


def reportable_percentile(n: int):
    """Highest of PERCENTILES with at least ten of ``n`` samples beyond it."""
    best = None
    for p in PERCENTILES:
        if n - math.ceil(Fraction(str(p)) * n / 100) >= 10:
            best = p
    return best


def summarize(samples: list[float]) -> dict:
    """Median, sample count, and the reportable percentile (nearest rank)."""
    p = reportable_percentile(len(samples))
    out = {"median": statistics.median(samples), "samples": len(samples),
           "percentile": p, "percentile_value": None}
    if p is not None:
        rank = math.ceil(Fraction(str(p)) * len(samples) / 100)
        out["percentile_value"] = sorted(samples)[rank - 1]
    return out


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        query = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if query is not None:
            query.restype = ctypes.c_int
            threads = query()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads_requested": BLAS_THREADS, "blas_threads": threads,
            "nproc": os.cpu_count()}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure_setup(args) -> list[float]:
    """Set-up times of fresh processes: start to the first timed call."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--setup-only"], check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def run_pass(ops, tally, samples: dict, tracer=None) -> float:
    """Every operation once; returns the summed call time of the pass."""
    from tracer import install
    wall = 0.0
    for op in ops:
        installed = install(tracer) if tracer else None
        start = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # any escape from obsalg is a failed call
            result, error = None, exc
        elapsed = time.perf_counter() - start
        if installed:
            installed.remove()
        try:
            problems = [f"exception {error!r}"] if error else op.check(result)
        except (OSError, ValueError, KeyError, IndexError) as exc:  # unreadable output
            problems = [f"output check failed: {exc!r}"]
        tally.record(op.metric, problems)
        samples.setdefault(op.metric, []).append(elapsed * op.scale)
        wall += elapsed
    return wall


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="generate inputs and load goldens, then exit")
    args = parser.parse_args(argv)

    if not (SRC / "obsalg" / "__init__.py").is_file():
        print(f"perfbench: obsalg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_samples = measure_setup(args) if not (args.setup_only or args.trace) else []
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        import obsalg  # noqa: F401  -- part of set-up
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        return measure(args, ops, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ops, setup_samples) -> int:
    from checks import Tally
    from tracer import Tracer, layer_metrics

    tally = Tally()
    run_pass(ops, tally, {})  # warm-up, checked like every pass
    samples: dict[str, list[float]] = {}
    walls: list[float] = []
    traced_walls: list[float] = []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        walls.append(run_pass(ops, tally, samples))
        if tracer:
            tracer.new_pass()
            traced_walls.append(run_pass(ops, tally, {}, tracer))

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "attempted": tally.attempted,
              "failed": tally.failed, "problems": tally.problems}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"env={json.dumps(env)}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")

    if tracer:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        layers = layer_metrics(tracer, len(traced_walls))
        layers["tracing.overhead_s"] = (overhead, "s")
        record["untraced_wall_s"] = summarize(walls)
        record["traced_wall_s"] = summarize(traced_walls)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
        record["layers"] = metrics
        for name, (value, unit) in layers.items():
            print(f"  {name:<44} {value:14.6g} {unit}")
        if args.workload in SIGNATURES:
            name, op, bound = SIGNATURES[args.workload]
            value = layers[name][0]
            holds = value >= bound if op == ">=" else value <= bound
            print(f"  signature {name} {op} {bound}: {value:.4f} "
                  f"({'holds' if holds else 'does not hold'})")
    else:
        table = {"setup_s": (summarize(setup_samples), "s"),
                 "wall_s": (summarize(walls), "s"),
                 **{op.metric: (summarize(samples[op.metric]), op.unit) for op in ops}}
        rss = peak_rss_mib()
        record["metrics"] = {name: {**summary, "unit": unit}
                             for name, (summary, unit) in table.items()}
        record["metrics"]["peak_rss_mib"] = {"value": rss, "unit": "MiB"}
        record["metrics"]["failed_ratio"] = {"value": tally.failed_ratio, "unit": "1"}
        for name, (summary, unit) in table.items():
            pct = (f"p{summary['percentile']}={summary['percentile_value']:.6g}"
                   if summary["percentile"] else "no percentile")
            print(f"  {name:<28} {summary['median']:14.6g} {unit:<4} "
                  f"(median of {summary['samples']}, {pct})")
        print(f"  {'peak_rss_mib':<28} {rss:14.6g} MiB")
        print(f"  {'failed_ratio':<28} {tally.failed_ratio:14.6g} 1    "
              f"({tally.failed} of {tally.attempted})")
        metrics = {"setup_s": {"value": table["setup_s"][0]["median"], "unit": "s"},
                   "wall_s": {"value": table["wall_s"][0]["median"], "unit": "s"},
                   "peak_rss_mib": {"value": rss, "unit": "MiB"}}

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
