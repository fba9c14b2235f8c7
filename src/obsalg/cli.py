"""Command-line entry points: run scenarios, audit invariants, emit sweeps.

Exit codes, all set by ``main``: 0 all checks pass; 1 a check failed; 2 a validation
error, naming its field, flag or path; 3 a runtime failure, such as an expression that
fails to evaluate at some t.  ``OBSALG_OUTDIR`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from importlib import resources
from pathlib import Path

from .audit import MAX_DIM, run_audit
from .canonical import MAX_LEVELS, commutator_limit_probe
from .core import AlgebraError
from .evolution import TimeGrid
from .scenarios import ScenarioResult, config_from_doc, run_scenario, trace_scenario
from .serialize import SchemaError, _number, dump_json, load_json, write_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

BUNDLED = ("rabi", "oscillator", "free_particle", "abscissa")


def _default_outdir() -> Path:
    return Path(os.environ.get("OBSALG_OUTDIR", "."))


def _resolve_config(ref: str) -> tuple[dict, Path]:
    """The config ``ref`` names, a bundled scenario or a JSON path, and the directory its
    file references are relative to: the working directory for a bundled one."""
    if ref in BUNDLED:
        return load_json(resources.files("obsalg.data") / f"{ref}.json"), Path(".")
    return load_json(ref), Path(ref).parent


def _integers(minimum: int, single: bool = False, maximum: int | None = None):
    """argparse ``type=`` reader: integers >= ``minimum`` and <= ``maximum`` if given,
    comma-separated unless ``single``."""
    bounds = f">= {minimum}" if maximum is None else f"from {minimum} to {maximum}"

    def read(text: str):
        try:
            values = [int(item) for item in ([text] if single else text.split(","))]
            if min(values) >= minimum and (maximum is None or max(values) <= maximum):
                return values[0] if single else values
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected integers {bounds}, got {text!r}")
    return read


def cmd_run(args) -> int:
    doc, base_dir = _resolve_config(args.config)
    config = config_from_doc(doc, base_dir)
    header, rows, checks = trace_scenario(config, base_dir)
    outdir = Path(args.out) if args.out else _default_outdir()
    trace_path = outdir / f"{config.name}_trace.csv"
    audit_path = outdir / f"{config.name}_audit.json"
    # the trace is written into --out as the run computes it, under a hidden name that is
    # renamed to the trace's once the run succeeded; a failed run removes the file and the
    # directories it made.  Written in place, not copied from elsewhere, it is written once.
    partial = trace_path.with_name(f".{trace_path.name}.partial")
    made = [path for path in (outdir, *outdir.parents) if not path.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        write_csv(partial, header, rows)
    except BaseException:
        partial.unlink(missing_ok=True)
        for path in made:  # the deepest first
            path.rmdir()
        raise
    partial.replace(trace_path)
    result = ScenarioResult(config, header, [], checks)  # its rows are in the trace
    dump_json(audit_path, result.audit_doc())
    print(f"trace: {trace_path}")
    print(f"audit: {audit_path}")
    for check in result.checks:
        print(f"  {'PASS' if check.passed else 'FAIL'} {check.name} "
              f"(residual {check.worst_residual:.3e})")
    return EXIT_OK if result.all_pass else EXIT_CHECK_FAILED


def cmd_audit(args) -> int:
    report = run_audit(args.dims, args.seed, planted_failure=args.self_test_fail)
    if args.out:
        outpath = Path(args.out)
        outpath.parent.mkdir(parents=True, exist_ok=True)
        dump_json(outpath, report)
        print(f"audit report: {outpath}")
    for check in report["checks"]:
        print(f"  {'PASS' if check['pass'] else 'FAIL'} {check['name']} "
              f"(residual {check['residual']:.3e})")
    return EXIT_OK if report["all_pass"] else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    outdir = _default_outdir()
    outpath = Path(args.out) if args.out else outdir / f"sweep_{args.kind}.csv"
    outpath.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "weyl":
        rows = commutator_limit_probe(args.n_list)
        write_csv(outpath,
                  ["n", "epsilon", "trace_residual", "interior_max_dev",
                   "edge_defect_weight"],
                  [[r.n, r.epsilon, r.trace_residual, r.interior_max_dev,
                    r.edge_defect_weight] for r in rows])
    else:
        rows = _convergence_rows(args.halvings)
        write_csv(outpath,
                  ["scenario", "halving", "tau", "heisenberg_residual",
                   "schrodinger_residual", "von_neumann_residual"],
                  rows)
    print(f"sweep table: {outpath}")
    return EXIT_OK


def _convergence_rows(halvings: int) -> list[list]:
    """Residuals for the bundled Rabi and oscillator scenarios, tau halved.

    Each row runs the scenario for one step of tau / 2^k and reads
    ``residual_tau`` from that run's three equation-residual checks.
    """
    rows: list[list] = []
    for name in ("rabi", "oscillator"):
        doc, base = _resolve_config(name)
        config = config_from_doc(doc, base)
        _number(config.grid.tau * 0.5 ** halvings, f"--halvings ({name}: tau/2^{halvings})",
                positive=True)
        for k in range(halvings + 1):
            tau = config.grid.tau / 2 ** k
            result = run_scenario(dataclasses.replace(
                config, grid=TimeGrid(tau=tau, steps=1, t0=config.grid.t0)), base)
            residual = {c.name: c.residuals.get("residual_tau") for c in result.checks}
            rows.append([name, k, tau, residual["heisenberg_residual"],
                         residual["schrodinger_residual"], residual["von_neumann_residual"]])
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obsalg",
        description="Scenario runner and invariant auditor for the "
                    "finite-dimensional observable algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config (path or bundled name)")
    p_run.add_argument("config", help=f"JSON config path, or one of {', '.join(BUNDLED)}")
    p_run.add_argument("--out", help="output directory (default $OBSALG_OUTDIR or .)")
    p_run.set_defaults(fn=cmd_run)

    p_audit = sub.add_parser("audit", help="run the randomized invariant suites")
    p_audit.add_argument("--dims", type=_integers(2, maximum=MAX_DIM), default="4,8,16",
                         help="comma-separated dimensions, each from 2 to "
                              f"{MAX_DIM} (the memory bound of the audit)")
    p_audit.add_argument("--seed", type=_integers(0, single=True), default=0, help=">= 0")
    p_audit.add_argument("--out", help="write the JSON report here")
    p_audit.add_argument("--self-test-fail", action="store_true",
                         help="plant a failing check (negative control)")
    p_audit.set_defaults(fn=cmd_audit)

    p_sweep = sub.add_parser("sweep", help="emit a convergence table as CSV")
    p_sweep.add_argument("kind", choices=["weyl", "convergence"])
    p_sweep.add_argument("--n-list", type=_integers(2, maximum=MAX_LEVELS),
                         default="8,16,32,64",
                         help="comma-separated level counts for the weyl sweep, "
                              f"each from 2 to {MAX_LEVELS} (the memory bound of a pair)")
    p_sweep.add_argument("--halvings", type=_integers(0, single=True), default=3,
                         help="tau halvings for the convergence sweep, >= 0")
    p_sweep.add_argument("--out", help="output CSV path")
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except AlgebraError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:  # an output path that cannot be created or written
        print(f"validation error: {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
