"""Command-line entry points: run scenarios, audit invariants, emit sweeps.

Exit codes: 0 all checks pass; 1 a check failed; 2 config/validation error;
3 runtime failure while stepping.  The ``OBSALG_OUTDIR`` environment variable
sets the default output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from importlib import resources
from pathlib import Path

from .audit import run_audit
from .canonical import commutator_limit_probe
from .core import AlgebraError
from .scenarios import config_from_doc, run_scenario
from .serialize import SchemaError, dump_json, load_json, write_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

BUNDLED = ("rabi", "oscillator", "free_particle", "abscissa")


def _default_outdir() -> Path:
    return Path(os.environ.get("OBSALG_OUTDIR", "."))


def _resolve_config(ref: str) -> tuple[dict, Path]:
    """A path to a JSON config, or the bare name of a bundled scenario."""
    if ref in BUNDLED:
        text = resources.files("obsalg.data").joinpath(f"{ref}.json").read_text()
        import json
        return json.loads(text), Path(".")
    path = Path(ref)
    return load_json(path), path.parent


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise SchemaError("--n-list/--dims", f"expected comma-separated integers: {exc}")


def cmd_run(args) -> int:
    doc, base_dir = _resolve_config(args.config)
    config = config_from_doc(doc, base_dir)
    outdir = Path(args.out) if args.out else _default_outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    result = run_scenario(config, base_dir)
    trace_path = outdir / f"{config.name}_trace.csv"
    audit_path = outdir / f"{config.name}_audit.json"
    write_csv(trace_path, result.header, result.rows)
    dump_json(audit_path, result.audit_doc())
    print(f"trace: {trace_path}")
    print(f"audit: {audit_path}")
    for check in result.checks:
        print(f"  {'PASS' if check.passed else 'FAIL'} {check.name} "
              f"(residual {check.worst_residual:.3e})")
    return EXIT_OK if result.all_pass else EXIT_CHECK_FAILED


def cmd_audit(args) -> int:
    dims = _parse_int_list(args.dims)
    report = run_audit(dims, args.seed, planted_failure=args.self_test_fail)
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
        rows = commutator_limit_probe(_parse_int_list(args.n_list))
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
    """Residuals for the bundled Rabi and oscillator scenarios, tau halved."""
    from .evolution import (
        TimeGrid,
        heisenberg_residual,
        schrodinger_residual,
        von_neumann_residual,
    )
    from .scenarios import build_engine
    from .states import StateVector, pure_density

    rows: list[list] = []
    for name in ("rabi", "oscillator"):
        doc, base = _resolve_config(name)
        config = config_from_doc(doc, base)
        for k in range(halvings + 1):
            tau = config.grid.tau / 2 ** k
            engine = build_engine(dataclasses.replace(
                config, grid=TimeGrid(tau=tau, steps=1, t0=config.grid.t0)))
            probe = next(iter(config.observables_to_trace.values()))
            psi = StateVector.basis_vector(engine.dim, config.initial_state
                                           if isinstance(config.initial_state, int) else 0)
            h_rep = heisenberg_residual(engine, probe, config.grid.t0)
            s_rep = schrodinger_residual(engine, psi, config.grid.t0)
            v_rep = von_neumann_residual(engine, pure_density(psi), config.grid.t0)
            rows.append([name, k, tau,
                         h_rep.residuals["residual_tau"],
                         s_rep.residuals["residual_tau"],
                         v_rep.residuals["residual_tau"]])
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
    p_audit.add_argument("--dims", default="4,8,16", help="comma-separated dimensions")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--out", help="write the JSON report here")
    p_audit.add_argument("--self-test-fail", action="store_true",
                         help="plant a failing check (negative control)")
    p_audit.set_defaults(fn=cmd_audit)

    p_sweep = sub.add_parser("sweep", help="emit a convergence table as CSV")
    p_sweep.add_argument("kind", choices=["weyl", "convergence"])
    p_sweep.add_argument("--n-list", default="8,16,32,64",
                         help="level counts for the weyl sweep")
    p_sweep.add_argument("--halvings", type=int, default=3,
                         help="tau halvings for the convergence sweep")
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


if __name__ == "__main__":
    sys.exit(main())
