"""Scenario configs and the trajectory runner behind the CLI.

A scenario binds a Hamiltonian expression to matrices (a canonical pair
built from ``n``/``epsilon`` and/or explicit operator documents), an initial
state, and a time grid, then produces a per-step trace plus an audit of the
invariant checks.  Runs are deterministic: the config ``seed`` drives every
randomized audit, and all numeric output is formatted reproducibly.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .canonical import make_canonical_pair, make_position
from .core import AlgebraError, Observable, PseudoObservable, as_observable
# perfbench's test_traced_call_restores_every_wrapped_name reads scenarios.opnorm
from .core import opnorm  # noqa: F401
from .evolution import (
    EvolutionEngine,
    Hamiltonian,
    TimeGrid,
    heisenberg_residual,
    heisenberg_step,
    heisenberg_step_residual,
    schrodinger_residual,
    schrodinger_step,
    schrodinger_step_residual,
    von_neumann_residual,
    von_neumann_step,
    von_neumann_step_residual,
)
from .expr import EvalContext, ExprSyntaxError, parse
from .rand import random_hermitian
from .report import CheckReport
from .serialize import SchemaError, _number, load_json, matrix_from_doc, vector_from_doc
from .states import (
    DensityObservable,
    StateVector,
    expectation,
    pure_density,
    vector_expectation,
)


_NAME = re.compile(r"[A-Za-z0-9_.-]{1,100}")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    hamiltonian: str
    grid: TimeGrid
    picture: str = "schrodinger"
    hbar: float = 1.0
    n: int | None = None
    epsilon: float | None = None
    operators: dict[str, PseudoObservable] = field(default_factory=dict)
    constants: dict[str, float] = field(default_factory=dict)
    initial_state: Any = 0
    observables_to_trace: dict[str, str] = field(default_factory=dict)
    seed: int = 0


def _check_type(value, types, path: str, what: str):
    if not isinstance(value, types):
        raise SchemaError(path, f"expected {what}, got {type(value).__name__}")
    return value


def _integer(value, path: str, minimum: int) -> int:
    """A JSON integer (never a bool or a float) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    if value < minimum:
        raise SchemaError(path, f"must be at least {minimum}, got {value}")
    return value


def _name(value) -> str:
    """The scenario name, which prefixes the output file names."""
    name = _check_type(value, str, "config.name", "a string")
    if not _NAME.fullmatch(name):
        raise SchemaError("config.name", "expected 1 to 100 of the characters "
                                         "A-Z a-z 0-9 _ . -")
    return name


def config_from_doc(doc: dict, base_dir: str | Path = ".") -> ScenarioConfig:
    """Validate a scenario document; errors carry field paths."""
    base = Path(base_dir)
    _check_type(doc, dict, "config", "an object")
    name = _name(doc.get("name", "scenario"))
    source = _check_type(_require_field(doc, "hamiltonian"), str,
                         "config.hamiltonian", "an expression string")
    try:
        parse(source)
    except ExprSyntaxError as exc:
        raise SchemaError("config.hamiltonian", str(exc)) from exc

    grid_doc = _check_type(_require_field(doc, "grid"), dict, "config.grid", "an object")
    for key in ("tau", "steps"):
        if key not in grid_doc:
            raise SchemaError(f"config.grid.{key}", "missing required field")
    grid = TimeGrid(tau=_number(grid_doc["tau"], "config.grid.tau", positive=True),
                    steps=_integer(grid_doc["steps"], "config.grid.steps", 1),
                    t0=_number(grid_doc.get("t0", 0.0), "config.grid.t0"))
    if not math.isfinite(grid.t0 + grid.tau * grid.steps):
        raise SchemaError("config.grid.tau", "the end time t0 + tau*steps is not finite")

    picture = doc.get("picture", "schrodinger")
    if picture not in ("schrodinger", "heisenberg"):
        raise SchemaError("config.picture",
                          f"expected 'schrodinger' or 'heisenberg', got {picture!r}")

    hbar = _number(doc.get("hbar", 1.0), "config.hbar", positive=True)
    n = doc.get("n")
    epsilon = doc.get("epsilon")
    if (n is None) != (epsilon is None):
        raise SchemaError("config.n", "n and epsilon must be given together")
    if n is not None:
        n = _integer(n, "config.n", 2)
        epsilon = _number(epsilon, "config.epsilon", positive=True)
        # the canonical pair's spectra reach n*epsilon (Q) and pi*hbar/epsilon
        # (P), and its shift is exp(i (epsilon/hbar) P)
        if not all(sys.float_info.min <= scale < math.inf for scale in
                   (n * epsilon, math.pi * hbar / epsilon, epsilon / hbar)):
            raise SchemaError("config.epsilon", "n*epsilon, pi*hbar/epsilon and "
                                                "epsilon/hbar must be normal floats")

    operators: dict[str, PseudoObservable] = {}
    for opname, opdoc in _check_type(doc.get("operators", {}), dict,
                                     "config.operators", "an object").items():
        path = f"config.operators.{opname}"
        if isinstance(opdoc, str):
            operators[opname] = matrix_from_doc(load_json(base / opdoc), path)
        else:
            operators[opname] = matrix_from_doc(opdoc, path)

    constants = {}
    for cname, cval in _check_type(doc.get("constants", {}), dict,
                                   "config.constants", "an object").items():
        constants[cname] = _number(cval, f"config.constants.{cname}")

    traces = {}
    for tname, tsrc in _check_type(doc.get("observables_to_trace", {}), dict,
                                   "config.observables_to_trace", "an object").items():
        path = f"config.observables_to_trace.{tname}"
        src = _check_type(tsrc, str, path, "an expression string")
        try:
            parse(src)
        except ExprSyntaxError as exc:
            raise SchemaError(path, str(exc)) from exc
        traces[tname] = src

    return ScenarioConfig(
        name=name, hamiltonian=source, grid=grid, picture=picture,
        hbar=hbar, n=n, epsilon=epsilon, operators=operators, constants=constants,
        initial_state=doc.get("initial_state", 0),
        observables_to_trace=traces,
        seed=_integer(doc.get("seed", 0), "config.seed", 0))


def _require_field(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(f"config.{key}", "missing required field")
    return doc[key]


def build_engine(config: ScenarioConfig) -> EvolutionEngine:
    """Resolve operator bindings and assemble the evolution engine."""
    operators = dict(config.operators)
    if config.n is not None:
        pair = make_canonical_pair(make_position(config.n, config.epsilon),
                                   config.hbar)
        operators.setdefault("Q", pair.q.observable)
        operators.setdefault("P", pair.p)
        operators.setdefault("S", pair.s)
    dims = {op.dim for op in operators.values()}
    if len(dims) > 1:
        raise SchemaError("config.operators", f"inconsistent dimensions {sorted(dims)}")
    if not dims:
        raise SchemaError("config", "no operators: give n/epsilon or an operators map")
    dim = dims.pop()
    constants = dict(config.constants)
    constants.setdefault("hbar", config.hbar)
    ctx = EvalContext(dim=dim, operators=operators, constants=constants)
    hamiltonian = Hamiltonian(config.hamiltonian, ctx, config.hbar)
    # H(t0), the step generator and, in the Heisenberg picture, [O(t0), H(t0)]
    # for each traced O must be finite (checked here, so overflow is not also
    # warned about), and H(t0) Hermitian; an expression that fails to evaluate
    # stays a runtime failure.  Values are read unvalidated through H's memo:
    # an Observable would reject non-finite entries before this check could
    # name the field, and the memo holds one exactly when the value is Hermitian.
    with np.errstate(over="ignore", invalid="ignore"):
        h_t0 = hamiltonian.value(hamiltonian.expr, config.grid.t0)
        h0 = h_t0.entries
        if not np.isfinite(h0).all():
            raise SchemaError("config.hamiltonian", "H(t0) has non-finite entries")
        if not isinstance(h_t0, Observable):
            raise SchemaError("config.hamiltonian", "H(t0) is not Hermitian")
        if not np.isfinite((config.grid.tau / config.hbar) * h0).all():
            raise SchemaError("config.grid.tau", "the step generator (tau/hbar) H(t0) "
                                                 "has non-finite entries")
        for name, src in (config.observables_to_trace.items()
                          if config.picture == "heisenberg" else ()):
            o = hamiltonian.value(parse(src), config.grid.t0).entries
            if not np.isfinite(o @ h0 - h0 @ o).all():
                raise SchemaError("config.hamiltonian", f"[O(t0), H(t0)] for the traced "
                                                        f"{name!r} has non-finite entries")
    return EvolutionEngine(hamiltonian, config.grid, config.picture)


def _initial_state(config: ScenarioConfig, dim: int,
                   base_dir: str | Path) -> StateVector | DensityObservable:
    """The pure state, or the density of a ``density_file``, that the run starts from."""
    spec = config.initial_state
    if isinstance(spec, bool):
        raise SchemaError("config.initial_state", "expected an index, list, or file ref")
    if isinstance(spec, int):
        if not 0 <= spec < dim:
            raise SchemaError("config.initial_state",
                              f"basis index {spec} out of range for dim {dim}")
        return StateVector.basis_vector(dim, spec)
    if isinstance(spec, list):
        amps = []
        for idx, item in enumerate(spec):
            path = f"config.initial_state[{idx}]"
            parts = item if isinstance(item, list) and len(item) == 2 else [item, 0.0]
            amps.append(complex(*(_number(x, path) for x in parts)))
        arr = np.array(amps, dtype=complex)
        with np.errstate(over="ignore"):  # an overflow is reported below, not warned
            norm = np.linalg.norm(arr)
        if norm == 0:
            raise SchemaError("config.initial_state", "zero amplitude vector")
        if not math.isfinite(norm):
            raise SchemaError("config.initial_state", "amplitude vector norm overflows")
        psi = StateVector(arr / norm)
        if psi.dim != dim:
            raise SchemaError("config.initial_state",
                              f"length {psi.dim} does not match dim {dim}")
        return psi
    loaders = {"density_file": lambda doc, path: DensityObservable(
                   as_observable(matrix_from_doc(doc, path))),
               "vector_file": vector_from_doc}
    for key, load in loaders.items():
        if isinstance(spec, dict) and key in spec:
            path = f"config.initial_state.{key}"
            ref = _check_type(spec[key], str, path, "a file path")
            doc = load_json(Path(base_dir) / ref)
            try:
                state = load(doc, path)
            except SchemaError:
                raise
            except AlgebraError as exc:  # not a state: not Hermitian, positive or normalized
                raise SchemaError(path, str(exc)) from exc
            if state.dim != dim:
                raise SchemaError(path, f"dim {state.dim} does not match scenario dim {dim}")
            return state
    raise SchemaError("config.initial_state",
                      "expected a basis index, an amplitude list, or a file reference")


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    header: list[str]
    rows: list[list[float]]
    checks: list[CheckReport]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def audit_doc(self) -> dict:
        return {
            "scenario": self.config.name,
            "seed": self.config.seed,
            "picture": self.config.picture,
            "steps": self.config.grid.steps,
            "all_pass": self.all_pass,
            "checks": [c.to_json_entry() for c in self.checks],
        }

    def column(self, name: str) -> list[float]:
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]


def run_scenario(config: ScenarioConfig, base_dir: str | Path = ".") -> ScenarioResult:
    """Evolve the scenario over its grid; emit trace rows and audit checks.

    Trace columns: step, t, one expectation column per traced observable, the
    per-step equation-of-motion residual, and the state-invariant drift
    (norm for vector states, trace for densities).  The residual is the
    ``*_step_residual`` of :mod:`obsalg.evolution` at tau; in the Heisenberg
    picture it is the maximum over the traced observables, each read as
    V_m O V_m^dagger in :meth:`EvolutionEngine.heisenberg_frames`.
    """
    engine = build_engine(config)
    ham = engine.hamiltonian
    initial = _initial_state(config, engine.dim, base_dir)
    traced = {name: parse(src) for name, src in config.observables_to_trace.items()}
    # a constant H is read with the traced observables, as one more node unless
    # it is traced (a traced copy shares H's memo entry): its column is the energy
    nodes = list(traced.values())
    if not ham.time_dependent and ham.expr not in nodes:
        nodes.append(ham.expr)
    energy_at = None if ham.time_dependent else nodes.index(ham.expr)

    header = ["step", "t", *traced.keys(), "equation_residual", "state_drift"]
    rows: list[list[float]] = []
    tau = engine.grid.tau
    energy_series: list[float] = []
    state = initial
    expect = vector_expectation if isinstance(state, StateVector) else expectation
    frames = (engine.heisenberg_frames() if config.picture == "heisenberg"
              else ((float(t), None) for t in engine.grid.times()))

    for step, (t, v) in enumerate(frames):
        read = [ham.value(node, t) for node in nodes]
        if v is not None:
            read = [PseudoObservable(v @ o.entries @ v.conj().T) for o in read]
        expectations = [expect(state, o).real for o in read]
        if energy_at is not None:
            energy_series.append(expectations[energy_at])

        if step == engine.grid.steps:
            residual = 0.0
        elif v is not None:
            residual = max((heisenberg_step_residual(engine, node, t, tau, v, o.entries)
                            for node, o in zip(traced.values(), read)), default=0.0)
        elif isinstance(state, StateVector):
            residual = schrodinger_step_residual(engine, state, t, tau)
            state = schrodinger_step(engine, state, t)
        else:
            residual = von_neumann_step_residual(engine, state, t, tau)
            state = von_neumann_step(engine, state, t)
        rows.append([step, t, *expectations[:len(traced)], residual, _state_drift(state)])

    checks = _scenario_checks(config, engine, initial, energy_series)
    return ScenarioResult(config, header, rows, checks)


def _state_drift(state: StateVector | DensityObservable) -> float:
    if isinstance(state, StateVector):
        return abs(float(np.linalg.norm(state.amplitudes)) - 1.0)
    return abs(complex(np.trace(state.matrix.entries)).real - 1.0)


def _scenario_checks(config: ScenarioConfig, engine: EvolutionEngine,
                     initial: StateVector | DensityObservable,
                     energy_series: list[float]) -> list[CheckReport]:
    t0 = engine.grid.t0
    unitary_worst = engine.max_grid_defect
    checks = [CheckReport(
        name="unitarity_along_grid",
        passed=unitary_worst <= 1e-9,
        residuals={"max_unitary_defect": unitary_worst},
    )]

    if energy_series:
        drift = max(abs(e - energy_series[0]) for e in energy_series)
        scale = max(1.0, abs(energy_series[0]))
        checks.append(CheckReport(
            name="energy_conservation",
            passed=drift <= 1e-10 * scale,
            residuals={"energy_drift": drift},
        ))

    rng = np.random.default_rng(config.seed)
    probe = random_hermitian(rng, engine.dim)
    density = initial if isinstance(initial, DensityObservable) else pure_density(initial)
    heis = expectation(density, heisenberg_step(engine, probe, t0))
    schr = expectation(von_neumann_step(engine, density, t0), probe)
    duality_residual = abs(heis - schr)
    checks.append(CheckReport(
        name="picture_equivalence",
        passed=duality_residual <= 1e-10 * max(1.0, abs(heis)),
        residuals={"duality_residual": duality_residual},
    ))

    # equation-residual halving checks hold in the continuum regime only;
    # outside it (tau*||H||/hbar > 0.5) record the regime instead of a
    # meaningless ratio -- the abscissa demo steps at tau = epsilon on purpose
    regime = engine.grid.tau * engine.hamiltonian.evaluate(t0).norm() / engine.hbar
    if regime <= 0.5:
        probe_expr = (next(iter(config.observables_to_trace.values()))
                      if config.observables_to_trace else engine.hamiltonian.expr)
        checks.append(heisenberg_residual(engine, probe_expr, t0))
        if isinstance(initial, StateVector):
            checks.append(schrodinger_residual(engine, initial, t0))
        checks.append(von_neumann_residual(engine, density, t0))
    else:
        checks.append(CheckReport(
            name="equation_residual_regime",
            passed=True,
            residuals={"tau_h_over_hbar": regime},
            details={"note": "difference-quotient checks skipped: "
                             "tau*||H||/hbar > 0.5"},
        ))
    return checks
