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

from .canonical import MAX_LEVELS, make_canonical_pair, make_position
from .core import AlgebraError, Observable, PseudoObservable, as_observable, vecnorm
# perfbench's test_traced_call_restores_every_wrapped_name reads scenarios.opnorm
from .core import opnorm  # noqa: F401
from .evolution import (
    PICTURES,
    REGIME_BOUND,
    EvolutionEngine,
    Hamiltonian,
    TimeGrid,
    _heisenberg_report,
    _schrodinger_report,
    _von_neumann_report,
    heisenberg_step,
    heisenberg_step_residual,
    schrodinger_step_residual,
    von_neumann_step,
    von_neumann_step_residual,
)
from .expr import EvalContext, ExprEvalError, ObservableExpr, references_time
from .rand import random_hermitian
from .report import CheckReport
from .serialize import (SchemaError, _check_type, _expression, _integer, _number, _require,
                        load_json, matrix_from_doc, vector_from_doc)
from .states import DensityObservable, StateVector, expectation, pure_density, unit_amplitudes


_NAME = re.compile(r"[A-Za-z0-9_.-]{1,100}")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    hamiltonian: ObservableExpr
    grid: TimeGrid
    picture: str = "schrodinger"
    hbar: float = 1.0
    n: int | None = None
    epsilon: float | None = None
    operators: dict[str, PseudoObservable] = field(default_factory=dict)
    constants: dict[str, float] = field(default_factory=dict)
    initial_state: Any = 0
    observables_to_trace: dict[str, ObservableExpr] = field(default_factory=dict)
    seed: int = 0


def _name(value) -> str:
    """The scenario name, which prefixes the output file names."""
    name = _check_type(value, str, "config.name", "a string")
    if not _NAME.fullmatch(name):
        raise SchemaError("config.name", "expected 1 to 100 of the characters "
                                         "A-Z a-z 0-9 _ . -")
    return name


def config_from_doc(doc: dict, base_dir: str | Path = ".") -> ScenarioConfig:
    """Validate a scenario document and parse its expressions; errors carry field paths."""
    base = Path(base_dir)
    _check_type(doc, dict, "config", "an object")
    name = _name(doc.get("name", "scenario"))
    hamiltonian = _expression(_require(doc, "hamiltonian", "config"), "config.hamiltonian")

    grid_doc = _check_type(_require(doc, "grid", "config"), dict, "config.grid", "an object")
    grid = TimeGrid(
        tau=_number(_require(grid_doc, "tau", "config.grid"), "config.grid.tau", positive=True),
        steps=_integer(_require(grid_doc, "steps", "config.grid"), "config.grid.steps", 1),
        t0=_number(grid_doc.get("t0", 0.0), "config.grid.t0"))
    if not math.isfinite(grid.t0 + grid.tau * _number(grid.steps, "config.grid.steps")):
        raise SchemaError("config.grid.tau", "the end time t0 + tau*steps is not finite")

    picture = doc.get("picture", "schrodinger")
    if picture not in PICTURES:
        raise SchemaError("config.picture", f"expected one of {PICTURES}, got {picture!r}")

    hbar = _number(doc.get("hbar", 1.0), "config.hbar", positive=True)
    n = doc.get("n")
    epsilon = doc.get("epsilon")
    if (n is None) != (epsilon is None):
        raise SchemaError("config.n", "n and epsilon must be given together")
    if n is not None:
        n = _integer(n, "config.n", 2, MAX_LEVELS)  # the memory bound of make_position
        epsilon = _number(epsilon, "config.epsilon", positive=True)
        # the canonical pair's spectra reach n*epsilon (Q) and pi*hbar/epsilon
        # (P), and its shift is exp(i (epsilon/hbar) P)
        if not all(sys.float_info.min <= scale < math.inf for scale in (
                _number(n, "config.n") * epsilon, math.pi * hbar / epsilon, epsilon / hbar)):
            raise SchemaError("config.epsilon", "n*epsilon, pi*hbar/epsilon and "
                                                "epsilon/hbar must be normal floats")

    operators: dict[str, PseudoObservable] = {}
    for opname, opdoc in _check_type(doc.get("operators", {}), dict,
                                     "config.operators", "an object").items():
        path = f"config.operators.{opname}"  # a document, or a path to one
        operators[opname] = matrix_from_doc(
            load_json(base / opdoc, path) if isinstance(opdoc, str) else opdoc, path)

    constants = {}
    for cname, cval in _check_type(doc.get("constants", {}), dict,
                                   "config.constants", "an object").items():
        constants[cname] = _number(cval, f"config.constants.{cname}")

    traces = {}
    for tname, tsrc in _check_type(doc.get("observables_to_trace", {}), dict,
                                   "config.observables_to_trace", "an object").items():
        traces[tname] = _expression(tsrc, f"config.observables_to_trace.{tname}")

    return ScenarioConfig(
        name=name, hamiltonian=hamiltonian, grid=grid, picture=picture,
        hbar=hbar, n=n, epsilon=epsilon, operators=operators, constants=constants,
        initial_state=doc.get("initial_state", 0),
        observables_to_trace=traces,
        seed=_integer(doc.get("seed", 0), "config.seed", 0))


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
    # warned about); an expression that fails to evaluate stays a runtime
    # failure.  Values are read unvalidated through H's memo: an Observable
    # would reject non-finite entries before this check could name the field.
    with np.errstate(over="ignore", invalid="ignore"):
        h0 = _value(hamiltonian, hamiltonian.expr, config.grid.t0, "config.hamiltonian").entries
        if not np.isfinite(h0).all():
            raise SchemaError("config.hamiltonian", "H(t0) has non-finite entries")
        if not np.isfinite((config.grid.tau / config.hbar) * h0).all():
            raise SchemaError("config.grid.tau", "the step generator (tau/hbar) H(t0) "
                                                 "has non-finite entries")
        for name, node in (config.observables_to_trace.items()
                           if config.picture == "heisenberg" else ()):
            o = _value(hamiltonian, node, config.grid.t0,
                       f"config.observables_to_trace.{name}").entries
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
            doc = load_json(Path(base_dir) / ref, path)
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


# per stacked d x d complex array of a trajectory chunk: 8 steps at d = 32, enough to
# amortize a chunk's fixed Python and NumPy cost; one step from d = 128 on
CHUNK_BYTES = 128 * 2 ** 10


def run_scenario(config: ScenarioConfig, base_dir: str | Path = ".") -> ScenarioResult:
    """Evolve the scenario over its grid; emit trace rows and audit checks.

    Trace columns: step, t, one expectation column per traced observable, the
    per-step equation-of-motion residual, and the state-invariant drift
    (norm for vector states, trace for densities).  The residual is the
    ``*_step_residual`` of :mod:`obsalg.evolution` on the run's own step; in the
    Heisenberg picture, the maximum over the traced O read as V_m O V_m^dagger in
    the engine's frames.  Each traced value at every row, and H at every t the run
    steps from (before its unitary), must be Hermitian.

    The grid is walked in chunks of ``CHUNK_BYTES // (16 d^2)`` steps.  Per chunk, H
    at the times the steps start from and the traced values that reference t (the
    others are read once, at t0) are read as stacks, and the engine certifies the
    chunk's step unitaries as one stack.  Row by row the run then only takes V_m from
    the engine's frames or steps the state; the rest is computed on the chunk's
    stacks by the kernels of one row at a time.  A read or a unitary that fails is
    read again one row at a time, so the first failure in row order is the one
    reported.  The outputs are byte-identical for any chunk length.
    """
    engine = build_engine(config)
    ham = engine.hamiltonian
    initial = _initial_state(config, engine.dim, base_dir)
    traced = config.observables_to_trace
    # a constant H is read with the traced observables, as one more node unless
    # it is traced (a traced copy shares H's memo entry): its column is the energy
    fields = [(f"config.observables_to_trace.{name}", node) for name, node in traced.items()]
    if not ham.time_dependent and ham.expr not in traced.values():
        fields.append(("config.hamiltonian", ham.expr))
    energy_at = None if ham.time_dependent else [node for _, node in fields].index(ham.expr)
    timed = [references_time(node) for _, node in fields]

    header = ["step", "t", *traced.keys(), "equation_residual", "state_drift"]
    rows: list[list[float]] = []
    energy_series: list[float] = []
    pure = isinstance(initial, StateVector)
    heisenberg = config.picture == "heisenberg"
    d, last, tau, times = engine.dim, engine.grid.steps, engine.grid.tau, engine.grid.times()
    size = min(last, max(1, CHUNK_BYTES // (16 * d ** 2)))
    # a chunk's frames, states and unnormalized U^dagger psi; its last row starts the next
    frames = engine.heisenberg_frames() if heisenberg else None
    vs = np.empty((size + 1, d, d), dtype=complex) if heisenberg else None
    states = np.empty((size + 1,) + ((d,) if pure else (d, d)), dtype=complex)
    states[:] = initial.amplitudes if pure else initial.matrix.entries
    aheads = np.empty((size, d), dtype=complex) if pure and not heisenberg else None

    # row 0: H, then each field in order; a field that does not reference t keeps this value
    h0 = _observable(ham, ham.expr, float(times[0]), "config.hamiltonian").entries
    fixed = [_observable(ham, node, float(times[0]), path).entries for path, node in fields]

    def read(m0: int, ts: list[float]) -> tuple[np.ndarray, list[np.ndarray]]:
        """H at the rows ``ts`` that start a step and the fields that reference t at
        every row, gated, then the unitaries of the steps from all rows but the last."""
        step_times = ts[:last - m0]
        try:
            h = (_stack(ham, ham.expr, step_times, "config.hamiltonian")[:len(ts) - 1]
                 if ham.time_dependent else h0)
            values = [_stack(ham, node, ts, path) if on else value
                      for (path, node), on, value in zip(fields, timed, fixed)]
            engine.step_unitaries(ts[:-1])
        except (AlgebraError, ArithmeticError, Warning):
            for m, t in enumerate(ts):  # one row at a time: the first failure in row order
                if m < len(step_times):
                    _observable(ham, ham.expr, t, "config.hamiltonian")
                for (path, node), on in zip(fields, timed):
                    if on:
                        _observable(ham, node, t, path)
                if m < len(ts) - 1:
                    engine.unitary(t)
            raise
        return h, values

    def emit(ts: list[float], h: np.ndarray, values: list[np.ndarray], final: bool) -> None:
        """The rows of a chunk but the last, which starts the next chunk."""
        k = len(ts) - 1
        chunk = states[:k + 1]
        if heisenberg:
            v = vs[:k + 1]
            values = [v @ o @ v.conj().transpose(0, 2, 1) for o in values]
            residual = np.max([np.zeros(k)] + [  # residuals are >= 0: a 0 for no traced O
                heisenberg_step_residual(engine, node, ts[:k], tau, v[:k], h, o[:k], o[1:])
                for (_, node), o in zip(fields, values[:len(traced)])], axis=0)
        elif pure:
            residual = schrodinger_step_residual(engine, chunk[:k], ts[:k], tau, aheads[:k], h)
        else:
            residual = von_neumann_step_residual(engine, chunk[:k], chunk[1:], ts[:k], tau, h)
        if pure:
            means = [np.matmul(chunk.conj()[:, None], np.matmul(o, chunk[..., None]))[:, 0, 0]
                     for o in values]
            drift = np.abs(vecnorm(chunk[1:]) - 1.0)
        else:
            flat = chunk.reshape(k + 1, -1)
            means = [np.vecdot(flat, o.reshape(*o.shape[:-2], -1)) for o in values]
            drift = np.abs(np.trace(chunk[1:], axis1=1, axis2=2).real - 1.0)
        if final:  # the last row takes no step
            residual, drift = np.append(residual, 0.0), np.append(drift, drift[-1])
        columns = [m.real[:k + final].tolist() for m in means]
        energy_series.extend(() if energy_at is None else columns[energy_at])
        rows.extend(map(list, zip(range(len(rows), len(rows) + k + final), ts,
                                  *columns[:len(traced)], residual.tolist(), drift.tolist())))

    state = initial.amplitudes if pure else initial
    if heisenberg:
        vs[0] = next(frames)[1]
    for m0 in range(0, last, size):
        ts = times[m0:m0 + size + 1].tolist()
        h, values = read(m0, ts)
        for j, t in enumerate(ts[:-1]):
            if heisenberg:
                vs[j + 1] = next(frames)[1]
            elif pure:
                aheads[j] = ahead = engine.unitary(t).entries.conj().T @ state
                states[j + 1] = state = unit_amplitudes(ahead)
            else:
                state = von_neumann_step(engine, state, t)
                states[j + 1] = state.matrix.entries
        emit(ts, h, values, m0 + size >= last)
        for chunk_array in (vs, states):
            if chunk_array is not None:
                chunk_array[0] = chunk_array[len(ts) - 1]

    checks = _scenario_checks(config, engine, initial, energy_series)
    return ScenarioResult(config, header, rows, checks)


def _stack(ham: Hamiltonian, node: ObservableExpr, times: list[float], path: str) -> np.ndarray:
    """``node`` at each of ``times`` from H's memo, as a stack whose every row is
    Hermitian; a failure is reported by reading the rows one at a time."""
    stack, hermitian = ham.values(node, times)
    if not hermitian.all():
        raise SchemaError(path, f"not a finite Hermitian matrix at "
                                f"t = {times[int(np.argmin(hermitian))]!r}")
    return stack


def _value(ham: Hamiltonian, node: ObservableExpr, t: float, path: str) -> PseudoObservable:
    """``node`` at t from H's memo; an expression that fails to evaluate stays a
    runtime failure, which names the field and t."""
    try:
        return ham.value(node, t)
    except AlgebraError as exc:  # an ExprEvalError, or a spectral function's failure
        raise ExprEvalError(f"{path}: {exc} at t = {t!r}") from exc


def _observable(ham: Hamiltonian, node: ObservableExpr, t: float, path: str) -> Observable:
    """``node`` at t from H's memo, which holds an Observable exactly when it is Hermitian."""
    value = _value(ham, node, t, path)
    if not isinstance(value, Observable):
        raise SchemaError(path, f"not a finite Hermitian matrix at t = {t!r}")
    return value


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

    # halving checks need the continuum regime; outside it record the regime instead of a
    # meaningless ratio (abscissa steps at tau = epsilon on purpose).  One ||H(t0)|| serves.
    h_norm = engine.hamiltonian.evaluate(t0).norm()
    regime = engine.grid.tau * h_norm / engine.hbar
    if regime <= REGIME_BOUND:
        probe = next(iter(config.observables_to_trace.values()), engine.hamiltonian.expr)
        checks.append(_heisenberg_report(engine, probe, t0, h_norm))
        if isinstance(initial, StateVector):
            checks.append(_schrodinger_report(engine, initial, t0, h_norm))
        checks.append(_von_neumann_report(engine, density, t0, h_norm))
    else:
        checks.append(CheckReport(
            name="equation_residual_regime",
            passed=True,
            residuals={"tau_h_over_hbar": regime},
            details={"note": "difference-quotient checks skipped: "
                             f"tau*||H||/hbar > {REGIME_BOUND}"},
        ))
    return checks
