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
from .core import AlgebraError, PseudoObservable, as_observable, vecnorm
# perfbench's test_traced_call_restores_every_wrapped_name reads scenarios.opnorm
from .core import opnorm  # noqa: F401
from .evolution import (
    PICTURES,
    REGIME_BOUND,
    EvolutionEngine,
    Hamiltonian,
    TimeGrid,
    heisenberg_residual,
    heisenberg_step,
    heisenberg_step_residual,
    schrodinger_residual,
    schrodinger_step_residual,
    von_neumann_residual,
    von_neumann_step,
    von_neumann_step_residual,
)
from .expr import EvalContext, ExprEvalError, ObservableExpr, references_time
from .rand import random_hermitian
from .report import CheckReport
from .serialize import (SchemaError, _check_type, _expression, _integer, _number, _require,
                        load_json, matrix_from_doc, vector_from_doc)
from .states import (DensityObservable, StateVector, expectation, pure_density, unit_amplitudes,
                     unit_traces)


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

    # an operator or constant the expressions would never read, or an hbar the steps
    # would not use, is refused rather than dropped
    shadowed = {"t": "the time symbol", "i": "the imaginary unit"}
    operators: dict[str, PseudoObservable] = {}
    for opname, opdoc in _check_type(doc.get("operators", {}), dict,
                                     "config.operators", "an object").items():
        path = f"config.operators.{opname}"  # a document, or a path to one
        if opname in shadowed:
            raise SchemaError(path, f"{opname!r} names {shadowed[opname]}, so no "
                                    f"expression reads this operator")
        operators[opname] = matrix_from_doc(
            load_json(base / opdoc, path) if isinstance(opdoc, str) else opdoc, path)
    shadowed.update(dict.fromkeys([*operators, *(("Q", "P", "S") if n is not None else ())],
                                  "an operator"))
    constants = {}
    for cname, cval in _check_type(doc.get("constants", {}), dict,
                                   "config.constants", "an object").items():
        path = f"config.constants.{cname}"
        if cname in shadowed:
            raise SchemaError(path, f"{cname!r} names {shadowed[cname]}, so no "
                                    f"expression reads this constant")
        constants[cname] = _number(cval, path)
        if cname == "hbar" and constants[cname] != hbar:
            raise SchemaError(path, f"{constants[cname]!r} contradicts config.hbar = "
                                    f"{hbar!r}, which the steps use")

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
    # H(t0) and, in the Heisenberg picture, each traced O(t0) are read Hermitian, so
    # finite; the step generator and [O(t0), H(t0)] must be finite too (checked here,
    # so overflow is not also warned about)
    with np.errstate(over="ignore", invalid="ignore"):
        t0 = [config.grid.t0]
        h0 = _rows(hamiltonian, hamiltonian.expr, t0, "config.hamiltonian")[0]
        if not np.isfinite((config.grid.tau / config.hbar) * h0).all():
            raise SchemaError("config.grid.tau", "the step generator (tau/hbar) H(t0) "
                                                 "has non-finite entries")
        for name, node in (config.observables_to_trace.items()
                           if config.picture == "heisenberg" else ()):
            o = _rows(hamiltonian, node, t0, f"config.observables_to_trace.{name}")[0]
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


# per stacked d x d complex array of a trajectory chunk (d complex for a row-sized one): 8
# steps at d = 32, enough to amortize a chunk's fixed Python and NumPy cost; one from d = 128
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

    Every value the run reads goes through :func:`_rows`.  The grid is walked in chunks of
    ``CHUNK_BYTES // (16 d^2)`` steps (``// (16 d)`` for a pure Schroedinger state if neither H
    nor a traced value references t).  Per chunk, H at the times the steps start from and the
    traced values that reference t (the others are read once, at t0) are read as stacks, and a
    time-dependent H's step unitaries are certified as one stack (Taylor polynomials in the
    continuum regime, otherwise one ``eigh`` call; ``EvolutionEngine.step_unitaries``).  Row by
    row the run then only takes V_m from the engine's frames or steps the state by that stack's
    U^dagger; a constant H's states are read in closed form (``propagators``), the rest
    computed on the chunk's stacks.  A read or a unitary that fails is read again row by row,
    so the first failure in row order is reported; a row's unitary reads the H(t) that row
    kept.  The checks one step from t0 run once the first chunk (H(t0), U(t0)) is read, those
    over the whole run at the end.  An evaluation that fails off the grid (checks, dO/dt) names
    its field and t too.  The outputs are byte-identical for any chunk length.
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

    header = ["step", "t", *traced.keys(), "equation_residual", "state_drift"]
    rows: list[list[float]] = []
    energy_series: list[float] = []
    pure = isinstance(initial, StateVector)
    heisenberg = config.picture == "heisenberg"
    d, last, tau, times = engine.dim, engine.grid.steps, engine.grid.tau, engine.grid.times()
    row_sized = pure and not heisenberg and not any(
        map(references_time, (ham.expr, *traced.values())))
    size = min(last, max(1, CHUNK_BYTES // (16 * (d if row_sized else d ** 2))))
    # a chunk's frames, states and unnormalized U^dagger psi; its last row starts the next
    frames = engine.heisenberg_frames() if heisenberg else None
    vs = np.empty((size + 1, d, d), dtype=complex) if heisenberg else None
    states = np.empty((size + 1,) + ((d,) if pure else (d, d)), dtype=complex)
    states[:] = initial.amplitudes if pure else initial.matrix.entries
    aheads = np.empty((size, d), dtype=complex) if pure and not heisenberg else None

    # row 0: H, then each field in order; H's memo keeps a value that does not reference t
    for path, node in [("config.hamiltonian", ham.expr), *fields]:
        _rows(ham, node, times[:1].tolist(), path)

    def read(m0: int, ts: list[float]) -> tuple[np.ndarray, list, np.ndarray | None]:
        """H at the rows ``ts`` that start a step and each field at every row, gated (one
        row for a value that does not reference t), then the unitaries of the steps from
        all rows but the last (their stack, or None for a constant H)."""
        step_times = ts[:last - m0]
        try:
            h = _rows(ham, ham.expr, step_times, "config.hamiltonian")[:len(ts) - 1]
            values = [_rows(ham, node, ts, path) for path, node in fields]
            return h, values, engine.step_unitaries(ts[:-1])
        except (AlgebraError, ArithmeticError, Warning):
            for m, t in enumerate(ts):  # one row at a time: the first failure in row order
                if m < len(step_times):
                    _rows(ham, ham.expr, [t], "config.hamiltonian")
                for path, node in fields:
                    _rows(ham, node, [t], path)
                if m < len(ts) - 1:
                    engine.unitary(t)  # reads the H(t) just kept
            raise

    def emit(ts: list[float], h: np.ndarray, values: list[np.ndarray], final: bool) -> None:
        """The rows of a chunk but the last, which starts the next chunk."""
        k = len(ts) - 1
        chunk = states[:k + 1]
        if heisenberg:
            v = vs[:k + 1]
            values = [v @ o @ v.conj().transpose(0, 2, 1) for o in values]
            residual = np.max([np.zeros(k)] + [  # residuals are >= 0: a 0 for no traced O
                _for_field(path, heisenberg_step_residual,
                           engine, node, ts[:k], tau, v[:k], h, o[:k], o[1:])
                for (path, node), o in zip(fields, values[:len(traced)])], axis=0)
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

    state, norm = (initial.amplitudes if pure else initial), 1.0
    if heisenberg:
        vs[0] = next(frames)[1]
    for m0 in range(0, last, size):
        ts = times[m0:m0 + size + 1].tolist()
        h, values, us = read(m0, ts)
        if m0 == 0:  # what the checks one step from t0 read, this chunk holds
            t0_checks = _t0_checks(config, engine, initial)
        k, m = len(ts) - 1, np.arange(m0 + 1, m0 + len(ts))
        if heisenberg or ham.time_dependent:  # row by row: a frame, or a step by the chunk's U
            udag = us.conj().swapaxes(-1, -2) if pure and not heisenberg else None
            for j, t in enumerate(ts[:-1]):
                if heisenberg:
                    vs[j + 1] = next(frames)[1]
                elif pure:
                    aheads[j] = ahead = udag[j] @ state
                    states[j + 1] = state = unit_amplitudes(ahead)
                else:
                    state = von_neumann_step(engine, state, t)
                    states[j + 1] = state.matrix.entries
        elif pure:  # psi~_m = U(t_m - t0)^dagger psi0 = F (e^{-i m theta} o F^dagger psi0)
            f, theta = engine.eigenframe  # kept when the checks at t0 certified U(t0)
            phases = np.exp(-1j * np.multiply.outer(m, theta))
            tilde = np.matmul(f, (phases * (f.conj().T @ initial.amplitudes))[..., None])[..., 0]
            if m0 == 0:  # by the certified U, as the checks one step from t0 read it
                tilde[0] = engine.unitary(ts[0]).entries.conj().T @ initial.amplitudes
            norms = np.append(norm, vecnorm(tilde))  # psi_m = psi~_m / norms[m - m0], psi_0 = psi0
            aheads[:k] = tilde / norms[:-1, None]  # U^dagger psi_m = psi~_{m+1} / norms[m - m0]
            states[1:k + 1], norm = unit_amplitudes(tilde), norms[-1]
        else:  # D_m = V_m^dagger D0 V_m
            v = engine.propagators(m)
            states[1:k + 1] = unit_traces(v.conj().swapaxes(-1, -2) @ initial.matrix.entries @ v)
        emit(ts, h, values, m0 + size >= last)
        for chunk_array in (vs, states):
            if chunk_array is not None:
                chunk_array[0] = chunk_array[k]
        us = udag = None  # not held beside the next chunk's unitaries

    return ScenarioResult(config, header, rows, _run_checks(engine, energy_series) + t0_checks)


def _rows(ham: Hamiltonian, node: ObservableExpr, times: list[float], path: str) -> np.ndarray:
    """``node`` at each of ``times``, kept as the node's read in H's memo, as a stack whose
    every row is Hermitian (one row when ``node`` does not reference t).  An expression
    that fails to evaluate stays a runtime failure; read at one time, it names the field
    and t."""
    stack, hermitian = _for_field(path, ham.values, node, times)
    if not hermitian.all():
        raise SchemaError(path, f"not a finite Hermitian matrix at "
                                f"t = {times[int(np.argmin(hermitian))]!r}")
    return stack


def _for_field(path: str, compute, *args, **kwargs):
    """``compute(*args, **kwargs)``, whose evaluation failures, which name their t, are
    reported with the field that was read."""
    try:
        return compute(*args, **kwargs)
    except ExprEvalError as exc:
        raise ExprEvalError(f"{path}: {exc}") from exc


def _run_checks(engine: EvolutionEngine, energy_series: list[float]) -> list[CheckReport]:
    """The checks over the whole run: the grid's unitarity and, for a constant H, energy."""
    worst = engine.max_grid_defect
    checks = [CheckReport(name="unitarity_along_grid", passed=worst <= 1e-9,
                          residuals={"max_unitary_defect": worst})]
    if energy_series:
        drift = max(abs(e - energy_series[0]) for e in energy_series)
        checks.append(CheckReport(name="energy_conservation",
                                  passed=drift <= 1e-10 * max(1.0, abs(energy_series[0])),
                                  residuals={"energy_drift": drift}))
    return checks


def _t0_checks(config: ScenarioConfig, engine: EvolutionEngine,
               initial: StateVector | DensityObservable) -> list[CheckReport]:
    """The checks one step from t0: picture duality, then the three halving checks or the
    regime record.  A run computes them while its first chunk is held.  The halving
    checks are the public ``*_residual`` of :mod:`obsalg.evolution`, handed the one
    ||H(t0)|| taken here; the Heisenberg one reads the first traced observable, or H,
    whose field names an evaluation that fails."""
    t0 = engine.grid.t0
    rng = np.random.default_rng(config.seed)
    probe = random_hermitian(rng, engine.dim)
    density = initial if isinstance(initial, DensityObservable) else pure_density(initial)
    heis = expectation(density, heisenberg_step(engine, probe, t0))
    schr = expectation(von_neumann_step(engine, density, t0), probe)
    duality_residual = abs(heis - schr)
    checks = [CheckReport(
        name="picture_equivalence",
        passed=duality_residual <= 1e-10 * max(1.0, abs(heis)),
        residuals={"duality_residual": duality_residual},
    )]

    # halving checks need the continuum regime; outside it record the regime instead of a
    # meaningless ratio (abscissa steps at tau = epsilon on purpose).  One ||H(t0)|| serves.
    h_norm = engine.hamiltonian.evaluate(t0).norm()
    regime = engine.grid.tau * h_norm / engine.hbar
    if regime <= REGIME_BOUND:
        path, probe = next(((f"config.observables_to_trace.{name}", node) for name, node
                            in config.observables_to_trace.items()),
                           ("config.hamiltonian", engine.hamiltonian.expr))
        checks.append(_for_field(path, heisenberg_residual, engine, probe, t0, h_norm=h_norm))
        if isinstance(initial, StateVector):
            checks.append(schrodinger_residual(engine, initial, t0, h_norm=h_norm))
        checks.append(von_neumann_residual(engine, density, t0, h_norm=h_norm))
    else:
        checks.append(CheckReport(
            name="equation_residual_regime",
            passed=True,
            residuals={"tau_h_over_hbar": regime},
            details={"note": "difference-quotient checks skipped: "
                             f"tau*||H||/hbar > {REGIME_BOUND}"},
        ))
    return checks
