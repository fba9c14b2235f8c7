"""Driven runs compute their step unitaries a chunk at a time, and the stacks do not show.

* the stack-aware spectral kernel, its one ``eigh`` call per stack and the stacked
  expression evaluator give, row by row, the bits of one call per matrix or per time;
* a LAPACK failure in a stack is an AlgebraError;
* a gate that fails on a stack names the failing row;
* a step unitary's defect takes its SVD only where the reported maximum can move,
  and the maximum and the gate read as if every row took one;
* an evaluation failure in the middle of a chunk names its field and the first
  failing t, as a row-by-row walk does, and that walk evaluates each (expression,
  t) once more; one off the grid, where the checks or a dO/dt read, names them too;
* ``--out`` is created only once a run succeeds, and a spectral function that
  overflows exits 3 whatever the warning filter.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from obsalg import core, transforms
from obsalg.cli import main
from obsalg.core import AlgebraError, Observable, PseudoObservable, hermiticity_defect
from obsalg.evolution import PICTURES, EvolutionEngine, Hamiltonian, TimeGrid
from obsalg.expr import EvalContext, evaluate, parse
from obsalg.rand import random_hermitian, random_matrix, random_unitary
from obsalg.scenarios import CHUNK_BYTES
from obsalg.transforms import unitary_defect, unitary_exponential

SRC = Path(__file__).resolve().parents[1] / "src"
DIMS = [2, 3, 4, 16, 32, 64]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def hermitian_stack(rng, d: int, k: int = 5) -> np.ndarray:
    """k Hermitian matrices; row 1 has a doubly repeated eigenvalue, so it clusters."""
    stack = np.array([random_hermitian(rng, d).entries for _ in range(k)])
    w = random_unitary(rng, d).entries
    spectrum = np.linspace(-1.0, 2.0, d)
    spectrum[1] = spectrum[0]
    stack[1] = (w * spectrum) @ w.conj().T
    stack[1] = (stack[1] + stack[1].conj().T) / 2
    return stack


@pytest.mark.parametrize("d", DIMS)
def test_stacked_kernel_matches_one_call_per_matrix_bit_for_bit(rng, d):
    g = 0.3 * hermitian_stack(rng, d)
    frames, columns, starts = core._spectral_frame(g)
    assert not starts[1].all()  # the repeated eigenvalue forms one cluster
    u = unitary_exponential(g)
    cos_g = core._function_entries(np.cos, g)
    defects = unitary_defect(u)
    assert defects.shape == (len(g),)
    for j, g_j in enumerate(g):
        frame_j, columns_j, starts_j = core._spectral_frame(g_j)
        assert same_bits(frames[j], frame_j) and same_bits(columns[j], columns_j)
        assert np.array_equal(starts[j], starts_j)
        u_j = unitary_exponential(Observable(g_j)).entries
        assert same_bits(u[j], u_j)
        assert same_bits(defects[j], unitary_defect(PseudoObservable(u_j)))
        assert same_bits(cos_g[j], core._function_entries(np.cos, g_j))
        assert same_bits(hermiticity_defect(g)[j], hermiticity_defect(g_j))


@pytest.mark.parametrize("d, k", [(2, 2048), (32, 8)])  # a chunk of each, by CHUNK_BYTES
def test_stacked_eigh_matches_one_eigh_per_matrix_bit_for_bit(rng, d, k):
    stack = hermitian_stack(rng, d, k)  # row 1 has a repeated eigenvalue
    w, v = core._eigh_rows(stack)
    assert w.shape == (k, d) and v.shape == (k, d, d)
    for j, a in enumerate(stack):
        w_j, v_j = np.linalg.eigh(a)
        assert same_bits(w[j], w_j) and same_bits(v[j], v_j), j


def test_a_lapack_failure_in_a_stack_is_an_algebra_error(rng, monkeypatch):
    calls = []

    def failing(a):
        calls.append(np.shape(a))
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    stack = hermitian_stack(rng, 4)
    with pytest.raises(AlgebraError, match=r"^eigensolver failed: Eigenvalues did not converge$"):
        core._eigh_rows(stack)
    with pytest.raises(AlgebraError, match=r"^eigensolver failed: "):
        unitary_exponential(0.3 * stack)
    assert calls == [stack.shape] * 2  # one call for the whole stack


@pytest.mark.parametrize("d", DIMS)
def test_stacked_evaluation_matches_one_time_at_a_time(rng, d):
    a, b = hermitian_stack(rng, d, 2)
    ctx = EvalContext(dim=d, operators={"A": a, "B": b, "C": random_matrix(rng, d)},
                      constants={"nu": 1.3})
    node = parse("(A + cos(nu*t)*B)/(2 + t) + t^2*dag(C)*C - exp(i*t)*i*dag(C) + cos(t*A)"
                 " - expi(t)*A^2 + (t - 1)*(t + 1) + sin(B)")
    times = (0.0, 0.25, 0.5, 1.75)
    stack = evaluate(node, ctx.with_t(times))
    assert stack.shape == (len(times), d, d)
    for t, row in zip(times, stack):
        assert same_bits(row, evaluate(node, ctx.with_t(t)).entries)


@pytest.mark.parametrize("d", DIMS)
def test_chunk_of_step_unitaries_matches_one_step_at_a_time(rng, d):
    a, b = hermitian_stack(rng, d, 2)
    ctx = EvalContext(dim=d, operators={"A": a, "B": b})
    times = TimeGrid(tau=0.05, steps=6).times().tolist()

    def engine():
        return EvolutionEngine(Hamiltonian("A + cos(t)*B + t*A^2", ctx), TimeGrid(0.05, 6))

    stacked, single = engine(), engine()
    stacked.step_unitaries(times[:-1])
    for t in times[:-1]:
        assert same_bits(stacked.unitary(t).entries, single.unitary(t).entries)
    assert stacked.max_grid_defect == single.max_grid_defect > 0


def test_a_constant_hamiltonian_computes_its_unitary_once(rng, monkeypatch):
    a = random_hermitian(rng, 4)
    engine = EvolutionEngine(Hamiltonian("A", EvalContext(dim=4, operators={"A": a})),
                             TimeGrid(0.05, 6))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    times = engine.grid.times().tolist()
    engine.step_unitaries(times[:-1])
    assert {engine.unitary(t).entries.tobytes() for t in times[:-1]} == {
        engine.unitary(0.0).entries.tobytes()}
    assert len(calls) == 1


# --- gates on stacks --------------------------------------------------------------------------

def test_gram_gate_names_the_failing_row(rng):
    frames = np.array([random_unitary(rng, 4).entries for _ in range(5)])
    frames[3] *= 1.001
    with pytest.raises(AlgebraError, match=r"^frame is not orthonormal: .* \(stack row 3\)$"):
        core._check_orthonormal(frames)
    with pytest.raises(AlgebraError, match=r"^frame is not orthonormal: [^(]*$"):
        core._check_orthonormal(frames[3])  # one matrix: no row to name


def test_spectral_gates_name_the_failing_row(rng):
    g = hermitian_stack(rng, 4)
    g[2, 0, 0] = np.inf
    with np.errstate(invalid="ignore"), \
            pytest.raises(AlgebraError, match=r"^spectrum is not finite \(stack row 2\)$"):
        core._spectral_frame(g)
    g = hermitian_stack(rng, 4)
    g[4, 0, 1] += 1e-3  # not Hermitian: eigh reads one triangle, the reconstruction both
    with pytest.raises(AlgebraError, match=r"reconstruction .* \(stack row 4\)$"):
        unitary_exponential(g)


def test_unitary_defect_gate_names_the_failing_row(rng, monkeypatch):
    from obsalg import evolution

    ctx = EvalContext(dim=4, operators={"A": random_hermitian(rng, 4)})
    engine = EvolutionEngine(Hamiltonian("cos(t)*A", ctx), TimeGrid(0.05, 6))
    real = evolution._taylor_exponential

    def spoiled(g):
        u = real(g).copy()
        u[3] *= 1.01
        return u

    monkeypatch.setattr(evolution, "_taylor_exponential", spoiled)
    with pytest.raises(AlgebraError, match=r"^evolution unitary defect .* \(stack row 3\)$"):
        engine.step_unitaries(engine.grid.times().tolist()[:-1])


# --- defects pruned by their bound ------------------------------------------------------------

def _planting(monkeypatch, sizes: dict[int, float], d: int,
              rank: int = 1) -> list[np.ndarray]:
    """Make the engine's exponential give diag(1 + e_j, ..., 1 + e_j, 1, ..., 1), with
    ``rank`` entries 1 + e_j, on the grid step counted j: ||U^dagger U - 1|| is
    (1 + e_j)^2 - 1, rounded once, and its bound is tightest at rank one (and 2^(1/8)
    times the defect at rank two).  Returns the list that records every U certified."""
    from obsalg import evolution

    real = evolution._taylor_exponential
    certified: list[np.ndarray] = []

    def planted(g):
        u = real(g).copy()
        for j in range(len(u)):
            size = sizes.get(len(certified) + j)
            if size is not None:
                u[j] = np.diag([1 + size] * rank + [1.0] * (d - rank))
        certified.extend(u)
        return u

    monkeypatch.setattr(evolution, "_taylor_exponential", planted)
    return certified


def _driven_engine(rng, d: int, steps: int, hamiltonian: str = "A + cos(t)*B"):
    a, b = hermitian_stack(rng, d, 2)
    ctx = EvalContext(dim=d, operators={"A": a, "B": b})
    return EvolutionEngine(Hamiltonian(hamiltonian, ctx), TimeGrid(0.05, steps))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [2, 4, 32])
@pytest.mark.parametrize("planted", ["none", "rank_one"])
@pytest.mark.parametrize("walk", ["chunk", "row_by_row"])
def test_pruned_defects_report_the_largest_defect_bit_for_bit(rng, monkeypatch, d, planted,
                                                              walk):
    steps = 40
    sizes = {}
    if planted == "rank_one":  # rising and falling: some rows raise the maximum, some not
        sizes = {j: 2.5e-11 * (1 + 0.01 * (j % 7) + 0.001 * j) for j in range(3, steps, 2)}
    engine = _driven_engine(rng, d, steps)
    certified = _planting(monkeypatch, sizes, d)
    times = engine.grid.times().tolist()[:-1]
    if walk == "chunk":
        engine.step_unitaries(times)
    for t in times:
        engine.unitary(t)
    assert len(certified) == steps
    exact = unitary_defect(np.array(certified))
    assert engine.max_grid_defect == float(np.max(exact))
    if planted == "rank_one":
        assert engine.max_grid_defect > 5e-11


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [2, 4, 32])
def test_defect_bound_is_above_the_defect_and_tightest_at_rank_one(rng, d):
    """Below the floor every row keeps its bound, which is never below its defect, and
    at rank one it is within 1e-7 of it: the margin of 1e-8 is what keeps it above."""
    x = random_unitary(rng, d).entries[:, :1]
    sizes = np.logspace(-13, -10, 12)
    rank_one = np.array([np.eye(d) + s * (x @ x.conj().T) for s in sizes]
                        + [np.diag([1 + s] + [1.0] * (d - 1)) for s in sizes])
    exponentials = unitary_exponential(0.3 * hermitian_stack(rng, d))
    for u in (rank_one, exponentials):
        bounds = transforms._unitary_defects(u, core.TOL_RECON)
        defects = unitary_defect(u)
        assert np.all(bounds >= defects) and np.all(bounds <= core.TOL_RECON)
    assert np.all(transforms._unitary_defects(rank_one, core.TOL_RECON)
                  <= (1 + 1e-7) * unitary_defect(rank_one))


@pytest.mark.filterwarnings("error")
def test_a_bound_that_underflows_takes_its_svd():
    """||A|| = 1e-45: the eighth powers in the bound underflow to 0, below any floor."""
    u = np.eye(4, dtype=complex)[None].repeat(2, axis=0)
    u[1, 0, 1] = 1e-45
    defects = transforms._unitary_defects(u, 0.0)
    assert same_bits(defects, unitary_defect(u)) and defects[1] > 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [2, 4, 32])
def test_a_constant_hamiltonian_reports_its_defect_bit_for_bit(rng, d):
    engine = _driven_engine(rng, d, 6, "A + 0.5*B")
    for t in engine.grid.times().tolist()[:-1]:
        u = engine.unitary(t)
    assert engine.max_grid_defect == unitary_defect(u) > 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [2, 4, 32])
@pytest.mark.parametrize("walk", ["chunk", "row_by_row"])
def test_pruned_defect_gate_names_the_first_failing_row_of_the_stack(rng, monkeypatch, d, walk):
    """Row 5 just above TOL_RECON, row 9 far above it: row 9 takes its SVD first, and
    row 5 still fails with its own defect, not its bound, named by its row of the
    full stack."""
    engine = _driven_engine(rng, d, 12)
    certified = _planting(monkeypatch, {5: 0.51 * core.TOL_RECON, 9: 1e-6}, d, rank=2)
    times = engine.grid.times().tolist()[:-1]
    with pytest.raises(AlgebraError) as raised:
        if walk == "chunk":
            engine.step_unitaries(times)
        else:
            for t in times:
                engine.unitary(t)
    defect = unitary_defect(certified[5])
    assert core.TOL_RECON < defect < 1.1 * core.TOL_RECON
    row = 5 if walk == "chunk" else 0
    assert str(raised.value) == f"evolution unitary defect {defect:.3e} (stack row {row})"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("walk", ["chunk", "row_by_row"])
def test_a_nan_unitary_raises_as_its_defect_does(rng, monkeypatch, walk):
    from obsalg import evolution

    engine = _driven_engine(rng, 4, 6)
    real = evolution._taylor_exponential

    def spoiled(g):
        u = real(g).copy()
        u[-1, 0, 1] = np.nan
        return u

    monkeypatch.setattr(evolution, "_taylor_exponential", spoiled)
    times = engine.grid.times().tolist()[:-1]
    with pytest.raises(AlgebraError, match=r"^no spectral norm: the SVD failed on a non-finite "
                                           r"entry$"):
        if walk == "chunk":
            engine.step_unitaries(times)
        else:
            engine.unitary(times[0])


# --- failures in the middle of a chunk --------------------------------------------------------

SX = {"dim": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]}
SZ = {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [-1, 0]]}


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except Exception:
            code = 1
            err.write(traceback.format_exc())
    return code, err.getvalue()


# in the middle of the second chunk of a d=2 run
FAILING_ROW = 3 * (CHUNK_BYTES // (16 * 2 ** 2)) // 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("picture", PICTURES)
@pytest.mark.parametrize("where", ["config.hamiltonian", "config.observables_to_trace.x"])
def test_evaluation_failure_mid_chunk_names_the_field_and_the_first_failing_t(
        tmp_path, picture, where):
    tau, steps = 0.01, FAILING_ROW + 1000
    size = CHUNK_BYTES // (16 * 2 ** 2)
    assert size < FAILING_ROW < 2 * size
    c = TimeGrid(tau, steps).times().tolist()[FAILING_ROW]
    late = f"SX/(t - {c!r})"  # divides by zero at row FAILING_ROW only
    hamiltonian, traced = "(omega/2)*SX + 0.5*SZ", {"sz": "SZ", "x": "SX"}
    if where == "config.hamiltonian":
        hamiltonian = f"{hamiltonian} + 1e-6*{late}"
    else:
        traced["x"] = f"SX + {late}"
    doc = {"name": "mid", "operators": {"SX": SX, "SZ": SZ}, "picture": picture,
           "hamiltonian": hamiltonian, "constants": {"omega": 1.0},
           "grid": {"tau": tau, "steps": steps}, "observables_to_trace": traced}
    path = tmp_path / "mid.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 3, err
    assert err == f"runtime error: {where}: division by zero at t = {c!r}\n"
    assert not (tmp_path / "out").exists()


DRIVEN_RABI = {"name": "driven", "operators": {"SX": SX, "SZ": SZ},
               "hamiltonian": "(omega/2)*cos(nu*t)*SX + (delta/2)*SZ",
               "constants": {"omega": 1.0, "delta": 0.5, "nu": 1.3}}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("picture, traced, t", [
    # the checks' probe at t0 + tau/2
    *((picture, "SX/(t - 0.005)", 0.005) for picture in PICTURES),
    # the checks' dO/dt at t0 + tau/64
    *((picture, "cos(t)*SZ + SX/(t - 0.01/64)", 0.00015625) for picture in PICTURES),
    # the trace's dO/dt at t_30 + tau/64, in the Heisenberg picture only
    ("heisenberg", "cos(t)*SZ + SX/(t - 0.30015625)", 0.30015625),
], ids=["probe-heisenberg", "probe-schrodinger", "checks-dodt-heisenberg",
        "checks-dodt-schrodinger", "trace-dodt-heisenberg"])
def test_evaluation_failure_off_the_grid_names_the_field_and_t(tmp_path, picture, traced, t):
    doc = {**DRIVEN_RABI, "picture": picture, "grid": {"tau": 0.01, "steps": 50},
           "observables_to_trace": {"o": traced, "sz": "SZ"}}
    path = tmp_path / "offgrid.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 3, err
    assert err == f"runtime error: config.observables_to_trace.o: division by zero at t = {t!r}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("picture", PICTURES)
def test_a_failing_chunk_is_evaluated_once_more_row_by_row(tmp_path, monkeypatch, picture):
    # the stacked read of the chunk holding t = 30 fails; its rows up to the failing one
    # are read again one at a time, and the step unitary of each reads the H(t) kept then
    from obsalg import evolution

    seen = []
    real = evolution.evaluate

    def counting(node, ctx):
        seen.extend((node, t) for t in (ctx.t if isinstance(ctx.t, tuple) else (ctx.t,)))
        return real(node, ctx)

    monkeypatch.setattr(evolution, "evaluate", counting)
    doc = {**DRIVEN_RABI, "picture": picture, "grid": {"tau": 0.01, "steps": 5000},
           "observables_to_trace": {"o": "cos(t)*SZ + t*SX", "sz": "SZ"}}
    doc["hamiltonian"] += " + 1e-6*SX/(t - 30.0)"
    path = tmp_path / "late.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(["run", str(path), "--out", str(tmp_path / "out")])
    assert (code, err) == (3, "runtime error: config.hamiltonian: division by zero at t = 30.0\n")
    assert max(Counter(seen).values()) == 2


def test_out_directory_is_not_created_by_a_run_that_fails(tmp_path):
    doc = json.loads((Path(__file__).parent / "data" / "density" /
                      "density_driven_schrodinger.json").read_text())
    doc["initial_state"] = {"density_file": str(tmp_path / "missing.json")}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, err = run_cli(["run", str(config), "--out", str(tmp_path / "out")])
    assert code == 2, err
    assert err.startswith("validation error: config.initial_state.density_file:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("warnings", ["error", "default"])
def test_spectral_overflow_exits_3_under_any_warning_filter(tmp_path, warnings):
    doc = json.loads((SRC / "obsalg" / "data" / "rabi.json").read_text())
    doc.update(hamiltonian="exp(t*800*SZ)", grid={"tau": 1.0, "steps": 4})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "obsalg.cli", "run", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": warnings})
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("runtime error: config.hamiltonian: function undefined "
                                  "at spectrum point 800.0")
    assert proc.stderr.endswith(" at t = 1.0\n") and proc.stderr.count("\n") == 1
