"""Driven runs compute their step unitaries a chunk at a time, and the stacks do not show.

* the stack-aware spectral kernel and the stacked expression evaluator give, row
  by row, the bits of one call per matrix or per time;
* a gate that fails on a stack names the failing row;
* an evaluation failure in the middle of a chunk names its field and the first
  failing t, as a row-by-row walk does;
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
from pathlib import Path

import numpy as np
import pytest

from obsalg import core
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
    real = evolution.unitary_exponential

    def spoiled(g):
        u = real(g).copy()
        u[3] *= 1.01
        return u

    monkeypatch.setattr(evolution, "unitary_exponential", spoiled)
    with pytest.raises(AlgebraError, match=r"^evolution unitary defect .* \(stack row 3\)$"):
        engine.step_unitaries(engine.grid.times().tolist()[:-1])


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


FAILING_ROW = 1500  # in the middle of the second chunk of a d=2 run


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("picture", PICTURES)
@pytest.mark.parametrize("where", ["config.hamiltonian", "config.observables_to_trace.x"])
def test_evaluation_failure_mid_chunk_names_the_field_and_the_first_failing_t(
        tmp_path, picture, where):
    tau, steps = 0.01, 2500
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
