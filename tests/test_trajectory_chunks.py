"""A trajectory is walked in chunks of grid rows, and the chunks do not show.

* the trace and audit bytes are the same for every chunk length;
* the Hermiticity gates fire at the first failing row, in whichever chunk it is;
* each grid step computes one step unitary.
"""

import contextlib
import io
import json
import math
import traceback
from pathlib import Path

import pytest

from obsalg import scenarios
from obsalg.cli import main
from obsalg.core import TOL_HERM
from obsalg.evolution import PICTURES, EvolutionEngine
from obsalg.scenarios import config_from_doc, run_scenario

DENSITY = Path(__file__).parent / "data" / "density"
SZ = {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [-1, 0]]}
SX = {"dim": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]}


def density_doc(picture: str, state: str, hamiltonian: str, steps: int) -> dict:
    """The d=4 density_file scenario, or the same with a pure state, with an
    explicitly time-dependent observable traced beside A, B and their current.  The
    pure state "pure_untimed" traces only A, B and their current, which do not
    reference t, so with a constant H its chunks are sized by their rows."""
    doc = json.loads((DENSITY / "density_driven_schrodinger.json").read_text())
    doc.update(name="chunks", picture=picture, hamiltonian=hamiltonian,
               grid={"tau": 0.05, "steps": steps})
    if state != "pure_untimed":
        doc["observables_to_trace"] = {**doc["observables_to_trace"], "o": "cos(t)*A + t*B"}
    doc["initial_state"] = ([0.6, [0, 0.8], 0, 0] if state.startswith("pure")
                            else {"density_file": str(DENSITY / "rho.json")})
    return doc


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except Exception:
            code = 1
            err.write(traceback.format_exc())
    return code, err.getvalue()


def run_outputs(tmp_path: Path, doc: dict, label: str) -> tuple[int, bytes, bytes]:
    """Exit code, trace bytes and audit bytes of ``obsalg run`` on ``doc``."""
    config, out = tmp_path / f"{label}.json", tmp_path / label
    config.write_text(json.dumps(doc))
    code, err = run_cli(["run", str(config), "--out", str(out)])
    assert code in (0, 1), err
    return code, (out / "chunks_trace.csv").read_bytes(), (out / "chunks_audit.json").read_bytes()


@pytest.mark.parametrize("picture", PICTURES)
@pytest.mark.parametrize("state", ["pure", "density", "pure_untimed"])
@pytest.mark.parametrize("hamiltonian", ["A + 0.5*B", "A + cos(nu*t)*B"],
                         ids=["constant", "driven"])
def test_outputs_do_not_depend_on_the_chunk_length(tmp_path, monkeypatch, picture, state,
                                                   hamiltonian):
    # 7 steps: a multiple of neither 2 nor 3, so the last chunk is a short one
    doc = density_doc(picture, state, hamiltonian, steps=7)
    default = run_outputs(tmp_path, doc, "default")
    for rows in (1, 2, 3):
        monkeypatch.setattr(scenarios, "CHUNK_BYTES", 16 * 4 ** 2 * rows)
        assert run_outputs(tmp_path, doc, f"rows_{rows}") == default, rows


def _qubit_doc(picture: str, hamiltonian: str, traced: dict, steps: int) -> dict:
    return {"name": "late", "operators": {"SX": SX, "SZ": SZ}, "picture": picture,
            "hamiltonian": hamiltonian, "constants": {"omega": 1.0},
            "grid": {"tau": 0.01, "steps": steps}, "observables_to_trace": traced}


# beyond the first chunk of a d=2 run
FIRST_FAILING_ROW = scenarios.CHUNK_BYTES // (16 * 2 ** 2) + 76


def _late_anti_hermitian_term(row: int, tau: float) -> str:
    """exp((t - c)/s)*i*SZ, whose Hermiticity defect 2 exp((t - c)/s) first exceeds
    TOL_HERM halfway between grid rows ``row - 1`` and ``row``: a factor
    exp(1/2) from the bound at either row."""
    s = tau
    c = (row - 0.5) * tau - s * math.log(TOL_HERM / 2)
    return f"exp((t - {c!r})/{s!r})*i*SZ"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("picture", PICTURES)
@pytest.mark.parametrize("where", ["config.hamiltonian", "config.observables_to_trace.x"])
def test_hermiticity_gates_fire_beyond_the_first_chunk(tmp_path, picture, where):
    late = _late_anti_hermitian_term(FIRST_FAILING_ROW, 0.01)
    if where == "config.hamiltonian":
        doc = _qubit_doc(picture, f"(omega/2)*SX + {late}", {"sz": "SZ"},
                         FIRST_FAILING_ROW + 400)
    else:
        doc = _qubit_doc(picture, "(omega/2)*SX", {"sz": "SZ", "x": f"SX + {late}"},
                         FIRST_FAILING_ROW + 400)
    grid = config_from_doc(doc).grid
    assert scenarios.CHUNK_BYTES // (16 * 2 ** 2) < FIRST_FAILING_ROW
    t = grid.times().tolist()[FIRST_FAILING_ROW]
    path = tmp_path / "late.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2, err
    assert err.startswith(f"validation error: {where}:") and f"t = {t!r}" in err
    assert "Traceback" not in err


def test_the_streamed_trace_leaves_no_partial_file(tmp_path):
    """The trace is written into ``--out`` as the run goes, under a hidden name: a run that
    fails beyond its first chunk removes the directories it made and keeps the trace of an
    earlier run, and one that succeeds leaves only the trace and the audit."""
    late = _late_anti_hermitian_term(FIRST_FAILING_ROW, 0.01)
    out = tmp_path / "new" / "out"

    def run(traced):
        path = tmp_path / "late.json"
        path.write_text(json.dumps(_qubit_doc("schrodinger", "(omega/2)*SX", traced,
                                              FIRST_FAILING_ROW + 400)))
        return run_cli(["run", str(path), "--out", str(out)])

    failing, passing = {"sz": "SZ", "x": f"SX + {late}"}, {"sz": "SZ"}
    assert run(failing)[0] == 2
    assert not (tmp_path / "new").exists()
    assert run(passing)[0] == 0
    trace = (out / "late_trace.csv").read_text()
    assert len(trace.splitlines()) == FIRST_FAILING_ROW + 402
    assert run(failing)[0] == 2
    assert sorted(p.name for p in out.iterdir()) == ["late_audit.json", "late_trace.csv"]
    assert (out / "late_trace.csv").read_text() == trace


@pytest.mark.parametrize("picture", PICTURES)
@pytest.mark.parametrize("state", ["pure", "density"])
def test_trajectory_computes_one_unitary_per_grid_step(monkeypatch, picture, state):
    """Per grid step, one certified unitary: the frames, the pure state's steps and the
    density's steps all read U from the chunk's certified stack, and the Schroedinger
    residual reads the U^dagger psi that its step computed.  Per-step cost is the
    difference between a 100-step and a 50-step run."""
    calls = []
    certify = EvolutionEngine._certify

    def counting_rows(engine, times, step):
        calls.extend(times)
        return certify(engine, times, step)

    monkeypatch.setattr(EvolutionEngine, "_certify", counting_rows)
    totals = []
    for steps in (50, 100):
        calls.clear()
        run_scenario(config_from_doc(density_doc(picture, state, "A + cos(nu*t)*B", steps)))
        totals.append(len(calls))
    assert totals[1] - totals[0] == 50


# --- memory flat in the step count -------------------------------------------------------------

def _long_doc(kind: str, steps: int) -> dict:
    """Bundled rabi (constant H, Schroedinger), or the driven qubit in the Heisenberg picture."""
    doc = {"name": kind, "operators": {"SX": SX, "SZ": SZ}, "hamiltonian": "(omega/2)*SX",
           "constants": {"omega": 1.0}, "initial_state": 0,
           "grid": {"tau": 2 * math.pi / 100, "steps": steps},
           "observables_to_trace": {"sz": "SZ", "sx": "SX", "energy": "(omega/2)*SX"}}
    if kind == "driven_qubit":
        doc.update(hamiltonian="(omega/2)*cos(nu*t)*SX + (delta/2)*SZ",
                   constants={"omega": 1.0, "delta": 0.5, "nu": 1.3},
                   observables_to_trace={"sz": "SZ", "sx": "SX"}, picture="heisenberg")
    return doc


@pytest.mark.parametrize("kind", ["rabi", "driven_qubit"])
def test_cli_run_memory_is_flat_in_step_count(tmp_path, kind):
    """``obsalg run`` writes each chunk's rows as they come and keeps no row: its traced
    peak at 2*10^4 steps is within 256 KiB of its peak at 5*10^3, both several chunks
    (4,096 steps a chunk for rabi's pure state, 2,048 for the qubit's frames).  Keeping
    the rows until the run ends would add about 370 B a step, 5 MiB here."""
    import tracemalloc

    def peak(steps: int) -> int:
        config = tmp_path / f"{kind}_{steps}.json"
        config.write_text(json.dumps(_long_doc(kind, steps)))
        tracemalloc.start()
        try:
            code, err = run_cli(["run", str(config), "--out", str(tmp_path / str(steps))])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert len((tmp_path / str(steps) / f"{kind}_trace.csv").read_text().splitlines()) \
            == steps + 2
        return peak

    # the first run of full chunks fills CPython's free lists, which stay for the process
    peak(5_000)
    assert abs(peak(20_000) - peak(5_000)) <= 256 * 2 ** 10


def test_first_chunk_of_a_trillion_step_grid_is_read_in_bounded_memory():
    """The trajectory computes its times per chunk, so the first chunk of a 10^12-step
    grid, and the run's first rows, are read without the grid (8 TB of times)."""
    import itertools
    import tracemalloc

    from obsalg.evolution import TimeGrid
    from obsalg.scenarios import build_engine, trace_scenario

    config = config_from_doc(_long_doc("rabi", 10 ** 12) | {"grid": {"tau": 1e-10,
                                                                     "steps": 10 ** 12}})
    engine = build_engine(config)
    tracemalloc.start()
    try:
        chunk = next(engine.trajectory(frames=True))
        _, chunk_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        header, rows, _ = trace_scenario(config)
        first = list(itertools.islice(rows, 5000))  # beyond the run's first chunk
        _, rows_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = scenarios.CHUNK_BYTES // (16 * 2 ** 2)
    assert chunk.m0 == 0 and chunk.times == TimeGrid(1e-10, size).times().tolist()
    assert chunk.frames.shape == (size + 1, 2, 2)
    assert [row[:2] for row in first[:3]] == [[0, 0.0], [1, 1e-10], [2, 2e-10]]
    assert header[:2] == ["step", "t"] and first[-1][0] == 4999
    assert chunk_peak <= 8 * scenarios.CHUNK_BYTES  # 1 MiB: a chunk's stacks, not the grid
    assert rows_peak <= 64 * scenarios.CHUNK_BYTES  # 8 MiB: the engine, checks and a chunk
