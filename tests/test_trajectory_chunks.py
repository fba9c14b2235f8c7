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


@pytest.mark.parametrize("picture", PICTURES)
@pytest.mark.parametrize("state", ["pure", "density"])
def test_trajectory_computes_one_unitary_per_grid_step(monkeypatch, picture, state):
    """Per grid step, one ``EvolutionEngine.unitary`` call, or for a pure state in the
    Schroedinger picture, which reads U^dagger from the chunk's certified stack, one
    certified unitary: the Schroedinger residual reads the U^dagger psi that its step
    computed.  Per-step cost is the difference between a 100-step and a 50-step run."""
    calls = []
    unitary, certify = EvolutionEngine.unitary, EvolutionEngine._certify

    def counting(engine, t, step=None):
        calls.append(t)
        return unitary(engine, t, step)

    def counting_rows(engine, times, step):
        calls.extend(times)
        return certify(engine, times, step)

    if (picture, state) == ("schrodinger", "pure"):
        monkeypatch.setattr(EvolutionEngine, "_certify", counting_rows)
    else:
        monkeypatch.setattr(EvolutionEngine, "unitary", counting)
    totals = []
    for steps in (50, 100):
        calls.clear()
        run_scenario(config_from_doc(density_doc(picture, state, "A + cos(nu*t)*B", steps)))
        totals.append(len(calls))
    assert totals[1] - totals[0] == 50
