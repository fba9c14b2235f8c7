"""Each run input is read once, by one reader, and Hermiticity by one rule.

* every CLI flag is read by an argparse ``type=`` reader: a bad value exits 2
  and names the flag, with no traceback;
* every expression value a run reads must be Hermitian: a traced observable
  at every row, H at every time the run steps from; otherwise the run exits
  2 naming the field and t; one that fails to evaluate exits 3 naming them;
* a run parses each expression field once and takes ||H(t0)|| once.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import traceback
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from obsalg import canonical, expr
from obsalg.audit import MAX_DIM
from obsalg.canonical import MAX_LEVELS
from obsalg.cli import BUNDLED, _resolve_config, main
from obsalg.core import AlgebraError
from obsalg.scenarios import build_engine, config_from_doc, run_scenario


def bundled_doc(name: str) -> dict:
    return json.loads(resources.files("obsalg.data").joinpath(f"{name}.json").read_text())


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of ``obsalg``, an argparse exit included; an
    uncaught exception exits 1 with a traceback, as the interpreter would report it."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
            err.write(traceback.format_exc())
    return code, err.getvalue()


# --- flags ----------------------------------------------------------------------------------

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, flag", [
    (["sweep", "weyl", "--n-list", "0"], "--n-list"),
    (["sweep", "weyl", "--n-list", "-2"], "--n-list"),
    (["sweep", "weyl", "--n-list", "1"], "--n-list"),
    (["sweep", "weyl", "--n-list", ","], "--n-list"),
    (["sweep", "weyl", "--n-list", str(10 ** 30)], "--n-list"),
    (["sweep", "weyl", "--n-list", f"8,{MAX_LEVELS + 1}"], "--n-list"),
    (["audit", "--dims", "-4"], "--dims"),
    (["audit", "--dims", "0"], "--dims"),
    (["audit", "--dims", "1"], "--dims"),
    (["audit", "--dims", f"4,{10 ** 30}"], "--dims"),
    (["audit", "--dims", str(MAX_DIM + 1)], "--dims"),
    (["audit", "--dims", "4", "--seed", "-1"], "--seed"),
    (["sweep", "convergence", "--halvings", "-1"], "--halvings"),
    (["sweep", "convergence", "--halvings", "1100"], "--halvings"),
], ids=["n-list-0", "n-list-negative", "n-list-1", "n-list-empty", "n-list-1e30",
        "n-list-past-the-level-bound", "dims-negative", "dims-0", "dims-1", "dims-1e30",
        "dims-past-the-memory-bound", "seed-negative", "halvings-negative",
        "halvings-underflow"])
def test_bad_flag_exits_2_naming_the_flag(tmp_path, argv, flag):
    out = tmp_path / "out"
    code, err = run_cli([*argv, "--out", str(out)])
    assert code == 2, err
    assert flag in err and "Traceback" not in err
    assert not out.exists()


def test_bad_flag_from_the_console_entry_under_warnings_as_errors(tmp_path):
    # tau / 2^1100 underflows: the sweep must refuse it before stepping with it
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "obsalg.cli", "sweep", "convergence",
         "--halvings", "1100", "--out", str(tmp_path / "conv.csv")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("validation error: --halvings")
    assert "Traceback" not in proc.stderr


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [10 ** 30, MAX_LEVELS + 1], ids=["1e30", "one-past-the-bound"])
def test_config_n_past_the_memory_bound_exits_2_naming_it(tmp_path, monkeypatch, n):
    doc = bundled_doc("free_particle")
    doc["n"] = n
    path = tmp_path / "huge_n.json"
    path.write_text(json.dumps(doc))
    built = []  # coordinates: the first d x d allocation of a pair
    real = canonical._coordinate
    monkeypatch.setattr(canonical, "_coordinate", lambda *args: built.append(args) or real(*args))
    code, err = run_cli(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2, err
    assert err.startswith(f"validation error: config.n: must be at most {MAX_LEVELS}")
    assert "Traceback" not in err and built == []


def test_the_memory_bound_admits_its_own_edge():
    from obsalg.cli import build_parser
    sweep = build_parser().parse_args(["sweep", "weyl", "--n-list", f"2,{MAX_LEVELS}"])
    assert sweep.n_list == [2, MAX_LEVELS]
    assert config_from_doc({**bundled_doc("free_particle"), "n": MAX_LEVELS}).n == MAX_LEVELS
    with pytest.raises(AlgebraError, match=f"n <= {MAX_LEVELS}"):
        canonical.make_position(MAX_LEVELS + 1, 1.0)
    audit = build_parser().parse_args(["audit", "--dims", f"2,{MAX_DIM}"])
    assert audit.dims == [2, MAX_DIM]


def test_good_flags_keep_their_defaults_and_lists():
    from obsalg.cli import build_parser
    parser = build_parser()
    audit = parser.parse_args(["audit"])
    assert (audit.dims, audit.seed) == ([4, 8, 16], 0)
    sweep = parser.parse_args(["sweep", "weyl", "--n-list", "8, 16", "--halvings", "0"])
    assert (sweep.n_list, sweep.halvings) == ([8, 16], 0)


# --- Hermiticity ----------------------------------------------------------------------------

def _rabi_first_step() -> float:
    doc = bundled_doc("rabi")
    return doc["grid"].get("t0", 0.0) + doc["grid"]["tau"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario, edits, where, t", [
    ("free_particle", {"observables_to_trace": {"s": "S"}},
     "config.observables_to_trace.s", 0.0),
    ("rabi", {"observables_to_trace": {"x": "SZ + t*i*SX"}},
     "config.observables_to_trace.x", _rabi_first_step()),
    ("rabi", {"hamiltonian": "(omega/2)*SX + t*i*SZ"}, "config.hamiltonian",
     _rabi_first_step()),
], ids=["traced-shift", "traced-later", "hamiltonian-later"])
def test_non_hermitian_read_exits_2_naming_the_field_and_t(tmp_path, scenario, edits,
                                                           where, t):
    doc = bundled_doc(scenario)
    doc.update(edits)
    doc["grid"]["steps"] = 5
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2, err
    assert err.startswith(f"validation error: {where}:") and f"t = {t!r}" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edits, where, message, t", [
    ({"hamiltonian": "ghost"}, "config.hamiltonian", "unbound identifier 'ghost'", 0.0),
    ({"observables_to_trace": {"g": "ghost"}}, "config.observables_to_trace.g",
     "unbound identifier 'ghost'", 0.0),
    ({"picture": "heisenberg", "observables_to_trace": {"g": "ghost"}},
     "config.observables_to_trace.g", "unbound identifier 'ghost'", 0.0),
    ({"hamiltonian": "SX/(t - 1.0)", "grid": {"tau": 0.5, "steps": 4}}, "config.hamiltonian",
     "division by zero", 1.0),
    ({"hamiltonian": "expi(-i*1000)*SX"}, "config.hamiltonian", "scalar overflow", 0.0),
    ({"hamiltonian": "ghost(SX)"}, "config.hamiltonian", "unknown function 'ghost'", 0.0),
    ({"hamiltonian": "cos(i*SX)"}, "config.hamiltonian",
     "spectral function 'cos' requires a finite Hermitian argument", 0.0),
    ({"hamiltonian": "exp(t*800*SZ)", "grid": {"tau": 1.0, "steps": 4}}, "config.hamiltonian",
     "function undefined at spectrum point 800.0", 1.0),
], ids=["hamiltonian-unbound", "traced-unbound", "heisenberg-traced-unbound",
        "hamiltonian-division-by-zero", "hamiltonian-scalar-overflow",
        "hamiltonian-unknown-function", "hamiltonian-non-hermitian-argument",
        "hamiltonian-spectral-overflow"])
def test_failed_evaluation_exits_3_naming_the_field_and_t(tmp_path, edits, where, message, t):
    # only the run knows the bindings and t, so this stays a runtime failure
    doc = bundled_doc("rabi")
    doc["grid"]["steps"] = 5
    doc.update(edits)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 3, err
    assert err.startswith(f"runtime error: {where}: {message}")
    assert err.endswith(f" at t = {t!r}\n") and "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_driven_heisenberg_hamiltonian_is_read_before_its_step(tmp_path):
    # the frame generator builds U(t_m) only after row m has read H(t_m), so a
    # driven H that stops being Hermitian at t = tau exits 2 there, as in the
    # Schroedinger picture, instead of failing inside the unitary
    doc = bundled_doc("rabi")
    doc.update(picture="heisenberg", hamiltonian="(omega/2)*SX + t*i*SZ")
    doc["grid"]["steps"] = 5
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2, err
    assert err.startswith("validation error: config.hamiltonian:")
    assert f"t = {_rabi_first_step()!r}" in err and "Traceback" not in err


def test_driven_hamiltonian_is_not_read_at_the_end_time():
    # no step starts at T, so a driven H that is Hermitian at every other grid
    # time (its i*SZ term vanishes there) is not read at T, and the run completes
    doc = bundled_doc("rabi")
    doc["grid"] = {"tau": 0.25, "steps": 4}
    doc["hamiltonian"] = "(omega/2)*SX + t*(t - 0.25)*(t - 0.5)*(t - 0.75)*i*SZ"
    result = run_scenario(config_from_doc(doc))
    assert len(result.rows) == 5


# --- one parse per expression field, one norm of H(t0) ----------------------------------------

def _count_parses(monkeypatch) -> list[str]:
    """Record every ``expr.parse`` call, wherever obsalg holds the function."""
    sources = []
    original = expr.parse

    def counting(source):
        sources.append(source)
        return original(source)

    for name, module in list(sys.modules.items()):
        if name.startswith("obsalg") and getattr(module, "parse", None) is original:
            monkeypatch.setattr(module, "parse", counting)
    return sources


@pytest.mark.parametrize("name", BUNDLED)
def test_run_parses_each_expression_field_once(tmp_path, monkeypatch, name):
    doc = bundled_doc(name)
    fields = [doc["hamiltonian"], *doc["observables_to_trace"].values()]
    sources = _count_parses(monkeypatch)
    code, err = run_cli(["run", name, "--out", str(tmp_path)])
    assert code == 0, err
    assert sorted(sources) == sorted(fields)


def test_oscillator_run_takes_one_norm_of_h_t0(tmp_path, monkeypatch):
    doc, base = _resolve_config("oscillator")
    engine = build_engine(config_from_doc(doc, base))
    h0 = engine.hamiltonian.evaluate(engine.grid.t0).entries
    of_h0 = []
    real_svd = np.linalg.svd

    def svd(a, *args, **kwargs):
        of_h0.append(np.array_equal(a, h0))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    code, err = run_cli(["run", "oscillator", "--out", str(tmp_path)])
    assert code == 0, err
    assert (len(of_h0), sum(of_h0)) == (7, 1)


# --- the explicit-time Heisenberg residual -----------------------------------------------------

def test_explicitly_time_dependent_heisenberg_trace_and_residual():
    doc = bundled_doc("rabi")
    doc["grid"] = {"tau": 0.01, "steps": 50}
    doc["observables_to_trace"] = {"o": "cos(t)*SZ + t*SX"}
    runs = {}
    for picture in ("heisenberg", "schrodinger"):
        doc["picture"] = picture
        runs[picture] = run_scenario(config_from_doc(doc))
    heis, schr = runs["heisenberg"], runs["schrodinger"]
    column = np.array(schr.column("o"))
    scale = max(1.0, float(np.max(np.abs(column))))
    assert np.max(np.abs(np.array(heis.column("o")) - column)) <= 1e-12 * scale

    report = next(c for c in heis.checks if c.name == "heisenberg_residual")
    assert report.passed
    assert 0 < report.residuals["halving_ratio"] <= 0.6
    assert heis.column("equation_residual")[0] == report.residuals["residual_tau"]
    assert math.isfinite(report.residuals["residual_tau"])


def _evaluations(monkeypatch, doc: dict, name: str) -> dict[str, list[float]]:
    """The times at which each picture's run evaluates the traced ``name`` through H's memo."""
    from obsalg import evolution

    seen = []
    real = evolution.evaluate

    def counting(node, ctx):
        seen.append((node, ctx.t))
        return real(node, ctx)

    monkeypatch.setattr(evolution, "evaluate", counting)
    times = {}
    for picture in ("heisenberg", "schrodinger"):
        seen.clear()
        config = config_from_doc({**doc, "picture": picture})
        assert run_scenario(config).all_pass
        node = config.observables_to_trace[name]
        times[picture] = [t for n, t in seen if n == node]
    return times


def test_explicitly_time_dependent_observable_is_read_at_grid_times(monkeypatch):
    # the Heisenberg residual reads O at both ends of its step from the rows
    # the run reads anyway, so no off-grid t + tau evicts the next row's value
    doc = bundled_doc("rabi")
    doc["grid"] = {"tau": 0.01, "steps": 50}
    doc["observables_to_trace"] = {"o": "cos(t)*SZ + t*SX"}
    times = _evaluations(monkeypatch, doc, "o")
    assert len(times["heisenberg"]) == len(times["schrodinger"])
    assert sorted(times["heisenberg"]) == sorted(times["schrodinger"])


def test_traced_driven_hamiltonian_is_evaluated_once_per_distinct_time(monkeypatch):
    # each grid time once, in one chunk or in many: the trajectory reads H(t0) once,
    # keeps it in H's memo beside the chunk it reads, and the run-level checks reuse it
    from obsalg import evolution, scenarios

    doc = bundled_doc("rabi")
    doc["hamiltonian"] = "(omega/2)*cos(nu*t)*SX + (delta/2)*SZ"
    doc["constants"] = {"omega": 1.0, "delta": 0.5, "nu": 1.3}
    doc["grid"] = {"tau": 0.01, "steps": 100}
    doc["observables_to_trace"] = {"sz": "SZ", "energy": doc["hamiltonian"]}
    seen = []
    real = evolution.evaluate

    def counting(node, ctx):
        seen.extend((node, t) for t in (ctx.t if isinstance(ctx.t, tuple) else (ctx.t,)))
        return real(node, ctx)

    monkeypatch.setattr(evolution, "evaluate", counting)
    grid_times = config_from_doc(doc).grid.times().tolist()
    # one chunk; chunks of 9 steps, the last of which takes one step from one H(t)
    for chunk_bytes in (scenarios.CHUNK_BYTES, 16 * 2 ** 2 * 9):
        monkeypatch.setattr(scenarios, "CHUNK_BYTES", chunk_bytes)
        for picture in ("heisenberg", "schrodinger"):
            seen.clear()
            config = config_from_doc({**doc, "picture": picture})
            assert run_scenario(config).all_pass
            assert len(seen) == len(set(seen)), (picture, chunk_bytes)
            # H, traced as the energy, is read at the end time too; SZ once, at t0
            assert sorted(t for node, t in seen if node == config.hamiltonian) == grid_times
            assert [t for node, t in seen if node != config.hamiltonian] == grid_times[:1]


def test_time_dependent_probe_is_evaluated_once_per_distinct_time(monkeypatch):
    # the first traced observable is the residual checks' probe; they run while the
    # first chunk is held, so they read it at t0 and t1 from that chunk and evaluate
    # it only off the grid, at t0 + tau/2, without evicting the chunk the next reuses
    from obsalg import evolution, scenarios

    doc = bundled_doc("rabi")
    doc["hamiltonian"] = "(omega/2)*cos(nu*t)*SX + (delta/2)*SZ"
    doc["constants"] = {"omega": 1.0, "delta": 0.5, "nu": 1.3}
    doc["grid"] = {"tau": 0.01, "steps": 100}
    doc["observables_to_trace"] = {"o": "cos(t)*SZ + t*SX", "energy": doc["hamiltonian"]}
    seen = []
    real = evolution.evaluate

    def counting(node, ctx):
        seen.extend((node, t) for t in (ctx.t if isinstance(ctx.t, tuple) else (ctx.t,)))
        return real(node, ctx)

    monkeypatch.setattr(evolution, "evaluate", counting)
    monkeypatch.setattr(scenarios, "CHUNK_BYTES", 16 * 2 ** 2 * 9)  # chunks of 9 steps
    grid_times = config_from_doc(doc).grid.times().tolist()
    for picture in ("heisenberg", "schrodinger"):
        seen.clear()
        config = config_from_doc({**doc, "picture": picture})
        assert run_scenario(config).all_pass
        assert len(seen) == len(set(seen)), picture
        probe = config.observables_to_trace["o"]
        assert sorted(t for node, t in seen if node == probe) == sorted(
            grid_times + [grid_times[0] + doc["grid"]["tau"] / 2])
        assert sorted(t for node, t in seen if node == config.hamiltonian) == grid_times
