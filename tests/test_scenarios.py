import json
import math
import subprocess
import sys

import pytest

from obsalg.audit import run_audit
from obsalg.cli import main
from obsalg.scenarios import config_from_doc, run_scenario
from obsalg.serialize import SchemaError, matrix_to_doc, vector_to_doc
from obsalg.states import StateVector, pure_density


def minimal_doc(**overrides):
    doc = {
        "name": "trivial",
        "operators": {"Z": {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [-1, 0]]}},
        "hamiltonian": "0*Z",
        "initial_state": 0,
        "grid": {"tau": 0.1, "steps": 10},
        "observables_to_trace": {"z": "Z"},
        "picture": "schrodinger",
        "seed": 1,
    }
    doc.update(overrides)
    return doc


def rabi_doc(**overrides):
    doc = {
        "name": "rabi_test",
        "operators": {
            "SX": {"dim": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]},
            "SZ": {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [-1, 0]]},
        },
        "constants": {"omega": 1.0},
        "hamiltonian": "(omega/2)*SX",
        "initial_state": 0,
        "grid": {"tau": 2 * math.pi / 1000, "steps": 1000},
        "observables_to_trace": {"sz": "SZ"},
        "picture": "schrodinger",
        "seed": 2,
    }
    doc.update(overrides)
    return doc


# --- config validation -----------------------------------------------------------

def test_validation_reports_field_paths():
    with pytest.raises(SchemaError, match="config.hamiltonian"):
        config_from_doc(minimal_doc(hamiltonian="Q +"))
    with pytest.raises(SchemaError, match="config.grid.tau"):
        config_from_doc(minimal_doc(grid={"steps": 5}))
    with pytest.raises(SchemaError, match="config.picture"):
        config_from_doc(minimal_doc(picture="both"))
    with pytest.raises(SchemaError, match="config.n"):
        config_from_doc(minimal_doc(n=4))
    with pytest.raises(SchemaError, match=r"config.observables_to_trace.bad"):
        config_from_doc(minimal_doc(observables_to_trace={"bad": "(("}))


def test_initial_state_out_of_range():
    config = config_from_doc(minimal_doc(initial_state=5))
    with pytest.raises(SchemaError, match="out of range"):
        run_scenario(config)


# --- trivial scenario ---------------------------------------------------------------

def test_trivial_config_constant_trace():
    result = run_scenario(config_from_doc(minimal_doc()))
    assert result.all_pass
    z = result.column("z")
    assert len(z) == 11
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in z)
    assert max(result.column("state_drift")) < 1e-12


# --- bundled-style scenarios -----------------------------------------------------------

def test_rabi_matches_closed_form_oracle():
    result = run_scenario(config_from_doc(rabi_doc()))
    assert result.all_pass
    ts = result.column("t")
    sz = result.column("sz")
    worst = max(abs(v - math.cos(t)) for v, t in zip(sz, ts))
    assert worst < 1e-3


def test_oscillator_energy_constant():
    doc = {
        "name": "osc_test",
        "n": 16, "epsilon": 0.25,
        "constants": {"m": 1.0, "omega": 1.0},
        "hamiltonian": "P^2/(2*m) + (m*omega^2/2)*Q^2",
        "initial_state": 16,
        "grid": {"tau": 0.002, "steps": 100},
        "observables_to_trace": {"energy": "P^2/(2*m) + (m*omega^2/2)*Q^2"},
        "picture": "schrodinger",
        "seed": 4,
    }
    result = run_scenario(config_from_doc(doc))
    assert result.all_pass
    energy = result.column("energy")
    assert max(abs(e - energy[0]) for e in energy) < 1e-10 * max(1.0, abs(energy[0]))


def test_constant_hamiltonian_energy_drift_does_not_grow_with_the_step_count():
    """A constant H's state at row m is U(t_m - t0)^dagger psi0 in closed form, with no
    product of m steps, so rabi's energy drift stays at the rounding of one expectation.
    Stepping by U^dagger row by row grows it linearly: 1.49e-12 at 10^5 steps."""
    from obsalg.cli import _resolve_config

    for steps in (10 ** 3, 10 ** 5):
        doc, base = _resolve_config("rabi")
        doc["grid"]["steps"] = steps
        result = run_scenario(config_from_doc(doc, base), base)
        energy = next(c for c in result.checks if c.name == "energy_conservation")
        assert energy.passed
        e0 = result.column("energy")[0]
        assert energy.residuals["energy_drift"] <= 1e-15 * max(1.0, abs(e0)), steps


def test_heisenberg_picture_equivalent_trace():
    schr = run_scenario(config_from_doc(rabi_doc(grid={"tau": 0.05, "steps": 40})))
    heis = run_scenario(config_from_doc(
        rabi_doc(picture="heisenberg", grid={"tau": 0.05, "steps": 40})))
    for a, b in zip(schr.column("sz"), heis.column("sz")):
        assert a == pytest.approx(b, abs=1e-10)


def test_abscissa_demo_translates_by_tau_each_step():
    doc = {
        "name": "abscissa_test",
        "n": 8, "epsilon": 0.5,
        "hamiltonian": "P",
        "initial_state": 12,  # j = +4, so no wrap for the first few steps
        "grid": {"tau": 0.5, "steps": 4},
        "observables_to_trace": {"t_event": "Q"},
        "picture": "heisenberg",
        "seed": 0,
    }
    result = run_scenario(config_from_doc(doc))
    t_event = result.column("t_event")
    assert t_event == pytest.approx([2.0, 2.5, 3.0, 3.5, -4.0], abs=1e-9)  # wraps at top


# --- initial states from files -----------------------------------------------------------

PSI_AMPLITUDES = [[0.6, 0.0], [0.0, 0.8]]  # 0.6|0> + 0.8i|1>


def write_state_files(tmp_path):
    """psi as a vector document and |psi><psi| as a matrix document."""
    psi = StateVector([complex(*a) for a in PSI_AMPLITUDES])
    (tmp_path / "psi.json").write_text(json.dumps(vector_to_doc(psi)))
    (tmp_path / "rho.json").write_text(json.dumps(matrix_to_doc(pure_density(psi).matrix)))


@pytest.mark.parametrize("picture", ["schrodinger", "heisenberg"])
@pytest.mark.parametrize("ref", [{"vector_file": "psi.json"}, {"density_file": "rho.json"}])
def test_file_initial_state_matches_amplitude_list(tmp_path, picture, ref):
    write_state_files(tmp_path)
    # <SY> is odd under complex conjugation of the state, so it catches a
    # loader that conjugates psi or rho; <SX> and <SZ> alone would not
    operators = {**rabi_doc()["operators"],
                 "SY": {"dim": 2, "entries": [[0, 0], [0, -1], [0, 1], [0, 0]]}}
    observables = {"sz": "SZ", "sx": "SX", "sy": "SY"}
    common = dict(picture=picture, grid={"tau": 0.05, "steps": 40},
                  operators=operators, observables_to_trace=observables)
    listed = run_scenario(config_from_doc(rabi_doc(**common,
                                                   initial_state=PSI_AMPLITUDES)))
    from_file = run_scenario(config_from_doc(rabi_doc(**common, initial_state=ref)),
                             tmp_path)
    assert from_file.all_pass, [c.name for c in from_file.checks if not c.passed]
    for name in observables:
        for a, b in zip(from_file.column(name), listed.column(name)):
            assert abs(a - b) <= 1e-12


@pytest.mark.parametrize("check, picture, initial_state", [
    ("heisenberg_residual", "heisenberg", PSI_AMPLITUDES),
    ("schrodinger_residual", "schrodinger", PSI_AMPLITUDES),
    ("von_neumann_residual", "schrodinger", {"density_file": "rho.json"}),
])
def test_trace_residual_is_the_checks_residual_at_tau(tmp_path, check, picture,
                                                      initial_state):
    write_state_files(tmp_path)
    result = run_scenario(config_from_doc(rabi_doc(
        picture=picture, grid={"tau": 0.05, "steps": 4},
        observables_to_trace={"sz": "SZ"}, initial_state=initial_state)), tmp_path)
    report = next(c for c in result.checks if c.name == check)
    traced = result.column("equation_residual")[0]
    at_tau = report.residuals["residual_tau"]
    assert at_tau > 0
    assert abs(traced - at_tau) <= 1e-15 * at_tau


# --- determinism -------------------------------------------------------------------------

def test_run_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "rabi", "--out", str(out1)]) == 0
    assert main(["run", "rabi", "--out", str(out2)]) == 0
    assert (out1 / "rabi_trace.csv").read_bytes() == (out2 / "rabi_trace.csv").read_bytes()
    assert (out1 / "rabi_audit.json").read_bytes() == (out2 / "rabi_audit.json").read_bytes()


def test_audit_determinism():
    a = run_audit([4], seed=123)
    b = run_audit([4], seed=123)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = run_audit([4], seed=124)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


# --- CLI exit codes -------------------------------------------------------------------------

def test_audit_exit_codes(tmp_path):
    assert main(["audit", "--dims", "4", "--seed", "0",
                 "--out", str(tmp_path / "audit.json")]) == 0
    assert main(["audit", "--dims", "4", "--seed", "0", "--self-test-fail"]) == 1


def test_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(minimal_doc(hamiltonian="(((")))
    assert main(["run", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["run", str(missing)]) == 2


def test_runtime_exit_code(tmp_path):
    # valid syntax, unbound identifier at evaluation time
    bad = tmp_path / "unbound.json"
    bad.write_text(json.dumps(minimal_doc(hamiltonian="ghost")))
    assert main(["run", str(bad)]) == 3


def test_cli_subprocess_entry(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "obsalg.cli", "sweep", "weyl", "--n-list", "8",
         "--out", str(tmp_path / "w.csv")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    lines = (tmp_path / "w.csv").read_text().splitlines()
    assert lines[0] == "n,epsilon,trace_residual,interior_max_dev,edge_defect_weight"
    assert len(lines) == 2


def test_sweep_convergence_table(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["sweep", "convergence", "--halvings", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scenario,halving,tau")
    assert len(lines) == 1 + 2 * 3  # two scenarios, base + 2 halvings
    # residuals halve down each scenario block
    import csv
    rows = list(csv.DictReader(lines))
    for name in ("rabi", "oscillator"):
        rs = [float(r["heisenberg_residual"]) for r in rows if r["scenario"] == name]
        for a, b in zip(rs, rs[1:]):
            assert 0.4 <= b / a <= 0.6


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("OBSALG_OUTDIR", str(tmp_path / "envout"))
    assert main(["run", "rabi"]) == 0
    assert (tmp_path / "envout" / "rabi_trace.csv").exists()


# --- caches -------------------------------------------------------------------------------

def test_constant_hamiltonian_is_diagonalized_once_per_step_size(monkeypatch):
    from obsalg import core
    from obsalg.cli import _resolve_config

    calls = []
    eigh = core.np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(core.np.linalg, "eigh", counting_eigh)
    doc, base = _resolve_config("oscillator")
    counts = []
    for steps in (20, 200):
        calls.clear()
        doc["grid"]["steps"] = steps
        result = run_scenario(config_from_doc(doc, base), base)
        assert result.all_pass
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("picture", ["schrodinger", "heisenberg"])
@pytest.mark.parametrize("name, matrices", [("rabi", 2), ("oscillator", 2),
                                            ("free_particle", 2), ("abscissa", 1)])
def test_constant_hamiltonian_closed_form_reuses_the_certified_frame(monkeypatch, name,
                                                                     matrices, picture):
    """A constant H's run reads every U(t_m - t0) from the eigenframe of the one grid-step
    U it certifies: one eigh matrix for U(tau), and one for U(tau/2) where the halving
    checks run (abscissa steps outside the continuum regime, so it runs none).  Taking the
    frame from a second eigh of H would read one matrix more."""
    from obsalg.cli import _resolve_config

    counts = _count_work(monkeypatch)
    doc, base = _resolve_config(name)
    doc["picture"] = picture
    assert run_scenario(config_from_doc(doc, base), base).all_pass
    assert counts["eigh"] == matrices


def _driven_doc(kind: str, steps: int) -> dict:
    if kind == "qubit":
        return rabi_doc(
            name="driven_qubit", hamiltonian="(omega/2)*cos(nu*t)*SX + (delta/2)*SZ",
            constants={"omega": 1.0, "delta": 0.5, "nu": 1.3},
            grid={"tau": 2 * math.pi / 1000, "steps": steps},
            observables_to_trace={"sz": "SZ", "sx": "SX"}, picture="heisenberg")
    return {"name": "driven_oscillator", "n": 16, "epsilon": 0.25,
            "hamiltonian": "P^2/(2*m) + (m*omega^2/2)*Q^2 + F*cos(nu*t)*Q",
            "constants": {"m": 1.0, "omega": 1.0, "F": 0.5, "nu": 0.9},
            "initial_state": 0, "grid": {"tau": 0.002, "steps": steps},
            "observables_to_trace": {"q": "Q", "p": "P"}, "picture": "schrodinger",
            "seed": 3}


def _count_work(monkeypatch) -> dict[str, int]:
    """Count eigh matrices (the product of a stacked input's leading axes), spectral norms
    (one SVD each) and Hermiticity checks."""
    import math

    import numpy as np

    from obsalg import core

    counts = {"eigh": 0, "opnorm": 0, "hermiticity_defect": 0}

    def counting(name, fn, work=lambda *args, **kwargs: 1):
        def wrapped(*args, **kwargs):
            counts[name] += work(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counting(
        "eigh", np.linalg.eigh, lambda a, *args, **kwargs: math.prod(np.shape(a)[:-2])))
    modules = [m for key, m in sys.modules.items() if key.startswith("obsalg")]
    for name in ("opnorm", "hermiticity_defect"):
        original = getattr(core, name)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    return counts


@pytest.mark.parametrize("kind, traced_heisenberg", [("qubit", 2), ("oscillator", 0)])
def test_driven_step_pays_one_eigh_and_bounded_certificates(monkeypatch, kind,
                                                            traced_heisenberg):
    """Per grid step of a time-dependent H in the continuum regime: no eigh matrix (its
    unitary is a Taylor polynomial), at most one spectral norm (SVD) for the reported
    unitary defect plus one per traced Heisenberg residual, and one Hermiticity check of
    H(t).  Per-step cost is the difference between a 100-step and a 50-step run, so the
    checks run once per run drop out."""
    counts = _count_work(monkeypatch)
    totals = []
    for steps in (50, 100):
        for key in counts:
            counts[key] = 0
        assert run_scenario(config_from_doc(_driven_doc(kind, steps))).all_pass
        totals.append(dict(counts))
    per_step = {key: (totals[1][key] - totals[0][key]) / 50 for key in counts}
    assert per_step["eigh"] == 0
    assert per_step["opnorm"] <= 1 + traced_heisenberg
    assert per_step["hermiticity_defect"] <= 1
    # the checks at t0 read U(t0) from the first chunk, and U(t0, tau/2), the only
    # unitary off the grid, is a Taylor polynomial too
    assert totals[0]["eigh"] == totals[1]["eigh"] == 0


def test_driven_oscillator_takes_svds_on_few_of_its_steps(monkeypatch):
    """A step unitary's defect takes its SVD only where the reported maximum can move:
    a 1000-step d=32 driven run takes SVDs (run-level checks included) of at most 50
    matrices, where one per step would be 1000."""
    import numpy as np

    matrices = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        matrices.append(1 if a.ndim == 2 else len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    result = run_scenario(config_from_doc(_driven_doc("oscillator", 1000)))
    assert result.all_pass
    assert 0 < sum(matrices) <= 50
