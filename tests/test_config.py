"""Scenario config validation at the CLI boundary: typed fields and fuzzing."""

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

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from obsalg.cli import main


def free_particle_doc() -> dict:
    return json.loads(resources.files("obsalg.data").joinpath("free_particle.json")
                      .read_text())


DELETE = object()


def edited(doc: dict, field: str, value) -> dict:
    """``doc`` with a dotted ``field`` set to ``value``, or removed for DELETE."""
    *parents, key = field.split(".")
    target = doc
    for parent in parents:
        target = target[parent]
    if value is DELETE:
        target.pop(key, None)
    else:
        target[key] = value
    return doc


@pytest.mark.parametrize("field, value", [
    ("hbar", "x"),
    ("seed", "abc"),
    ("hbar", -1),
    ("n", -3),
    ("n", True),
    ("grid.steps", 2.7),
    ("grid.tau", "inf"),
])
def test_mistyped_field_is_a_validation_error(tmp_path, capsys, field, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(edited(free_particle_doc(), field, value)))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert f"config.{field}" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [{"grid.tau": 1.7976931348623157e308, "epsilon": 2},
                                    {"grid.t0": 1.7976931348623157e308, "grid.tau": 1e300}])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_end_time_is_a_validation_error(tmp_path, capsys, fields):
    # H(t0) and (tau/hbar) H(t0) are finite, but the grid time t0 + tau*steps is not
    doc = free_particle_doc()
    doc["n"], doc["initial_state"], doc["grid"]["steps"] = 2, 0, 5
    for field, value in fields.items():
        edited(doc, field, value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert "config.grid.tau" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [{"epsilon": 1e-300}, {"epsilon": 1.0, "hbar": 1e300}])
def test_overflowing_hamiltonian_is_a_validation_error(tmp_path, capsys, fields):
    # P ~ hbar/epsilon, so H = P^2/(2*m) overflows at t0
    doc = free_particle_doc()
    doc["n"], doc["initial_state"] = 2, 0
    for field, value in fields.items():
        edited(doc, field, value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert "config.hamiltonian" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("hbar", 1e150), ("epsilon", 1e-150)])
def test_overflowing_heisenberg_commutator_is_a_validation_error(tmp_path, capsys,
                                                                 field, value):
    # H(t0) is finite, but [P, H(t0)] ~ P^3 overflows in the Heisenberg picture
    doc = free_particle_doc()
    doc["n"], doc["initial_state"], doc["picture"] = 2, 0, "heisenberg"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(edited(doc, field, value)))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config.hamiltonian" in err and "'p'" in err


def test_overflowing_amplitudes_report_only_the_validation_error(tmp_path):
    # a subprocess, so the interpreter's own warning filters decide what reaches stderr
    path = tmp_path / "config.json"
    path.write_text(json.dumps(edited(free_particle_doc(), "initial_state", [1e200, 1e200])))
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "obsalg.cli", "run", str(path),
                           "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == ("validation error: config.initial_state: "
                           "amplitude vector norm overflows\n")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of ``obsalg``; an uncaught exception exits 1 with a
    traceback, as the interpreter would report it."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except Exception:
            code = 1
            err.write(traceback.format_exc())
    return code, err.getvalue()


_NUMBERS = st.one_of(st.integers(), st.floats(),
                     st.sampled_from([5e-324, 1e-300, 1e300, 1.7976931348623157e308]))
_SCALARS = st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=8))
_OR_DELETE = st.just(DELETE)

# d = 2n <= 4 and at most 5 steps: n and grid.steps draw no larger integers.
# Constants are bindings of the expressions: one that makes H fail to evaluate
# (m = 0 in P^2/(2*m)) is a runtime failure, exit 3, like an unbound name.
SCALAR_FIELDS = {
    "name": st.one_of(_SCALARS, st.text(), _OR_DELETE),
    "picture": st.one_of(st.sampled_from(["schrodinger", "heisenberg"]), _SCALARS,
                         _OR_DELETE),
    "hbar": st.one_of(_SCALARS, _OR_DELETE),
    "n": st.one_of(st.integers(max_value=2), st.none(), st.booleans(), st.floats(),
                   st.text(max_size=8), _OR_DELETE),
    "epsilon": st.one_of(_SCALARS, _OR_DELETE),
    "seed": st.one_of(_SCALARS, _OR_DELETE),
    "initial_state": st.one_of(_SCALARS, _OR_DELETE),
    "grid.tau": st.one_of(_SCALARS, _OR_DELETE),
    "grid.steps": st.one_of(st.integers(max_value=5), st.none(), st.booleans(),
                            st.floats(), st.text(max_size=8), _OR_DELETE),
    "grid.t0": st.one_of(_SCALARS, _OR_DELETE),
}

mutations = st.lists(st.sampled_from(sorted(SCALAR_FIELDS)), unique=True, min_size=1,
                     max_size=3).flatmap(
    lambda fields: st.fixed_dictionaries({f: SCALAR_FIELDS[f] for f in fields}))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutations)
def test_fuzzed_scalar_fields_never_crash(tmp_path_factory, mutation):
    doc = free_particle_doc()
    doc["n"], doc["initial_state"], doc["grid"]["steps"] = 2, 0, 5
    for field, value in mutation.items():
        edited(doc, field, value)
    workdir = tmp_path_factory.mktemp("fuzz")
    path = workdir / "config.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(["run", str(path), "--out", str(workdir)])
    assert code in (0, 1, 2), err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_schrodinger_residual_is_reported_not_warned(tmp_path):
    # (U - 1)/tau is the roundoff of U over tau = 1e-300: its norm overflows
    doc = free_particle_doc()
    doc["n"], doc["initial_state"], doc["grid"]["steps"] = 2, 0, 5
    path = tmp_path / "config.json"
    path.write_text(json.dumps(edited(doc, "grid.tau", 1e-300)))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    audit = json.loads((tmp_path / "free_particle_audit.json").read_text())
    check = next(c for c in audit["checks"] if c["name"] == "schrodinger_residual")
    assert not check["pass"] and check["residuals"]["residual_tau"] == math.inf
