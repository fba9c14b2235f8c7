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
    # integers too large for a float: in t0 + tau*steps, in n*epsilon, as hbar
    pytest.param("grid.steps", 10 ** 400, id="grid.steps-10^400"),
    pytest.param("n", 10 ** 400, id="n-10^400"),
    pytest.param("hbar", 10 ** 400, id="hbar-10^400"),
    ("epsilon", 1e308),              # n*epsilon overflows: not a normal float
    ("initial_state", True),
    pytest.param("initial_state", [0, 0], id="initial_state-zero-vector"),
    pytest.param("initial_state", [1, 0, 0], id="initial_state-length-3-against-16"),
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


@pytest.mark.parametrize("fields", [{"epsilon": 1e-300}, {"epsilon": 1.0, "hbar": 1e300},
                                    pytest.param({"hamiltonian": "1" + "0" * 400 + "*P^2"},
                                                 id="literal-10^400-reads-as-inf")])
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


def _matrix(*entries) -> dict:
    """A 2x2 matrix document with row-major [re, im] entries."""
    return {"dim": 2, "entries": [list(e) for e in entries]}


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("initial_state, state_doc, operators, hamiltonian, where", [
    ("density_file", _matrix((0.5, 0), (0.5, 0), (0, 0), (0.5, 0)), {}, None,
     "config.initial_state.density_file"),                        # not Hermitian
    ("density_file", _matrix((1.5, 0), (0, 0), (0, 0), (-0.5, 0)), {}, None,
     "config.initial_state.density_file"),                        # not positive
    ("density_file", _matrix((NAN, 0), (0, 0), (0, 0), (0.5, 0)), {}, None,
     "config.initial_state.density_file.entries[0]"),
    ("vector_file", {"dim": 2, "amplitudes": [[1, 0], [1, 0]]}, {}, None,
     "config.initial_state.vector_file"),                         # not normalized
    ("vector_file", {"dim": 2, "amplitudes": [[NAN, 0], [1, 0]]}, {}, None,
     "config.initial_state.vector_file.amplitudes[0]"),
    ("vector_file", {"dim": 2, "amplitudes": [[True, 0], [0, 0]]}, {}, None,
     "config.initial_state.vector_file.amplitudes[0]"),
    (None, None, {"SX": _matrix((0, 0), (True, 0), (1, 0), (0, 0))}, None,
     "config.operators.SX.entries[1]"),
    (None, None, {"B": _matrix((INF, 0), (0, 0), (0, 0), (1, 0))}, None,
     "config.operators.B.entries[0]"),                            # not used by H
    (None, None, {"C": _matrix((0, 0), (0, 0), (1, 0), (0, 0))}, "C",
     "config.hamiltonian"),                                       # C = |1><0|
    ("vector_file", {"dim": 4, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}, {}, None,
     "config.initial_state.vector_file"),                         # d = 4 against 2
    (None, None, {"B": {"dim": 4, "entries": [[0, 0]] * 16}}, None,
     "config.operators"),                                         # d = 4 against 2
], ids=["density-not-hermitian", "density-not-positive", "density-nan",
        "vector-not-normalized", "vector-nan", "vector-bool", "matrix-bool",
        "unused-operator-inf", "hamiltonian-not-hermitian", "vector-wrong-dim",
        "operators-inconsistent-dims"])
def test_malformed_document_or_state_names_its_field(tmp_path, initial_state, state_doc,
                                                     operators, hamiltonian, where):
    doc = json.loads(resources.files("obsalg.data").joinpath("rabi.json").read_text())
    doc["grid"]["steps"] = 5
    doc["operators"].update(operators)
    if hamiltonian is not None:
        doc["hamiltonian"] = hamiltonian
    if initial_state is not None:
        (tmp_path / "state.json").write_text(json.dumps(state_doc))
        doc["initial_state"] = {initial_state: "state.json"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(["run", str(path), "--out", str(tmp_path)])
    assert code == 2, err
    assert f"validation error: {where}:" in err


def rabi_doc(steps: int = 5) -> dict:
    doc = json.loads(resources.files("obsalg.data").joinpath("rabi.json").read_text())
    doc["grid"]["steps"] = steps
    return doc


@pytest.mark.parametrize("fields, where", [
    ({"n": DELETE, "epsilon": DELETE}, "config: no operators"),
    # tau*||H(t0)|| ~ 1e300 * 5e10 overflows; t0 + tau*steps = 1e302 does not
    ({"grid.tau": 1e300, "epsilon": 1e-5}, "config.grid.tau: the step generator"),
], ids=["no-operators", "step-generator-overflows"])
def test_engine_input_fault_names_its_field(tmp_path, fields, where):
    doc = free_particle_doc()
    doc["n"], doc["initial_state"] = 2, 0
    for field, value in fields.items():
        edited(doc, field, value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(["run", str(path), "--out", str(tmp_path)])
    assert code == 2, err
    assert err.startswith(f"validation error: {where}")


@pytest.mark.parametrize("scenario, edits, name", [
    # the expressions would read hbar = 2 and the steps hbar = 1
    ("rabi", {"hamiltonian": "hbar*SX", "constants": {"hbar": 2.0}}, "hbar"),
    ("rabi", {"constants": {"omega": 1.0, "t": 1.0}}, "t"),      # the time symbol
    ("rabi", {"constants": {"omega": 1.0, "i": 1.0}}, "i"),      # the imaginary unit
    ("rabi", {"constants": {"omega": 1.0, "SX": 1.0}}, "SX"),    # an operator
    ("free_particle", {"constants": {"m": 1.0, "Q": 1.0}}, "Q"),  # the canonical pair's
], ids=["hbar-contradicts-config", "time-symbol", "imaginary-unit", "operator",
        "canonical-pair-operator"])
def test_unread_or_contradicting_constant_names_its_field(tmp_path, scenario, edits,
                                                        name):
    doc = json.loads(resources.files("obsalg.data").joinpath(f"{scenario}.json").read_text())
    doc.update(edits)
    doc["grid"]["steps"] = 5
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2, err
    assert err.startswith(f"validation error: config.constants.{name}:")


# content of a referenced file: None for a missing one, DIRECTORY for a directory
DIRECTORY = object()


@pytest.mark.parametrize("content", [None, DIRECTORY, b"\xff\xfe{}", b"{", b"[" * 100000,
                                     b"1" * 5000],
                         ids=["missing", "directory", "not-utf-8", "invalid-json",
                              "nested-too-deep", "integer-too-long"])
@pytest.mark.parametrize("field", ["operators.SX", "initial_state.density_file", None],
                         ids=["operator-file", "density-file", "config-file"])
def test_unreadable_document_names_the_field_that_references_it(tmp_path, field, content):
    ref = tmp_path / "doc.json"
    if content is DIRECTORY:
        ref.mkdir()
    elif content is not None:
        ref.write_bytes(content)
    config = tmp_path / "config.json"
    if field is None:
        config, where = ref, str(ref)
    else:
        doc = rabi_doc()
        if field == "operators.SX":
            doc["operators"]["SX"] = "doc.json"
        else:
            doc["initial_state"] = {"density_file": "doc.json"}
        config.write_text(json.dumps(doc))
        where = f"config.{field}: {ref}"
    code, err = run_cli(["run", str(config), "--out", str(tmp_path / "out")])
    assert code == 2, err
    assert err.startswith(f"validation error: {where}: ") and "Traceback" not in err


def test_operator_file_gives_the_trace_of_the_inline_document(tmp_path):
    doc = rabi_doc(steps=200)
    (tmp_path / "sx.json").write_text(json.dumps(doc["operators"]["SX"]))
    (tmp_path / "inline.json").write_text(json.dumps(doc))
    doc["operators"]["SX"] = "sx.json"  # relative to the config's directory
    (tmp_path / "by_path.json").write_text(json.dumps(doc))
    for name in ("inline", "by_path"):
        assert main(["run", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)]) == 0
    for output in ("rabi_trace.csv", "rabi_audit.json"):
        assert ((tmp_path / "inline" / output).read_bytes()
                == (tmp_path / "by_path" / output).read_bytes())


@pytest.mark.parametrize("hamiltonian", [
    "(" * 1000 + "SX" + ")" * 1000,
    " + ".join(["SX"] * 2000),
    "-" * 1000 + "SX",
    "cos(" * 1000 + "SX" + ")" * 1000,
], ids=["parentheses-1000", "sum-2000", "signs-1000", "calls-1000"])
def test_too_deep_expression_names_its_field(tmp_path, hamiltonian):
    doc = rabi_doc()
    doc["hamiltonian"] = hamiltonian
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(["run", str(path), "--out", str(tmp_path)])
    assert code == 2, err
    assert err.startswith("validation error: config.hamiltonian: expression nests deeper")
    assert "Traceback" not in err


def test_sum_of_100_terms_runs_as_its_product(tmp_path):
    # 1 + 1 + ... + 1 is exact, so the left-deep sum is bitwise 100*SX
    for name, hamiltonian in (("sum", " + ".join(["SX"] * 100)), ("product", "100*SX")):
        doc = rabi_doc(steps=50)
        doc["hamiltonian"] = hamiltonian
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        assert main(["run", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)]) == 0
    for output in ("rabi_trace.csv", "rabi_audit.json"):
        assert ((tmp_path / "sum" / output).read_bytes()
                == (tmp_path / "product" / output).read_bytes())


@pytest.mark.parametrize("argv, outdir", [
    (["run", "rabi", "--out", "FILE"], None),
    (["run", "rabi"], "FILE"),                 # OBSALG_OUTDIR names a file
    (["run", "DIR"], None),                    # the config path is a directory
    (["audit", "--dims", "4", "--out", "DIR"], None),
    (["sweep", "weyl", "--n-list", "4", "--out", "DIR"], None),
    (["sweep", "weyl", "--n-list", "4"], "FILE"),
], ids=["run-out-file", "run-outdir-file", "run-config-directory", "audit-out-directory",
        "sweep-out-directory", "sweep-outdir-file"])
def test_unusable_path_exits_2_naming_it(tmp_path, argv, outdir):
    # through the console entry, under warnings as errors
    paths = {"FILE": tmp_path / "a_file", "DIR": tmp_path / "a_directory"}
    paths["FILE"].write_text("")
    paths["DIR"].mkdir()
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "error"}
    if outdir is not None:
        env["OBSALG_OUTDIR"] = str(paths[outdir])
    proc = subprocess.run([sys.executable, "-m", "obsalg.cli",
                           *[str(paths.get(arg, arg)) for arg in argv]],
                          capture_output=True, text=True, env=env, timeout=120)
    named = paths[outdir or next(arg for arg in argv if arg in paths)]
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"validation error: {named}: ")
    assert "Traceback" not in proc.stderr
