"""Differential and metamorphic tests of whole trajectories against a NumPy oracle.

Small random scenarios (d = 2..6, at most 40 steps) run through the scenario
runner, and their expectation columns are compared with an independent
left-point propagation written in plain NumPy.  Three relations are checked
at 1e-12, column-scaled:

* R1, picture equivalence: for a constant H the Heisenberg and the
  Schroedinger run both give the reference columns.
* R2, covariance: operators W M W^dagger with the state W psi give the
  columns of M and psi, for a random unitary W.
* R3, pure against density: a basis-index state and the ``density_file`` of
  its projector give the same columns.

A driven Heisenberg run accumulates the anti-time-ordered product of the
step unitaries, so for a time-dependent H its columns leave the reference
by the second Magnus term; that case is pinned as a strict xfail.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from obsalg.scenarios import config_from_doc, run_scenario

TOL = 1e-12


# --- the oracle: plain NumPy, no obsalg --------------------------------------

def coefficient(term: dict, t: float) -> float:
    """c_k(t) = c, or c cos(nu t) for a driven term."""
    return term["c"] * (np.cos(term["nu"] * t) if term["driven"] else 1.0)


def reference_columns(operators: dict, terms: list, traced: dict, psi0: np.ndarray,
                      tau: float, steps: int, hbar: float = 1.0) -> np.ndarray:
    """<psi_m|A|psi_m> per traced A, with psi_{m+1} = exp(-i tau H(t_m)/hbar) psi_m.

    H(t) = sum_k c_k(t) M_k is read at the left end of each step, so the
    propagator is the forward-ordered product of the step unitaries.
    """
    psi = np.asarray(psi0, dtype=complex)
    rows = []
    for m in range(steps + 1):
        rows.append([np.vdot(psi, a @ psi).real for a in traced.values()])
        h = sum(coefficient(term, m * tau) * operators[term["op"]] for term in terms)
        w, v = np.linalg.eigh(h)
        psi = v @ (np.exp(-1j * tau * w / hbar) * (v.conj().T @ psi))
    return np.array(rows)


def random_hermitian(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (z + z.conj().T) / 2


def random_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def matrix_doc(m: np.ndarray) -> dict:
    return {"dim": m.shape[0], "entries": [[z.real, z.imag] for z in m.reshape(-1).tolist()]}


# --- scenarios ------------------------------------------------------------------

def draw_scenario(rng, d: int, steps: int, kinds: list, tau: float) -> dict:
    """Operators M_k and traced A_j, the terms of H, the grid and an initial index."""
    operators = {f"M{k}": random_hermitian(rng, d) for k in range(len(kinds))}
    traced = {f"A{j}": random_hermitian(rng, d) for j in range(2)}
    terms = [{"op": f"M{k}", "c": float(rng.uniform(0.2, 1.5)),
              "nu": float(rng.uniform(0.5, 3.0)), "driven": kind == "cos"}
             for k, kind in enumerate(kinds)]
    return {"dim": d, "operators": operators, "traced": traced, "terms": terms,
            "tau": tau, "steps": steps, "index": int(rng.integers(d))}


def scenario_doc(s: dict, picture: str, initial_state, transform=None) -> dict:
    """The config document of a drawn scenario, its matrices conjugated by ``transform``."""
    w = np.eye(s["dim"]) if transform is None else transform

    def moved(m):
        return matrix_doc(w @ m @ w.conj().T)

    constants, parts = {}, []
    for k, term in enumerate(s["terms"]):
        constants[f"c{k}"] = term["c"]
        if term["driven"]:
            constants[f"nu{k}"] = term["nu"]
            parts.append(f"c{k}*cos(nu{k}*t)*{term['op']}")
        else:
            parts.append(f"c{k}*{term['op']}")
    return {"name": "oracle", "hamiltonian": " + ".join(parts),
            "operators": {name: moved(m) for name, m in
                          {**s["operators"], **s["traced"]}.items()},
            "constants": constants, "picture": picture, "initial_state": initial_state,
            "grid": {"tau": s["tau"], "steps": s["steps"], "t0": 0.0},
            "observables_to_trace": {name: name for name in s["traced"]}}


def columns(doc: dict, base_dir=".") -> np.ndarray:
    result = run_scenario(config_from_doc(doc, base_dir), base_dir)
    return np.array([result.column(name) for name in doc["observables_to_trace"]]).T


def reference(s: dict, psi0: np.ndarray) -> np.ndarray:
    return reference_columns(s["operators"], s["terms"], s["traced"], psi0,
                             s["tau"], s["steps"])


def assert_columns_match(got: np.ndarray, want: np.ndarray) -> None:
    scale = np.maximum(1.0, np.max(np.abs(want), axis=0))
    error = np.max(np.abs(got - want), axis=0) / scale
    assert np.all(error <= TOL), error


def amplitudes(psi: np.ndarray) -> list:
    return [[z.real, z.imag] for z in psi.tolist()]


def basis_vector(d: int, j: int) -> np.ndarray:
    psi = np.zeros(d, dtype=complex)
    psi[j] = 1.0
    return psi


scenarios = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "d": st.integers(2, 6),
    "steps": st.integers(1, 40),
    "kinds": st.lists(st.sampled_from(["const", "cos"]), min_size=1, max_size=3),
    "tau": st.floats(0.01, 0.3),
    "picture": st.sampled_from(["heisenberg", "schrodinger"]),
})

oracle_settings = settings(max_examples=25, deadline=None, database=None,
                           suppress_health_check=[HealthCheck.too_slow])


def drawn(params: dict, constant: bool = False) -> dict:
    kinds = ["const"] * len(params["kinds"]) if constant else params["kinds"]
    return draw_scenario(np.random.default_rng(params["seed"]), params["d"],
                         params["steps"], kinds, params["tau"])


def reference_applies(params: dict) -> bool:
    """The Schroedinger picture, or a constant H: the runs the reference describes."""
    return params["picture"] == "schrodinger" or "cos" not in params["kinds"]


# --- relations ------------------------------------------------------------------

@seed(20261018)
@oracle_settings
@given(scenarios)
def test_r1_pictures_agree_with_the_reference_for_constant_h(params):
    s = drawn(params, constant=True)
    want = reference(s, basis_vector(params["d"], s["index"]))
    for picture in ("heisenberg", "schrodinger"):
        assert_columns_match(columns(scenario_doc(s, picture, s["index"])), want)


@pytest.mark.xfail(strict=True, reason="a driven Heisenberg run accumulates the "
                                       "anti-time-ordered propagator")
def test_r1_driven_heisenberg_run_agrees_with_the_reference():
    s = draw_scenario(np.random.default_rng(3), 3, 40, ["const", "cos"], 0.1)
    want = reference(s, basis_vector(3, s["index"]))
    assert_columns_match(columns(scenario_doc(s, "schrodinger", s["index"])), want)
    assert_columns_match(columns(scenario_doc(s, "heisenberg", s["index"])), want)


@seed(20261019)
@oracle_settings
@given(scenarios)
def test_r2_columns_are_covariant_under_a_unitary(params):
    s = drawn(params)
    rng = np.random.default_rng(params["seed"] + 1)
    psi0 = random_unitary(rng, params["d"])[:, 0]
    w = random_unitary(rng, params["d"])
    plain = columns(scenario_doc(s, params["picture"], amplitudes(psi0)))
    moved = columns(scenario_doc(s, params["picture"], amplitudes(w @ psi0), transform=w))
    assert_columns_match(moved, plain)
    if reference_applies(params):
        assert_columns_match(moved, reference(s, psi0))


@seed(20261020)
@oracle_settings
@given(scenarios)
def test_r3_index_state_matches_its_density_file(tmp_path_factory, params):
    s = drawn(params)
    d, j = params["d"], s["index"]
    workdir = tmp_path_factory.mktemp("oracle")
    (workdir / "rho.json").write_text(json.dumps(matrix_doc(np.outer(
        basis_vector(d, j), basis_vector(d, j)))))
    vector = columns(scenario_doc(s, params["picture"], j))
    density = columns(scenario_doc(s, params["picture"], {"density_file": "rho.json"}),
                      workdir)
    assert_columns_match(density, vector)
    if reference_applies(params):
        assert_columns_match(density, reference(s, basis_vector(d, j)))
