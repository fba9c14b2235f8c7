import math

import numpy as np
import pytest

from obsalg.canonical import make_canonical_pair, make_position
from obsalg.core import Observable, commutator, opnorm
from obsalg.evolution import (
    EvolutionEngine,
    Hamiltonian,
    TimeGrid,
    compatibility_persistence_check,
    heisenberg_residual,
    heisenberg_step,
    heisenberg_step_explicit,
    reverse_step,
    schrodinger_residual,
    schrodinger_step,
    symmetry_check,
    temporal_abscissa_check,
    von_neumann_residual,
    von_neumann_step,
)
from obsalg.expr import EvalContext
from obsalg.rand import random_hermitian, random_state
from obsalg.states import (
    DensityObservable,
    StateVector,
    expectation,
    pure_density,
    vector_expectation,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def rabi_engine(tau=2 * math.pi / 100, steps=100, picture="schrodinger", omega=1.0):
    ctx = EvalContext(dim=2, operators={"SX": Observable(SX), "SZ": Observable(SZ)},
                      constants={"omega": omega})
    h = Hamiltonian("(omega/2)*SX", ctx)
    return EvolutionEngine(h, TimeGrid(tau=tau, steps=steps), picture)


def oscillator_engine(tau=0.002, steps=50, n=16, eps=0.25):
    pair = make_canonical_pair(make_position(n, eps))
    ctx = EvalContext(dim=pair.dim,
                      operators={"Q": pair.q.observable, "P": pair.p},
                      constants={"m": 1.0, "omega": 1.0})
    h = Hamiltonian("P^2/(2*m) + (m*omega^2/2)*Q^2", ctx)
    return EvolutionEngine(h, TimeGrid(tau=tau, steps=steps), "schrodinger"), pair


def zero_engine(dim=4, tau=0.1, steps=10):
    ctx = EvalContext(dim=dim)
    return EvolutionEngine(Hamiltonian("0*1", ctx), TimeGrid(tau=tau, steps=steps))


# --- minimal evolution unitary -------------------------------------------------

def test_zero_hamiltonian_gives_identity():
    u = zero_engine().unitary(0.0)
    assert opnorm(u.entries - np.eye(4)) < 1e-12


def test_identity_hamiltonian_gives_scalar_phase():
    ctx = EvalContext(dim=3)
    engine = EvolutionEngine(Hamiltonian("1", ctx), TimeGrid(tau=1.0, steps=1))
    u = engine.unitary(0.0)
    assert opnorm(u.entries - np.exp(1j) * np.eye(3)) < 1e-12


def test_unitary_matches_power_series_oracle():
    engine = rabi_engine(tau=0.1)
    u = engine.unitary(0.0)
    h = 0.5 * SX
    term = np.eye(2, dtype=complex)
    series = np.eye(2, dtype=complex)
    for m in range(1, 21):
        term = term @ (1j * 0.1 * h) / m
        series = series + term
    assert opnorm(u.entries - series) < 1e-12


def test_unitarity_at_every_grid_point():
    engine, _ = oscillator_engine(steps=20)
    for t in engine.grid.times()[:-1]:
        u = engine.unitary(float(t))
        assert opnorm(u.entries @ u.entries.conj().T - np.eye(engine.dim)) < 1e-9


# --- Heisenberg stepping ----------------------------------------------------------

def test_heisenberg_step_trivial_hamiltonian(rng):
    engine = zero_engine()
    o = random_hermitian(rng, 4)
    assert heisenberg_step(engine, o, 0.0).distance(o) < 1e-12


def test_hamiltonian_is_constant_of_motion():
    engine = rabi_engine()
    h = engine.hamiltonian.evaluate(0.0)
    assert heisenberg_step(engine, h, 0.0).distance(h) < 1e-13


def test_two_level_rotation_closed_form():
    # closed form: exp(i theta SX/2) SZ exp(-i theta SX/2) = cos(theta) SZ + sin(theta) SY
    theta = 0.3
    engine = rabi_engine(tau=theta)  # omega = 1 -> theta = tau
    out = heisenberg_step(engine, Observable(SZ), 0.0)
    target = math.cos(theta) * SZ + math.sin(theta) * SY
    assert opnorm(out.entries - target) < 1e-12
    # quarter period maps SZ onto SY
    quarter = rabi_engine(tau=math.pi / 2)
    out = heisenberg_step(quarter, Observable(SZ), 0.0)
    assert opnorm(out.entries - SY) < 1e-12


def test_spectrum_constant_along_trajectory(rng):
    engine, pair = oscillator_engine(steps=15)
    o = random_hermitian(rng, engine.dim)
    spectrum0 = np.linalg.eigvalsh(o.entries)
    current = o
    for t in engine.grid.times()[:-1]:
        current = heisenberg_step(engine, current, float(t))
        assert np.max(np.abs(np.linalg.eigvalsh(current.entries) - spectrum0)) < 1e-9


# --- explicit time dependence -------------------------------------------------------

def test_explicit_step_matches_plain_step_when_time_free(rng):
    engine, pair = oscillator_engine()
    via_expr = heisenberg_step_explicit(engine, "Q", 0.0)
    via_matrix = heisenberg_step(engine, pair.q.observable, 0.0)
    assert via_expr.distance(via_matrix) < 1e-12


def test_explicit_step_advances_bare_time():
    engine = zero_engine(dim=3, tau=0.25)
    out = heisenberg_step_explicit(engine, "t*1", 1.0)
    assert opnorm(out.entries - 1.25 * np.eye(3)) < 1e-12


def test_explicit_step_time_times_q():
    engine, pair = oscillator_engine(tau=0.5)
    free = EvolutionEngine(Hamiltonian("0*Q", engine.hamiltonian.ctx),
                           TimeGrid(tau=0.5, steps=1))
    out = heisenberg_step_explicit(free, "t*Q", 2.0)
    assert out.distance(2.5 * pair.q.observable) < 1e-12


# --- residuals ------------------------------------------------------------------------

def test_heisenberg_residual_trivial_case(rng):
    report = heisenberg_residual(zero_engine(), "1 + 0*1", 0.0)
    assert report.passed
    assert report.residuals["residual_tau"] < 1e-12


def test_heisenberg_residual_halves_rabi():
    report = heisenberg_residual(rabi_engine(tau=2 * math.pi / 100), "SZ", 0.0)
    assert report.passed
    assert 0.4 <= report.residuals["halving_ratio"] <= 0.6


def test_heisenberg_residual_halves_oscillator():
    engine, _ = oscillator_engine()
    report = heisenberg_residual(engine, "Q", 0.0)
    assert report.passed
    assert 0.4 <= report.residuals["halving_ratio"] <= 0.6


def test_commuting_time_free_observable_has_zero_residual():
    engine = rabi_engine()
    report = heisenberg_residual(engine, "SX^2 + 3*SX", 0.0)
    assert report.residuals["residual_tau"] < 1e-12


def test_coarse_grid_warns():
    engine = rabi_engine(tau=8.0)
    with pytest.warns(UserWarning, match="far from the continuum"):
        heisenberg_residual(engine, "SZ", 0.0)


def test_schrodinger_residual_halves(rng):
    engine, _ = oscillator_engine()
    psi = StateVector(random_state(rng, engine.dim))
    report = schrodinger_residual(engine, psi, 0.0)
    assert report.passed
    assert 0.4 <= report.residuals["halving_ratio"] <= 0.6


def test_von_neumann_residual_halves(rng):
    engine, _ = oscillator_engine()
    d = pure_density(StateVector(random_state(rng, engine.dim)))
    report = von_neumann_residual(engine, d, 0.0)
    assert report.passed
    assert 0.4 <= report.residuals["halving_ratio"] <= 0.6


# --- Schroedinger stepping ---------------------------------------------------------------

def test_schrodinger_step_trivial(rng):
    engine = zero_engine()
    psi = StateVector(random_state(rng, 4))
    assert schrodinger_step(engine, psi, 0.0).distance(psi) < 1e-12


def test_stationary_state_picks_up_phase_only():
    engine = rabi_engine()
    plus = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))  # SX eigenvector
    out = schrodinger_step(engine, plus, 0.0)
    overlap = complex(np.vdot(out.amplitudes, plus.amplitudes))
    assert abs(abs(overlap) - 1.0) < 1e-12


def test_rabi_oscillation_matches_closed_form():
    omega = 1.0
    period = 2 * math.pi / omega
    engine = rabi_engine(tau=period / 1000, steps=1000, omega=omega)
    psi = StateVector.basis_vector(2, 0)
    worst = 0.0
    for m, t in enumerate(engine.grid.times()):
        expect = vector_expectation(psi, Observable(SZ)).real
        worst = max(worst, abs(expect - math.cos(omega * float(t))))
        if m < engine.grid.steps:
            psi = schrodinger_step(engine, psi, float(t))
    assert worst < 1e-3


def test_norm_preserved_along_trajectory(rng):
    engine, _ = oscillator_engine(steps=100)
    psi = StateVector(random_state(rng, engine.dim))
    for t in engine.grid.times()[:-1]:
        psi = schrodinger_step(engine, psi, float(t))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_energy_conserved_along_trajectory(rng):
    engine, _ = oscillator_engine(steps=200)
    h = engine.hamiltonian.evaluate(0.0)
    psi = StateVector(random_state(rng, engine.dim))
    e0 = vector_expectation(psi, h).real
    for t in engine.grid.times()[:-1]:
        psi = schrodinger_step(engine, psi, float(t))
    assert abs(vector_expectation(psi, h).real - e0) < 1e-10 * max(1.0, abs(e0))


# --- von Neumann stepping -------------------------------------------------------------------

def test_stationary_mixed_state():
    engine = rabi_engine()
    h = engine.hamiltonian.evaluate(0.0)
    # D = function of H: normalized Gibbs-like weights
    w, v = np.linalg.eigh(h.entries)
    weights = np.exp(-w) / np.sum(np.exp(-w))
    d = DensityObservable(Observable((v * weights) @ v.conj().T))
    out = von_neumann_step(engine, d, 0.0)
    assert out.distance(d) < 1e-12


def test_maximally_mixed_is_fixed():
    engine = rabi_engine()
    d = DensityObservable.maximally_mixed(2)
    assert von_neumann_step(engine, d, 0.0).distance(d) < 1e-13


def test_density_trajectory_matches_state_trajectory(rng):
    engine, _ = oscillator_engine(steps=30)
    psi = StateVector(random_state(rng, engine.dim))
    d = pure_density(psi)
    for t in engine.grid.times()[:-1]:
        psi = schrodinger_step(engine, psi, float(t))
        d = von_neumann_step(engine, d, float(t))
    assert d.distance(pure_density(psi)) < 1e-10


def test_picture_equivalence_per_step(rng):
    engine, _ = oscillator_engine()
    d = pure_density(StateVector(random_state(rng, engine.dim)))
    p = random_hermitian(rng, engine.dim)
    heis = expectation(d, heisenberg_step(engine, p, 0.0))
    schr = expectation(von_neumann_step(engine, d, 0.0), p)
    assert heis == pytest.approx(schr, abs=1e-10)


# --- reversal ---------------------------------------------------------------------------------

def test_reverse_step_trivial(rng):
    engine = zero_engine()
    o = random_hermitian(rng, 4)
    assert reverse_step(engine, o, 0.0).distance(o) < 1e-12


def test_reverse_inverts_forward(rng):
    engine, _ = oscillator_engine()
    o = random_hermitian(rng, engine.dim)
    forward = heisenberg_step(engine, o, 0.0)
    assert reverse_step(engine, forward, 0.0).distance(o) < 1e-12


def test_hundred_step_round_trip(rng):
    engine, _ = oscillator_engine(steps=100)
    o = random_hermitian(rng, engine.dim)
    current = o
    for t in engine.grid.times()[:-1]:
        current = heisenberg_step(engine, current, float(t))
    for t in reversed(engine.grid.times()[:-1]):
        current = reverse_step(engine, current, float(t))
    assert current.distance(o) < 1e-8


def test_reverse_warns_for_time_dependent_h():
    ctx = EvalContext(dim=2, operators={"SX": Observable(SX)}, constants={})
    h = Hamiltonian("t*SX", ctx)
    engine = EvolutionEngine(h, TimeGrid(tau=0.1, steps=1))
    with pytest.warns(UserWarning, match="time-dependent"):
        reverse_step(engine, Observable(SZ), 1.0)


# --- symmetries --------------------------------------------------------------------------------

def test_hamiltonian_is_its_own_symmetry():
    engine = rabi_engine(steps=20)
    report = symmetry_check(engine, engine.hamiltonian.evaluate(0.0))
    assert report.passed
    assert report.details["drift_pass"]
    assert report.residuals["drift_residual"] < 1e-10


def test_identity_is_a_symmetry():
    engine = rabi_engine(steps=10)
    report = symmetry_check(engine, Observable(np.eye(2)))
    assert report.passed
    assert report.details["commutator_pass"]


def test_planted_asymmetry_fails_all_three():
    engine = rabi_engine(steps=10)
    report = symmetry_check(engine, Observable(SZ))  # [SZ, SX] != 0
    assert report.passed  # the three criteria agree...
    assert not report.details["conjugation_pass"]  # ...on failure
    assert not report.details["commutator_pass"]
    assert not report.details["drift_pass"]


def test_constant_of_motion_long_drift(rng):
    engine, _ = oscillator_engine(tau=0.05, steps=1000)
    h = engine.hamiltonian.evaluate(0.0)
    f = Observable(h.entries @ h.entries + 2.0 * h.entries)  # function of H
    report = symmetry_check(engine, f)
    assert report.passed
    assert report.residuals["drift_residual"] < 1e-9 * f.norm()


# --- compatibility persistence -------------------------------------------------------------------

def test_self_compatibility_persists(rng):
    engine, _ = oscillator_engine(steps=10)
    a = random_hermitian(rng, engine.dim)
    assert compatibility_persistence_check(engine, a, a).passed


def test_commuting_diagonal_pair_persists(rng):
    engine = rabi_engine(steps=25)
    a = Observable(np.diag([1.0, 2.0]))
    b = Observable(np.diag([-0.5, 0.25]))
    report = compatibility_persistence_check(engine, a, b)
    assert report.passed
    assert report.residuals["initial_commutator"] < 1e-14


def test_spectral_projectors_stay_compatible(rng):
    engine, _ = oscillator_engine(steps=10)
    from obsalg.core import spectral_decompose
    o = random_hermitian(rng, engine.dim)
    dec = spectral_decompose(o)
    report = compatibility_persistence_check(engine, dec.basis[0], dec.basis[1])
    assert report.passed


# --- temporal abscissa -------------------------------------------------------------------------

def test_temporal_abscissa_minimal_translation():
    report = temporal_abscissa_check(4, 0.5)
    assert report.passed
    assert report.residuals["label_residual"] < 1e-12
    assert report.residuals["minimal_step_error"] < 1e-10


def test_temporal_abscissa_wrap_and_defect():
    report = temporal_abscissa_check(8, 0.25, hbar=2.0)
    assert report.passed
    # top slot wraps to the window floor -n*tau
    assert report.details["translated_labels"][-1] == pytest.approx(-8 * 0.25)
    assert report.details["expected_defect_norm"] == pytest.approx(2 * 8 * 0.25)


# --- bounded caches ------------------------------------------------------------------------------

def test_time_dependent_memory_is_flat_in_step_count():
    import tracemalloc

    from obsalg.evolution import schrodinger_step_residual

    def retained_after(steps: int) -> int:
        pair = make_canonical_pair(make_position(16, 0.25))
        ctx = EvalContext(dim=pair.dim,
                          operators={"Q": pair.q.observable, "P": pair.p},
                          constants={"F": 0.5, "nu": 0.9})
        h = Hamiltonian("P^2/2 + Q^2/2 + F*cos(nu*t)*Q", ctx)
        engine = EvolutionEngine(h, TimeGrid(tau=0.002, steps=steps))
        psi = StateVector.basis_vector(pair.dim, 16)
        tracemalloc.start()
        try:
            for t in engine.grid.times()[:-1]:
                schrodinger_step_residual(engine, psi, float(t), engine.grid.tau)
                psi = schrodinger_step(engine, psi, float(t))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert engine.max_grid_defect <= 1e-9
        return retained

    assert abs(retained_after(2000) - retained_after(200)) <= 2 ** 20


def test_coarse_grid_warning_points_at_the_caller():
    engine = rabi_engine(tau=8.0)
    psi = StateVector.basis_vector(2, 0)
    for check, subject in ((heisenberg_residual, "SZ"), (schrodinger_residual, psi),
                           (von_neumann_residual, pure_density(psi))):
        with pytest.warns(UserWarning, match="far from the continuum") as record:
            check(engine, subject, 0.0)
        assert [w.filename for w in record] == [__file__], check.__name__


def test_residual_checks_take_one_norm_of_h(monkeypatch):
    engine, pair = oscillator_engine()
    h = engine.hamiltonian.evaluate(0.0).entries
    of_h = []
    real_svd = np.linalg.svd

    def svd(a, *args, **kwargs):
        of_h.append(np.array_equal(a, h))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    psi = StateVector.basis_vector(pair.dim, 16)
    for check, subject in ((heisenberg_residual, "Q"), (schrodinger_residual, psi),
                           (von_neumann_residual, pure_density(psi))):
        of_h.clear()
        check(engine, subject, 0.0)
        assert sum(of_h) == 1, check.__name__


# --- Heisenberg frames ---------------------------------------------------------------------------

def test_heisenberg_frames_are_powers_of_the_step_for_a_constant_h():
    engine = rabi_engine(steps=6)
    frames = list(engine.heisenberg_frames())
    assert [t for t, _ in frames] == [float(t) for t in engine.grid.times()]
    u = engine.unitary(0.0).entries
    for m, (_, v) in enumerate(frames):
        assert opnorm(v - np.linalg.matrix_power(u, m)) < 1e-14


def test_heisenberg_reads_draw_their_frames_from_the_engine(monkeypatch):
    """The trace, the drift and the commutator persistence all read V_m from
    ``EvolutionEngine.heisenberg_frames``, the one place the step order is set."""
    from obsalg.scenarios import config_from_doc, run_scenario

    calls = []

    def frozen_frames(engine):  # every frame the identity: nothing moves
        calls.append(engine)
        for t in engine.grid.times():
            yield float(t), np.eye(engine.dim, dtype=complex)

    monkeypatch.setattr(EvolutionEngine, "heisenberg_frames", frozen_frames)
    pauli = {"SX": {"dim": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]},
             "SZ": {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [-1, 0]]}}
    result = run_scenario(config_from_doc({
        "operators": pauli, "hamiltonian": "0.5*SX", "picture": "heisenberg",
        "grid": {"tau": 0.1, "steps": 10}, "observables_to_trace": {"sz": "SZ"}}))
    assert result.column("sz") == [1.0] * 11
    engine = rabi_engine(steps=10)
    drift = symmetry_check(engine, Observable(SZ)).residuals["drift_residual"]
    persistence = compatibility_persistence_check(engine, Observable(SZ), Observable(SY))
    assert drift == 0.0
    assert persistence.residuals["commutator_drift"] == 0.0
    assert len(calls) == 3
