"""Values built from certified parts: the one conjugation law and the trusted constructors.

W P W^dagger of an Observable by a certified unitary, W^dagger D W and
|psi><psi| of valid states, and frame sums over real labels are Hermitian,
and a density positive, by construction.  They are built with no Hermiticity
probe and no ``eigvalsh``; only finiteness and a density's unit trace are
checked, and those two gates still catch an overflow and a W that is unitary
only to its tolerance.
"""

import numpy as np
import pytest

from obsalg import core, expr
from obsalg.canonical import make_canonical_pair, make_position, translate
from obsalg.core import AlgebraError, Observable, PseudoObservable, spectral_decompose
from obsalg.evolution import (
    EvolutionEngine,
    Hamiltonian,
    TimeGrid,
    heisenberg_step,
    heisenberg_step_explicit,
    reverse_step,
    von_neumann_step,
)
from obsalg.expr import EvalContext
from obsalg.rand import random_density, random_hermitian, random_state, random_unitary
from obsalg.states import DensityObservable, StateVector, pure_density, transform_density
from obsalg.transforms import apply, from_unitary


@pytest.fixture
def counts(monkeypatch):
    """Calls of the Hermiticity probe and of ``eigvalsh`` from here on."""
    calls = {"hermiticity_defect": 0, "eigvalsh": 0}

    def counting(name, original):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapped

    for module in (core, expr):
        monkeypatch.setattr(module, "hermiticity_defect",
                            counting("hermiticity_defect", core.hermiticity_defect))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    return calls


def test_certified_constructions_make_no_probe_and_no_eigvalsh(rng, request):
    d = 4
    a = random_hermitian(rng, d)
    t = from_unitary(random_unitary(rng, d))
    density = DensityObservable(random_density(rng, d))
    psi = StateVector(random_state(rng, d))
    decomposition = spectral_decompose(a)
    pair = make_canonical_pair(make_position(2, 0.5))
    engine = EvolutionEngine(Hamiltonian("A", EvalContext(dim=d, operators={"A": a})),
                             TimeGrid(tau=0.01, steps=2))
    engine.unitary(0.0)  # H and its step unitary are certified before counting starts

    counts = request.getfixturevalue("counts")
    built = [apply(t, a), transform_density(t, density), pure_density(psi),
             heisenberg_step(engine, a, 0.0), reverse_step(engine, a, 0.0),
             von_neumann_step(engine, density, 0.0), decomposition.basis[1],
             decomposition.reconstruct(), t.generatrix, make_position(2, 0.5).observable,
             translate(pair, 0.5)]
    assert counts == {"hermiticity_defect": 0, "eigvalsh": 0}
    assert all(isinstance(x, (Observable, DensityObservable)) for x in built)

    # the explicit step validates its advanced expression once, as input
    assert isinstance(heisenberg_step_explicit(engine, "cos(t)*A", 0.0), Observable)
    assert counts == {"hermiticity_defect": 1, "eigvalsh": 0}


def test_conjugate_that_overflows_is_rejected():
    hadamard = from_unitary(PseudoObservable(np.array([[1, 1], [1, -1]]) / np.sqrt(2)))
    big = Observable(np.full((2, 2), 1e308))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(AlgebraError, match="not finite"):
        apply(hadamard, big)


def test_transformed_density_trace_is_still_gated(rng):
    # (1 + 2e-10) U passes W's Frobenius gate, but the trace of W^dagger D W reads 1 + 4e-10
    w = from_unitary((1 + 2e-10) * random_unitary(rng, 4))
    with pytest.raises(AlgebraError, match="density trace must be 1"):
        transform_density(w, DensityObservable(random_density(rng, 4)))


def test_state_vector_rejects_a_nan_amplitude():
    with pytest.raises(AlgebraError, match="not normalized"):
        StateVector([np.nan, 1.0])
