import math
import tracemalloc

import numpy as np
import pytest

from obsalg.canonical import (
    LinearSpectrumObservable,
    commutator_limit_probe,
    conjugation_parity_check,
    decompose_displacement,
    frame_conjugate,
    make_canonical_pair,
    make_position,
    momentum_as_linear_spectrum,
    translate,
    translate_labels,
    translate_steps,
    weyl_residual,
)
from obsalg.core import AlgebraError, Observable, ProjectorBasis, commutator, opnorm, trace
from obsalg.rand import random_unitary
from obsalg.transforms import unitary_exponential


@pytest.fixture
def pair22():
    return make_canonical_pair(make_position(2, 1.0), hbar=1.0)


# --- make_position -----------------------------------------------------------

def test_position_definition_unrolled():
    q = make_position(2, 1.0)
    assert opnorm(q.observable.entries - np.diag([-2.0, -1.0, 0.0, 1.0])) == 0.0


def test_spectrum_spacing_is_resolution():
    q = make_position(5, 0.3)
    diffs = np.diff(q.spectrum)
    assert np.allclose(diffs, 0.3, atol=1e-15)


def test_position_against_index_loop_oracle():
    q = make_position(8, 0.5)
    assert q.dim == 16
    expected = [j * 0.5 for j in range(-8, 8)]  # -4.0 .. 3.5 step 0.5
    assert list(q.spectrum) == expected
    assert q.spectrum[0] == -4.0 and q.spectrum[-1] == 3.5
    for j, proj in zip(range(-8, 8), q.basis):
        assert trace(proj) == pytest.approx(1.0)
        vec = np.zeros(16)
        vec[j + 8] = 1.0
        assert opnorm(proj.entries - np.outer(vec, vec)) < 1e-14


def test_position_validates_inputs():
    with pytest.raises(AlgebraError, match="n >= 2"):
        make_position(1, 1.0)
    with pytest.raises(AlgebraError, match="positive"):
        make_position(4, -0.5)


# --- canonical pair ------------------------------------------------------------

def test_momentum_spectrum_small_case(pair22):
    assert pair22.momentum_spectrum == pytest.approx(
        (-math.pi, -math.pi / 2, 0.0, math.pi / 2))


def test_shift_is_cyclic_permutation(pair22):
    # oracle: build S as exp(i (eps/hbar) P) and as the explicit permutation
    exp_route = unitary_exponential((pair22.epsilon / pair22.hbar) * pair22.p)
    perm = np.zeros((4, 4))
    for j in range(4):
        perm[(j - 1) % 4, j] = 1.0  # e_j -> e_{j-1}
    assert opnorm(pair22.s.entries - perm) == 0.0
    assert exp_route.distance(pair22.s) < 1e-12


def test_shift_cyclicity():
    for n in (2, 4, 8):
        pair = make_canonical_pair(make_position(n, 0.7), hbar=1.3)
        power = np.linalg.matrix_power(pair.s.entries, 2 * n)
        assert opnorm(power - np.eye(2 * n)) < 1e-10


def test_shift_relabels_projectors(rng):
    pair = make_canonical_pair(make_position(4, 0.5))
    d = pair.dim
    s_e = pair.s.entries
    for _ in range(5):
        steps = int(rng.integers(-7, 8))
        power = np.linalg.matrix_power(s_e, steps % d)
        for j_idx in range(d):
            proj = pair.q.basis[j_idx].entries
            moved = power @ proj @ power.conj().T
            target = pair.q.basis[(j_idx - steps) % d].entries
            assert opnorm(moved - target) < 1e-12


def test_momentum_window():
    pair = make_canonical_pair(make_position(6, 0.25), hbar=2.0)
    bound = math.pi * pair.hbar / pair.epsilon
    assert all(-bound <= p <= bound for p in pair.momentum_spectrum)


def test_momentum_recovered_from_eigenphases():
    pair = make_canonical_pair(make_position(4, 0.5), hbar=1.5)
    recovered = pair.momentum_from_shift_eigenphases()
    assert np.max(np.abs(recovered - np.array(pair.momentum_spectrum))) < 1e-10


def test_momentum_is_linear_spectrum_observable():
    pair = make_canonical_pair(make_position(8, 0.25), hbar=1.0)
    dual = momentum_as_linear_spectrum(pair)
    assert isinstance(dual, LinearSpectrumObservable)
    assert dual.epsilon == pytest.approx(math.pi / (8 * 0.25))
    assert dual.observable is pair.p


_RESOLUTION_RULES = {"0.1": lambda n: 0.1, "0.3": lambda n: 0.3,
                     "1/sqrt(n)": lambda n: 1 / math.sqrt(n)}


@pytest.mark.parametrize("hbar", [1.0, 0.7])
@pytest.mark.parametrize("rule", sorted(_RESOLUTION_RULES))
@pytest.mark.parametrize("n", [2, 3, 5, 7, 16])
def test_momentum_coordinate_labels_are_exact_multiples(n, rule, hbar):
    # k*pi*hbar/(n*eps) and k*(pi*hbar/(n*eps)) differ in the last digit
    # unless n*eps is a power of two; the momentum uses the coordinate rule
    eps = _RESOLUTION_RULES[rule](n)
    pair = make_canonical_pair(make_position(n, eps), hbar=hbar)
    dual = momentum_as_linear_spectrum(pair)
    resolution = math.pi * hbar / (n * eps)
    assert isinstance(dual, LinearSpectrumObservable)
    assert dual.observable is pair.p
    assert dual.epsilon == resolution
    assert dual.spectrum == tuple(j * resolution for j in range(-n, n))


def test_pair_on_rotated_frame(rng):
    # same invariants hold when the coordinate basis is not the standard one
    from obsalg.rand import random_unitary
    u = random_unitary(rng, 8).entries
    labels = [j * 0.5 for j in range(-4, 4)]
    from obsalg.core import ProjectorBasis
    basis = ProjectorBasis.from_frame(u, [1] * 8, labels=labels)
    q = LinearSpectrumObservable(4, 0.5, basis)
    pair = make_canonical_pair(q, hbar=1.0)
    assert pair.exponential_consistency() < 1e-10
    assert opnorm(np.linalg.matrix_power(pair.s.entries, 8) - np.eye(8)) < 1e-10


def test_coordinate_is_derived_from_its_basis(rng):
    u = random_unitary(rng, 8).entries
    labels = [j * 0.5 for j in range(-4, 4)]
    q = LinearSpectrumObservable(4, 0.5, ProjectorBasis.from_frame(u, [1] * 8, labels=labels))
    expected = sum(label * proj.entries for label, proj in zip(q.spectrum, q.basis))
    assert isinstance(q.observable, Observable)
    assert opnorm(q.observable.entries - expected) < 1e-12
    assert opnorm(q.basis[0].entries - np.outer(u[:, 0], u[:, 0].conj())) < 1e-12
    assert not q.basis.frame.flags.writeable
    with pytest.raises(AttributeError):
        q.basis.frame = np.eye(8)


@pytest.mark.parametrize("blocks, labels, message", [
    ([1] * 6, [j * 0.5 for j in range(-3, 3)], "2n rank-one"),
    ([2, 1, 1, 1, 1, 1, 1], [j * 0.5 for j in range(-4, 3)], "2n rank-one"),
    ([1] * 8, [j * 0.25 for j in range(-4, 4)], "labels"),
])
def test_coordinate_rejects_mismatched_basis(rng, blocks, labels, message):
    d = sum(blocks)
    basis = ProjectorBasis.from_frame(random_unitary(rng, d).entries, blocks, labels=labels)
    with pytest.raises(AlgebraError, match=message):
        LinearSpectrumObservable(4, 0.5, basis)


def test_canonical_pair_memory_is_quadratic_in_dim():
    # at d = 512 one complex d x d matrix is 4 MiB; a dense projector per
    # level would need 2 GiB, so the bound allows 16 matrices
    d = 512
    tracemalloc.start()
    try:
        pair = make_canonical_pair(make_position(d // 2, 1 / 16))
        assert weyl_residual(pair).passed
        assert conjugation_parity_check(pair).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * d * d * 16


# --- translations ------------------------------------------------------------------

def test_translate_zero_is_identity(pair22):
    assert translate(pair22, 0.0).distance(pair22.q.observable) == 0.0


def test_translate_one_step_permutes_labels(pair22):
    out = translate(pair22, 1.0)
    # permutation oracle: slot j carries the old label of slot j+1, wrapped
    assert np.allclose(np.diag(out.entries).real, [-1.0, 0.0, 1.0, -2.0])
    assert translate_labels(pair22, 1) == (-1.0, 0.0, 1.0, -2.0)


def test_translate_full_cycle_recovers_exactly(pair22):
    out = translate(pair22, 4.0)  # 2n epsilon
    assert np.array_equal(out.entries, pair22.q.observable.entries)


def test_translate_matches_matrix_conjugation(pair22):
    s_e = pair22.s.entries
    for steps in (1, 2, 3, -1):
        lhs = translate(pair22, float(steps)).entries
        power = np.linalg.matrix_power(s_e, steps % 4)
        rhs = power @ pair22.q.observable.entries @ power.conj().T
        assert opnorm(lhs - rhs) < 1e-12


def test_translate_rejects_fractional(pair22):
    with pytest.raises(AlgebraError, match="xi"):
        translate(pair22, 0.5)
    with pytest.raises(AlgebraError, match="whole multiples"):
        translate(pair22, 1.25)


def test_translate_snaps_float_noise(pair22):
    assert translate_steps(pair22, 3.0000000000001) == 3
    assert translate_steps(pair22, -2.0000000000001) == -2


def test_translation_group_law(pair22):
    one_then_two = translate_labels(pair22, 1)
    via_three = translate_labels(pair22, 3)
    relabelled = tuple(np.roll(np.array(one_then_two), -2))
    assert relabelled == via_three


def test_decompose_displacement_unique():
    spec = decompose_displacement(2.7, 1.0)
    assert spec.s_steps == 2 and spec.xi == pytest.approx(0.7)
    spec = decompose_displacement(-0.3, 1.0)
    assert spec.s_steps == -1 and spec.xi == pytest.approx(0.7)
    assert 0.0 <= spec.xi < 1.0


# --- Weyl obstruction ----------------------------------------------------------------

def test_weyl_trace_vanishes():
    for n in (2, 8, 16):
        pair = make_canonical_pair(make_position(n, 0.5))
        report = weyl_residual(pair)
        assert report.passed
        assert report.residuals["trace_residual"] <= 1e-9 * report.details["trace_scale"]
        assert report.details["identity_trace"] == 2 * n


def test_weyl_commutator_never_zero():
    for n in (2, 4, 16):
        pair = make_canonical_pair(make_position(n, 1.0))
        comm = commutator(pair.q.observable, pair.p)
        assert opnorm(comm.entries) > 0.1  # obstruction: [Q,P] != 0 at finite dim


def test_weyl_coordinate_diagonal_is_zero():
    pair = make_canonical_pair(make_position(8, 0.5))
    report = weyl_residual(pair)
    assert report.residuals["diag_max_abs"] < 1e-13


def test_weyl_interior_deviation_halves():
    dev32 = weyl_residual(make_canonical_pair(make_position(32, 1.0)))
    dev64 = weyl_residual(make_canonical_pair(make_position(64, 1.0)))
    d32 = dev32.residuals["interior_max_dev"]
    d64 = dev64.residuals["interior_max_dev"]
    assert d64 <= 0.6 * d32


def test_commutator_limit_probe_table():
    rows = commutator_limit_probe([8, 16, 32, 64])
    assert [r.n for r in rows] == [8, 16, 32, 64]
    devs = [r.interior_max_dev for r in rows]
    assert all(b < a for a, b in zip(devs, devs[1:]))  # monotone decrease
    assert all(r.trace_residual < 1e-9 for r in rows)
    assert rows[0].epsilon == pytest.approx(1 / math.sqrt(8))


def test_commutator_limit_probe_single_row():
    rows = commutator_limit_probe([8])
    assert len(rows) == 1


# --- conjugation parity -----------------------------------------------------------------

def test_conjugation_fixes_coordinate_exactly(pair22):
    report = conjugation_parity_check(pair22)
    assert report.residuals["coordinate_defect"] == 0.0


def test_edge_defect_explicit_small_case(pair22):
    # independent 4x4 oracle: defect = 2 p_{-2} f f^dagger with the k=-2
    # Fourier column f(j) = exp(i pi (-2) j / 2)/2 = (-1)^j / 2
    f = np.array([np.exp(-1j * np.pi * j) for j in range(-2, 2)]) / 2.0
    target = 2 * (-math.pi) * np.outer(f, f.conj())
    defect = np.conj(pair22.p.entries) + pair22.p.entries
    assert opnorm(defect - target) < 1e-12
    report = conjugation_parity_check(pair22)
    assert report.passed
    assert report.details["defect_norm"] == pytest.approx(2 * math.pi, abs=1e-10)


def test_edge_defect_weight_halves():
    w32 = conjugation_parity_check(
        make_canonical_pair(make_position(32, 1.0))).residuals["edge_defect_weight"]
    w64 = conjugation_parity_check(
        make_canonical_pair(make_position(64, 1.0))).residuals["edge_defect_weight"]
    assert w32 == pytest.approx(2 / 32, rel=1e-9)
    assert w64 <= 0.5 * w32 * (1 + 1e-9)


def test_frame_conjugate_in_rotated_frame(rng):
    from obsalg.rand import random_matrix, random_unitary
    u = random_unitary(rng, 4).entries
    m = random_matrix(rng, 4).entries
    out = frame_conjugate(m, u)
    # oracle: conjugate the compressed matrix entrywise, then rotate back
    inner = np.conj(u.conj().T @ m @ u)
    assert opnorm(out - u @ inner @ u.conj().T) < 1e-12


def test_canonical_pair_passes_the_gates_at_dimension_512():
    pair = make_canonical_pair(make_position(256, 0.1))
    assert pair.dim == 512
    assert pair.exponential_consistency() < 1e-12
