import cmath
import math
import tracemalloc

import numpy as np
import pytest

from obsalg import transforms
from obsalg.canonical import make_canonical_pair, make_position
from obsalg.core import (
    AlgebraError,
    Observable,
    ProjectorBasis,
    PseudoObservable,
    apply_function,
    dyad_basis_from,
    inner_product,
    opnorm,
    spectral_decompose,
    trace,
)
from obsalg.rand import (
    random_hermitian,
    random_hermitian_with_spectrum,
    random_matrix,
    random_unitary,
)
from obsalg.transforms import (
    Transformation,
    apply,
    compose,
    from_generatrix,
    from_unitary,
    inner_product_invariance_check,
    invariance_characterization,
    inverse,
    is_invariant,
    spectrum_preservation_check,
    trace_invariance_check,
    transform_basis,
    unitary_exponential,
)


# --- generatrix extraction ---------------------------------------------------

def test_identity_has_zero_generatrix():
    t = from_unitary(PseudoObservable.identity(4))
    assert opnorm(t.generatrix.entries) < 1e-12


def test_scalar_phase_generatrix():
    t = from_unitary(1j * PseudoObservable.identity(3))
    target = (math.pi / 2) * np.eye(3)
    assert opnorm(t.generatrix.entries - target) < 1e-12


def test_minus_identity_folds_to_plus_pi():
    t = from_unitary(-1.0 * PseudoObservable.identity(3))
    assert opnorm(t.generatrix.entries - math.pi * np.eye(3)) < 1e-12


def test_round_trip_random_generatrix(rng):
    for dim in (4, 8, 16):
        g = random_hermitian_with_spectrum(rng, dim, -math.pi + 1e-3, math.pi - 1e-3)
        t = from_unitary(unitary_exponential(g))
        assert t.generatrix.distance(g) < 1e-9


def test_from_generatrix_round_trips(rng):
    g = random_hermitian_with_spectrum(rng, 5, -2.0, 2.0)
    t = from_generatrix(g)
    assert t.generatrix.distance(g) < 1e-9
    assert from_unitary(t.w).generatrix.distance(g) < 1e-9


def test_from_generatrix_folds_branch():
    g = Observable(np.diag([3 * math.pi / 2, 0.0]))
    t = from_generatrix(g)
    spectrum = np.linalg.eigvalsh(t.generatrix.entries)
    assert spectrum[0] == pytest.approx(-math.pi / 2, abs=1e-12)
    assert spectrum[1] == pytest.approx(0.0, abs=1e-12)


def test_phase_collision_resistant_extraction():
    # cos t + 2 sin t collides for t=0 and t=pi-2*atan(1/2); a single
    # linear-combination diagonalization would merge these two phases.
    t2 = math.pi - 2 * math.atan(0.5)
    w = PseudoObservable(np.diag([1.0, cmath.exp(1j * t2)]))
    t = from_unitary(w)
    spectrum = sorted(np.linalg.eigvalsh(t.generatrix.entries))
    assert spectrum[0] == pytest.approx(0.0, abs=1e-12)
    assert spectrum[1] == pytest.approx(t2, abs=1e-12)


def test_degenerate_phases_grouped(rng):
    u = random_unitary(rng, 4).entries
    phases = np.exp(1j * np.array([0.7, 0.7, 0.7, -1.1]))
    w = PseudoObservable((u * phases) @ u.conj().T)
    t = from_unitary(w)
    dec = spectral_decompose(t.generatrix)
    assert dec.multiplicities == (1, 3)
    assert dec.eigenvalues == pytest.approx((-1.1, 0.7), abs=1e-9)


def test_from_unitary_rejects_non_unitary(rng):
    with pytest.raises(AlgebraError, match="not unitary"):
        from_unitary(random_matrix(rng, 3))


def test_from_generatrix_rejects_non_hermitian(rng):
    with pytest.raises(AlgebraError):
        from_generatrix(random_matrix(rng, 3))


def test_generatrix_spectrum_in_branch(rng):
    for _ in range(10):
        t = from_unitary(random_unitary(rng, 6))
        spectrum = np.linalg.eigvalsh(t.generatrix.entries)
        assert spectrum[0] > -math.pi - 1e-12
        assert spectrum[-1] <= math.pi + 1e-12
        assert opnorm(unitary_exponential(t.generatrix).entries - t.w.entries) < 1e-9


# --- automorphism laws --------------------------------------------------------

def test_identity_transformation_fixes_everything(rng):
    t = Transformation.identity(4)
    p = random_matrix(rng, 4)
    assert apply(t, p).distance(p) < 1e-14 * p.norm()


def test_constants_are_fixed(rng):
    t = from_unitary(random_unitary(rng, 4))
    gamma = (2.3 - 0.7j) * PseudoObservable.identity(4)
    assert apply(t, gamma).distance(gamma) < 1e-12


def test_multiplicativity(rng):
    t = from_unitary(random_unitary(rng, 4))
    a, b = random_matrix(rng, 4), random_matrix(rng, 4)
    lhs = apply(t, a @ b)
    rhs = apply(t, a) @ apply(t, b)
    assert lhs.distance(rhs) < 1e-10 * max(1.0, a.norm() * b.norm())


def test_automorphism_laws_random_suite(rng):
    for dim in (4, 8):
        t = from_unitary(random_unitary(rng, dim))
        for _ in range(20):
            a, b = random_matrix(rng, dim), random_matrix(rng, dim)
            gamma = complex(rng.normal(), rng.normal())
            scale = max(1.0, a.norm() + b.norm())
            add = apply(t, a + b).distance(apply(t, a) + apply(t, b))
            mul = apply(t, a @ b).distance(apply(t, a) @ apply(t, b))
            dag = apply(t, a.dagger()).distance(apply(t, a).dagger())
            lin = apply(t, gamma * a).distance(gamma * apply(t, a))
            assert add < 1e-10 * scale
            assert mul < 1e-10 * scale ** 2
            assert dag < 1e-10 * scale
            assert lin < 1e-10 * scale * abs(gamma)


def test_hermitian_stays_hermitian(rng):
    t = from_unitary(random_unitary(rng, 5))
    out = apply(t, random_hermitian(rng, 5))
    assert isinstance(out, Observable)


# --- inverse and composition ---------------------------------------------------

def test_inverse_of_identity():
    t = inverse(Transformation.identity(3))
    assert opnorm(t.w.entries - np.eye(3)) < 1e-12


def test_compose_with_inverse_is_identity(rng):
    t = from_unitary(random_unitary(rng, 5))
    round_trip = compose(t, inverse(t))
    assert opnorm(round_trip.w.entries - np.eye(5)) < 1e-10
    p = random_matrix(rng, 5)
    assert apply(inverse(t), apply(t, p)).distance(p) < 1e-10 * max(1.0, p.norm())


@pytest.mark.parametrize("seed", range(10))
def test_inverse_of_near_mirror_generatrix_negates_it(seed):
    # eigenphases 0.9 and -0.9 + 6e-8 are near mirror images, where
    # re-extracting a generatrix from W^dagger misses its bound
    u = random_unitary(np.random.default_rng(seed), 4).entries
    g = Observable((u * np.array([0.9, -0.9 + 6e-8, 0.3, -2.0])) @ u.conj().T)
    t = inverse(from_generatrix(g))
    assert opnorm(t.generatrix.entries + g.entries) <= 1e-12


def test_inverse_and_constructor_call_no_eigensolver(rng, monkeypatch):
    t = from_unitary(random_unitary(rng, 6))

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    for name in ("eigh", "eigvalsh", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    inv = inverse(t)
    assert opnorm(inv.w.entries - t.w.entries.conj().T) == 0.0
    assert Transformation(t.w, t.basis).basis is t.basis


def test_inverse_keeps_pi_label_and_is_an_involution(rng):
    t = from_unitary(-1.0 * PseudoObservable.identity(3))
    assert inverse(t).basis.labels == (math.pi,) * 3
    for t in (t, from_unitary(random_unitary(rng, 5)),
              from_generatrix(random_hermitian(rng, 4))):
        assert inverse(inverse(t)).basis.labels == t.basis.labels


@pytest.mark.parametrize("label", [-math.pi, 3.5, math.nan])
def test_constructor_rejects_label_outside_principal_branch(label):
    basis = ProjectorBasis.from_frame(np.eye(3), [1, 2], [0.0, label])
    with pytest.raises(AlgebraError, match="must lie in"):
        Transformation(PseudoObservable.identity(3), basis)


def test_constructor_rejects_basis_that_does_not_reproduce_w(rng):
    w = random_unitary(rng, 4)
    basis = from_unitary(random_unitary(rng, 4)).basis
    with pytest.raises(AlgebraError, match="does not reproduce W"):
        Transformation(w, basis)


def test_compose_matches_sequential_application(rng):
    t1 = from_unitary(random_unitary(rng, 4))
    t2 = from_unitary(random_unitary(rng, 4))
    p = random_matrix(rng, 4)
    lhs = apply(compose(t1, t2), p)
    rhs = apply(t1, apply(t2, p))
    assert lhs.distance(rhs) < 1e-10 * max(1.0, p.norm())


# --- basis transport ------------------------------------------------------------

def coordinate_basis(dim):
    projs = []
    for j in range(dim):
        e = np.zeros((dim, dim))
        e[j, j] = 1.0
        projs.append(Observable(e))
    return ProjectorBasis(projs)


def test_transform_basis_identity(rng):
    basis = coordinate_basis(4)
    out = transform_basis(Transformation.identity(4), basis)
    for p, q in zip(basis, out):
        assert p.distance(q) < 1e-14


def test_transform_basis_random_unitary(rng):
    basis = coordinate_basis(5)
    t = from_unitary(random_unitary(rng, 5))
    out = transform_basis(t, basis)  # construction revalidates closure/exclusivity
    assert out.ranks() == basis.ranks()
    assert out.is_elementary()


def test_transform_dyad_basis(rng):
    basis = coordinate_basis(3)
    dy = dyad_basis_from(basis, np.ones((3, 3), dtype=complex))
    t = from_unitary(random_unitary(rng, 3))
    out = transform_basis(t, dy)
    for j in range(3):
        assert out[j, j].distance(apply(t, basis[j])) < 1e-10


def test_dyads_match_the_dense_formula_and_move_by_apply():
    """Gamma_jk = I_j C_jk I_k / ||I_j C_jk I_k||_F, written out in NumPy, for a
    shared rank-one core and for per-pair cores whose extra terms the flanking
    projectors annihilate; a transported dyad is the conjugated one."""
    rng = np.random.default_rng(12)
    for d in range(2, 7):
        b = random_unitary(rng, d).entries
        basis = ProjectorBasis.from_frame(b, [1] * d)
        projs = [np.outer(b[:, j], b[:, j].conj()) for j in range(d)]
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        rank_one = np.outer(v, v.conj())
        indexed = {(j, k): rng.uniform(0.5, 2.0) * rank_one
                   + (np.eye(d) - projs[j]) @ random_matrix(rng, d).entries
                   @ (np.eye(d) - projs[k])
                   for j in range(d) for k in range(d)}
        t = from_unitary(random_unitary(rng, d))
        for cores in (rank_one, indexed):
            dy = dyad_basis_from(basis, cores)
            moved = transform_basis(t, dy)
            for j in range(d):
                for k in range(d):
                    core = cores if isinstance(cores, np.ndarray) else cores[(j, k)]
                    sandwich = projs[j] @ core @ projs[k]
                    expected = sandwich / np.linalg.norm(sandwich)
                    assert opnorm(dy[j, k].entries - expected) < 1e-12
                    assert opnorm(moved[j, k].entries - apply(t, dy[j, k]).entries) < 1e-12


def _spectral_basis_with_repeat(rng, d):
    u = random_unitary(rng, d).entries
    vals = np.linspace(-1.0, 1.0, d)
    vals[1] = vals[0]  # one repeated eigenvalue
    return spectral_decompose(Observable((u * vals) @ u.conj().T)).basis


def test_transform_basis_transports_frame(rng):
    t = from_unitary(random_unitary(rng, 16))
    spectral = _spectral_basis_with_repeat(rng, 16)
    assert spectral.ranks()[0] == 2
    coordinate = make_canonical_pair(make_position(8, 0.5)).q.basis
    for basis in (spectral, coordinate):
        out = transform_basis(t, basis)
        assert out.ranks() == basis.ranks()
        assert out.labels == basis.labels
        for j in range(len(basis)):
            assert opnorm(out[j].entries - apply(t, basis[j]).entries) <= 1e-12


def test_transform_basis_memory_is_quadratic_in_dim(rng):
    # one complex d x d matrix is 1 MiB at d = 256; a dense projector per
    # level would need 256 of them, so the bound allows 16
    d = 256
    basis = _spectral_basis_with_repeat(rng, d)
    t = from_unitary(random_unitary(rng, d))
    tracemalloc.start()
    try:
        out = transform_basis(t, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.ranks() == basis.ranks()
    assert peak <= 16 * d * d * 16


def test_dyad_basis_memory_is_quadratic_in_dim(rng):
    # one complex d x d matrix is 16 KiB at d = 32; a dense matrix per dyad
    # would need 1024 of them (16 MiB), so the bound allows 64
    d = 32
    basis = ProjectorBasis.from_frame(random_unitary(rng, d).entries, [1] * d)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    t = from_unitary(random_unitary(rng, d))
    tracemalloc.start()
    try:
        out = transform_basis(t, dyad_basis_from(basis, np.outer(v, v.conj())))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.base.frame.shape == (d, d)
    assert peak <= 2 ** 20


# --- invariance ---------------------------------------------------------------

def test_generatrix_is_invariant(rng):
    t = from_unitary(random_unitary(rng, 5))
    assert is_invariant(t, t.generatrix)


def test_function_of_generatrix_is_invariant(rng):
    t = from_unitary(random_unitary(rng, 5))
    f_g = apply_function(lambda x: x ** 2 - 0.5 * x, t.generatrix)
    report = invariance_characterization(t, f_g)
    assert report.passed
    assert report.details["invariant"]
    assert report.details["compatible_with_generatrix"]


def test_noncommuting_observable_fails_both_ways(rng):
    t = from_unitary(random_unitary(rng, 5))
    for _ in range(20):
        a = random_hermitian(rng, 5)
        report = invariance_characterization(t, a)
        assert report.passed  # agreement, whichever way it lands
    # a planted strongly non-commuting case: both sides false
    g = Observable(np.diag([1.0, -1.0]))
    t2 = from_generatrix(g)
    sx = Observable(np.array([[0.0, 1.0], [1.0, 0.0]]))
    report = invariance_characterization(t2, sx)
    assert report.passed
    assert not report.details["invariant"]
    assert not report.details["compatible_with_generatrix"]


# --- spectrum preservation -------------------------------------------------------

def test_spectrum_preserved_identity(rng):
    a = random_hermitian(rng, 4)
    report = spectrum_preservation_check(Transformation.identity(4), a)
    assert report.passed


def test_spectrum_preserved_random_pair(rng):
    a = random_hermitian(rng, 5)
    t = from_unitary(random_unitary(rng, 5))
    report = spectrum_preservation_check(t, a)
    assert report.passed
    assert report.residuals["spectrum_residual"] < 1e-9 * max(1.0, a.norm())


def test_multiplicities_preserved(rng):
    u = random_unitary(rng, 6).entries
    vals = np.array([-1.0, -1.0, 0.5, 0.5, 0.5, 2.0])
    a = Observable((u * vals) @ u.conj().T)
    t = from_unitary(random_unitary(rng, 6))
    report = spectrum_preservation_check(t, a)
    assert report.passed
    assert report.details["multiplicities_before"] == (2, 3, 1)
    assert report.details["multiplicities_after"] == (2, 3, 1)


def _degenerate_case(rng):
    u = random_unitary(rng, 6).entries
    a = Observable((u * np.array([-1.0, -1.0, 0.5, 0.5, 0.5, 2.0])) @ u.conj().T)
    return from_unitary(random_unitary(rng, 6)), a


def _random_case(rng):
    return from_unitary(random_unitary(rng, 16)), random_hermitian(rng, 16)


@pytest.mark.parametrize("tilt", [0.0, 1e-3])
@pytest.mark.parametrize("case", [_degenerate_case, _random_case])
def test_projector_residual_matches_dense_projectors(rng, monkeypatch, case, tilt):
    # the target decomposition is that of W' A W'^dagger, W' = W e^{i tilt H},
    # so with a tilt the residual is of order tilt rather than roundoff
    t, a = case(rng)
    w = t.w.entries @ unitary_exponential(tilt * random_hermitian(rng, a.dim)).entries
    target = Observable(w @ a.entries @ w.conj().T)
    monkeypatch.setattr(transforms, "apply", lambda t_, p: target)
    report = spectrum_preservation_check(t, a)
    before, after = spectral_decompose(a), spectral_decompose(target)
    assert before.multiplicities == after.multiplicities
    dense = max(apply(t, p).distance(q) for p, q in zip(before.basis, after.basis))
    assert abs(report.residuals["projector_residual"] - dense) <= 1e-12
    assert report.passed == (tilt == 0.0)


def test_multiplicity_mismatch_reports_infinite_projector_residual(rng, monkeypatch):
    u = random_unitary(rng, 6).entries
    a = Observable((u * np.array([-1.0, -1.0, 0.5, 0.5, 0.5, 2.0])) @ u.conj().T)
    moved = Observable((u * np.array([-1.0, 0.5, 0.5, 0.5, 0.5, 2.0])) @ u.conj().T)
    monkeypatch.setattr(transforms, "apply", lambda t, p: moved)
    report = spectrum_preservation_check(Transformation.identity(6), a)
    assert not report.passed
    assert report.residuals["projector_residual"] == math.inf
    assert report.details["multiplicities_after"] == (1, 4, 1)


def test_spectrum_check_builds_no_projector(rng, monkeypatch):
    def forbidden(self, j):
        raise AssertionError("a projector was materialized")

    t = from_unitary(random_unitary(rng, 64))
    a = random_hermitian(rng, 64)
    monkeypatch.setattr(ProjectorBasis, "__getitem__", forbidden)
    assert spectrum_preservation_check(t, a).passed


# --- trace and inner-product invariance --------------------------------------------

def test_trace_invariance_identity(rng):
    p = random_matrix(rng, 4)
    assert trace_invariance_check(Transformation.identity(4), p).passed


def test_trace_invariance_random(rng):
    t = from_unitary(random_unitary(rng, 6))
    for _ in range(10):
        assert trace_invariance_check(t, random_matrix(rng, 6)).passed


def test_projector_trace_is_rank_after_transform(rng):
    t = from_unitary(random_unitary(rng, 4))
    basis = coordinate_basis(4)
    for p in basis:
        assert trace(apply(t, p)) == pytest.approx(1.0, abs=1e-10)


def test_inner_product_invariance(rng):
    t = from_unitary(random_unitary(rng, 5))
    x, y = random_matrix(rng, 5), random_matrix(rng, 5)
    report = inner_product_invariance_check(t, x, y)
    assert report.passed
    before = inner_product(x, y)
    after = inner_product(apply(t, x), apply(t, y))
    assert after == pytest.approx(before, abs=1e-9)


# --- elementarity preservation -------------------------------------------------------

def test_rank_one_projectors_stay_rank_one(rng):
    t = from_unitary(random_unitary(rng, 6))
    basis = coordinate_basis(6)
    out = transform_basis(t, basis)
    for p in out:
        rank = int(np.sum(np.linalg.eigvalsh(p.entries) > 1e-8))
        assert rank == 1


# --- non-finite inputs, Frobenius gates, large dimension -------------------------

def _nan_unitary(dim: int = 3) -> PseudoObservable:
    w = np.eye(dim, dtype=complex)
    w[1, 2] = np.nan
    return PseudoObservable(w)


def test_transformation_rejects_a_nan_w():
    basis = ProjectorBasis.from_frame(np.eye(3), [3], [0.0])
    with pytest.raises(AlgebraError, match="not unitary"):
        Transformation(_nan_unitary(), basis)


def test_from_unitary_rejects_a_nan_w():
    with pytest.raises(AlgebraError, match="not unitary"):
        from_unitary(_nan_unitary())


def test_unitary_exponential_rejects_non_finite_arguments():
    h = Observable(np.diag([1e10, 1.0]))
    with pytest.raises(AlgebraError):
        unitary_exponential(1e300 * h)  # (tau/hbar) H overflows
    with np.errstate(invalid="ignore"):
        with pytest.raises(AlgebraError):
            unitary_exponential(PseudoObservable(np.diag([np.inf, 1.0])))
        with pytest.raises(AlgebraError):
            unitary_exponential(Observable([[np.inf, 0], [0, 1]]))


def test_evolution_unitary_rejects_an_overflowing_step():
    from obsalg.evolution import EvolutionEngine, Hamiltonian, TimeGrid
    from obsalg.expr import EvalContext

    ctx = EvalContext(dim=2, operators={"Z": Observable(np.diag([1.0, -1.0]))},
                      constants={"c": 1e300})
    engine = EvolutionEngine(Hamiltonian("c*Z", ctx), TimeGrid(tau=1e10, steps=2))
    with pytest.raises(AlgebraError, match="not finite"):
        engine.unitary(0.0)


def test_unitary_exponential_returns_a_plain_element_without_a_hermiticity_probe(
        monkeypatch):
    from obsalg import core

    g = Observable(np.diag([0.0, math.pi]))  # e^{iG} = diag(1, -1) is Hermitian
    monkeypatch.setattr(core, "hermiticity_defect", lambda e: pytest.fail("probed"))
    u = unitary_exponential(g)
    assert type(u) is PseudoObservable
    assert opnorm(u.entries - np.diag([1.0, -1.0])) < 1e-15


def test_round_trip_passes_the_gates_at_dimension_512():
    rng = np.random.default_rng(512)
    g = random_hermitian_with_spectrum(rng, 512, -3.0, 3.0)
    t = from_unitary(unitary_exponential(g))
    assert np.sort(t.basis.labels) == pytest.approx(np.linalg.eigvalsh(g.entries),
                                                    abs=1e-9)


# --- Cayley extraction: near-mirror phases, the audit seeds, angular clustering ---

@pytest.mark.parametrize("seed", range(10))
def test_near_mirror_generatrix_round_trips_through_from_unitary_and_compose(seed):
    # eigenphases 0.9 and -0.9 + 6e-8 are near mirror images, so Re W has a
    # near-double eigenvalue cos(0.9) whose eigenvectors it cannot separate
    u = random_unitary(np.random.default_rng(seed), 4).entries
    g = Observable((u * np.array([0.9, -0.9 + 6e-8, 0.3, -2.0])) @ u.conj().T)
    t = from_generatrix(g)
    for recovered in (from_unitary(t.w), compose(t, Transformation.identity(4))):
        assert opnorm(recovered.generatrix.entries - g.entries) <= 1e-12


@pytest.mark.parametrize("seed, dim", [(20, 16), (194, 4), (212, 16), (2022, 16)])
def test_audit_passes_on_near_mirror_seeds(seed, dim):
    from obsalg.audit import run_audit

    assert run_audit([dim], seed)["all_pass"]


def test_round_trip_at_dimension_512_is_near_roundoff():
    rng = np.random.default_rng([0, 512])  # the generatrix suite's stream at d=512
    for _ in range(3):
        g = random_hermitian_with_spectrum(rng, 512, -math.pi + 1e-3, math.pi - 1e-3)
    assert from_unitary(unitary_exponential(g)).generatrix.distance(g) <= 1e-11


def test_phases_cluster_by_angle_not_by_the_cayley_radius():
    # every phase in [-2.9, 2.9], so the rotation is the identity and the
    # Cayley radius is tan(1.45) ~ 8: a clustering gap scaled by that radius
    # would merge the pair 3e-9 apart, which the angular rule keeps distinct
    phases = np.concatenate([[0.0, 3e-9, 1.0, 1.0 + 1e-12], np.linspace(-2.9, 2.9, 60)])
    u = random_unitary(np.random.default_rng(64), 64).entries
    labels = np.array(from_unitary(PseudoObservable((u * np.exp(1j * phases))
                                                    @ u.conj().T)).basis.labels)
    split = np.unique(labels[np.abs(labels) < 1e-6])
    assert len(split) == 2 and split[1] - split[0] == pytest.approx(3e-9, abs=1e-12)
    merged = labels[np.abs(labels - 1.0) < 1e-6]
    assert len(merged) == 2 and merged[0] == merged[1]
    assert merged[0] == pytest.approx(1.0 + 5e-13, abs=1e-12)


# --- small generators and certificate counts -----------------------------------------------------

@pytest.mark.parametrize("s, bound", [(1e-10, 1e-4), (1e-12, 1e-2)])
def test_unitary_exponential_of_a_small_generator_keeps_its_spectrum(rng, s, bound):
    # eigenvalues 1e-10 apart stay distinct: clustering is relative to the radius
    h = random_hermitian(rng, 4)
    u = unitary_exponential(s * h).entries
    assert opnorm((u - np.eye(4)) / s - 1j * h.entries) <= bound * max(1.0, h.norm())


def test_from_unitary_runs_two_gram_certificates(rng, monkeypatch):
    from obsalg import core

    real = core._check_orthonormal
    calls = []

    def counted(frame, *args):
        calls.append(frame.shape)
        return real(frame, *args)

    monkeypatch.setattr(core, "_check_orthonormal", counted)
    monkeypatch.setattr(transforms, "_check_orthonormal", counted)
    w = random_unitary(rng, 16)
    from_unitary(w)
    assert len(calls) == 2  # W once, before the Cayley solve, and the eigenframe once
    with pytest.raises(AlgebraError, match="^not unitary"):
        from_unitary(2.0 * w)
