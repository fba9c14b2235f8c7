import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsalg.core import (
    AlgebraError,
    DimensionMismatch,
    Observable,
    ProjectorBasis,
    PseudoObservable,
    apply_function,
    as_observable,
    commutator,
    dagger,
    dyad_basis_from,
    imag_part,
    inner_product,
    is_compatible,
    opnorm,
    real_part,
    spectral_decompose,
    trace,
)
from obsalg.rand import random_hermitian, random_matrix, random_unitary


def complex_matrices(dim=3):
    elems = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
    return st.lists(
        st.lists(st.tuples(elems, elems), min_size=dim, max_size=dim),
        min_size=dim, max_size=dim,
    ).map(lambda rows: np.array([[re + 1j * im for re, im in row] for row in rows]))


# --- dagger ---------------------------------------------------------------

def test_dagger_identity():
    one = PseudoObservable.identity(3)
    assert dagger(one).distance(one) == 0.0


def test_dagger_scalar_conjugation():
    p = 1j * PseudoObservable.identity(3)
    assert dagger(p).distance(-1j * PseudoObservable.identity(3)) == 0.0


def test_dagger_matches_elementwise_oracle(rng):
    m = random_matrix(rng, 3)
    d = dagger(m).entries
    for a in range(3):
        for b in range(3):
            assert d[a, b] == complex(m.entries[b, a]).conjugate()


def test_dagger_involution_exact(rng):
    m = random_matrix(rng, 5)
    assert dagger(dagger(m)).distance(m) == 0.0


@settings(max_examples=40, deadline=None)
@given(complex_matrices(), complex_matrices())
def test_product_dagger_antihomomorphism(a_e, b_e):
    a, b = PseudoObservable(a_e), PseudoObservable(b_e)
    lhs = dagger(a @ b)
    rhs = dagger(b) @ dagger(a)
    assert lhs.distance(rhs) <= 1e-12 * max(1.0, a.norm() * b.norm())


# --- real/imaginary parts -------------------------------------------------

def test_parts_of_identity():
    one = PseudoObservable.identity(4)
    assert real_part(one).distance(one) == 0.0
    assert opnorm(imag_part(one).entries) == 0.0


def test_unitary_parts_commute(rng):
    w = random_unitary(rng, 5)
    c = commutator(real_part(w), imag_part(w))
    assert opnorm(c.entries) < 1e-12


def test_reassembly_random(rng):
    p = random_matrix(rng, 4)
    rebuilt = real_part(p) + 1j * imag_part(p)
    assert rebuilt.distance(p) < 1e-12 * p.norm()


# --- trace / inner product ------------------------------------------------

def test_trace_identity_is_dim():
    for d in (2, 5, 17):
        assert trace(PseudoObservable.identity(d)) == pytest.approx(d)


def test_inner_product_zero():
    z = PseudoObservable.zeros(3)
    assert inner_product(z, z) == 0.0


def test_inner_product_matches_entrywise_oracle(rng):
    x, y = random_matrix(rng, 3), random_matrix(rng, 3)
    acc = 0.0 + 0.0j
    for a in range(3):
        for b in range(3):
            acc += complex(x.entries[a, b]).conjugate() * complex(y.entries[a, b])
    assert inner_product(x, y) == pytest.approx(acc, abs=1e-12)


def test_inner_product_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        inner_product(random_matrix(rng, 3), random_matrix(rng, 4))


@settings(max_examples=40, deadline=None)
@given(complex_matrices(), complex_matrices())
def test_trace_cyclicity(a_e, b_e):
    a, b = PseudoObservable(a_e), PseudoObservable(b_e)
    scale = max(1.0, a.norm() * b.norm())
    assert abs(trace(a @ b) - trace(b @ a)) <= 1e-12 * scale


# --- spectral decomposition -----------------------------------------------

def test_spectral_diagonal_case():
    a = Observable(np.diag([-2.0, -1.0, 0.0, 1.0]))
    dec = spectral_decompose(a)
    assert dec.eigenvalues == (-2.0, -1.0, 0.0, 1.0)
    assert dec.multiplicities == (1, 1, 1, 1)
    for j, p in enumerate(dec.basis):
        unit = np.zeros((4, 4))
        unit[j, j] = 1.0
        assert opnorm(p.entries - unit) < 1e-12


def test_spectral_symmetry_forced_2x2():
    sigma = Observable(np.array([[0.0, 1.0], [1.0, 0.0]]))
    dec = spectral_decompose(sigma)
    assert dec.eigenvalues == pytest.approx((-1.0, 1.0))
    minus = (np.eye(2) - sigma.entries) / 2
    plus = (np.eye(2) + sigma.entries) / 2
    assert opnorm(dec.basis[0].entries - minus) < 1e-12
    assert opnorm(dec.basis[1].entries - plus) < 1e-12


def test_spectral_planted_double_eigenvalue(rng):
    u = random_unitary(rng, 6).entries
    vals = np.array([-3.0, -1.5, 0.25, 0.25, 1.0, 2.0])
    planted = Observable((u * vals) @ u.conj().T)
    dec = spectral_decompose(planted)
    assert dec.multiplicities == (1, 1, 2, 1, 1)
    assert dec.eigenvalues == pytest.approx((-3.0, -1.5, 0.25, 1.0, 2.0))
    assert dec.reconstruct().distance(planted) < 1e-10
    # projector of the double eigenvalue equals the planted cluster projector
    cluster = u[:, 2:4] @ u[:, 2:4].conj().T
    assert opnorm(dec.basis[2].entries - cluster) < 1e-10


def test_spectral_rejects_non_hermitian(rng):
    with pytest.raises(AlgebraError):
        spectral_decompose(random_matrix(rng, 4))


# --- functions of observables ----------------------------------------------

def test_apply_identity_map(rng):
    a = random_hermitian(rng, 5)
    assert apply_function(lambda x: x, a).distance(a) < 1e-12 * max(1.0, a.norm())


def test_apply_phase_on_diagonal():
    a = Observable(np.diag([0.3, 1.2]))
    u = apply_function(lambda x: cmath.exp(1j * x), a)
    expected = np.diag([cmath.exp(0.3j), cmath.exp(1.2j)])
    assert opnorm(u.entries - expected) < 1e-12


def test_euler_formula_reassembles_phase(rng):
    g = random_hermitian(rng, 4)
    cos_g = apply_function(np.cos, g)
    sin_g = apply_function(np.sin, g)
    euler = cos_g + 1j * sin_g
    direct = apply_function(lambda x: cmath.exp(1j * x), g)
    assert euler.distance(direct) < 1e-12


def test_apply_function_commutes_with_argument(rng):
    a = random_hermitian(rng, 5)
    f_a = apply_function(lambda x: x ** 3 - 2 * x, a)
    assert opnorm(commutator(f_a, a).entries) < 1e-10 * max(1.0, a.norm() ** 4)


def test_apply_tabulated_pairs():
    a = Observable(np.diag([0.0, 1.0]))
    out = apply_function({0.0: 5.0, 1.0: -2.0}, a)
    assert opnorm(out.entries - np.diag([5.0, -2.0])) < 1e-12


def test_apply_tabulated_missing_point():
    a = Observable(np.diag([0.0, 1.0]))
    with pytest.raises(AlgebraError, match="undefined at spectrum point"):
        apply_function({0.0: 5.0}, a)


def test_tabulated_keys_match_relative_to_the_spectral_radius():
    # keys are told apart like the eigenvalues they label, as the callable form is
    a = Observable(np.diag([1e-12, 2e-12]))
    out = apply_function({1e-12: 5.0, 2e-12: 7.0}, a)
    assert np.diag(out.entries).tolist() == [5.0, 7.0]
    assert apply_function({0.0: 3.0}, Observable.zeros(2)).distance(
        3.0 * PseudoObservable.identity(2)) == 0.0


def test_function_composition(rng):
    a = random_hermitian(rng, 4)
    f = lambda x: x ** 2 + 1.0
    g = np.tanh
    inner = apply_function(g, apply_function(f, a))
    outer = apply_function(lambda x: g(f(x)), a)
    assert inner.distance(outer) < 1e-10


def _split_cluster_observable(rng):
    """Hermitian matrix whose middle eigenvalue pair is split by 3e-10."""
    u = random_unitary(rng, 5).entries
    vals = np.array([-1.0, 0.5, 0.5 + 3e-10, 1.25, 2.0])
    return Observable((u * vals) @ u.conj().T), u


@pytest.mark.parametrize("tabulated", [False, True])
def test_apply_function_matches_projector_sum_on_split_cluster(rng, tabulated):
    a, u = _split_cluster_observable(rng)
    dec = spectral_decompose(a)
    assert dec.multiplicities == (1, 2, 1, 1)
    cluster = u[:, 1:3] @ u[:, 1:3].conj().T
    assert opnorm(dec.basis[1].entries - cluster) < 1e-10
    if tabulated:
        f = {-1.0: 3.0, 0.5: -2.0 + 0.5j, 1.25: 0.75, 2.0: 0.25}
        values = [f[min(f, key=lambda x: abs(x - lam))] for lam in dec.eigenvalues]
    else:
        f = lambda x: cmath.exp(1j * x) + x ** 3
        values = [f(lam) for lam in dec.eigenvalues]
    expected = sum(v * p.entries for v, p in zip(values, list(dec.basis)))
    assert opnorm(apply_function(f, a).entries - expected) < 1e-12


def test_spectral_basis_element_is_dense_block_projector(rng):
    a, _ = _split_cluster_observable(rng)
    dec = spectral_decompose(a)
    _, v = np.linalg.eigh(a.entries)
    start = 0
    for j, size in enumerate(dec.multiplicities):
        block = v[:, start:start + size]
        proj = dec.basis[j]
        assert isinstance(proj, Observable)
        assert opnorm(proj.entries - block @ block.conj().T) < 1e-12
        start += size
    assert len(list(dec.basis)) == len(dec.multiplicities)


def test_frame_basis_metadata_builds_no_projector(rng, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a projector was materialized")

    u = random_unitary(rng, 6).entries
    basis = ProjectorBasis.from_frame(u, [1, 2, 1, 1, 1])
    monkeypatch.setattr(ProjectorBasis, "__getitem__", forbidden)
    monkeypatch.setattr(ProjectorBasis, "__iter__", forbidden)
    assert len(basis) == 5
    assert basis.dim == 6
    assert basis.ranks() == (1, 2, 1, 1, 1)
    assert not basis.is_elementary()
    assert ProjectorBasis.from_frame(u, [1] * 6).is_elementary()
    assert not hasattr(basis, "projectors")


# --- commutators ------------------------------------------------------------

def test_commutator_self_is_zero(rng):
    a = random_hermitian(rng, 4)
    assert opnorm(commutator(a, a).entries) < 1e-13 * a.norm() ** 2
    assert is_compatible(a, a)


def test_commutator_diagonal_pair():
    a = Observable(np.diag([1.0, 2.0, 3.0]))
    b = Observable(np.diag([-1.0, 0.5, 9.0]))
    assert opnorm(commutator(a, b).entries) == 0.0
    assert is_compatible(a, b)


def test_is_compatible_detects_noncommuting():
    sx = Observable(np.array([[0.0, 1.0], [1.0, 0.0]]))
    sz = Observable(np.diag([1.0, -1.0]))
    assert not is_compatible(sx, sz)


# --- projector bases --------------------------------------------------------

def test_projector_basis_validation_rejects_incomplete():
    p0 = Observable(np.diag([1.0, 0.0]))
    with pytest.raises(AlgebraError, match="close to identity"):
        ProjectorBasis([p0])


def test_projector_basis_rejects_non_idempotent():
    with pytest.raises(AlgebraError, match="idempotent"):
        ProjectorBasis([Observable(np.diag([0.5, 0.0])),
                        Observable(np.diag([0.5, 1.0]))])


@pytest.mark.parametrize("projectors, error, match", [
    ([np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, -1.0], [0.0, 1.0]])],
     AlgebraError, "not Hermitian"),
    ([np.diag([0.5, 0.0]), np.diag([0.5, 1.0])], AlgebraError, "idempotent"),
    ([np.diag([1.0, 0.0])], AlgebraError, "close to identity"),
    ([np.diag([1.0, 0.0]), np.full((2, 2), 0.5)], AlgebraError, "close to identity"),
    ([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(3)], DimensionMismatch, "mixed"),
    ([np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
     AlgebraError, "zero projector"),
], ids=["non_hermitian", "non_idempotent", "incomplete", "overlapping",
        "mixed_dims", "zero_projector"])
def test_projector_basis_constructor_contract(projectors, error, match):
    with pytest.raises(error, match=match):
        ProjectorBasis(projectors)


def test_zero_block_rejected_by_from_frame():
    with pytest.raises(AlgebraError, match="zero projector"):
        ProjectorBasis.from_frame(np.eye(2), [0, 2])


def test_explicit_basis_is_frame_backed(rng):
    u = random_unitary(rng, 6).entries
    projs = [Observable(u[:, :2] @ u[:, :2].conj().T, unit_tag="m")]
    projs += [Observable(np.outer(u[:, j], u[:, j].conj())) for j in range(2, 6)]
    basis = ProjectorBasis(projs, labels=range(5))
    assert basis.ranks() == (2, 1, 1, 1, 1)
    assert not basis.is_elementary()
    assert basis.labels == (0.0, 1.0, 2.0, 3.0, 4.0)
    for p, q in zip(projs, basis):
        assert isinstance(q, Observable) and q.unit_tag is None
        assert opnorm(p.entries - q.entries) < 1e-12


@pytest.mark.parametrize("route", ["explicit", "from_frame", "spectral"])
def test_projector_basis_frame_is_read_only(rng, route):
    u = np.array(random_unitary(rng, 4).entries)
    if route == "explicit":
        basis = ProjectorBasis([Observable(np.outer(c, c.conj())) for c in u.T])
    elif route == "from_frame":
        basis = ProjectorBasis.from_frame(u, [1, 3])
        u[0, 0] = 7.0  # the basis holds its own copy
        assert basis.frame[0, 0] != 7.0
    else:
        basis = spectral_decompose(random_hermitian(rng, 4)).basis
    assert not basis.frame.flags.writeable
    with pytest.raises(ValueError):
        basis.frame[0, 0] = 0.0
    with pytest.raises(AttributeError):
        basis.frame = np.eye(4)


def test_from_frame_copies_a_read_only_view():
    a = np.eye(4, dtype=complex)
    v = a.view()
    v.setflags(write=False)
    basis = ProjectorBasis.from_frame(v, [1] * 4)
    a[0, 0] = 0.5  # writes through the view's base
    assert basis.frame[0, 0] == 1.0
    assert opnorm(basis[0].entries @ basis[0].entries - basis[0].entries) == 0.0


def test_transformed_coordinate_basis_validates(rng):
    u = random_unitary(rng, 5).entries
    projs = [Observable(np.outer(u[:, j], u[:, j].conj())) for j in range(5)]
    basis = ProjectorBasis(projs)
    assert basis.is_elementary()
    assert basis.ranks() == (1, 1, 1, 1, 1)


# --- dyad bases --------------------------------------------------------------

def test_dyads_matrix_units_dim2():
    basis = ProjectorBasis([Observable(np.diag([1.0, 0.0])),
                            Observable(np.diag([0.0, 1.0]))])
    dy = dyad_basis_from(basis, np.ones((2, 2), dtype=complex))
    for j in range(2):
        for k in range(2):
            unit = np.zeros((2, 2))
            unit[j, k] = 1.0
            assert opnorm(dy[j, k].entries - unit) < 1e-12


def test_dyads_diagonal_equal_base_projectors(rng):
    u = random_unitary(rng, 3).entries
    projs = [Observable(np.outer(u[:, j], u[:, j].conj())) for j in range(3)]
    basis = ProjectorBasis(projs)
    v = u.sum(axis=1)
    core = np.outer(v, v.conj())
    dy = dyad_basis_from(basis, core)
    for j in range(3):
        assert dy[j, j].distance(basis[j]) < 1e-10


def test_dyads_product_identities_rotated_dim3(rng):
    u = random_unitary(rng, 3).entries
    projs = [Observable(np.outer(u[:, j], u[:, j].conj())) for j in range(3)]
    basis = ProjectorBasis(projs)
    v = u.sum(axis=1)
    dy = dyad_basis_from(basis, np.outer(v, v.conj()))
    # direct multiplication oracle over all index quadruples
    for j in range(3):
        for l in range(3):
            for lp in range(3):
                for k in range(3):
                    prod = dy[j, l].entries @ dy[lp, k].entries
                    target = dy[j, k].entries if l == lp else np.zeros((3, 3))
                    assert opnorm(prod - target) < 1e-10


def test_dyads_reject_annihilated_core():
    basis = ProjectorBasis([Observable(np.diag([1.0, 0.0])),
                            Observable(np.diag([0.0, 1.0]))])
    with pytest.raises(AlgebraError, match="annihilated"):
        dyad_basis_from(basis, np.diag([1.0, 1.0]).astype(complex))


def test_dyads_reject_a_diagonal_phase_other_than_one():
    basis = ProjectorBasis.from_frame(np.eye(2), [1, 1])
    core = np.array([[-1.0, 1.0], [1.0, 1.0]], dtype=complex)  # Gamma_00 = -I_0
    with pytest.raises(AlgebraError, match=r"Gamma\[0\]\[0\] differs from base projector"):
        dyad_basis_from(basis, core)


def test_dyads_reject_an_indexed_family_that_breaks_the_pairing():
    basis = ProjectorBasis.from_frame(np.eye(2), [1, 1])
    ones = np.ones((2, 2), dtype=complex)
    cores = {(0, 0): ones, (0, 1): ones, (1, 0): -ones, (1, 1): ones}
    with pytest.raises(AlgebraError, match=r"Gamma\[0\]\[1\]\^dagger != Gamma\[1\]\[0\]"):
        dyad_basis_from(basis, cores)


def test_dyads_reject_a_family_that_breaks_the_chain_rule(rng):
    u = random_unitary(rng, 3).entries
    basis = ProjectorBasis.from_frame(u, [1, 1, 1])
    # Hermitian with a unit diagonal, but Gamma_01 Gamma_12 = -Gamma_02
    signs = np.array([[1, 1, 1], [1, 1, -1], [1, -1, 1]])
    cores = [[signs[j, k] * np.outer(u[:, j], u[:, k].conj()) for k in range(3)]
             for j in range(3)]
    with pytest.raises(AlgebraError,
                       match=r"Gamma\[0\]\[1\] Gamma\[1\]\[2\] != Gamma\[0\]\[2\]"):
        dyad_basis_from(basis, cores)


def test_dyads_reject_a_non_elementary_base():
    basis = ProjectorBasis.from_frame(np.eye(3), [1, 2])
    with pytest.raises(AlgebraError, match="elementary"):
        dyad_basis_from(basis, np.ones((3, 3), dtype=complex))


def test_dyads_from_indexed_families_match_the_shared_core(rng):
    u = random_unitary(rng, 4).entries
    basis = ProjectorBasis.from_frame(u, [1] * 4)
    v = u @ np.exp(1j * rng.uniform(-np.pi, np.pi, size=4))
    core = np.outer(v, v.conj())
    weights = rng.uniform(0.5, 2.0, size=(4, 4))  # positive, so the phases are v's
    shared = dyad_basis_from(basis, core)
    mapping = dyad_basis_from(basis, {(j, k): PseudoObservable(weights[j, k] * core)
                                      for j in range(4) for k in range(4)})
    nested = dyad_basis_from(basis, [[weights[j, k] * core for k in range(4)]
                                     for j in range(4)])
    for dy in (mapping, nested):
        for j in range(4):
            for k in range(4):
                assert opnorm(dy[j, k].entries - shared[j, k].entries) < 1e-12


# --- misc type behaviour ------------------------------------------------------

def test_observable_rejects_non_hermitian(rng):
    with pytest.raises(AlgebraError, match="not Hermitian"):
        Observable(random_matrix(rng, 3).entries)


def test_as_observable_passthrough(rng):
    h = random_hermitian(rng, 3)
    assert as_observable(h) is h


def test_values_are_immutable(rng):
    p = random_matrix(rng, 3)
    with pytest.raises(AttributeError):
        p.entries = np.zeros((3, 3))
    with pytest.raises(ValueError):
        p.entries[0, 0] = 1.0


def test_dimension_floor():
    with pytest.raises(AlgebraError, match="at least 2"):
        PseudoObservable(np.ones((1, 1)))


# --- non-finite inputs and Frobenius gates ---------------------------------------------

@pytest.mark.parametrize("entries", [np.full((2, 2), np.nan),
                                     [[np.inf, 0], [0, 1]],
                                     [[1, np.nan], [np.nan, 1]]])
def test_observable_rejects_non_finite_entries(entries):
    with np.errstate(invalid="ignore"), pytest.raises(AlgebraError, match="not finite"):
        Observable(entries)


def test_real_multiple_stays_observable_without_a_recheck(rng, monkeypatch):
    from obsalg import core

    a = Observable(random_hermitian(rng, 4).entries, unit_tag="J")
    monkeypatch.setattr(core, "hermiticity_defect", lambda e: pytest.fail("re-checked"))
    for scaled in (0.25 * a, a * -3, a * np.float64(2.0), a * complex(1.5)):
        assert type(scaled) is Observable and scaled.unit_tag == "J"
        assert np.array_equal(scaled.entries, scaled.entries.conj().T)
    assert type(a * 1j) is PseudoObservable


def test_real_multiple_that_overflows_is_rejected():
    a = Observable(np.diag([1e300, 1.0]))
    with pytest.raises(AlgebraError, match="not finite"):
        1e10 * a
    with pytest.raises(AlgebraError, match="not finite"):
        a * float("nan")


def test_from_frame_rejects_a_nan_column(rng):
    frame = np.array(random_unitary(rng, 4).entries)
    frame[:, 2] = np.nan
    with pytest.raises(AlgebraError, match="not orthonormal"):
        ProjectorBasis.from_frame(frame, [1] * 4)


def test_spectral_kernel_rejects_an_overflowing_spectrum():
    big = Observable(np.full((2, 2), 1e308))  # eigenvalue 2e308 overflows
    with pytest.raises(AlgebraError, match="spectrum is not finite"):
        spectral_decompose(big)


def test_opnorm_is_the_numpy_two_norm(rng):
    for dim in (2, 5, 16):
        m = random_matrix(rng, dim).entries
        assert opnorm(m) == float(np.linalg.norm(m, 2))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_norm_of_a_non_finite_element_is_an_algebra_error(value):
    p = PseudoObservable([[value, 0], [0, 1]])
    base = ProjectorBasis.from_frame(np.eye(2), [1, 1])
    with np.errstate(invalid="ignore"):
        for call in (p.norm, lambda: p.distance(PseudoObservable.identity(2)),
                     lambda: dyad_basis_from(base, p)):
            with pytest.raises(AlgebraError, match="no spectral norm"):
                call()
    assert opnorm(np.full((2, 2), 1e308)) == np.inf  # finite entries, norm overflows


def test_projector_basis_rejects_a_nan_projector_that_is_not_first():
    with pytest.raises(AlgebraError, match="not Hermitian: defect nan"):
        ProjectorBasis([Observable(np.diag([1.0, 0.0])),
                        PseudoObservable([[0, 0], [0, np.nan]])])


def test_gram_gate_rejects_every_frame_over_the_spectral_bound():
    """||X||_F >= ||X||_2: the Frobenius gate rejects whatever the spectral one did."""
    from obsalg.core import TOL_RECON

    rng = np.random.default_rng(31)
    rejected = accepted = 0
    for _ in range(300):
        dim = int(rng.integers(2, 33))
        v = random_unitary(rng, dim).entries
        size = 10 ** rng.uniform(-11.5, -8)
        if rng.random() < 0.5:  # rank one: the two norms nearly agree
            x, y = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
            step = np.outer(x / np.linalg.norm(x), y.conj() / np.linalg.norm(y))
        else:
            step = random_matrix(rng, dim).entries
            step = step / np.linalg.norm(step, 2)
        frame = v + size * step
        spectral = opnorm(frame.conj().T @ frame - np.eye(dim))
        try:
            ProjectorBasis.from_frame(frame, [1] * dim)
        except AlgebraError:
            rejected += 1
            continue
        accepted += 1
        assert spectral <= TOL_RECON
    assert rejected > 50 and accepted > 50


def test_reconstruction_gate_does_not_overflow_at_a_huge_radius(rng):
    """The Frobenius residual of a radius-1e200 operator squares past the float range
    unless it is scaled first; the spectral gate it replaces passed here."""
    a = Observable(1e200 * random_hermitian(rng, 6).entries)
    with np.errstate(over="raise"):
        dec = spectral_decompose(a)
    assert len(dec.eigenvalues) == 6
