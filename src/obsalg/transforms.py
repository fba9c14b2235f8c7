"""Transformations as unitary conjugations, with generatrix extraction.

A transformation acts as tau(P) = W P W^dagger for a unitary W = e^{iG}.
The Hermitian generatrix G is canonicalized to the principal branch: every
eigenvalue in (-pi, pi], an eigenvalue at exactly -pi folds to +pi.

Extraction path: one Cayley transform (Higham, *Functions of Matrices*,
2008).  W is rotated by a phase e^{-i phi} that puts -1 in a spectral gap,
so C = i(1 - W')(1 + W')^{-1} is Hermitian with eigenvalues tan(theta'/2);
one ``eigh`` of C gives the eigenvectors and the rotated phases
2 atan(x), ascending in (-pi, pi).  No phase lies near -1 in that frame,
so phases are clustered by angular distance with no seam at +/-pi.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    GROUPING_TOL,
    TOL_RECON,
    AlgebraError,
    DyadBasis,
    Observable,
    ProjectorBasis,
    PseudoObservable,
    _check_orthonormal,
    _check_same_dim,
    _clusters,
    _conjugate,
    _frozen,
    _spectral_apply,
    _spectral_frame,
    as_observable,
    commutator,
    inner_product,
    opnorm,
    spectral_decompose,
    trace,
)
from .report import CheckReport


def unitary_defect(w: PseudoObservable) -> float:
    """||W^dagger W - 1||, zero for unitaries; the spectral norm, for reports.

    Gates judge the same residual in the Frobenius norm instead (see
    ``Transformation``).
    """
    return opnorm(w.entries.conj().T @ w.entries - np.eye(w.dim))


def unitary_exponential(g: PseudoObservable) -> PseudoObservable:
    """e^{iG} = cos(G) + i sin(G), evaluated by spectral calculus.

    One pass of the spectral kernel, then ``V diag(e^{i g_j}) V^dagger``.
    The result is always a plain element: no Hermiticity probe is spent on
    a unitary.  An Observable argument is not validated again.
    """
    frame, means, mults = _spectral_frame(g)
    return PseudoObservable(_spectral_apply(frame, np.exp(1j * means), mults))


def _fold_phase(theta: float) -> float:
    """Fold into the principal branch (-pi, pi]."""
    folded = math.remainder(theta, 2 * math.pi)  # in [-pi, pi]
    return math.pi if folded <= -math.pi else folded


def _cayley_eigen(e: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Principal-branch phases, one per column, and the eigenvector frame of a unitary.

    The phases lie among the 2d points +/-arccos(eig(Re W)), whose widest
    circular gap (at least pi/d) holds none.  With its midpoint rotated onto
    -1, the phases of W' = e^{-i phi} W stay pi/(2d) from -1, so
    ``||(1 + W')^{-1}|| <= 1/(2 sin(pi/(4d)))``, and the Cayley transform
    C = i(1 - W')(1 + W')^{-1} has eigenvalues x = tan(theta'/2).  Its
    angles 2 atan(x) ascend in (-pi, pi) and are clustered within
    ``GROUPING_TOL``.  ``eigh`` is called directly: the kernel's clustering
    scales with C's radius, up to about 4d/pi, and would merge distinct phases.
    """
    d = e.shape[0]
    arcs = np.arccos(np.clip(np.linalg.eigvalsh(e + e.conj().T) / 2, -1.0, 1.0))
    points = np.sort(np.concatenate([-arcs, arcs]))
    gaps = np.diff(points, append=points[0] + 2 * math.pi)
    j = int(np.argmax(gaps))
    phi = float(points[j] + gaps[j] / 2 + math.pi)
    diagonal = np.diag_indices(d)
    plus = e * np.exp(-1j * phi)  # W', then 1 + W' in place: each d x d copy adds to peak memory
    minus = -plus
    plus[diagonal] += 1
    minus[diagonal] += 1
    x = np.linalg.solve(plus, minus)  # (1 - W')(1 + W')^{-1}: the factors commute
    del plus, minus
    x -= x.conj().T
    x *= 0.5j  # the Hermitian part of C = iX
    tangents, frame = np.linalg.eigh(x)
    means, mults = _clusters(2 * np.arctan(tangents), GROUPING_TOL)
    labels = [_fold_phase(phi + mean) for mean in means]
    return np.repeat(labels, mults).tolist(), _frozen(frame)


class Transformation:
    """Ring automorphism of the algebra, induced by a unitary W = e^{iG}.

    Held as W and ``basis``, the eigenbasis of G = sum_j g_j I_j labelled by
    g_j in (-pi, pi].  Certifying ||sum_j e^{i g_j} I_j - W|| here, with the
    basis's own Gram certificate, bounds ||e^{iG} - W|| with no eigensolver.
    Both gates here, ``||W^dagger W - 1||_F <= TOL_RECON`` and
    ``||sum_j e^{i g_j} I_j - W||_F <= TOL_RECON``, are Frobenius: at most
    sqrt(d) stricter than their spectral-norm versions, and a NaN fails them.
    """

    __slots__ = ("w", "basis")

    def __init__(self, w: PseudoObservable, basis: ProjectorBasis):
        _check_orthonormal(w.entries, "inducing element is not unitary")
        self._hold(w, basis)

    def _hold(self, w: PseudoObservable, basis: ProjectorBasis) -> None:
        """Gate the basis against W and store both; W's unitarity is gated by the caller."""
        _check_same_dim(w, basis)
        if basis.labels is None or not all(-math.pi < g <= math.pi for g in basis.labels):
            raise AlgebraError("generatrix spectrum must lie in (-pi, pi]")
        recon = float(np.linalg.norm(
            basis.combine(np.exp(1j * np.array(basis.labels))) - w.entries))
        if not recon <= TOL_RECON:
            raise AlgebraError(f"e^(iG) does not reproduce W: Frobenius residual {recon:.3e}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Transformation is immutable")

    @property
    def dim(self) -> int:
        return self.w.dim

    @property
    def generatrix(self) -> Observable:
        """G = sum_j g_j I_j, built from the basis on each read."""
        return Observable._trusted(self.basis.combine(self.basis.labels))

    @classmethod
    def identity(cls, dim: int) -> "Transformation":
        return cls(PseudoObservable.identity(dim),
                   ProjectorBasis.from_frame(np.eye(dim), [dim], [0.0]))

    def __repr__(self):
        return f"Transformation(dim={self.dim})"


def from_unitary(w: PseudoObservable) -> Transformation:
    """Wrap a unitary, extracting its principal-branch generatrix.

    W is gated once, ``||W^dagger W - 1||_F <= TOL_RECON`` (Frobenius, at
    most sqrt(d) stricter than the spectral norm; a NaN fails it), before
    its phases are extracted: the Cayley ``solve`` needs a unitary W.
    """
    _check_orthonormal(w.entries, "not unitary")
    labels, frame = _cayley_eigen(w.entries)
    t = object.__new__(Transformation)  # W is gated above: no second Gram product
    t._hold(w, ProjectorBasis.from_frame(frame, [1] * w.dim, labels))
    return t


def from_generatrix(g: PseudoObservable) -> Transformation:
    """Build the transformation e^{iG} from a Hermitian generatrix.

    Spectrum outside the principal branch is folded into (-pi, pi]; the
    induced unitary is unchanged by the fold.
    """
    frame, means, mults = _spectral_frame(g)
    w = _spectral_apply(frame, np.exp(1j * means), mults)
    basis = ProjectorBasis._over_frame(frame, mults, [_fold_phase(lam) for lam in means])
    return Transformation(PseudoObservable(w), basis)


def apply(t: Transformation, p: PseudoObservable) -> PseudoObservable:
    """tau(P) = W P W^dagger; Observables stay Observables."""
    return _conjugate(t.w.entries, p)


def inverse(t: Transformation) -> Transformation:
    """tau^{-1}, induced by W^dagger = e^{-iG}: the same basis, labels negated."""
    basis = t.basis
    return Transformation(t.w.dagger(), ProjectorBasis._over_frame(
        basis.frame, basis.ranks(), [_fold_phase(-g) for g in basis.labels]))


def compose(t1: Transformation, t2: Transformation) -> Transformation:
    """Apply t2 first, then t1: the transformation induced by W1 W2."""
    return from_unitary(t1.w @ t2.w)


def transform_basis(t: Transformation, basis):
    """Transport a projector or dyad basis: I_j -> W I_j W^dagger.

    A projector basis moves as its frame, W V with the same blocks and labels,
    under the Gram certificate of :meth:`ProjectorBasis.from_frame`; no
    projector is built.  A dyad basis moves its base the same way and keeps
    its phases, since W p_jk b_j b_k^dagger W^dagger = p_jk (W b_j)(W b_k)^dagger:
    one W V product, and no dyad is built.
    """
    if isinstance(basis, ProjectorBasis):
        return ProjectorBasis.from_frame(t.w.entries @ basis.frame, basis.ranks(),
                                         basis.labels)
    if isinstance(basis, DyadBasis):
        return DyadBasis(transform_basis(t, basis.base), basis.phases)
    raise AlgebraError(f"cannot transform {type(basis).__name__}")


def is_invariant(t: Transformation, a: Observable) -> bool:
    """||tau(A) - A|| <= TOL_RECON * ||A||."""
    return apply(t, a).distance(a) <= TOL_RECON * a.norm()


def invariance_characterization(t: Transformation, a: Observable,
                                tol: float = TOL_RECON) -> CheckReport:
    """Evaluate both sides of: invariant under tau  iff  compatible with G.

    Passes when the two criteria agree (both true or both false).
    """
    a = as_observable(a)
    g = t.generatrix
    transform_residual = apply(t, a).distance(a)
    commutator_residual = opnorm(commutator(a, g).entries)
    invariant = transform_residual <= tol * a.norm()
    compatible = commutator_residual <= tol * a.norm() * g.norm()
    return CheckReport(
        name="invariance_biconditional",
        passed=invariant == compatible,
        residuals={
            "transform_residual": transform_residual,
            "commutator_residual": commutator_residual,
        },
        details={"invariant": invariant, "compatible_with_generatrix": compatible},
    )


def spectrum_preservation_check(t: Transformation, a: Observable) -> CheckReport:
    """tau(A) has the spectrum of A, same multiplicities, transported projectors.

    Projectors are compared by frame: ||W P_j W^dagger - Q_j|| equals
    ||W B_j - B'_j (B'_j^dagger W B_j)||, the sine of the largest principal
    angle (Davis-Kahan).  The residual is inf when the multiplicities differ.
    """
    a = as_observable(a)
    before = spectral_decompose(a)
    after = spectral_decompose(apply(t, a))
    scale = max(1.0, a.norm())
    if len(before.eigenvalues) != len(after.eigenvalues):
        return CheckReport(
            name="spectrum_preservation", passed=False,
            residuals={"spectrum_residual": float("inf")},
            details={"len_before": len(before.eigenvalues),
                     "len_after": len(after.eigenvalues)})
    spectrum_residual = float(np.max(np.abs(
        np.array(before.eigenvalues) - np.array(after.eigenvalues))))
    projector_residual = float("inf")
    if before.multiplicities == after.multiplicities:
        cuts = np.cumsum(before.multiplicities)[:-1]
        moved = np.split(t.w.entries @ before.basis.frame, cuts, axis=1)
        target = np.split(after.basis.frame, cuts, axis=1)
        projector_residual = max(opnorm(wb - b @ (b.conj().T @ wb))
                                 for wb, b in zip(moved, target))
    passed = (spectrum_residual <= GROUPING_TOL * scale
              and projector_residual <= TOL_RECON)
    return CheckReport(
        name="spectrum_preservation",
        passed=passed,
        residuals={"spectrum_residual": spectrum_residual,
                   "projector_residual": projector_residual},
        details={"multiplicities_before": before.multiplicities,
                 "multiplicities_after": after.multiplicities},
    )


def trace_invariance_check(t: Transformation, p: PseudoObservable) -> CheckReport:
    tr_before = trace(p)
    tr_after = trace(apply(t, p))
    residual = abs(tr_after - tr_before)
    return CheckReport(
        name="trace_invariance",
        passed=residual <= 1e-10 * (1.0 + abs(tr_before)),
        residuals={"trace_residual": residual},
    )


def inner_product_invariance_check(t: Transformation, x: PseudoObservable,
                                   y: PseudoObservable) -> CheckReport:
    before = inner_product(x, y)
    after = inner_product(apply(t, x), apply(t, y))
    residual = abs(after - before)
    return CheckReport(
        name="inner_product_invariance",
        passed=residual <= 1e-10 * (1.0 + abs(before)),
        residuals={"inner_product_residual": residual},
    )
