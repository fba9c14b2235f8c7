"""Value types and primitive operations of the pseudo-observable algebra.

Elements are dense complex square matrices.  Observables are the Hermitian
elements; projector bases carry spectral decompositions; functions of
observables are evaluated by spectral calculus.  Every type is an immutable
value and every operation a pure function, so unrestricted concurrent use is
safe.

All spectral calculus runs through one kernel, ``_spectral_frame``: one
``eigh`` per operator, certified once, returning the eigenvector frame, each
column's cluster mean and the columns that start a cluster.  A function of
the operator is then ``(V * f(column means)) @ V^dagger``, with f evaluated
once per cluster, and spectral decompositions keep the frame rather than one
dense projector per eigenvalue, so memory stays O(d^2).  The kernel and its
gates take a stack of operators along a leading axis, as time steps do, and
a single operator is the stack of one: ``eigh`` still runs once per matrix,
and every matrix keeps its own certificates.

Tolerances are stated once here and reused by all other modules:

* ``TOL_HERM``   -- Hermiticity, relative to the largest entry magnitude.
* ``TOL_RECON``  -- reconstruction, closure and product residuals.
* ``GROUPING_TOL`` -- eigenvalue clustering, relative to the spectral radius.

A residual that only gates a value (construction raises unless it is within
its bound) is measured in the Frobenius norm: ``||X||_2 <= ||X||_F <=
sqrt(d) ||X||_2`` (Golub & Van Loan, *Matrix Computations*, 2.3), so a gate
on ``||X||_F`` is never looser than the same gate on the spectral norm and
is stricter by at most sqrt(d), at the cost of one pass over the entries
instead of an SVD.  These are the Gram certificate of a frame, the spectral
reconstruction residual and the unitarity and e^{iG} residuals of a
transformation.  A residual that is reported, in a check or a trace, stays
a spectral norm.  Every gate is written ``if not residual <= bound``, so a
NaN residual (from a non-finite entry) fails it.

Values are validated where they enter: a constructor certifies what the
caller hands in.  What certified parts produce is built through the trusted
constructors, ``Observable._trusted`` and ``DensityObservable._trusted``,
which check only what roundoff or overflow can still break: finiteness and,
for a density, the unit trace.  W P W^dagger of an Observable P by a
certified unitary W (``_conjugate``, the one conjugation law of
transformations and time steps) and a frame sum over real labels are
Hermitian by construction, and W^dagger D W of a density D is positive.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from typing import Callable, Mapping, Sequence, Union

import numpy as np

TOL_HERM = 1e-10
TOL_RECON = 1e-9
GROUPING_TOL = 1e-9

Scalar = Union[int, float, complex]


class AlgebraError(ValueError):
    """A precondition or invariant of the algebra is violated."""


class DimensionMismatch(AlgebraError):
    """Operands live in different dimensions."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _coerce_entries(entries) -> np.ndarray:
    arr = np.array(getattr(entries, "entries", entries), dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise AlgebraError(f"entries must form a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise AlgebraError(f"dimension must be at least 2, got {arr.shape[0]}")
    return _frozen(arr)


def opnorm(m):
    """Spectral norm; accepts raw arrays and algebra elements.

    The largest singular value, read from one LAPACK call: the value of
    ``np.linalg.norm(m, 2)`` without its dispatch, one per matrix of a stack.  A
    non-finite entry raises :class:`AlgebraError`; a finite matrix may overflow to inf.
    """
    try:
        norms = np.linalg.svd(np.asarray(getattr(m, "entries", m)), compute_uv=False)[..., 0]
    except np.linalg.LinAlgError:  # from a NaN; an inf entry gives a NaN norm
        norms = np.float64(math.nan)
    if np.isnan(norms).any():
        raise AlgebraError("no spectral norm: the SVD failed on a non-finite entry")
    return float(norms) if norms.ndim == 0 else norms


def _gate(residual, bound: float, message: Callable[[float], str]) -> None:
    """Raise ``message(value)`` unless ``residual <= bound`` (a NaN fails it).

    ``residual`` is one value or one per matrix of a stack; a stack fails at its first
    failing row, which the message names.
    """
    ok = residual <= bound
    if ok if isinstance(ok, bool) else ok.all():
        return
    residual = np.asarray(residual)
    j = int(np.argmin(np.ravel(ok)))
    text = message(float(residual.flat[j]))
    raise AlgebraError(text if residual.ndim == 0 else f"{text} (stack row {j})")


def vecnorm(x):
    """``np.linalg.norm`` of a vector, or of each row of a stack, bit for bit."""
    re, im = x.real, x.imag
    if x.ndim == 1:
        return math.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _check_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


def _merge_tags(a: str | None, b: str | None) -> str | None:
    return a if a == b else None


def _coerce_labels(labels, count: int):
    if labels is None:
        return None
    labels = tuple(float(x) for x in labels)
    if len(labels) != count:
        raise AlgebraError("labels must match projectors one to one")
    return labels


class PseudoObservable:
    """Generic element of the algebra: an immutable complex d x d matrix.

    ``+``/``-`` are elementwise, ``*`` takes a scalar, ``@`` is the algebra
    product.  ``unit_tag`` is advisory metadata only; arithmetic never blocks
    on it (sums keep a tag only when both operands carry the same one,
    products drop it).
    """

    __slots__ = ("entries", "unit_tag")

    def __init__(self, entries, unit_tag: str | None = None):
        object.__setattr__(self, "entries", _coerce_entries(entries))
        object.__setattr__(self, "unit_tag", unit_tag)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, dim: int, unit_tag: str | None = None):
        return cls(np.eye(dim, dtype=complex), unit_tag)

    @classmethod
    def _view(cls, entries: np.ndarray) -> "PseudoObservable":
        """Hold read-only certified square ``entries`` as they are: no copy, no check."""
        self = object.__new__(cls)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "unit_tag", None)
        return self

    @classmethod
    def zeros(cls, dim: int, unit_tag: str | None = None):
        return cls(np.zeros((dim, dim), dtype=complex), unit_tag)

    def dagger(self) -> "PseudoObservable":
        return PseudoObservable(self.entries.conj().T, self.unit_tag)

    def norm(self) -> float:
        return opnorm(self.entries)

    def distance(self, other: "PseudoObservable") -> float:
        _check_same_dim(self, other)
        return opnorm(self.entries - other.entries)

    def __add__(self, other):
        _check_same_dim(self, other)
        return PseudoObservable(self.entries + other.entries,
                                _merge_tags(self.unit_tag, other.unit_tag))

    def __sub__(self, other):
        _check_same_dim(self, other)
        return PseudoObservable(self.entries - other.entries,
                                _merge_tags(self.unit_tag, other.unit_tag))

    def __neg__(self):
        return PseudoObservable(-self.entries, self.unit_tag)

    def __mul__(self, scalar: Scalar):
        return PseudoObservable(self.entries * complex(scalar), self.unit_tag)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar):
        return PseudoObservable(self.entries / complex(scalar), self.unit_tag)

    def __matmul__(self, other):
        _check_same_dim(self, other)
        return PseudoObservable(self.entries @ other.entries)

    def __repr__(self):
        tag = f", unit_tag={self.unit_tag!r}" if self.unit_tag else ""
        return f"{type(self).__name__}(dim={self.dim}{tag})"


def hermiticity_defect(entries: np.ndarray):
    """max |E - E^dagger| relative to max(1, max |E|); NaN for a non-finite entry.

    One value per matrix of a stack.
    """
    arr = np.asarray(entries)
    scale = np.maximum(1.0, np.max(np.abs(arr), axis=(-2, -1), initial=0.0))
    defect = np.max(np.abs(arr - arr.conj().swapaxes(-1, -2)), axis=(-2, -1),
                    initial=0.0) / scale
    return float(defect) if defect.ndim == 0 else defect


class Observable(PseudoObservable):
    """Hermitian element; construction validates Hermiticity at ``TOL_HERM``.

    A non-finite entry fails validation.  A real multiple ``c * A`` stays an
    Observable without a re-check: ``c a_ij`` and ``c conj(a_ji)`` are
    conjugate bit for bit when ``a_ij`` and ``conj(a_ji)`` are, and their
    difference otherwise scales by ``|c|`` like the entries.  Like every
    value built through :meth:`_trusted`, only its finiteness is checked.
    """

    __slots__ = ()

    def __init__(self, entries, unit_tag: str | None = None):
        super().__init__(entries, unit_tag)
        defect = hermiticity_defect(self.entries)
        if not defect <= TOL_HERM:
            what = "entries are not finite" if np.isnan(defect) else (
                f"relative defect {defect:.3e} > {TOL_HERM:.1e}")
            raise AlgebraError(f"matrix is not Hermitian: {what}")

    @classmethod
    def _trusted(cls, entries, unit_tag: str | None = None) -> "Observable":
        """An Observable of entries Hermitian by construction; only finiteness is checked."""
        self = object.__new__(cls)
        PseudoObservable.__init__(self, entries, unit_tag)
        if not np.isfinite(self.entries).all():
            raise AlgebraError("observable entries are not finite")
        return self

    def __mul__(self, scalar: Scalar):
        c = complex(scalar)
        if c.imag != 0:
            return PseudoObservable(self.entries * c, self.unit_tag)
        with np.errstate(over="ignore", invalid="ignore"):  # reported as not finite instead
            return Observable._trusted(self.entries * c, self.unit_tag)

    __rmul__ = __mul__

    def dagger(self) -> "Observable":
        return Observable(self.entries.conj().T, self.unit_tag)


def as_observable(p: PseudoObservable) -> Observable:
    """View an algebra element as an Observable, validating Hermiticity."""
    if isinstance(p, Observable):
        return p
    return Observable(p.entries, p.unit_tag)


def _wrap_like(entries: np.ndarray, unit_tag: str | None) -> PseudoObservable:
    """Return an Observable when the result is Hermitian, else a plain element."""
    if hermiticity_defect(entries) <= TOL_HERM:
        return Observable._trusted(entries, unit_tag)
    return PseudoObservable(entries, unit_tag)


def _conjugate(w: np.ndarray, p: PseudoObservable) -> PseudoObservable:
    """W P W^dagger, of P's kind, for a certified unitary W; an Observable is not re-probed."""
    kind = Observable._trusted if isinstance(p, Observable) else PseudoObservable
    return kind(w @ p.entries @ w.conj().T, p.unit_tag)


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def dagger(p: PseudoObservable) -> PseudoObservable:
    """Hermitian transposition; an exact involution."""
    return p.dagger()


def real_part(p: PseudoObservable) -> Observable:
    """(P + P^dagger)/2, the Hermitian real part."""
    e = p.entries
    return Observable((e + e.conj().T) / 2, p.unit_tag)


def imag_part(p: PseudoObservable) -> Observable:
    """(P - P^dagger)/(2i), the Hermitian imaginary part; P = R + iI."""
    e = p.entries
    return Observable((e - e.conj().T) / 2j, p.unit_tag)


def trace(p: PseudoObservable) -> complex:
    return complex(np.trace(p.entries))


def inner_product(x: PseudoObservable, y: PseudoObservable) -> complex:
    """<X|Y> = tr(X^dagger Y); conjugate-symmetric, positive on X = Y != 0."""
    _check_same_dim(x, y)
    return complex(np.vdot(x.entries, y.entries))


def commutator(a: PseudoObservable, b: PseudoObservable) -> PseudoObservable:
    _check_same_dim(a, b)
    return PseudoObservable(a.entries @ b.entries - b.entries @ a.entries)


def is_compatible(a: PseudoObservable, b: PseudoObservable) -> bool:
    """True iff ||[A,B]|| <= TOL_RECON * ||A|| * ||B||."""
    return opnorm(commutator(a, b)) <= TOL_RECON * a.norm() * b.norm()


# ---------------------------------------------------------------------------
# projector and dyad bases
# ---------------------------------------------------------------------------

def _minus_identity(x: np.ndarray) -> np.ndarray:
    """``x - 1`` in place, per matrix of a stack: the values of ``x - np.eye(d)``.

    The diagonal is written through a strided view, for any memory layout of ``x``.
    """
    diagonal = np.einsum("...ii->...i", x)
    diagonal -= 1
    return x


def _frobenius(x: np.ndarray):
    """``np.linalg.norm`` of a matrix, or of each matrix of a stack."""
    return vecnorm(x.reshape(*x.shape[:-2], -1))


def _check_orthonormal(frame: np.ndarray,
                       failure: str = "frame is not orthonormal") -> None:
    """Gram certificate ||frame^dagger frame - 1||_F <= TOL_RECON, per matrix of a stack.

    Frobenius, so at most sqrt(d) stricter than the spectral-norm gate; a
    non-finite entry fails it.
    """
    gram = _frobenius(_minus_identity(frame.conj().swapaxes(-1, -2) @ frame))
    _gate(gram, TOL_RECON, lambda value: f"{failure}: Frobenius residual {value:.3e}")


class ProjectorBasis:
    """Complete family of mutually exclusive, nonzero orthogonal projectors.

    Stored as an orthonormal frame and its column block sizes, O(d^2) memory.
    Projector ``j`` is ``B_j B_j^dagger`` over block ``j``; indexing builds
    only that one, as an :class:`Observable`, and iteration builds
    them one at a time.  ``len``, ``ranks`` and ``is_elementary`` read the
    block sizes.  :meth:`from_frame` takes the frame directly, and ``frame``
    exposes it as a read-only array.

    ``ProjectorBasis(projectors)`` certifies each matrix Hermitian and
    idempotent and takes the eigenvectors of its eigenvalues above 1/2 as its
    block, so ``basis[j]`` equals the given projector up to those two
    residuals.  The Gram certificate of the stacked frame bounds closure and
    exclusivity, since ``||P_j P_k|| = ||B_j^dagger B_k||``.
    """

    __slots__ = ("labels", "frame", "_block_sizes")

    def __init__(self, projectors: Sequence[PseudoObservable],
                 labels: Sequence[float] | None = None):
        projs = [p if isinstance(p, PseudoObservable) else PseudoObservable(p)
                 for p in projectors]
        if not projs:
            raise AlgebraError("a projector basis needs at least one projector")
        dim = projs[0].dim
        if any(p.dim != dim for p in projs):
            raise DimensionMismatch("projectors of mixed dimensions")
        # np.max, unlike Python's max, propagates a NaN defect wherever it is
        herm = float(np.max([hermiticity_defect(p.entries) for p in projs]))
        if not herm <= TOL_HERM:
            raise AlgebraError(f"projector not Hermitian: defect {herm:.3e}")
        idems, blocks = [], []
        for p in projs:
            w, v = np.linalg.eigh(p.entries)
            idems.append(np.max(np.abs(w * w - w)))  # = ||P^2 - P||
            blocks.append(v[:, w > 0.5])
        idem = float(np.max(idems))
        if not idem <= TOL_RECON:
            raise AlgebraError(f"projector not idempotent: residual {idem:.3e}")
        sizes = [b.shape[1] for b in blocks]
        if sum(sizes) != dim:
            raise AlgebraError(
                f"projectors do not close to identity: ranks sum to {sum(sizes)}, not {dim}")
        frame = _frozen(np.hstack(blocks))
        _check_orthonormal(frame, "projectors do not close to identity "
                                  "as a mutually exclusive family")
        self._hold(frame, sizes, labels)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectorBasis is immutable")

    @classmethod
    def from_frame(cls, frame: np.ndarray, block_sizes: Sequence[int],
                   labels: Sequence[float] | None = None) -> "ProjectorBasis":
        """Projector basis over consecutive column blocks of a unitary frame.

        ``||frame^dagger frame - 1||`` bounds every basis residual (products,
        idempotence, closure), so only that one check is run, in the
        Frobenius norm (see :func:`_check_orthonormal`).  The frame is
        stored, copied unless it is read-only and owns its data (a read-only
        view could still change through its base), and no projector is built.
        """
        frame = np.asarray(frame, dtype=complex)
        if frame.flags.writeable or not frame.flags.owndata:
            frame = _frozen(frame.copy())
        d = frame.shape[0]
        if frame.shape != (d, d) or sum(block_sizes) != d:
            raise AlgebraError("frame must be square with blocks covering all columns")
        _check_orthonormal(frame)
        return cls._over_frame(frame, block_sizes, labels)

    @classmethod
    def _over_frame(cls, frame: np.ndarray, block_sizes: Sequence[int],
                    labels: Sequence[float] | None) -> "ProjectorBasis":
        """Wrap a read-only frame whose Gram certificate the caller has checked."""
        self = object.__new__(cls)
        self._hold(frame, block_sizes, labels)
        return self

    def _hold(self, frame: np.ndarray, block_sizes: Sequence[int],
              labels: Sequence[float] | None) -> None:
        """Store a certified frame and its block sizes; no block may be empty."""
        sizes = tuple(int(s) for s in block_sizes)
        if any(size < 1 for size in sizes):
            raise AlgebraError("block sizes must be positive: a basis has no zero projector")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "_block_sizes", sizes)
        object.__setattr__(self, "labels", _coerce_labels(labels, len(sizes)))

    def __len__(self) -> int:
        return len(self._block_sizes)

    def __iter__(self):
        return (self[j] for j in range(len(self)))

    def __getitem__(self, j: int) -> Observable:
        j = range(len(self._block_sizes))[operator.index(j)]
        start = sum(self._block_sizes[:j])
        block = self.frame[:, start:start + self._block_sizes[j]]
        return Observable._trusted(block @ block.conj().T)

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    def ranks(self) -> tuple[int, ...]:
        return self._block_sizes

    def is_elementary(self) -> bool:
        """All projectors rank one."""
        return all(s == 1 for s in self._block_sizes)

    def combine(self, values) -> np.ndarray:
        """The entries of sum_j v_j I_j, one value per projector; none is built."""
        return _spectral_apply(self.frame, np.repeat(np.asarray(values), self._block_sizes))


class SpectralDecomposition:
    """A = sum_j a_j I_j: a projector basis labelled by strictly increasing eigenvalues."""

    __slots__ = ("basis",)

    def __init__(self, basis: ProjectorBasis):
        eigs = basis.labels
        if eigs is None or any(b <= a for a, b in zip(eigs, eigs[1:])):
            raise AlgebraError("eigenvalues must be strictly increasing basis labels")
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralDecomposition is immutable")

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return self.basis.labels

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return self.basis.ranks()

    def reconstruct(self) -> Observable:
        return Observable._trusted(self.basis.combine(self.basis.labels))


def _spectral_apply(frame: np.ndarray, columns) -> np.ndarray:
    """(V * columns) @ V^dagger: column j of V scaled by ``columns[j]``, per matrix of a stack."""
    return (frame * columns[..., None, :]) @ frame.conj().swapaxes(-1, -2)


def _clusters(values: np.ndarray, gap) -> tuple[np.ndarray, np.ndarray]:
    """Runs of ascending ``values`` whose neighbours lie within ``gap``, per row of a stack.

    Returns each value's run mean and a mask of the values that start a run.  A run of
    one keeps its value; only the rows with a longer run are walked one by one.
    """
    starts = np.ones(values.shape, dtype=bool)
    starts[..., 1:] = values[..., 1:] - values[..., :-1] > np.asarray(gap)[..., None]
    if starts.all():
        return values, starts
    d = values.shape[-1]
    columns = values.copy()
    flat_values, flat_starts, flat_columns = (
        x.reshape(-1, d) for x in (values, starts, columns))
    for row in np.flatnonzero(~flat_starts.all(axis=1)):
        bounds = np.append(np.flatnonzero(flat_starts[row]), d)
        for a, b in zip(bounds[:-1], bounds[1:]):
            if b - a > 1:
                flat_columns[row, a:b] = np.mean(flat_values[row, a:b])
    return columns, starts


def _cluster_sizes(starts: np.ndarray) -> np.ndarray:
    """The size of each run of one row, from the mask of the values that start a run."""
    return np.diff(np.flatnonzero(starts), append=len(starts))


def _per_column(values, starts: np.ndarray) -> np.ndarray:
    """One value per run, row-major over a stack, spread over the columns of its run."""
    return np.asarray(values)[np.cumsum(starts) - 1].reshape(starts.shape)


def _eigh_rows(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of one matrix or a stack along leading axes, in one call: the
    same bits as one call per matrix, without NumPy's per-call cost for each."""
    try:
        return np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:  # LAPACK failure
        raise AlgebraError(f"eigensolver failed: {exc}") from exc


def _spectral_frame(entries: np.ndarray):
    """The spectral kernel: one validated eigendecomposition per Hermitian matrix.

    ``entries`` is one matrix or a stack of them along leading axes, certified
    Hermitian by the caller.  Returns ``(frame, columns, starts)``: the eigenvector
    frame (read-only), each eigenvalue's cluster mean and a mask of the eigenvalues
    that start a cluster, all with the stack's leading axes.  Eigenvalues within
    ``GROUPING_TOL * spectral radius`` of their neighbour share a cluster, so an
    operator of small norm keeps distinct eigenvalues apart.  Certifies, per matrix,
    a finite spectrum, the frame's Gram residual ``||V^dagger V - 1||_F <= TOL_RECON``
    and the reconstruction residual ``||sum_j a_j I_j - A||_F <= TOL_RECON * max(1,
    radius)``; both residuals are Frobenius, at most sqrt(d) stricter than
    spectral-norm gates, and the second also rejects entries that are not Hermitian
    beyond it (``eigh`` reads one triangle).  A failure in a stack names its row.
    """
    w, v = _eigh_rows(entries)
    radius = np.max(np.abs(w), axis=-1)
    _gate(radius, sys.float_info.max, lambda _: "spectrum is not finite")
    columns, starts = _clusters(w, GROUPING_TOL * radius)
    scale = np.maximum(1.0, radius)
    _check_orthonormal(v)
    # scaled before the norm, so its sum of squares cannot overflow for a large radius
    residual = _spectral_apply(v, columns)
    residual -= entries
    residual /= np.asarray(scale)[..., None, None]
    recon = _frobenius(residual)
    _gate(recon, TOL_RECON, lambda value: f"spectral reconstruction Frobenius residual "
                                          f"{value:.3e} relative to max(1, radius)")
    return _frozen(v), columns, starts


def spectral_decompose(a: PseudoObservable) -> SpectralDecomposition:
    """Eigendecompose a Hermitian element into distinct spectral terms.

    Eigenvalues within ``GROUPING_TOL * spectral radius`` of each other
    belong to one term; the projector of a multiple eigenvalue spans its whole
    eigenvector cluster.  The basis is frame-backed (see
    :class:`ProjectorBasis`), so no projector is built until it is indexed.
    """
    frame, columns, starts = _spectral_frame(as_observable(a).entries)
    return SpectralDecomposition(ProjectorBasis._over_frame(
        frame, _cluster_sizes(starts), columns[starts].tolist()))


FunctionLike = Union[Callable[[float], complex], Mapping[float, complex],
                     Sequence[tuple[float, complex]]]


def _function_values(f: FunctionLike, eigenvalues: Sequence[float],
                     tols: Sequence[float]) -> list[complex]:
    """f at each eigenvalue; a tabulated key matches within that eigenvalue's tolerance.

    A callable is evaluated with floating-point warnings off, and a value that is not
    finite (an overflow) leaves it undefined there, whatever the warning filter.
    """
    if callable(f):
        values = []
        with np.errstate(all="ignore"):
            for lam in eigenvalues:
                try:
                    value = complex(f(lam))
                except Exception as exc:
                    raise AlgebraError(
                        f"function undefined at spectrum point {lam!r}: {exc}") from exc
                if not cmath.isfinite(value):
                    raise AlgebraError(f"function undefined at spectrum point {lam!r}: "
                                       f"its value {value!r} is not finite")
                values.append(value)
        return values
    table = list(f.items()) if isinstance(f, Mapping) else [tuple(p) for p in f]
    values = []
    for lam, tol in zip(eigenvalues, tols):
        hits = [y for x, y in table if abs(float(x) - lam) <= tol]
        if not hits:
            raise AlgebraError(f"function undefined at spectrum point {lam!r}")
        values.append(complex(hits[0]))
    return values


def apply_function(f: FunctionLike, a: PseudoObservable) -> PseudoObservable:
    """f(A) = sum_j f(a_j) I_j by spectral calculus.

    One pass of the spectral kernel (one ``eigh``, certified) gives the
    frame V and the cluster means a_j; the result is
    ``(V * repeat(f(a_j), multiplicity)) @ V^dagger`` and no projector is
    built.  ``f`` is evaluated once per cluster, at its mean, whether it is a
    callable on reals or tabulated (eigenvalue, value) pairs; for a callable
    this differs from evaluating at each raw eigenvalue by at most
    ``|f'| * GROUPING_TOL * radius`` per neighbour step within the cluster.
    A tabulated key matches a mean within ``GROUPING_TOL * radius``, the
    clustering rule.  A callable whose value is not finite at some mean
    raises.  Returns an :class:`Observable` when the result is Hermitian
    (real-valued ``f``), otherwise a plain element (e.g. complex phases).
    """
    return _wrap_like(_function_entries(f, as_observable(a).entries), a.unit_tag)


def _function_entries(f: FunctionLike, entries: np.ndarray) -> np.ndarray:
    """The entries of :func:`apply_function` of certified Hermitian ``entries``, or of each
    matrix of a stack, with no Hermiticity probe of the result."""
    frame, columns, starts = _spectral_frame(entries)
    radius = np.max(np.abs(columns), axis=-1, keepdims=True)
    tols = np.broadcast_to(GROUPING_TOL * radius, columns.shape)[starts]
    values = _function_values(f, columns[starts].tolist(), tols.tolist())
    return _spectral_apply(frame, _per_column(values, starts))


def _require(ok: np.ndarray, message: Callable[..., str]) -> None:
    """Raise ``message(*index)`` at the first index, row-major, where ``ok`` fails."""
    bad = np.argwhere(~ok)
    if len(bad):
        raise AlgebraError(message(*(int(i) for i in bad[0])))


class DyadBasis:
    """Family Gamma_jk = p_jk b_j b_k^dagger bridging an elementary projector basis.

    Stored as the base, whose frame column b_j spans I_j, and the m x m array
    ``phases`` of unit phases p_jk: O(d^2) memory.  ``dy[j, k]`` builds one
    dyad on indexing.  Validation checks the defining identities on the
    phases, within ``TOL_RECON``: Gamma_jj = I_j (p_jj = 1), the Hermitian
    pairing Gamma_jk^dagger = Gamma_kj (p_kj = conj(p_jk)) and the chain rule
    Gamma_jl Gamma_lk = Gamma_jk (p_jl p_lk = p_jk).  Each residual is the
    spectral norm of its matrix identity's residual, up to the base's Gram
    residual; flanking (Gamma_jk = I_j Gamma_jk I_k) holds by construction.
    Together with the mutual exclusivity of the base these imply the full
    matrix-unit rule Gamma_jl Gamma_l'k = delta_{l,l'} Gamma_jk at tolerance.
    """

    __slots__ = ("base", "phases")

    def __init__(self, base: ProjectorBasis, phases):
        if not base.is_elementary():
            raise AlgebraError("dyad bases require an elementary (rank-1) projector basis")
        table = np.array(phases, dtype=complex)
        if table.shape != (len(base), len(base)):
            raise AlgebraError("dyads must form an m x m family over the base")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "phases", _frozen(table))
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("DyadBasis is immutable")

    def __getitem__(self, jk: tuple[int, int]) -> PseudoObservable:
        j, k = jk
        frame = self.base.frame
        return PseudoObservable(np.outer(self.phases[j, k] * frame[:, j], frame[:, k].conj()))

    @property
    def dim(self) -> int:
        return self.base.dim

    def _validate(self) -> None:
        p = self.phases  # a NaN fails every check
        _require(np.abs(np.diagonal(p) - 1) <= TOL_RECON,
                 lambda j: f"Gamma[{j}][{j}] differs from base projector")
        _require(np.abs(p.conj() - p.T) <= TOL_RECON,
                 lambda j, k: f"Gamma[{j}][{k}]^dagger != Gamma[{k}][{j}]")
        for j in range(len(p)):  # one (l, k) slice per j keeps memory O(m^2)
            _require(np.abs(p[j, :, None] * p - p[j]) <= TOL_RECON,
                     lambda l, k: f"Gamma[{j}][{l}] Gamma[{l}][{k}] != Gamma[{j}][{k}]")


CoresLike = Union[PseudoObservable, np.ndarray,
                  Mapping[tuple[int, int], PseudoObservable],
                  Sequence[Sequence[PseudoObservable]]]


def dyad_basis_from(base: ProjectorBasis, cores: CoresLike) -> DyadBasis:
    """Build Gamma_jk = I_j C_jk I_k / ||I_j C_jk I_k||_F over an elementary basis.

    ``cores`` is a single element shared by every pair or a (j, k)-indexed
    family.  I_j C_jk I_k = c_jk b_j b_k^dagger with c_jk = b_j^dagger C_jk b_k,
    so only the phase c_jk / |c_jk| is kept (see :class:`DyadBasis`); a shared
    core costs one product B^dagger C B.  Cores must be phase-consistent for
    the result to satisfy the dyad identities (any rank-one core C = v v^dagger
    with v non-orthogonal to every basis vector works, e.g. the all-ones
    matrix in the basis frame).
    """
    frame, m = base.frame, len(base)
    if isinstance(cores, (PseudoObservable, np.ndarray)):
        core = _coerce_entries(cores)
        flanked = frame.conj().T @ core @ frame  # c_jk for every pair at once
        norms = np.linalg.norm(core)
    else:
        flanked, norms = np.empty((m, m), dtype=complex), np.empty((m, m))
        for j, k in np.ndindex(m, m):
            core = _coerce_entries(cores[(j, k)] if isinstance(cores, Mapping) else cores[j][k])
            flanked[j, k] = frame[:, j].conj() @ core @ frame[:, k]
            norms[j, k] = np.linalg.norm(core)
    magnitudes = np.abs(flanked)  # ||I_j C_jk I_k||: one singular value, as Frobenius
    _require(np.isfinite(magnitudes),
             lambda j, k: f"no spectral norm: the flanked core for pair ({j}, {k}) is not finite")
    _require(magnitudes > 1e-12 * np.maximum(1.0, norms),
             lambda j, k: f"core for pair ({j}, {k}) is annihilated by the flanking projectors")
    return DyadBasis(base, flanked / magnitudes)
