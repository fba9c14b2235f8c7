"""State vectors, density observables, and expectation bookkeeping.

The density is Bayesian bookkeeping: there is no collapse operation anywhere
in this package, and state updates outside unitary evolution are out of
scope.  Transformations act dually to observables: a state vector maps to
W^dagger Psi, a density to tau^{-1}(D) = W^dagger D W, so that expectation
values computed in either picture agree.

A density handed in is validated Hermitian, of unit trace and positive.  A
density produced here from certified parts (W^dagger D W of a density by a
certified unitary, or |psi><psi| of a unit vector) is Hermitian and positive
by construction, so only its finiteness and unit trace are checked: the trace
rests on W's unitarity, which holds to ``TOL_RECON``, not exactly.
"""

from __future__ import annotations

import numpy as np

from .core import (AlgebraError, Observable, PseudoObservable, _conjugate, _gate, inner_product,
                   vecnorm)
from .transforms import Transformation

NORM_TOL = 1e-8        # rejection threshold for unnormalized amplitudes
TRACE_TOL = 1e-10      # density trace deviation from one
POSITIVITY_TOL = 1e-10 # most negative admissible density eigenvalue


def unit_amplitudes(arr: np.ndarray) -> np.ndarray:
    """``arr``, or each row of a stack, rescaled to unit norm, which must be within NORM_TOL."""
    norm = vecnorm(arr)
    _gate(abs(norm - 1.0), NORM_TOL,
          lambda off: f"state vector is not normalized: ||psi|| is off 1 by {off!r}")
    return arr / (norm if arr.ndim == 1 else norm[:, None])


def unit_traces(entries: np.ndarray) -> np.ndarray:
    """``entries``, a density's matrix or a stack of them, each gated at unit trace."""
    _gate(abs(entries.trace(axis1=-2, axis2=-1) - 1.0), TRACE_TOL,
          lambda off: f"density trace must be 1, is off by {off:.3e}")
    return entries


class StateVector:
    """Unit-norm complex amplitude vector.

    Input with norm off by more than ``NORM_TOL`` is rejected; admissible
    input is rescaled to unit norm exactly, so stored states always satisfy
    the 1e-10 norm invariant.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        arr = np.array(amplitudes, dtype=complex).reshape(-1)
        if arr.size < 2:
            raise AlgebraError("state vectors need dimension at least 2")
        arr = unit_amplitudes(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def basis_vector(cls, dim: int, index: int) -> "StateVector":
        if not 0 <= index < dim:
            raise AlgebraError(f"basis index {index} out of range for dim {dim}")
        arr = np.zeros(dim, dtype=complex)
        arr[index] = 1.0
        return cls(arr)

    def distance(self, other: "StateVector") -> float:
        return float(np.linalg.norm(self.amplitudes - other.amplitudes))

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


class DensityObservable:
    """Hermitian, unit-trace, positive element encoding the statistical state."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        obs = matrix if isinstance(matrix, Observable) else Observable(
            getattr(matrix, "entries", matrix))
        self._hold(obs)
        lowest = float(np.linalg.eigvalsh(obs.entries)[0])
        if not lowest >= -POSITIVITY_TOL:
            raise AlgebraError(f"density is not positive: most negative eigenvalue {lowest:.3e}")

    @classmethod
    def _trusted(cls, matrix: Observable) -> "DensityObservable":
        """The density of an Observable positive by construction; only its trace is gated."""
        self = object.__new__(cls)
        self._hold(matrix)
        return self

    def _hold(self, obs: Observable) -> None:
        """Gate the unit trace and store the matrix."""
        unit_traces(obs.entries)
        object.__setattr__(self, "matrix", obs)

    def __setattr__(self, name, value):
        raise AttributeError("DensityObservable is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityObservable":
        return cls(Observable(np.eye(dim) / dim))

    def distance(self, other: "DensityObservable") -> float:
        return self.matrix.distance(other.matrix)

    def __repr__(self):
        return f"DensityObservable(dim={self.dim})"


def pure_density(psi: StateVector) -> DensityObservable:
    """Rank-one density |psi><psi| of a pure state."""
    return DensityObservable._trusted(Observable._trusted(np.outer(psi.amplitudes,
                                                                   psi.amplitudes.conj())))


def expectation(d: DensityObservable, p: PseudoObservable) -> complex:
    """<P> = <D|P> = tr(D^dagger P); real for Hermitian P up to float noise."""
    if d.dim != p.dim:
        raise AlgebraError(f"dimension mismatch: {d.dim} vs {p.dim}")
    return inner_product(d.matrix, p)


def real_expectation(d: DensityObservable, p: PseudoObservable) -> float:
    """Expectation of an observable; an imaginary part over 1e-12 * max(1, |<P>|) raises."""
    val = expectation(d, p)
    scale = max(1.0, abs(val))
    if abs(val.imag) > 1e-12 * scale:
        raise AlgebraError(f"expectation has imaginary part {val.imag:.3e}")
    return val.real


def vector_expectation(psi: StateVector, p: PseudoObservable) -> complex:
    """<psi|P psi> for a pure state."""
    if psi.dim != p.dim:
        raise AlgebraError(f"dimension mismatch: {psi.dim} vs {p.dim}")
    return complex(psi.amplitudes.conj() @ (p.entries @ psi.amplitudes))


def transform_state(t: Transformation, psi: StateVector) -> StateVector:
    """Psi -> W^dagger Psi, the state-vector transformation law."""
    return StateVector(t.w.entries.conj().T @ psi.amplitudes)


def transform_density(t: Transformation, d: DensityObservable) -> DensityObservable:
    """D -> tau^{-1}(D) = W^dagger D W, the density transformation law."""
    return DensityObservable._trusted(_conjugate(t.w.entries.conj().T, d.matrix))
