"""Linear-spectrum coordinates, modular translations, and conjugate momenta.

A coordinate with resolution ``epsilon`` carries exactly ``2n`` levels
``{j epsilon : j = -n..n-1}``, so the cyclic shift group is Z_{2n} and
``S^{2n} = 1`` holds exactly.  The conjugate momentum lives on the discrete
Fourier vectors ``f_k(j) = (2n)^{-1/2} exp(i pi k j / n)`` with eigenvalues
``p_k = k (pi hbar / (n epsilon))``, ``k = -n..n-1``, by the position's rule.

Finite dimension obstructs the canonical commutator: ``tr [Q, P] = 0`` while
``tr 1 = 2n``.  The diagonal of ``[Q, P]/(i hbar)`` in the coordinate basis
is identically zero (the diagonal of any commutator with a diagonal matrix
vanishes), so position eigenstates never witness the continuum value.  The
interior-band deviation reported here is therefore measured on periodic
Gaussian probes: minimum-uncertainty wavepackets centred in the middle half
of the coordinate window, whose commutator expectation does converge to one
as ``n`` grows.  Same honesty for time reversal: entrywise conjugation flips
the momentum only up to a single unpaired edge mode ``k = -n``, and all
parity claims carry that exact rank-one defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    TOL_RECON,
    AlgebraError,
    Observable,
    ProjectorBasis,
    PseudoObservable,
    _frozen,
    opnorm,
)
from .report import CheckReport


def _shift_matrix(dim: int) -> np.ndarray:
    """Cyclic down-shift: e_j -> e_{j-1} (index j modulo dim)."""
    return np.roll(np.eye(dim, dtype=complex), -1, axis=0)


def _fourier_matrix(n: int) -> np.ndarray:
    """Columns f_k, k = -n..n-1, over coordinate indices j = -n..n-1."""
    j = np.arange(-n, n)
    return np.exp(1j * np.pi * np.outer(j, j) / n) / math.sqrt(2 * n)


def frame_conjugate(entries: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Entrywise complex conjugation taken in the given orthonormal frame.

    This is the concrete antiunitary used by the time-reversal checks.
    """
    return frame @ np.conj(frame.conj().T @ entries @ frame) @ frame.conj().T


class LinearSpectrumObservable:
    """Spectrum exactly {j epsilon : j = -n..n-1}: a rank-1 basis and sum_j (j epsilon) I_j."""

    __slots__ = ("n", "epsilon", "observable", "basis")

    def __init__(self, n: int, epsilon: float, basis: ProjectorBasis):
        n = int(n)
        epsilon = float(epsilon)
        if n < 2:
            raise AlgebraError(f"need n >= 2, got {n}")
        if not epsilon > 0:
            raise AlgebraError(f"resolution must be positive, got {epsilon}")
        if basis.dim != 2 * n or not basis.is_elementary():
            raise AlgebraError("the basis must hold 2n rank-one projectors, one per level")
        labels = tuple(j * epsilon for j in range(-n, n))
        if basis.labels != labels:
            raise AlgebraError("basis labels must be exactly {j*epsilon}, ordered by j")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "observable", Observable._trusted(basis.combine(labels)))
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("LinearSpectrumObservable is immutable")

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def spectrum(self) -> tuple[float, ...]:
        return self.basis.labels

    def __repr__(self):
        return (f"LinearSpectrumObservable(n={self.n}, epsilon={self.epsilon}, "
                f"dim={self.dim})")


def _coordinate(n: int, epsilon: float, frame: np.ndarray) -> LinearSpectrumObservable:
    """The coordinate whose j-th level is the j-th column of a new unitary frame."""
    labels = [j * epsilon for j in range(-n, n)]
    basis = ProjectorBasis.from_frame(_frozen(frame), [1] * (2 * n), labels=labels)
    return LinearSpectrumObservable(n, epsilon, basis)


def make_position(n: int, epsilon: float) -> LinearSpectrumObservable:
    """diag(-n eps, ..., (n-1) eps) in the coordinate basis."""
    n = int(n)
    if n < 2:
        raise AlgebraError(f"need n >= 2, got {n}")
    return _coordinate(n, float(epsilon), np.eye(2 * n, dtype=complex))


class CanonicalPair:
    """Coordinate Q, minimal-shift unitary S, and conjugate momentum P.

    S is stored as the exact cyclic permutation in Q's frame; construction
    verifies it against exp(i (epsilon/hbar) P), summed over P's basis.
    """

    __slots__ = ("q", "s", "momentum", "hbar")

    def __init__(self, q: LinearSpectrumObservable, s: PseudoObservable,
                 momentum: LinearSpectrumObservable, hbar: float):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "momentum", momentum)
        object.__setattr__(self, "hbar", float(hbar))

    def __setattr__(self, name, value):
        raise AttributeError("CanonicalPair is immutable")

    @property
    def n(self) -> int:
        return self.q.n

    @property
    def dim(self) -> int:
        return self.q.dim

    @property
    def epsilon(self) -> float:
        return self.q.epsilon

    @property
    def p(self) -> Observable:
        return self.momentum.observable

    @property
    def momentum_spectrum(self) -> tuple[float, ...]:
        return self.momentum.spectrum

    def _momentum_exponential(self) -> PseudoObservable:
        """exp(i (epsilon/hbar) P) = sum_k exp(i epsilon p_k / hbar) Itilde_k, from P's labels."""
        phases = np.exp(1j * (self.epsilon / self.hbar) * np.array(self.momentum.spectrum))
        return PseudoObservable(self.momentum.basis.combine(phases))

    def exponential_consistency(self) -> float:
        """||exp(i (epsilon/hbar) P) - S||; small by construction."""
        return self._momentum_exponential().distance(self.s)

    def momentum_from_shift_eigenphases(self) -> np.ndarray:
        """Recover the sorted momentum spectrum from S's eigenphases.

        Phases are folded into [-pi, pi) to match the asymmetric momentum
        window: k = -n..n-1 includes -pi*hbar/epsilon, never +pi*hbar/epsilon.
        """
        phases = np.angle(np.linalg.eigvals(self.s.entries))
        phases = np.where(phases >= math.pi - 1e-12, phases - 2 * math.pi, phases)
        return np.sort(phases) * self.hbar / self.epsilon

    def __repr__(self):
        return (f"CanonicalPair(n={self.n}, epsilon={self.epsilon}, "
                f"hbar={self.hbar})")


def make_canonical_pair(q: LinearSpectrumObservable, hbar: float = 1.0) -> CanonicalPair:
    """Construct S and P for a coordinate from its discrete Fourier vectors."""
    if not hbar > 0:
        raise AlgebraError(f"hbar must be positive, got {hbar}")
    n, d, eps = q.n, q.dim, q.epsilon
    frame = q.basis.frame
    momentum = _coordinate(n, math.pi * hbar / (n * eps), frame @ _fourier_matrix(n))
    s = PseudoObservable(frame @ _shift_matrix(d) @ frame.conj().T)
    pair = CanonicalPair(q, s, momentum, hbar)
    consistency = pair.exponential_consistency()
    if not consistency <= TOL_RECON:
        raise AlgebraError(f"exp(i eps P / hbar) != S: residual {consistency:.3e}")
    cyclic = opnorm(np.linalg.matrix_power(s.entries, d) - np.eye(d))
    if not cyclic <= TOL_RECON:
        raise AlgebraError(f"S^(2n) != 1: residual {cyclic:.3e}")
    return pair


# ---------------------------------------------------------------------------
# translations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranslationSpec:
    """Unique decomposition delta = xi + s_steps * epsilon with xi in [0, epsilon)."""

    delta: float
    s_steps: int
    xi: float


def decompose_displacement(delta: float, epsilon: float) -> TranslationSpec:
    if not epsilon > 0:
        raise AlgebraError(f"resolution must be positive, got {epsilon}")
    s = math.floor(delta / epsilon)
    xi = delta - s * epsilon
    if xi >= epsilon:  # float fencepost
        s += 1
        xi -= epsilon
    return TranslationSpec(float(delta), int(s), max(0.0, float(xi)))


def translate_steps(pair: CanonicalPair, delta: float) -> int:
    """Whole-step count for a displacement; rejects fractional remainders.

    A translation preserves the spectrum {j epsilon}, which forces the
    remainder xi of delta = xi + s*epsilon to vanish: fractional
    displacements have no representation on a discrete spectrum.
    """
    spec = decompose_displacement(delta, pair.epsilon)
    snap = 1e-9 * pair.epsilon * max(1.0, abs(delta / pair.epsilon))
    if spec.xi <= snap:
        return spec.s_steps
    if pair.epsilon - spec.xi <= snap:
        return spec.s_steps + 1
    raise AlgebraError(
        f"displacement {delta!r} is not a multiple of the resolution "
        f"{pair.epsilon!r}: remainder xi={spec.xi!r} (steps={spec.s_steps}); "
        f"spectrum preservation forces xi = 0, so only whole multiples of "
        f"epsilon are representable")


def translate_labels(pair: CanonicalPair, steps: int) -> tuple[float, ...]:
    """Eigenvalue carried by each projector slot after s steps, label-exact.

    Conjugation by S^s sends I_j -> I_{j-s}; equivalently the slot at index j
    picks up the label of index j+s, wrapped modulo 2n.
    """
    labels = np.array(pair.q.spectrum)
    return tuple(np.roll(labels, -int(steps)))


def translate(pair: CanonicalPair, delta: float) -> Observable:
    """tau_delta(Q) = Q + delta, the sum taken modulo 2n epsilon.

    ``delta`` must be an integer multiple of the resolution (see
    :func:`translate_steps`).  The result is built label-exactly in the
    pair's frame and equals the conjugation S^s Q S^{-s} to float precision.
    """
    steps = translate_steps(pair, delta)
    new_labels = translate_labels(pair, steps)
    return Observable._trusted(pair.q.basis.combine(new_labels))


# ---------------------------------------------------------------------------
# Weyl obstruction diagnostics
# ---------------------------------------------------------------------------

def _interior_band(n: int) -> list[int]:
    """Indices j with -n/2 <= j < n/2."""
    return [j for j in range(-n, n) if -n <= 2 * j < n]


def _interior_probe_deviation(pair: CanonicalPair, comm_over_ihbar: np.ndarray) -> float:
    """max_j |<g_j| [Q,P]/(i hbar) |g_j> - 1| over interior Gaussian probes.

    Probes are periodic discrete Gaussians of index width sqrt(n/pi), centred
    at the coordinates of the interior band and at momentum zero.
    """
    n = pair.n
    width = math.sqrt(n / math.pi)
    idx = np.arange(-n, n)
    frame = pair.q.basis.frame
    worst = 0.0
    for centre in _interior_band(n):
        dist = (idx - centre + n) % (2 * n) - n
        g = np.exp(-dist.astype(float) ** 2 / (4 * width ** 2)).astype(complex)
        g /= np.linalg.norm(g)
        g = frame @ g
        value = float(np.real(g.conj() @ comm_over_ihbar @ g))
        worst = max(worst, abs(value - 1.0))
    return worst


def weyl_residual(pair: CanonicalPair) -> CheckReport:
    """Quantify the finite-dimension obstruction tr [Q,P] = 0 vs tr 1 = 2n.

    Reports the raw commutator trace, the coordinate-basis diagonal of
    [Q,P]/(i hbar) (identically zero, reported for honesty), and the
    interior-band deviation from one measured on Gaussian probes.
    """
    q, p, hbar = pair.q.observable, pair.p, pair.hbar
    comm = q.entries @ p.entries - p.entries @ q.entries
    comm_over_ihbar = comm / (1j * hbar)
    trace_residual = abs(complex(np.trace(comm)))
    trace_scale = abs(pair.q.spectrum[0]) * abs(pair.momentum_spectrum[0])  # ||Q|| ||P||
    frame = pair.q.basis.frame
    diagonal = np.real(np.diag(frame.conj().T @ comm_over_ihbar @ frame))
    interior = _interior_probe_deviation(pair, comm_over_ihbar)
    return CheckReport(
        name="weyl_residual",
        passed=trace_residual <= 1e-9 * trace_scale,
        residuals={
            "trace_residual": trace_residual,
            "diag_max_abs": float(np.max(np.abs(diagonal))),
            "interior_max_dev": interior,
        },
        details={
            "trace_scale": trace_scale,
            "identity_trace": float(pair.dim),
            "coordinate_diagonal": diagonal.tolist(),
            "interior_band": _interior_band(pair.n),
            "probe_width": math.sqrt(pair.n / math.pi),
        },
    )


def _reversal_parity(fixed: LinearSpectrumObservable, flipped: LinearSpectrumObservable):
    """Entrywise conjugation in ``fixed``'s frame, the time reversal of a pair (A, B).

    Returns ``||conj(A) - A||``, the flip defect ``conj(B) + B``, its norm,
    and its distance from B's unpaired edge mode ``2 b_0 I_0``.
    """
    frame = fixed.basis.frame
    a, b = fixed.observable.entries, flipped.observable.entries
    fixed_defect = opnorm(frame_conjugate(a, frame) - a)
    defect = frame_conjugate(b, frame) + b
    edge_mode = flipped.basis[0].entries
    return (fixed_defect, defect, opnorm(defect),
            opnorm(defect - 2 * flipped.spectrum[0] * edge_mode))


def conjugation_parity_check(pair: CanonicalPair) -> CheckReport:
    """Entrywise conjugation in the coordinate frame as concrete time reversal.

    conj(Q) = Q exactly; conj(P) + P = 2 p_{-n} Itilde_{-n}, a single
    unpaired edge mode of norm 2 pi hbar / epsilon whose relative trace-norm
    weight (2/n) vanishes as n grows.  ||Q|| and ||P|| are the magnitudes of
    the edge labels.
    """
    coordinate_defect, defect, defect_norm, rank_one_residual = _reversal_parity(
        pair.q, pair.momentum)
    expected_norm = 2 * math.pi * pair.hbar / pair.epsilon
    trace_weight = (float(np.sum(np.abs(np.linalg.eigvalsh(defect))))
                    / float(np.sum(np.abs(pair.momentum_spectrum))))
    scale = max(1.0, abs(pair.momentum_spectrum[0]))
    passed = (coordinate_defect <= 1e-12 * max(1.0, abs(pair.q.spectrum[0]))
              and abs(defect_norm - expected_norm) <= TOL_RECON * scale
              and rank_one_residual <= TOL_RECON * scale)
    return CheckReport(
        name="conjugation_parity",
        passed=passed,
        residuals={
            "coordinate_defect": coordinate_defect,
            "defect_norm_error": abs(defect_norm - expected_norm),
            "rank_one_residual": rank_one_residual,
            "edge_defect_weight": trace_weight,
        },
        details={"defect_norm": defect_norm, "expected_defect_norm": expected_norm},
    )


def momentum_as_linear_spectrum(pair: CanonicalPair) -> LinearSpectrumObservable:
    """The momentum itself, as a coordinate with resolution pi hbar/(n epsilon)."""
    return pair.momentum


@dataclass(frozen=True)
class SweepRow:
    """One row of the commutator-limit table (the CSV sweep schema)."""

    n: int
    epsilon: float
    trace_residual: float
    interior_max_dev: float
    edge_defect_weight: float


def commutator_limit_probe(n_list: Sequence[int]) -> tuple[SweepRow, ...]:
    """Weyl metrics across level counts, rows sorted by n, at hbar = 1.

    The rule epsilon = 1/sqrt(n) drives both required limits at once: the
    resolution shrinks while the coordinate window n*epsilon grows.
    """
    rows = []
    for n in sorted(int(x) for x in n_list):
        eps = 1.0 / math.sqrt(n)
        pair = make_canonical_pair(make_position(n, eps))
        report = weyl_residual(pair)
        parity = conjugation_parity_check(pair)
        rows.append(SweepRow(
            n=n,
            epsilon=eps,
            trace_residual=(report.residuals["trace_residual"]
                            / report.details["trace_scale"]),
            interior_max_dev=report.residuals["interior_max_dev"],
            edge_defect_weight=parity.residuals["edge_defect_weight"],
        ))
    return tuple(rows)
