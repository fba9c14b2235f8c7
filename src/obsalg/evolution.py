"""Discretized time evolution in both pictures, with equation-residual audits.

One step spans the minimal temporal separation ``tau`` and is generated by
the unitary ``U(t) = exp(i (tau/hbar) H(t))``:

* Heisenberg picture:   O(t+tau) = U O(t) U^dagger, states fixed;
* Schroedinger picture: Psi(t+tau) = U^dagger Psi(t), D(t+tau) = U^dagger D U.

For explicitly time-dependent H the step evaluates H at the step's start
time (left-point rule; first order by design, matching the two-step split
for explicit time dependence).  Per-step picture duality
<D|U O U^dagger> = <U^dagger D U|O> is exact.

The left-point rule reads H only at grid times known in advance, so the grid is walked in
chunks by :meth:`EvolutionEngine.trajectory`, the one walk that the trace and the whole-run
checks read.  Per chunk it reads H as one stack (:meth:`Hamiltonian.values`) and certifies the
step unitaries as one stack (:meth:`EvolutionEngine._certify`): wherever theta =
||((tau/hbar) H(t))^2||_1^(1/2) <= 1, the continuum limit, a step's U is a Taylor polynomial
whose remainder is below 2^-53, with no eigendecomposition; elsewhere it takes one ``eigh`` per
stack (:func:`_taylor_exponential`).  It also forms the frames, O(t_m) = V_m O V_m^dagger, a
constant H's V_m = U^m in closed form, and it alone multiplies step unitaries into V_m, so it
alone sets their time order.  It accumulates the anti-time-ordered V_{m+1} = U_m V_m, so a
driven Heisenberg run of length T differs from the Schroedinger run by the second Magnus term
(1/2) int int [H(t1), H(t2)]: O(T^2), not shrinking with tau.  H's memo keeps one read per
expression and the engine one unitary cache, each holding one chunk, from which
``EvolutionEngine.unitary`` serves every other step.

Difference-quotient residuals against the continuous equations of motion
(Heisenberg, Schroedinger, von Neumann) are first order in tau.  Each
equation has one ``*_step_residual`` function, the residual of one step of a
given size or of a stack of them: the trace reports it at tau on its steps,
each ``*_residual`` check at tau and tau/2 one step from the identity frame.
Each residual reads the two values its step connects.  A scenario run calls
the same checks, passing the ||H(t0)|| it takes once as ``h_norm``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple

import numpy as np

from .canonical import _reversal_parity, make_canonical_pair, make_position, translate_labels
from .core import (
    TOL_HERM,
    TOL_RECON,
    AlgebraError,
    Observable,
    PseudoObservable,
    _conjugate,
    _frozen,
    _gate,
    _spectral_apply,
    _spectral_frame,
    as_observable,
    commutator,
    hermiticity_defect,
    opnorm,
    vecnorm,
)
from .expr import (
    EvalContext,
    ExprEvalError,
    ObservableExpr,
    evaluate,
    explicit_time_derivative,
    parse,
    references_time,
)
from .report import CheckReport
from .states import DensityObservable, StateVector
from .transforms import _unitary_defects, unitary_exponential

PICTURES = ("heisenberg", "schrodinger")
REGIME_BOUND = 0.5  # tau*||H||/hbar beyond which difference quotients leave the continuum
# per stacked d x d complex array of a trajectory chunk (d complex for a row-sized one): 8
# steps at d = 32, enough to amortize a chunk's fixed Python and NumPy cost; one from d = 128
CHUNK_BYTES = 128 * 2 ** 10


def _taylor_radius(m: int) -> float:
    """The largest float theta whose Taylor remainder bound
    r_m(theta) = theta^(m+1)/(m+1)! (1 - theta/(m+2))^-1 is at most 2^-53, compared exactly
    in integers (theta = a/b): bisection over the floats of [0, 2]."""
    def within(theta: float) -> bool:
        a, b = theta.as_integer_ratio()
        return 2 ** 53 * a ** (m + 1) * (m + 2) <= (
            b ** m * math.factorial(m + 1) * ((m + 2) * b - a))

    lo, hi = 0.0, 2.0
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if within(mid) else (lo, mid)
    return lo


# TAYLOR_RADII[m - 1] = _taylor_radius(m): degree 9 covers theta = 0.1 and 18 covers theta = 1
TAYLOR_RADII = np.array([_taylor_radius(m) for m in range(1, 19)])


def _taylor_exponential(g: np.ndarray) -> np.ndarray:
    """e^{iG} for each matrix of the stack ``g`` = (step/hbar) H(t), certified Hermitian and
    finite by the caller: a Taylor polynomial in X = iG wherever its remainder is below 2^-53.

    Per row, theta = ||X^2||_1^(1/2) bounds ||X||_2, since G is Hermitian (||X||_2^2 =
    ||X^2||_2 <= ||X^2||_1); X^2 is the first power the polynomial needs.  The degree m is
    the smallest whose remainder bound holds (``TAYLOR_RADII``):

        ||e^X - T_m(X)||_2 <= sum_{k>m} theta^k/k!
                           <= theta^(m+1)/(m+1)! (1 - theta/(m+2))^-1 <= 2^-53,

    the geometric series bounding the tail (Moler & Van Loan, SIAM Rev. 45, 2003).  theta is
    read from the computed X^2, whose rounding moves the bound by a relative O(m d u).  T_m is
    evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2, 1973) in blocks of s powers of G,
    (s - 1) + (ceil((m+1)/s) - 1) products.  A term's path takes at most m - 1 products, each
    within gamma_{d+2} |A||B| (complex inner products; Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, sec. 3.6), and m + 2 other roundings (its coefficient, its
    scaling and its sums), so |U - T_m(X)| <= gamma_{(m+1)(d+3)} sum_k |G|^k/k! entrywise
    (Higham, Functions of Matrices, 2008, thm. 4.5).  That sum is symmetric, so its 2-norm is
    at most its 1-norm, which |.| leaves unchanged, and u = 2^-53 gives

        ||U - e^X||_2 <= 2^-53 + gamma_{(m+1)(d+3)} e^{||G||_1},  gamma_n = n u / (1 - n u).

    A row with theta > 1, or a theta that is not finite, takes :func:`unitary_exponential`,
    bit for bit.  A row's path and degree read only its theta, and each run of consecutive
    rows of one path and degree is evaluated as one view of the stack, so a row's bits do
    not depend on its chunk.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # such a theta takes the eigh path
        g2 = g @ g
        theta = np.sqrt(np.max(np.sum(np.abs(g2), axis=-2), axis=-1))
    degrees = np.where(theta <= 1.0, np.searchsorted(TAYLOR_RADII, theta) + 1, 0)
    cuts = [0, *(np.flatnonzero(np.diff(degrees)) + 1).tolist(), len(g)]
    if len(cuts) == 2 and not degrees[0]:
        del g2  # not held beside the eigendecomposition
        return unitary_exponential(g)
    u = np.empty_like(g)
    for a, b in zip(cuts[:-1], cuts[1:]):
        if degrees[a]:
            _taylor_polynomial(g[a:b], g2[a:b], int(degrees[a]), u[a:b])
        else:
            u[a:b] = unitary_exponential(g[a:b])
    return u


def _taylor_polynomial(g: np.ndarray, g2: np.ndarray, m: int, out: np.ndarray) -> None:
    """T_m(iG) = sum_{k<=m} i^k G^k / k! into ``out``, for a stack ``g`` and its square ``g2``:
    blocks of s powers (s from 2, with the fewest products, then the fewest powers held),
    summed into the Horner recurrence Y <- Y G^s + B_i from the top block down."""
    s = min(range(2, m + 2), key=lambda s: (s - 1 + -(-(m + 1) // s), s))
    blocks = -(-(m + 1) // s)
    powers = [None, g, g2]
    while len(powers) <= s:
        powers.append(powers[-1] @ g)
    # the accumulator alternates between two buffers so that it ends in ``out``; the other
    # one holds each scaled power between the products
    acc, other = (out, np.empty_like(out)) if blocks % 2 else (np.empty_like(out), out)
    for i in range(blocks - 1, -1, -1):
        terms = range(1, min(s, m + 1 - i * s))  # the powers of block i but the identity
        if i < blocks - 1:
            np.matmul(acc, powers[s], out=other)
            acc, other = other, acc
        elif terms:  # the top block starts from its highest term
            np.multiply(powers[terms[-1]], _taylor_coefficient(i * s + terms[-1]), out=acc)
            terms = terms[:-1]
        else:
            acc[...] = 0
        for j in terms:
            np.multiply(powers[j], _taylor_coefficient(i * s + j), out=other)
            acc += other
        np.einsum("...ii->...i", acc)[...] += _taylor_coefficient(i * s)


def _taylor_coefficient(k: int) -> complex:
    """i^k / k!, exactly real or imaginary."""
    return (1, 1j, -1, -1j)[k % 4] / math.factorial(k)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_m = t0 + m*tau, m = 0..steps."""

    tau: float
    steps: int
    t0: float = 0.0

    def __post_init__(self):
        if not self.tau > 0:
            raise AlgebraError(f"tau must be positive, got {self.tau}")
        if self.steps < 1:
            raise AlgebraError(f"steps must be at least 1, got {self.steps}")

    def times(self) -> np.ndarray:
        return self.t0 + self.tau * np.arange(self.steps + 1)


class _Read:
    """A node's values at some times: a read-only (k, d, d) stack, whether each row is
    Hermitian, and the row of each time."""

    __slots__ = ("times", "rows", "stack", "hermitian")

    def __init__(self, times: tuple[float, ...], stack: np.ndarray, hermitian: np.ndarray):
        self.times, self.stack, self.hermitian = times, _frozen(stack), _frozen(hermitian)
        self.rows = {t: j for j, t in enumerate(times)}

    def rows_of(self, times: tuple[float, ...]) -> slice | None:
        """The rows holding ``times`` in order, or None when they are not all held so."""
        first = self.rows.get(times[0])
        if first is None or self.times[first:first + len(times)] != times:
            return None
        return slice(first, first + len(times))


class Hamiltonian:
    """An observable-valued expression for H, and the memo of expression values.

    Every expression evaluated in H's context (H itself, traced observables)
    goes through :meth:`values` (a trajectory chunk, stacked) or :meth:`value`
    (one time).  The context evaluates a subtree that does not reference ``t``
    once per run.  A node that references ``t`` keeps one read, so memory stays
    flat in the step count: a read reuses the rows it holds and evaluates the
    other times as one stack.  A chunk replaces the read; one time is kept only
    by a node that holds none, so a read off the grid evicts no chunk.  Each
    row is flagged Hermitian or not when it is evaluated, and H is validated
    Hermitian when it is read.  A read of one time that fails to evaluate names
    that time.
    """

    def __init__(self, expr: ObservableExpr | str, ctx: EvalContext,
                 hbar: float = 1.0):
        self.expr = parse(expr) if isinstance(expr, str) else expr
        self.ctx = ctx
        self.hbar = float(hbar)
        if not self.hbar > 0:
            raise AlgebraError(f"hbar must be positive, got {hbar}")
        self.time_dependent = references_time(self.expr)
        self._reads: dict[ObservableExpr, _Read] = {}  # node -> its one read

    @property
    def dim(self) -> int:
        return self.ctx.dim

    def values(self, node: ObservableExpr, times) -> tuple[np.ndarray, np.ndarray]:
        """``node`` at each of ``times``, kept as the node's read: a read-only (k, d, d)
        stack of entries and, per row, whether it is Hermitian.  A node that does not
        reference t has one row."""
        return self._read(node, tuple(float(t) for t in times), keep=True)

    def value(self, node: ObservableExpr, t: float) -> PseudoObservable:
        """``node`` at time t, kept only when the node holds no read: an Observable
        exactly when it is Hermitian."""
        stack, hermitian = self._read(node, (float(t),), keep=False)
        return (Observable if hermitian[0] else PseudoObservable)._view(stack[0])

    def _read(self, node: ObservableExpr, times: tuple[float, ...],
              keep: bool) -> tuple[np.ndarray, np.ndarray]:
        """``node`` at ``times`` from the node's read, evaluating the rest; the result
        replaces that read when ``keep`` or when there is none."""
        held = self._reads.get(node)
        if not references_time(node):  # one value, read once per run
            if held is None:
                held = self._reads[node] = _Read((None,), *self._evaluate(node, times[:1]))
            return held.stack, held.hermitian
        rows = held.rows_of(times) if held else None
        if rows is not None:
            return held.stack[rows], held.hermitian[rows]
        found = [j for j, t in enumerate(times) if held and t in held.rows]
        if found:  # the held rows beside the ones evaluated now
            stack = np.empty((len(times), self.dim, self.dim), dtype=complex)
            hermitian = np.empty(len(times), dtype=bool)
            rows = [held.rows[times[j]] for j in found]
            stack[found], hermitian[found] = held.stack[rows], held.hermitian[rows]
            missing = [j for j, t in enumerate(times) if t not in held.rows]
            if missing:
                stack[missing], hermitian[missing] = self._evaluate(
                    node, tuple(times[j] for j in missing))
        else:
            stack, hermitian = self._evaluate(node, times)
        read = _Read(times, stack, hermitian)
        if keep or held is None:
            self._reads[node] = read
        return read.stack, read.hermitian

    def _evaluate(self, node: ObservableExpr, times: tuple[float, ...]):
        """``node`` at ``times`` as one stack, and whether each row is Hermitian.  A failure
        to evaluate at one time is an ExprEvalError that names the time."""
        try:
            stack = evaluate(node, self.ctx.with_t(times))
        except AlgebraError as exc:  # an ExprEvalError, or a spectral function's failure
            if len(times) > 1:
                raise
            raise ExprEvalError(f"{exc} at t = {times[0]!r}") from exc
        return stack, hermiticity_defect(stack) <= TOL_HERM

    def evaluate(self, t: float) -> Observable:
        """H(t), validated Hermitian."""
        return as_observable(self.value(self.expr, t))


class Chunk(NamedTuple):
    """Grid rows m0 .. m0 + k of a trajectory; the last one starts the next chunk."""

    m0: int
    times: list[float]  # t_m of the k + 1 rows
    reads: Any  # what the consumer's read of the rows returned
    h: np.ndarray  # H at the k rows that start a step: one row for a constant H
    unitaries: np.ndarray | None  # their certified U: None for a constant H
    frames: np.ndarray | None  # V_m at the k + 1 rows, when asked for


class EvolutionEngine:
    """Hamiltonian + time grid + picture; produces steps and residual audits.

    Step unitaries are kept in one cache, by step size and time.
    :meth:`trajectory` replaces it with the grid-step unitaries of one chunk,
    certified as one stack.  Any other U is certified on its own and
    kept at its step size: for a constant H once per run, for a time-dependent
    H only at the latest t.  So memory stays flat in the step count.
    """

    def __init__(self, hamiltonian: Hamiltonian, grid: TimeGrid,
                 picture: str = "schrodinger"):
        if picture not in PICTURES:
            raise AlgebraError(f"picture must be one of {PICTURES}, got {picture!r}")
        self.hamiltonian = hamiltonian
        self.grid = grid
        self.picture = picture
        # step -> (t -> row, read-only stack of certified U); t is None for a constant H
        self._unitaries: dict[float, tuple[dict, np.ndarray]] = {}
        # largest ||U^dagger U - 1|| over the grid-step unitaries certified so far
        self.max_grid_defect = 0.0
        self.eigenframe = None  # (F, theta) of a constant H's U = F e^{i theta} F^dagger

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    @property
    def hbar(self) -> float:
        return self.hamiltonian.hbar

    def unitary(self, t: float, step: float | None = None) -> PseudoObservable:
        """U = exp(i (step/hbar) H(t)); step defaults to the grid tau.

        Every U is certified against TOL_RECON when it is computed.  A grid-step
        U of the chunk :meth:`trajectory` certified is read from the cache.
        """
        step = self.grid.tau if step is None else float(step)
        key = t if self.hamiltonian.time_dependent else None
        held, stack = self._unitaries.get(step) or ({}, None)
        if key not in held:
            self._unitaries.pop(step, None)  # not held beside its replacement
            held, stack = self._unitaries[step] = {key: 0}, self._certify((t,), step)
        return PseudoObservable._view(stack[held[key]])

    def _certify(self, times: tuple[float, ...], step: float) -> np.ndarray:
        """exp(i (step/hbar) H(t)) for each of ``times``, as one certified read-only stack.

        A time-dependent H's U is :func:`_taylor_exponential`, at any step: where theta =
        ||((step/hbar) H(t))^2||_1^(1/2) <= 1, a Taylor polynomial whose remainder bound,
        at most 2^-53, is its certificate; elsewhere the spectral kernel, as a constant H's
        U.  A constant H's grid-step U keeps its eigenframe (``eigenframe``).  Each matrix
        is gated as one step's U: H(t) Hermitian, (step/hbar) H(t) finite, the spectral
        kernel's certificates where it ran and ||U^dagger U - 1|| <= TOL_RECON.  The
        defect's SVD is taken only on the rows whose bound on it exceeds the floor it
        must pass to matter: ``max_grid_defect`` for a grid step, TOL_RECON for any
        other (:func:`obsalg.transforms._unitary_defects`).  A pruned row's defect is at
        most that floor, so it neither fails the gate nor moves the reported maximum:
        the gate's message and ``max_grid_defect`` are those of one SVD per row.
        """
        h, hermitian = self.hamiltonian.values(self.hamiltonian.expr, times)
        if not hermitian.all():  # the first such H(t) raises, as a single read does
            Observable(h[int(np.argmin(hermitian))])
        with np.errstate(over="ignore", invalid="ignore"):  # reported as not finite instead
            g = h * complex(step / self.hbar)
        if not np.isfinite(g).all():
            raise AlgebraError("observable entries are not finite")
        grid_step = step == self.grid.tau
        keep = grid_step and not self.hamiltonian.time_dependent  # U keeps its eigenframe
        frame, theta, _ = _spectral_frame(g) if keep else (None,) * 3
        u = _spectral_apply(frame, np.exp(1j * theta)) if keep else (
            _taylor_exponential if self.hamiltonian.time_dependent else unitary_exponential)(g)
        del g  # not held beside the defect's temporaries
        defect = _unitary_defects(u, self.max_grid_defect if grid_step else TOL_RECON)
        _gate(defect, TOL_RECON, lambda value: f"evolution unitary defect {value:.3e}")
        if grid_step:
            self.max_grid_defect = max(self.max_grid_defect, float(np.max(defect)))
        if keep:
            self.eigenframe = frame[0], _frozen(theta[0])
        return _frozen(u)

    def trajectory(self, size: int | None = None, frames: bool = False,
                   read=lambda m0, times: None) -> Iterator[Chunk]:
        """The grid in chunks of at most ``size`` steps (default ``CHUNK_BYTES // (16 d^2)``),
        computing each chunk's times t0 + tau*arange(m0, m0 + k + 1), bitwise the rows of
        :meth:`TimeGrid.times`: nothing held grows with the step count.

        ``read(m0, times)``, the consumer's own reads of the rows, runs first, then a
        time-dependent H's k step unitaries are certified as one stack, with no
        eigendecomposition wherever theta <= 1, and replace the cache; if either fails, the
        rows are walked again one at a time, ``read(m, [t_m])`` then U(t_m), so the first
        failure in row order is raised.  ``frames`` asks for the Heisenberg frames, O(t_m) =
        V_m O V_m^dagger, V_0 = 1: for a constant H, V_m = F e^{i m theta} F^dagger = U^m with
        F and theta (the cluster means of tau*lambda/hbar) the ``eigenframe`` of the certified
        grid-step U, so V_1 is U by the product that formed it; else V_{m+1} = U(t_m) V_m from
        the chunk's stack, the only product of step unitaries, so this alone sets their order.
        """
        ham, grid, d = self.hamiltonian, self.grid, self.dim
        size = size or max(1, CHUNK_BYTES // (16 * d * d))
        v = np.eye(d, dtype=complex)
        for m0 in range(0, grid.steps, size):
            k = min(size, grid.steps - m0)
            times = (grid.t0 + grid.tau * np.arange(m0, m0 + k + 1)).tolist()
            us = None  # a constant H's U is certified once, when a step asks for it
            try:
                reads = read(m0, times)
                if ham.time_dependent:  # the cache then holds this chunk's unitaries only
                    self._unitaries = {}  # never two chunks alive together
                    us = self._certify(tuple(times[:-1]), grid.tau)
                    self._unitaries[grid.tau] = ({t: j for j, t in enumerate(times[:-1])}, us)
            except (AlgebraError, ArithmeticError, Warning):
                for j, t in enumerate(times):  # one row at a time: the first failure in row order
                    read(m0 + j, [t])
                    if j < k:
                        self.unitary(t)  # reads the H(t) just kept
                raise
            vs = None
            if frames:
                vs = np.empty((k + 1, d, d), dtype=complex)
                vs[0] = v
                if us is None:
                    self.unitary(times[0])  # U certified with its eigenframe, if no step has
                    f, theta = self.eigenframe
                    vs[1:] = _spectral_apply(
                        f, np.exp(1j * np.multiply.outer(np.arange(m0 + 1, m0 + k + 1), theta)))
                else:
                    for j in range(k):
                        np.matmul(us[j], vs[j], out=vs[j + 1])
                v = vs[k].copy()
            yield Chunk(m0, times, reads, ham.values(ham.expr, times[:-1])[0], us, vs)
            reads = vs = None  # not held beside the next chunk's


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def heisenberg_step(engine: EvolutionEngine, o: Observable, t: float) -> Observable:
    """O(t+tau) = U O U^dagger, one step from the identity frame; spectrum preserved."""
    return _conjugate(engine.unitary(t).entries, as_observable(o))


def heisenberg_step_explicit(engine: EvolutionEngine, o_expr: ObservableExpr | str,
                             t: float) -> Observable:
    """Two-step rule for explicit time dependence.

    First the expression advances to t+tau with the canonical coordinates
    frozen, then the whole result is conjugated by U(t).
    """
    node = parse(o_expr) if isinstance(o_expr, str) else o_expr
    advanced = evaluate(node, engine.hamiltonian.ctx.with_t(t + engine.grid.tau))
    return _conjugate(engine.unitary(t).entries, as_observable(advanced))


def schrodinger_step(engine: EvolutionEngine, psi: StateVector, t: float) -> StateVector:
    """Psi(t+tau) = U^dagger Psi(t); norm preserved."""
    u = engine.unitary(t).entries
    return StateVector(u.conj().T @ psi.amplitudes)


def von_neumann_step(engine: EvolutionEngine, d: DensityObservable, t: float,
                     step: float | None = None) -> DensityObservable:
    """D(t+step) = U^dagger D U, step defaulting to tau; trace, spectrum, positivity kept."""
    return DensityObservable._trusted(_conjugate(engine.unitary(t, step).entries.conj().T, d.matrix))


def reverse_step(engine: EvolutionEngine, o: Observable, t: float) -> Observable:
    """O(t-tau) = U^dagger O(t) U, the exact inverse of the forward step.

    The reversed evolution is generated by the same Hamiltonian; for
    explicitly time-dependent H the one-step inverse below uses H(t) and only
    the time-independent case carries a round-trip guarantee.
    """
    if engine.hamiltonian.time_dependent:
        warnings.warn("reverse_step with time-dependent H: round-trip "
                      "guarantees hold only for time-independent Hamiltonians",
                      stacklevel=2)
    return _conjugate(engine.unitary(t).entries.conj().T, as_observable(o))


# ---------------------------------------------------------------------------
# equation-of-motion residuals
# ---------------------------------------------------------------------------

def heisenberg_step_residual(engine: EvolutionEngine, node: ObservableExpr, t, step: float,
                             v, h_t, o_now, o_next):
    """|| (O(t+step)-O(t))/step - [O,H(t)]/(i hbar) - dO/dt || for one step.

    ``o_now`` and ``o_next`` are O read in the frames at t and t+step, ``h_t`` is the
    bare H(t), and dO/dt is read in the frame ``v`` at t (0 when O does not reference
    t).  Each is one array or a stack, with t a list: one residual per step.
    """
    gen = (o_now @ h_t - h_t @ o_now) / (1j * engine.hbar)
    quotient = (o_next - o_now) / step - gen
    if not references_time(node):
        return opnorm(quotient)
    ctx = engine.hamiltonian.ctx
    dodt = np.reshape([explicit_time_derivative(node, ctx.with_t(s), h=step / 64).entries
                       for s in np.atleast_1d(t).tolist()], quotient.shape)
    return opnorm(quotient - v @ dodt @ v.conj().swapaxes(-1, -2))


def schrodinger_step_residual(engine: EvolutionEngine, psi, t, step: float,
                              ahead: np.ndarray | None = None, h_t: np.ndarray | None = None):
    """|| (Psi(t+step)-Psi(t))/step + (i/hbar) H Psi || for one step.

    ``ahead`` = U^dagger Psi, unnormalized, and ``h_t`` = H(t) are computed when not
    given.  Stacked amplitude rows give one residual each.
    """
    amps = getattr(psi, "amplitudes", psi)
    h = engine.hamiltonian.evaluate(t).entries if h_t is None else h_t
    if ahead is None:
        ahead = engine.unitary(t, step).entries.conj().T @ amps
    # U's roundoff over a tiny step can overflow the sum of squares: inf fails the check
    with np.errstate(over="ignore"):
        return vecnorm((ahead - amps) / step
                       + (1j / engine.hbar) * np.matmul(h, amps[..., None])[..., 0])


def von_neumann_step_residual(engine: EvolutionEngine, rho: np.ndarray, rho_next: np.ndarray,
                              t, step: float, h_t: np.ndarray | None = None):
    """|| (D(t+step)-D(t))/step - [H,D]/(i hbar) || for one step.

    ``rho_next`` = U^dagger D U is the density :func:`von_neumann_step` produced, so the
    discrete generator is (1/(i hbar))[H,D], the right-hand side of i hbar dD/dt = [H,D].
    ``h_t`` = H(t) is read when not given.  Stacked densities give one residual each.
    """
    h = engine.hamiltonian.evaluate(t).entries if h_t is None else h_t
    gen = (h @ rho - rho @ h) / (1j * engine.hbar)
    return opnorm((rho_next - rho) / step - gen)


def _halving_report(name: str, engine: EvolutionEngine, t: float, h_norm: float | None,
                    residual_at, o_scale: float = 1.0) -> CheckReport:
    """Evaluate a step residual at tau and tau/2; first order means ratio <= 0.6.

    ``h_norm`` = ||H(t)|| sets the floor ``1e-12 * o_scale * max(1, ||H||)`` of
    a zero residual.  When it is None it is taken here, with a warning, issued at
    the public check's caller, outside the continuum regime.
    """
    if h_norm is None:
        h_norm = engine.hamiltonian.evaluate(t).norm()
        regime = engine.grid.tau * h_norm / engine.hbar
        if regime > REGIME_BOUND:
            warnings.warn(f"tau*||H||/hbar = {regime:.2f} > {REGIME_BOUND}; "
                          f"difference quotients are far from the continuum regime",
                          stacklevel=3)
    tau = engine.grid.tau
    r_tau = residual_at(tau)
    r_half = residual_at(tau / 2)
    floor = 1e-12 * (o_scale * max(1.0, h_norm))
    if r_tau <= floor:
        ratio, passed = 0.0, True
    else:
        ratio = r_half / r_tau
        passed = ratio <= 0.6
    return CheckReport(
        name=name,
        passed=passed,
        residuals={"residual_tau": r_tau, "residual_half_tau": r_half,
                   "halving_ratio": ratio},
    )


def heisenberg_residual(engine: EvolutionEngine, o_expr: ObservableExpr | str,
                        t: float, h_norm: float | None = None) -> CheckReport:
    """:func:`heisenberg_step_residual` of O at tau and tau/2.  ``h_norm`` = ||H(t)|| is
    taken here, with a warning outside the continuum regime, when not given."""
    node = parse(o_expr) if isinstance(o_expr, str) else o_expr
    ham = engine.hamiltonian
    h_t, o_t, v = ham.evaluate(t).entries, ham.value(node, t), np.eye(engine.dim, dtype=complex)
    return _halving_report(  # one step from the identity frame: V_1 = U(t, s) in any order
        "heisenberg_residual", engine, t, h_norm,
        lambda s: heisenberg_step_residual(engine, node, t, s, v, h_t, o_t.entries, _conjugate(
            engine.unitary(t, s).entries, ham.value(node, t + s)).entries),
        max(1.0, o_t.norm()))


def schrodinger_residual(engine: EvolutionEngine, psi: StateVector,
                         t: float, h_norm: float | None = None) -> CheckReport:
    """:func:`schrodinger_step_residual` of Psi at tau and tau/2; ``h_norm`` as in
    :func:`heisenberg_residual`."""
    return _halving_report(
        "schrodinger_residual", engine, t, h_norm,
        lambda step: schrodinger_step_residual(engine, psi, t, step))


def von_neumann_residual(engine: EvolutionEngine, d: DensityObservable,
                         t: float, h_norm: float | None = None) -> CheckReport:
    """:func:`von_neumann_step_residual` of D at tau and tau/2; ``h_norm`` as in
    :func:`heisenberg_residual`."""
    return _halving_report(
        "von_neumann_residual", engine, t, h_norm,
        lambda s: von_neumann_step_residual(
            engine, d.matrix.entries, von_neumann_step(engine, d, t, s).matrix.entries, t, s))


# ---------------------------------------------------------------------------
# symmetries and constants of motion
# ---------------------------------------------------------------------------

def _framed(v: np.ndarray, o: np.ndarray) -> np.ndarray:
    """V O V^dagger, per matrix of a stack of V."""
    return v @ o @ v.conj().swapaxes(-1, -2)


def symmetry_check(engine: EvolutionEngine, f: Observable) -> CheckReport:
    """Triple criterion for a continuous symmetry generated by F.

    (a) e^{i xi F} H e^{-i xi F} = H for xi in 0.37, 1 and 2.5, all three read from one
    spectral frame of F, (b) [F, H] = 0, (c) zero drift ||V_m F V_m^dagger - F|| over the
    Heisenberg frames of the grid, one stacked norm per chunk.  Passes when the three
    verdicts agree at tolerance 1e-9 * scale.
    """
    f = as_observable(f)
    h = engine.hamiltonian.evaluate(engine.grid.t0)
    frame, columns, _ = _spectral_frame(f.entries)
    r = _spectral_apply(frame, np.exp(1j * np.multiply.outer((0.37, 1.0, 2.5), columns)))
    conj_residual = float(np.max(opnorm(_framed(r, h.entries) - h.entries)))
    comm_residual = opnorm(commutator(f, h).entries)
    drift = max(float(np.max(opnorm(_framed(chunk.frames, f.entries) - f.entries)))
                for chunk in engine.trajectory(frames=True))
    f_scale = max(1.0, f.norm())
    h_scale = max(1.0, h.norm())
    conj_pass = conj_residual <= 1e-9 * h_scale
    comm_pass = comm_residual <= 1e-9 * f_scale * h_scale
    drift_pass = drift <= 1e-9 * f_scale
    return CheckReport(
        name="symmetry_triple_criterion",
        passed=(conj_pass == comm_pass == drift_pass),
        residuals={"conjugation_residual": conj_residual,
                   "commutator_residual": comm_residual,
                   "drift_residual": drift},
        details={"conjugation_pass": conj_pass, "commutator_pass": comm_pass,
                 "drift_pass": drift_pass},
    )


def compatibility_persistence_check(engine: EvolutionEngine, a: Observable,
                                    b: Observable) -> CheckReport:
    """||[V_m A V_m^dagger, V_m B V_m^dagger]|| stays constant over the Heisenberg frames,
    one stacked norm per chunk."""
    a, b = as_observable(a), as_observable(b)
    scale = max(1.0, a.norm() * b.norm())
    initial = opnorm(commutator(a, b).entries)
    worst = 0.0
    for chunk in engine.trajectory(frames=True):
        a_m, b_m = (_framed(chunk.frames, x.entries) for x in (a, b))
        worst = max(worst, float(np.max(np.abs(opnorm(a_m @ b_m - b_m @ a_m) - initial))))
    return CheckReport(
        name="compatibility_persistence",
        passed=worst <= 1e-10 * scale,
        residuals={"commutator_drift": worst, "initial_commutator": initial},
    )


def temporal_abscissa_check(n: int, tau_units: float, hbar: float = 1.0) -> CheckReport:
    """The event-time observable T and its conjugate Hamiltonian.

    T is a linear-spectrum observable with resolution tau whose conjugate
    momentum plays the Hamiltonian; conjugation by exp(i (tau/hbar) H)
    translates T by exactly one resolution step (modulo the window), checked
    at projector-label level.  Time reversal, realized as entrywise
    conjugation in the energy eigenbasis, fixes H exactly and flips T up to
    the single unpaired edge mode of norm 2 n tau.  ||T|| and ||H|| are the
    magnitudes of the edge labels.
    """
    pair = make_canonical_pair(make_position(n, tau_units), hbar)
    t_obs = pair.q.observable

    # translation at label level: U T U^dagger carries label t_{j+1} at slot j
    u = pair._momentum_exponential()  # exp(i (tau/hbar) H), as tau is T's resolution
    step_error = u.distance(pair.s)
    moved = u.entries @ t_obs.entries @ u.entries.conj().T
    frame = pair.q.basis.frame
    moved_labels = np.real(np.diag(frame.conj().T @ moved @ frame))
    target_labels = np.array(translate_labels(pair, 1))
    label_residual = float(np.max(np.abs(moved_labels - target_labels)))
    wrap_ok = target_labels[-1] == -n * tau_units  # top slot wraps to the window floor
    zero_ok = translate_labels(pair, 0) == pair.q.spectrum

    # time-reversal parity in the energy frame
    h_defect, _, defect_norm, parity_residual = _reversal_parity(pair.momentum, pair.q)
    scale = max(1.0, abs(pair.q.spectrum[0]))
    passed = (label_residual <= 1e-12 * scale and wrap_ok and zero_ok
              and step_error <= TOL_RECON
              and h_defect <= 1e-12 * max(1.0, abs(pair.momentum_spectrum[0]))
              and parity_residual <= TOL_RECON * scale
              and abs(defect_norm - 2 * n * tau_units) <= TOL_RECON * scale)
    return CheckReport(
        name="temporal_abscissa",
        passed=passed,
        residuals={"label_residual": label_residual,
                   "minimal_step_error": step_error,
                   "hamiltonian_conjugation_defect": h_defect,
                   "parity_rank_one_residual": parity_residual,
                   "parity_defect_norm_error": abs(defect_norm - 2 * n * tau_units)},
        details={"dim": pair.dim, "expected_defect_norm": 2 * n * tau_units,
                 "translated_labels": target_labels.tolist()},
    )
