"""Output checks: goldens, verdicts and an independent reference propagation.

Every operation the benchmark runs ends in a list of problems; an operation
with any problem counts as failed.  The benchmark never compares timings
here, only what obsalg computed.
"""

from __future__ import annotations

import gzip
from pathlib import Path

import numpy as np

# Goldens and the first pass of a run must agree to this, relative to each
# column's magnitude: its largest absolute value, and at least 1.  Judging a
# column by its own scale keeps small entries inside a large column from
# tripping the check.  The floor at 1 keeps columns that hold only
# roundoff-sized deviations from a unit quantity (state_drift is
# | ||psi|| - 1 |, the sweep's residuals are relative) from tripping on
# their meaningless last digits.
GOLDEN_RTOL = 1e-12
# The reference propagation diagonalizes with LAPACK directly while obsalg
# goes through projector sums with eigenvalue clustering; over thousands of
# steps the two agree to about 1e-12, far inside this bound.
REFERENCE_RTOL = 1e-8
DRIFT_TOL = 1e-10


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self, keep: int = 20):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._keep = keep

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = self._keep - len(self.problems)
            self.problems.extend(f"{op}: {p}" for p in problems[:max(0, room)])

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def compare_tables(got: tuple[list[str], np.ndarray],
                   want: tuple[list[str], np.ndarray],
                   rtol: float = GOLDEN_RTOL) -> list[str]:
    """Column-wise relative comparison of two CSV tables."""
    (g_head, g), (w_head, w) = got, want
    if g_head != w_head:
        return [f"header {g_head} != {w_head}"]
    if g.shape != w.shape:
        return [f"shape {g.shape} != {w.shape}"]
    problems = []
    for j, name in enumerate(g_head):
        scale = max(float(np.max(np.abs(w[:, j]), initial=0.0)), 1.0)
        err = float(np.max(np.abs(g[:, j] - w[:, j]), initial=0.0)) / scale
        if not err <= rtol:
            problems.append(f"column {name}: relative difference {err:.3e} > {rtol:.0e}")
    return problems


def verdicts(audit_doc: dict) -> list[tuple[str, bool]]:
    return [(c["name"], bool(c["pass"])) for c in audit_doc["checks"]]


def compare_verdicts(got: dict, want: list) -> list[str]:
    got_v = verdicts(got)
    want_v = [tuple(v) for v in want]
    if got_v != want_v:
        changed = [f"{a}" for a, b in zip(got_v, want_v) if a != b]
        return [f"verdicts differ from golden ({len(got_v)} vs {len(want_v)} checks; "
                f"first changes {changed[:3]})"]
    return []


def failing_checks(audit_doc: dict) -> list[str]:
    failing = [name for name, ok in verdicts(audit_doc) if not ok]
    problems = [f"check FAIL: {name}" for name in failing]
    if audit_doc.get("all_pass") is not True and not failing:
        problems.append("all_pass is not true")
    return problems


# ---------------------------------------------------------------------------
# reference propagation
# ---------------------------------------------------------------------------

def step_unitary(h: np.ndarray, step: float, hbar: float) -> np.ndarray:
    """exp(i (step/hbar) H) from one LAPACK eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * (step / hbar) * w)) @ v.conj().T


def reference_expectations(h_of_t, observables: list[np.ndarray], psi0: np.ndarray,
                           tau: float, steps: int, t0: float, picture: str,
                           hbar: float, time_dependent: bool) -> np.ndarray:
    """Expectation rows of the grid, evolved the way obsalg defines a step.

    Schroedinger: psi <- U(t)^dagger psi.  Heisenberg: O_m = V_m O V_m^dagger
    with V_{m+1} = U(t_m) V_m, read in the fixed initial state.  U(t) uses H
    at the step's start time (left-point rule).
    """
    psi = psi0.astype(complex)
    conj = np.eye(len(psi0), dtype=complex)
    rows = np.empty((steps + 1, len(observables)))
    u = None if time_dependent else step_unitary(h_of_t(t0), tau, hbar)
    for m in range(steps + 1):
        if picture == "schrodinger":
            rows[m] = [np.real(psi.conj() @ (o @ psi)) for o in observables]
        else:
            phi = conj.conj().T @ psi0
            rows[m] = [np.real(phi.conj() @ (o @ phi)) for o in observables]
        if m == steps:
            break
        if time_dependent:
            u = step_unitary(h_of_t(t0 + m * tau), tau, hbar)
        if picture == "schrodinger":
            psi = u.conj().T @ psi
        else:
            conj = u @ conj
    return rows


def check_trace(table: tuple[list[str], np.ndarray], scenario, reference: np.ndarray,
                golden=None, first=None) -> list[str]:
    """Check one trace CSV of ``scenario`` (a workloads.Scenario).

    Always: shape, finiteness, state drift and agreement of the expectation
    columns with ``reference`` (rows of :func:`reference_expectations`).  With ``golden``: every column
    within GOLDEN_RTOL.  With ``first`` (the run's first output of the same
    input): every column within GOLDEN_RTOL, so each pass is checked too.
    """
    header, data = table
    want_header = ["step", "t", *scenario.traced, "equation_residual", "state_drift"]
    if header != want_header:
        return [f"header {header} != {want_header}"]
    if data.shape[0] != scenario.steps + 1:
        return [f"{data.shape[0]} rows for {scenario.steps} steps"]
    if not np.all(np.isfinite(data)):
        return ["non-finite values in trace"]
    problems = []
    drift = float(np.max(data[:, -1]))
    if drift > DRIFT_TOL:
        problems.append(f"state drift {drift:.3e} > {DRIFT_TOL:.0e}")
    cols = slice(2, 2 + len(scenario.traced))
    problems += [f"reference: {p}" for p in compare_tables(
        (header[cols], data[:, cols]), (header[cols], reference), REFERENCE_RTOL)]
    if golden is not None:
        problems += [f"golden: {p}" for p in compare_tables(table, golden)]
    if first is not None:
        problems += [f"first pass: {p}" for p in compare_tables(table, first)]
    return problems


def check_close(name: str, got: np.ndarray, want: np.ndarray, rtol: float) -> list[str]:
    err = float(np.max(np.abs(got - want)))
    scale = max(1.0, float(np.max(np.abs(want))))
    if not err <= rtol * scale:  # also catches NaN
        return [f"{name}: difference {err:.3e} > {rtol:.0e} x {scale:.3g}"]
    return []
