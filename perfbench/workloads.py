"""The benchmark's workloads: generated inputs and the obsalg calls on them.

A workload is a list of operations.  Each operation has a timed ``call``
into obsalg's public surface (``obsalg.cli.main`` or the public API) and an
untimed ``check`` of what the call produced.  One pass runs every operation
once, in order, one call at a time.

Inputs depend only on the workload seed.  Goldens were recorded for
``DEFAULT_SEED`` (``record_goldens.py``); other seeds are checked against
the reference propagation and obsalg's own verdicts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

DEFAULT_SEED = 0
GOLDENS = Path(__file__).resolve().parent / "goldens"

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
TWO_PI_OVER_1000 = 0.006283185307179587


def matrix_doc(m: np.ndarray) -> dict:
    return {"dim": m.shape[0],
            "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """obsalg's CLI in this process; returns (exit code, captured stderr)."""
    from obsalg.cli import main
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class FreshPaths:
    """A new output path for every call, removed once checked.

    Rewriting an existing file costs tens of milliseconds on ext4, which
    flushes a file truncated and rewritten in place when it is closed;
    fresh paths keep that filesystem artefact out of the timings.
    """

    def __init__(self, stem: Path, suffix: str = ""):
        self.stem, self.suffix, self.count = stem, suffix, 0
        self.current: Path | None = None

    def next(self) -> Path:
        self.count += 1
        self.current = self.stem.with_name(f"{self.stem.name}-{self.count}{self.suffix}")
        return self.current

    def discard(self) -> None:
        if self.current is not None and self.current.is_dir():
            shutil.rmtree(self.current)
        elif self.current is not None:
            self.current.unlink(missing_ok=True)


def exit_problems(code, stderr: str) -> list[str]:
    if code == 0:
        return []
    return [f"exit code {code}: {stderr.strip()[:200]}"]


# ---------------------------------------------------------------------------
# evolution scenarios
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """One ``obsalg run`` config, and the same physics in plain NumPy.

    ``h(ops, t)`` and the ``traced_ref`` builders take the operator matrices
    by name (Q and P of the canonical pair, or the qubit's SX and SZ).
    """

    name: str
    hamiltonian: str
    traced: dict[str, str]
    h: Callable[[dict, float], np.ndarray]
    traced_ref: dict[str, Callable[[dict], np.ndarray]]
    tau: float
    steps: int
    picture: str = "schrodinger"
    n: int | None = None
    epsilon: float | None = None
    constants: dict[str, float] = field(default_factory=dict)
    config_seed: int = 0
    time_dependent: bool = False

    def doc(self, psi0: np.ndarray) -> dict:
        doc = {"name": self.name, "hamiltonian": self.hamiltonian,
               "constants": self.constants, "picture": self.picture,
               "grid": {"tau": self.tau, "steps": self.steps, "t0": 0.0},
               "observables_to_trace": self.traced, "seed": self.config_seed,
               "initial_state": [[float(z.real), float(z.imag)] for z in psi0]}
        if self.n is None:
            doc["operators"] = {"SX": matrix_doc(SX), "SZ": matrix_doc(SZ)}
        else:
            doc["n"], doc["epsilon"] = self.n, self.epsilon
        return doc

    def operators(self) -> dict:
        if self.n is None:
            return {"SX": SX, "SZ": SZ}
        from obsalg import make_canonical_pair, make_position
        pair = make_canonical_pair(make_position(self.n, self.epsilon))
        return {"Q": np.array(pair.q.observable.entries), "P": np.array(pair.p.entries)}


def _oscillator_h(o, t):
    return o["P"] @ o["P"] / 2 + o["Q"] @ o["Q"] / 2


def static_scenarios() -> list[Scenario]:
    """The four bundled scenarios' physics (m = omega = hbar = 1), longer."""
    osc = "P^2/(2*m) + (m*omega^2/2)*Q^2"
    return [
        Scenario("rabi", "(omega/2)*SX",
                 {"sz": "SZ", "sx": "SX", "energy": "(omega/2)*SX"},
                 lambda o, t: o["SX"] / 2,
                 {"sz": lambda o: o["SZ"], "sx": lambda o: o["SX"],
                  "energy": lambda o: o["SX"] / 2},
                 tau=TWO_PI_OVER_1000, steps=4000, constants={"omega": 1.0},
                 config_seed=7),
        Scenario("oscillator", osc, {"q": "Q", "p": "P", "energy": osc},
                 _oscillator_h,
                 {"q": lambda o: o["Q"], "p": lambda o: o["P"],
                  "energy": lambda o: _oscillator_h(o, 0.0)},
                 tau=0.002, steps=800, n=16, epsilon=0.25,
                 constants={"m": 1.0, "omega": 1.0}, config_seed=11),
        Scenario("free_particle", "P^2/(2*m)",
                 {"q": "Q", "p": "P", "energy": "P^2/(2*m)"},
                 lambda o, t: o["P"] @ o["P"] / 2,
                 {"q": lambda o: o["Q"], "p": lambda o: o["P"],
                  "energy": lambda o: o["P"] @ o["P"] / 2},
                 tau=0.01, steps=1000, n=8, epsilon=0.5, constants={"m": 1.0},
                 config_seed=3),
        Scenario("abscissa", "P", {"t_event": "Q", "generator": "P"},
                 lambda o, t: o["P"],
                 {"t_event": lambda o: o["Q"], "generator": lambda o: o["P"]},
                 tau=0.5, steps=400, picture="heisenberg", n=8, epsilon=0.5,
                 config_seed=5),
    ]


def driven_scenarios() -> list[Scenario]:
    """Explicitly time-dependent H: every step needs a new unitary."""
    omega, delta, nu_q = 1.0, 0.5, 1.3
    force, nu_o = 0.5, 0.9
    return [
        Scenario("driven_qubit", "(omega/2)*cos(nu*t)*SX + (delta/2)*SZ",
                 {"sz": "SZ", "sx": "SX"},
                 lambda o, t: omega / 2 * math.cos(nu_q * t) * o["SX"] + delta / 2 * o["SZ"],
                 {"sz": lambda o: o["SZ"], "sx": lambda o: o["SX"]},
                 tau=TWO_PI_OVER_1000, steps=2000, picture="heisenberg",
                 constants={"omega": omega, "delta": delta, "nu": nu_q},
                 config_seed=13, time_dependent=True),
        Scenario("driven_oscillator",
                 "P^2/(2*m) + (m*omega^2/2)*Q^2 + F*cos(nu*t)*Q",
                 {"q": "Q", "p": "P"},
                 lambda o, t: _oscillator_h(o, t) + force * math.cos(nu_o * t) * o["Q"],
                 {"q": lambda o: o["Q"], "p": lambda o: o["P"]},
                 tau=0.002, steps=1500, n=16, epsilon=0.25,
                 constants={"m": 1.0, "omega": 1.0, "F": force, "nu": nu_o},
                 config_seed=17, time_dependent=True),
    ]


class RunOp:
    """``obsalg run <generated config> --out <dir>``; metric in us per step."""

    unit = "us"

    def __init__(self, scenario: Scenario, index: int, seed: int, workdir: Path,
                 with_goldens: bool):
        rng = np.random.default_rng([seed, index])
        dim = 2 if scenario.n is None else 2 * scenario.n
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi = psi / np.linalg.norm(psi)
        self.scenario = scenario
        self.metric = f"{scenario.name}.us_per_step"
        self.scale = 1e6 / scenario.steps
        self.config = workdir / f"{scenario.name}.json"
        self.config.write_text(json.dumps(scenario.doc(psi)))
        self.outputs = FreshPaths(workdir / scenario.name)
        self.psi = psi
        self.reference = None
        self.golden = self.golden_verdicts = None
        if with_goldens:
            self.golden = checks.read_csv(GOLDENS / f"{scenario.name}_trace.csv.gz")
            self.golden_verdicts = json.loads(
                (GOLDENS / f"{scenario.name}_verdicts.json").read_text())
        self.first = None

    def call(self):
        return run_cli(["run", str(self.config), "--out", str(self.outputs.next())])

    def read_outputs(self):
        out, name = self.outputs.current, self.scenario.name
        table = checks.read_csv(out / f"{name}_trace.csv")
        audit = json.loads((out / f"{name}_audit.json").read_text())
        self.outputs.discard()
        return table, audit

    def check(self, result) -> list[str]:
        problems = exit_problems(*result)
        if result[0] not in (0, 1):
            return problems
        table, audit = self.read_outputs()
        problems += checks.failing_checks(audit)
        if self.golden_verdicts is not None:
            problems += checks.compare_verdicts(audit, self.golden_verdicts)
        if self.reference is None:  # computed after set-up: it is not obsalg's cost
            s, ops = self.scenario, self.scenario.operators()
            self.reference = checks.reference_expectations(
                lambda t: s.h(ops, t), [f(ops) for f in s.traced_ref.values()],
                self.psi, s.tau, s.steps, 0.0, s.picture, 1.0, s.time_dependent)
        problems += checks.check_trace(table, self.scenario, self.reference,
                                       self.golden, self.first)
        if self.first is None:
            self.first = table
        return problems


# ---------------------------------------------------------------------------
# spectral scale
# ---------------------------------------------------------------------------

WEYL_N_LIST = "32,64,128"
SPECTRAL_DIM = 256


def random_hermitian_in_branch(rng, dim: int) -> np.ndarray:
    """Hermitian with spectrum uniform in (-pi, pi), away from the seam."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    spectrum = rng.uniform(-math.pi + 0.05, math.pi - 0.05, size=dim)
    g = (q * spectrum) @ q.conj().T
    return (g + g.conj().T) / 2


class SweepOp:
    metric, unit, scale = "weyl_sweep_s", "s", 1.0

    def __init__(self, workdir: Path, with_golden: bool):
        self.outputs = FreshPaths(workdir / "sweep_weyl", ".csv")
        self.golden = checks.read_csv(GOLDENS / "sweep_weyl.csv") if with_golden else None

    def call(self):
        return run_cli(["sweep", "weyl", "--n-list", WEYL_N_LIST,
                        "--out", str(self.outputs.next())])

    def check(self, result) -> list[str]:
        problems = exit_problems(*result)
        if result[0] == 0 and self.golden is not None:
            problems += [f"golden: {p}" for p in checks.compare_tables(
                checks.read_csv(self.outputs.current), self.golden)]
        self.outputs.discard()
        return problems


class ExpmOp:
    """``unitary_exponential`` on a seeded Hermitian G, against eigh."""

    metric, unit, scale = f"expm_ms.d{SPECTRAL_DIM}", "ms", 1e3

    def __init__(self, rng):
        from obsalg import Observable
        g = random_hermitian_in_branch(rng, SPECTRAL_DIM)
        self.g = Observable(g)
        self.want = self.first = None

    def call(self):
        from obsalg import unitary_exponential
        return unitary_exponential(self.g)

    def check(self, result) -> list[str]:
        got = np.array(result.entries)
        if self.want is None:
            self.want = checks.step_unitary(np.array(self.g.entries), 1.0, 1.0)
        problems = checks.check_close("exp(iG) vs eigh reference", got, self.want, 1e-10)
        if self.first is None:
            self.first = got
        problems += checks.check_close("exp(iG) vs first pass", got, self.first,
                                       checks.GOLDEN_RTOL)
        return problems


class FromUnitaryOp:
    """``from_unitary`` on W = exp(iG); the generatrix must come back as G."""

    metric, unit, scale = f"from_unitary_ms.d{SPECTRAL_DIM}", "ms", 1e3

    def __init__(self, rng):
        from obsalg import PseudoObservable
        self.g = random_hermitian_in_branch(rng, SPECTRAL_DIM)
        self.w = PseudoObservable(checks.step_unitary(self.g, 1.0, 1.0))

    def call(self):
        from obsalg import from_unitary
        return from_unitary(self.w)

    def check(self, result) -> list[str]:
        return checks.check_close("generatrix vs G", np.array(result.generatrix.entries),
                                  self.g, 1e-9)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

AUDIT_DIMS = "4,8,16"
AUDIT_SEED_STRIDE = 1000


class AuditOp:
    """``obsalg audit --dims 4,8,16`` on the next of consecutive seeds."""

    metric, unit, scale = "audit_call_s", "s", 1.0

    def __init__(self, seed: int, workdir: Path, with_goldens: bool):
        self.base = seed * AUDIT_SEED_STRIDE
        self.calls = 0
        self.outputs = FreshPaths(workdir / "audit", ".json")
        self.golden = (json.loads((GOLDENS / "audit_verdicts.json").read_text())
                       if with_goldens else {})

    def call(self):
        self.seed = self.base + self.calls
        self.calls += 1
        return run_cli(["audit", "--dims", AUDIT_DIMS, "--seed", str(self.seed),
                        "--out", str(self.outputs.next())])

    def read_report(self) -> dict:
        report = json.loads(self.outputs.current.read_text())
        self.outputs.discard()
        return report

    def check(self, result) -> list[str]:
        problems = exit_problems(*result)
        if result[0] not in (0, 1):
            return problems
        report = self.read_report()
        problems += checks.failing_checks(report)
        golden = self.golden.get(str(self.seed))
        if golden is not None:
            problems += checks.compare_verdicts(report, golden)
        return problems


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

WORKLOADS = {
    "static_evolution": "constant H re-diagonalized every step; propagator "
                        "caching, trace-loop and validation changes show here",
    "driven_evolution": "time-dependent H needs a new unitary every step, so "
                        "constant-H caching must not move it; cache memory shows",
    "spectral_scale": "d up to 256, LAPACK- and memory-bound, no evolution "
                      "code; the O(d^3) projector path shows in time and RSS",
    "audit": "hundreds of small-matrix calls (d <= 16) where Python overhead "
             "and per-intermediate validation dominate",
}
# Runnable but not listed in BENCHMARK.json.  A gated run must have no failed
# call, and obsalg's from_unitary fails on about 0.6% of audit seeds (NOTES.md,
# "Known program defect").  The seeds are not screened to hide that, so audit
# stays out of the gated set until the defect is fixed.
UNGATED = ("audit",)


def build(name: str, seed: int, workdir: Path, goldens: bool = True) -> list:
    """Generate the inputs of workload ``name`` and return its operations.

    The Weyl sweep does not depend on the seed, so its golden applies to
    every seed; the other goldens exist for ``DEFAULT_SEED`` only.
    """
    with_goldens = goldens and seed == DEFAULT_SEED
    if name in ("static_evolution", "driven_evolution"):
        scenarios = static_scenarios() if name == "static_evolution" else driven_scenarios()
        return [RunOp(s, i, seed, workdir, with_goldens) for i, s in enumerate(scenarios)]
    if name == "spectral_scale":
        rng = np.random.default_rng([seed, SPECTRAL_DIM])
        return [SweepOp(workdir, goldens), ExpmOp(rng), FromUnitaryOp(rng)]
    if name == "audit":
        return [AuditOp(seed, workdir, with_goldens)]
    raise ValueError(f"unknown workload {name!r}")
