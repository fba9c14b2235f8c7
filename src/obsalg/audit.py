"""Randomized invariant suites across dimensions, for the CLI audit command.

Every suite is seeded; identical (dims, seed) produce identical reports.
"""

from __future__ import annotations

import math

import numpy as np

from .canonical import MAX_LEVELS, conjugation_parity_check, make_canonical_pair, make_position
from .core import PseudoObservable
from .evolution import EvolutionEngine, Hamiltonian, TimeGrid, heisenberg_step, reverse_step
from .expr import EvalContext
from .rand import (
    random_density,
    random_hermitian,
    random_hermitian_with_spectrum,
    random_matrix,
    random_unitary,
)
from .report import CheckReport
from .states import DensityObservable, expectation, transform_density
from .transforms import (
    apply,
    from_unitary,
    invariance_characterization,
    spectrum_preservation_check,
    unitary_exponential,
)


def automorphism_suite(rng, dim: int, cases: int = 100) -> CheckReport:
    worst = {"additivity": 0.0, "multiplicativity": 0.0,
             "scalar_invariance": 0.0, "dagger_equivariance": 0.0}
    for _ in range(cases):
        t = from_unitary(random_unitary(rng, dim))
        a, b = random_matrix(rng, dim), random_matrix(rng, dim)
        gamma = complex(rng.normal(), rng.normal())
        scale = max(1.0, a.norm() + b.norm())
        worst["additivity"] = max(
            worst["additivity"],
            apply(t, a + b).distance(apply(t, a) + apply(t, b)) / scale)
        worst["multiplicativity"] = max(
            worst["multiplicativity"],
            apply(t, a @ b).distance(apply(t, a) @ apply(t, b)) / scale ** 2)
        constant = gamma * PseudoObservable.identity(dim)
        worst["scalar_invariance"] = max(
            worst["scalar_invariance"],
            apply(t, constant).distance(constant) / max(1.0, abs(gamma)))
        worst["dagger_equivariance"] = max(
            worst["dagger_equivariance"],
            apply(t, a.dagger()).distance(apply(t, a).dagger()) / scale)
    return CheckReport(name=f"automorphism_laws_dim{dim}",
                       passed=all(v < 1e-10 for v in worst.values()),
                       residuals=worst)


def generatrix_suite(rng, dim: int, cases: int = 20) -> CheckReport:
    worst = 0.0
    for _ in range(cases):
        g = random_hermitian_with_spectrum(rng, dim, -math.pi + 1e-3, math.pi - 1e-3)
        recovered = from_unitary(unitary_exponential(g)).generatrix
        worst = max(worst, recovered.distance(g))
    return CheckReport(name=f"generatrix_round_trip_dim{dim}",
                       passed=worst < 1e-9,
                       residuals={"round_trip_residual": worst})


def invariance_suite(rng, dim: int, cases: int = 100) -> CheckReport:
    disagreements = 0
    for case in range(cases):
        t = from_unitary(random_unitary(rng, dim))
        if case % 2 == 0:
            a = random_hermitian(rng, dim)  # generically non-invariant
        else:
            from .core import apply_function
            a = apply_function(lambda x: x ** 2 - x, t.generatrix)  # invariant
        if not invariance_characterization(t, a).passed:
            disagreements += 1
    return CheckReport(name=f"invariance_biconditional_dim{dim}",
                       passed=disagreements == 0,
                       residuals={"disagreements": float(disagreements)})


def duality_suite(rng, dim: int, cases: int = 100) -> CheckReport:
    worst = 0.0
    for _ in range(cases):
        t = from_unitary(random_unitary(rng, dim))
        d = DensityObservable(random_density(rng, dim))
        p = random_matrix(rng, dim)
        lhs = expectation(d, apply(t, p))
        rhs = expectation(transform_density(t, d), p)
        worst = max(worst, abs(lhs - rhs))
    return CheckReport(name=f"picture_duality_dim{dim}",
                       passed=worst < 1e-10,
                       residuals={"duality_residual": worst})


def spectrum_suite(rng, dim: int, cases: int = 10) -> CheckReport:
    worst = 0.0
    ok = True
    for _ in range(cases):
        t = from_unitary(random_unitary(rng, dim))
        a = random_hermitian(rng, dim)
        report = spectrum_preservation_check(t, a)
        ok = ok and report.passed
        worst = max(worst, report.residuals["spectrum_residual"])
    return CheckReport(name=f"spectrum_preservation_dim{dim}",
                       passed=ok,
                       residuals={"spectrum_residual": worst})


def weyl_suite(dim: int) -> CheckReport:
    pair = make_canonical_pair(make_position(dim // 2, 1.0))
    from .canonical import weyl_residual
    report = weyl_residual(pair)
    parity = conjugation_parity_check(pair)
    return CheckReport(name=f"weyl_obstruction_dim{dim}",
                       passed=report.passed and parity.passed,
                       residuals={**report.residuals,
                                  "edge_defect_weight": parity.residuals["edge_defect_weight"]})


def reversal_suite(rng, dim: int, steps: int = 100) -> CheckReport:
    h = random_hermitian(rng, dim)
    ctx = EvalContext(dim=dim, operators={"H0": h})
    engine = EvolutionEngine(Hamiltonian("H0", ctx), TimeGrid(tau=0.05, steps=steps))
    o = random_hermitian(rng, dim)
    current = o
    for _ in range(steps):
        current = heisenberg_step(engine, current, 0.0)
    for _ in range(steps):
        current = reverse_step(engine, current, 0.0)
    residual = current.distance(o)
    return CheckReport(name=f"reversal_round_trip_dim{dim}",
                       passed=residual < 1e-8,
                       residuals={"round_trip_residual": residual})


MAX_DIM = 2 * MAX_LEVELS  # the largest dimension an audit takes, its Weyl pair's 2n


def run_audit(dims: list[int], seed: int, planted_failure: bool = False) -> dict:
    """All suites across the requested dims; deterministic for a given seed.

    ``obsalg audit --dims`` takes each d from 2 to MAX_DIM, the dimension of the largest
    canonical pair that ``make_position`` admits, since the Weyl suite builds one with
    n = d/2; that bound, 32 d x d complex arrays in 8 GiB, is derived there.  A suite
    holds fewer: its tracemalloc peak is 10 such arrays in the automorphism suite and at
    most 9 in the others, at d = 256 and at d = 512 alike.
    """
    checks: list[CheckReport] = []
    for dim in dims:
        rng = np.random.default_rng([seed, dim])
        checks.append(automorphism_suite(rng, dim))
        checks.append(generatrix_suite(rng, dim))
        checks.append(invariance_suite(rng, dim))
        checks.append(duality_suite(rng, dim))
        checks.append(spectrum_suite(rng, dim))
        if dim % 2 == 0 and dim >= 4:
            checks.append(weyl_suite(dim))
        checks.append(reversal_suite(rng, dim))
    if planted_failure:
        checks.append(CheckReport(
            name="planted_failure_self_test",
            passed=False,
            residuals={"planted": 1.0},
            details={"note": "negative control requested via flag"},
        ))
    return {
        "seed": seed,
        "dims": dims,
        "all_pass": all(c.passed for c in checks),
        "checks": [c.to_json_entry() for c in checks],
    }
