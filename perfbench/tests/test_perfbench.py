"""Self-tests of the benchmark: span arithmetic, the percentile rule, the
output checks and their negative controls, and the known obsalg defect
that keeps the audit workload ungated.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        inner()
        inner()
        clock.now += 0.5

    def root():
        outer()
        clock.now += 3.0

    inner = t.wrap("leaf", leaf)
    outer = t.wrap("middle", middle)
    t.wrap("top", root)()
    assert t.stats["leaf"].calls == 2
    assert t.stats["leaf"].self_s == pytest.approx(4.0)
    assert t.stats["middle"].total_s == pytest.approx(5.5)
    assert t.stats["middle"].self_s == pytest.approx(1.5)
    assert t.stats["top"].total_s == pytest.approx(8.5)
    assert t.stats["top"].self_s == pytest.approx(3.0)
    total_self = sum(s.self_s for s in t.stats.values())
    assert total_self == pytest.approx(t.stats["top"].total_s)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    wrapped = t.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert t.stats["boom"].calls == 1 and t.stats["boom"].self_s == pytest.approx(1.0)
    assert not t._stack


@pytest.mark.parametrize("n, p", [(1, None), (19, None), (20, 50), (99, 50),
                                  (100, 90), (199, 90), (200, 95), (1000, 99),
                                  (9999, 99), (10000, 99.9)])
def test_percentile_rule_keeps_ten_samples_beyond(n, p):
    assert run.reportable_percentile(n) == p


def test_summary_reports_median_count_and_percentile():
    summary = run.summarize([float(x) for x in range(1, 101)])
    assert summary["median"] == 50.5
    assert summary["samples"] == 100
    assert summary["percentile"] == 90 and summary["percentile_value"] == 90.0
    assert run.summarize([3.0, 1.0, 2.0])["percentile_value"] is None


def test_column_scale_ignores_small_entries_of_large_columns():
    want = (["a", "b"], np.array([[100.0, 1e-17], [1e-300, 0.0]]))
    got = (["a", "b"], np.array([[100.0 + 5e-11, 3e-17], [2e-300, 4e-16]]))
    assert checks.compare_tables(got, want) == []
    bad = (["a", "b"], np.array([[100.0 + 2e-9, 0.0], [0.0, 0.0]]))
    assert len(checks.compare_tables(bad, want)) == 1


def test_reference_propagation_matches_a_closed_form():
    # spin-1/2 precession: <SZ>(t) = cos(omega t) from |0>, U = exp(i tau H)
    sx = workloads.SX
    rows = checks.reference_expectations(
        lambda t: sx, [workloads.SZ], np.array([1, 0], dtype=complex),
        tau=0.01, steps=100, t0=0.0, picture="schrodinger", hbar=1.0,
        time_dependent=False)
    assert np.allclose(rows[:, 0], np.cos(2 * 0.01 * np.arange(101)), atol=1e-12)


# ---------------------------------------------------------------------------
# negative controls: each planted fault must be counted as a failed operation
# ---------------------------------------------------------------------------

def test_planted_golden_mismatch_is_counted(tmp_path):
    op = workloads.build("static_evolution", workloads.DEFAULT_SEED, tmp_path)[0]
    op.golden = (op.golden[0], op.golden[1].copy())
    op.golden[1][5, 2] += 1e-9  # one expectation entry of the rabi golden
    tally = checks.Tally()
    run.run_pass([op], tally, {})
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "golden: column sz" in tally.problems[0]


def test_planted_nonzero_exit_is_counted(tmp_path):
    op = workloads.AuditOp(workloads.DEFAULT_SEED, tmp_path, with_goldens=True)
    op.seed = 0  # as AuditOp.call sets it
    op.call = lambda: workloads.run_cli(["audit", "--dims", "4", "--self-test-fail",
                                         "--out", str(op.outputs.next())])
    tally = checks.Tally()
    run.run_pass([op], tally, {})
    assert (tally.attempted, tally.failed, tally.failed_ratio) == (1, 1, 1.0)
    assert "exit code 1" in tally.problems[0]


def test_a_passing_call_is_not_counted(tmp_path):
    op = workloads.AuditOp(workloads.DEFAULT_SEED, tmp_path, with_goldens=False)
    op.seed = 0
    op.call = lambda: workloads.run_cli(["audit", "--dims", "4",
                                         "--out", str(op.outputs.next())])
    tally = checks.Tally()
    run.run_pass([op], tally, {})
    assert (tally.attempted, tally.failed) == (1, 0)


def test_traced_call_restores_every_wrapped_name(tmp_path):
    import numpy.linalg
    from obsalg import core, evolution, scenarios
    before = (numpy.linalg.eigh, core.opnorm, scenarios.opnorm,
              evolution.EvolutionEngine.__dict__["unitary"],
              core.ProjectorBasis.__dict__["from_frame"])
    op = workloads.build("static_evolution", workloads.DEFAULT_SEED, tmp_path)[3]
    t = tracer.Tracer()
    tally = checks.Tally()
    run.run_pass([op], tally, {}, t)
    after = (numpy.linalg.eigh, core.opnorm, scenarios.opnorm,
             evolution.EvolutionEngine.__dict__["unitary"],
             core.ProjectorBasis.__dict__["from_frame"])
    assert after == before
    assert tally.failed == 0
    assert t.calls("scenarios.run_scenario") == 1 and t.calls("linalg.eigh") > 0


def test_per_layer_names_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = set(tracer.layer_metrics(tracer.Tracer(), 1)) | {"tracing.overhead_s"}
    assert names == {m["name"] for m in doc["per_layer"]}
    gated = set(workloads.WORKLOADS) - set(workloads.UNGATED)
    assert gated == {w["name"] for w in doc["workloads"]}


@pytest.mark.xfail(strict=True, reason=(
    "known obsalg defect: from_unitary misses TOL_RECON when two eigenphases "
    "are near mirror images; audit stays ungated until this passes"))
def test_audit_seed_20_passes(tmp_path):
    out = tmp_path / "audit.json"
    code, stderr = workloads.run_cli(["audit", "--dims", "16", "--seed", "20",
                                      "--out", str(out)])
    assert code == 0, stderr
