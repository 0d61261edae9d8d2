"""Untraced runs leave the program untouched; the traced run covers every
per-layer metric; the digest and conservation checks catch what they
should.  All on a shrunken churn_recover spec (faults, recovery and
migration all active) so the tests take seconds."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.runner import build_simulator
from repro.model.resources import ResourceVector

from perfbench import layers, measure
from perfbench.checks import conservation_violations, decision_digest
from perfbench.spans import SpanRecorder
from perfbench.workloads import churn_recover

ROOT = Path(__file__).resolve().parents[2]
MISSING = object()


@pytest.fixture(scope="module")
def spec():
    full = churn_recover(0)
    system = replace(full.system, num_nodes=100, num_routers=200)
    # two thirds of the day reach the regional spike, so sessions migrate
    return replace(full, system=system, duration_s=full.duration_s * 2 / 3)


def _snapshot(targets):
    return {(owner, name): vars(owner).get(name, MISSING) for owner, name, _, _ in targets}


def _all_targets(simulator):
    return layers.build_targets() + layers.run_targets(
        layers.Ledger(SpanRecorder()), type(simulator.composer), type(simulator.workload)
    )


def test_untraced_and_traced_runs_leave_every_wrapped_method_unchanged(spec):
    simulator = build_simulator(spec)
    before = _snapshot(_all_targets(simulator))
    outcome = measure.simulate(spec, simulator)
    assert outcome.problems == []
    assert outcome.finds and len(outcome.finds) == outcome.report.total_requests
    assert _snapshot(_all_targets(simulator)) == before
    measure.traced(spec)
    assert _snapshot(_all_targets(simulator)) == before


def test_traced_run_reports_every_per_layer_metric(spec):
    result = measure.traced(spec)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result.metrics) == {metric["name"] for metric in declared}
    assert result.failed == 0
    assert result.metrics["compose.calls"] > 0
    assert result.metrics["failures.churn_events"] > 0
    assert 0.0 <= result.metrics["trace.unattributed_share"] < 1.0
    # migration commits have no compose of their own and stay out of it
    assert result.metrics["migration.migrated"] > 0
    assert 0.0 < result.metrics["allocation.commit_ratio"] <= 1.0


def test_a_run_that_raises_counts_as_attempted_and_failed(spec, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(measure, "simulate", broken)
    result = measure.end_to_end(spec, seconds=0.0)
    assert (result.attempted, result.failed, result.metrics) == (1, 1, {})
    assert "simulated crash" in result.notes[0]


def test_digest_is_stable_and_sees_one_changed_outcome(spec):
    first = build_simulator(spec)
    report = first.run(spec.duration_s)
    second = build_simulator(spec)
    second_report = second.run(spec.duration_s)
    records = list(first.metrics.records)
    digest = decision_digest(records, report)
    assert digest == decision_digest(second.metrics.records, second_report)
    flipped = list(records)
    flipped[len(flipped) // 2] = replace(
        flipped[len(flipped) // 2], success=not flipped[len(flipped) // 2].success
    )
    assert decision_digest(flipped, report) != digest
    assert measure.digest_problems(digest, first=digest, reference=digest) == []
    assert len(measure.digest_problems(digest, first="0" * 64, reference="1" * 64)) == 2


def test_conservation_holds_and_catches_a_leak(spec):
    simulator = build_simulator(spec)
    simulator.run(spec.duration_s)
    assert conservation_violations(simulator, spec.duration_s) == []
    node = next(n for n in simulator.system.network.nodes if n.alive)
    node.allocate(ResourceVector(node.capacity.schema, [1e-3] * len(node.capacity.values)))
    problems = conservation_violations(simulator, spec.duration_s)
    assert len(problems) == 1 and f"node v{node.node_id}" in problems[0]
