"""The percentile rule, speed normalisation and the schema of
BENCHMARK.json."""

import json
import signal
import time
from pathlib import Path

import pytest

from perfbench import layers, speed
from perfbench.measure import TooFewSamples, tail_percentile
from perfbench.spans import SpanRecorder
from perfbench.workloads import NAMES

ROOT = Path(__file__).resolve().parents[2]


def test_p99_of_1000_samples_has_ten_beyond_it():
    samples = [float(value) for value in range(1000, 0, -1)]
    p99 = tail_percentile(samples, 99.0)
    assert p99 == 990.0
    assert sum(value > p99 for value in samples) == 10


def test_too_few_samples_is_an_error_not_a_silent_p99():
    with pytest.raises(TooFewSamples):
        tail_percentile([float(value) for value in range(999)], 99.0)
    with pytest.raises(TooFewSamples):
        tail_percentile([], 50.0)


def test_median_needs_ten_samples_beyond_it_too():
    assert tail_percentile([float(value) for value in range(20)], 50.0) == 9.0
    with pytest.raises(TooFewSamples):
        tail_percentile([float(value) for value in range(19)], 50.0)


def test_benchmark_json_matches_the_workloads_and_attribution():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in bench["workloads"]] == list(NAMES)
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    assert end_to_end["setup_s"]["unit"] == "s"
    assert end_to_end["setup_s"]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    attribution = json.loads((ROOT / "perfbench" / "attribution.json").read_text())
    mapped = [name for layer in attribution["layers"] for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in bench["per_layer"])
    for layer in attribution["layers"]:
        for move in layer["moves"]:
            assert move["metric"] in end_to_end
            assert set(move["workloads"]) <= set(NAMES)


def _probe(took):
    """A probe with samples at t = 0, 1, 2, ... each taking ``took`` s."""
    probe = speed.SpeedProbe()
    probe.starts = [float(t) for t in range(4)]
    probe.ends = [t + took for t in probe.starts]
    return probe


def test_scaled_time_leaves_out_the_kernel_runs():
    probe = _probe(took=0.1)
    factor = (speed.REFERENCE_S / 0.1) ** speed.SENSITIVITY
    assert probe.scaled(0.05, 2.05) == pytest.approx(1.8 * factor)
    assert probe.scaled(-1.0, 0.0) == pytest.approx(1.0 * factor)
    assert probe.scaled(3.5, 5.0) == pytest.approx(1.5 * factor)
    assert probe.scaled(1.02, 1.08) == 0.0


def test_a_slower_kernel_shrinks_the_scaled_time():
    fast, slow = _probe(took=0.1), _probe(took=0.2)
    assert fast.scaled(0.5, 0.9) / slow.scaled(0.5, 0.9) == pytest.approx(
        2.0**speed.SENSITIVITY
    )


def test_probe_samples_while_open_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        deadline = time.perf_counter() + 5 * speed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(probe.starts) >= 4
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.scaled(probe.starts[0], probe.ends[-1]) > 0.0


def test_migration_commits_are_not_composition_commits():
    spans = SpanRecorder()
    ledger = layers.Ledger(spans)

    class Allocation:
        request_id = 7

    spans.wrap(layers.MIGRATION_SPAN, lambda: ledger.on_commit((), {}, Allocation()))()
    assert ledger.composition_commits == 0 and 7 in ledger.committed
    ledger.on_commit((), {}, Allocation())
    assert ledger.composition_commits == 1
