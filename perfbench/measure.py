"""One benchmark run: the end-to-end measurement loop and the traced run.

End-to-end runs (``--trace 0``) execute the program unchanged.  The only
instrumentation is a ``perf_counter`` pair around each ``find`` call,
installed on the simulator's own :class:`SessionManager` *instance*, so no
class attribute of the program is touched.  Their times are reference
seconds (:mod:`perfbench.speed`).  The traced run (``--trace 1``) first
runs once untraced (the overhead baseline), then once with span wrappers
at every layer boundary (:mod:`perfbench.layers`), and removes the
wrappers before it returns; its times are plain wall seconds.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.config import RunSpec
from repro.experiments.runner import build_simulator
from repro.simulation.metrics import SimulationReport
from repro.simulation.simulator import StreamProcessingSimulator

from perfbench import layers
from perfbench.checks import conservation_violations, decision_digest
from perfbench.spans import SpanRecorder, Wrapping
from perfbench.speed import SpeedProbe

REFERENCE_FILE = Path(__file__).with_name("reference_digests.json")

#: a tail percentile is reported only with at least this many samples
#: beyond it
MIN_BEYOND = 10
#: set-up is repeated until it has this many samples and this much time
MIN_SETUPS = 3
MIN_SETUP_TIME_S = 1.0


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def nearest_rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``count``."""
    return math.ceil(q * count / 100.0)


def tail_percentile(samples: List[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, refused unless at least
    ``MIN_BEYOND`` samples lie beyond it (p99 needs >= 1,000 samples)."""
    count = len(samples)
    rank = nearest_rank(count, q)
    if count == 0 or count - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {count} samples has {max(count - rank, 0)} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]


def reference_digest(workload: str, seed: int) -> Optional[str]:
    """The stored decision digest of (workload, seed), if one is kept."""
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


#: a (start, end) pair of ``perf_counter`` readings
Span = Tuple[float, float]


@dataclass
class Outcome:
    """One simulation of one spec, with its correctness verdict."""

    report: SimulationReport
    digest: str
    run: Span
    finds: List[Span]
    problems: List[str] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return self.run[1] - self.run[0]


def timed_setup(spec: RunSpec) -> Tuple[StreamProcessingSimulator, Span]:
    """``build_simulator`` (``build_system`` plus wiring) and when it ran."""
    start = time.perf_counter()
    simulator = build_simulator(spec)
    return simulator, (start, time.perf_counter())


def simulate(
    spec: RunSpec,
    simulator: StreamProcessingSimulator,
    time_find: bool = True,
    ledger: Optional[layers.Ledger] = None,
    wrapping: Optional[Wrapping] = None,
) -> Outcome:
    """Run ``simulator`` to the spec's horizon, then check conservation."""
    finds: List[Span] = []
    if time_find:
        find = simulator.sessions.find
        clock = time.perf_counter

        def timed_find(request):  # type: ignore[no-untyped-def]
            start = clock()
            result = find(request)
            finds.append((start, clock()))
            return result

        simulator.sessions.find = timed_find  # type: ignore[method-assign]
    with wrapping if wrapping is not None else contextlib.nullcontext():
        start = time.perf_counter()
        report = simulator.run(spec.duration_s)
        run = (start, time.perf_counter())
    digest = decision_digest(simulator.metrics.records, report)
    problems = conservation_violations(
        simulator,
        spec.duration_s,
        ledger=ledger.committed if ledger is not None else None,
    )
    return Outcome(report, digest, run, finds, problems)


def digest_problems(
    digest: str, first: Optional[str], reference: Optional[str]
) -> List[str]:
    """A run must repeat the first run's digest and the stored one."""
    problems = []
    if first is not None and digest != first:
        problems.append(f"digest {digest[:12]} differs from this seed's first run {first[:12]}")
    if reference is not None and digest != reference:
        problems.append(f"digest {digest[:12]} differs from the reference {reference[:12]}")
    return problems


@dataclass
class Result:
    """What one invocation prints: metrics plus the run accounting."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    notes: List[str]


def end_to_end(spec: RunSpec, seconds: float, reference: Optional[str] = None) -> Result:
    """Repeat (set-up, run) of one spec until at least ``seconds`` of wall
    time are spent, and report medians over the repeats, in reference
    seconds.  Every repeat must reproduce the first
    one's decision digest and, when given, the ``reference`` digest.  A
    repeat that raises is a failed operation and ends the loop, since the
    same spec would raise again."""
    setups: List[Span] = []
    outcomes: List[Outcome] = []
    notes: List[str] = []
    attempted = failed = 0
    with SpeedProbe() as probe:
        begin = time.perf_counter()
        while not outcomes or time.perf_counter() - begin < seconds:
            attempted += 1
            try:
                simulator, setup = timed_setup(spec)
                outcome = simulate(spec, simulator)
            except Exception:
                failed += 1
                notes.append("run raised:\n" + traceback.format_exc())
                break
            setups.append(setup)
            del simulator
            gc.collect()
            first = outcomes[0].digest if outcomes else None
            outcome.problems += digest_problems(outcome.digest, first, reference)
            if outcome.problems:
                failed += 1
                notes += outcome.problems
            outcomes.append(outcome)
        while outcomes and (
            len(setups) < MIN_SETUPS or sum(end - start for start, end in setups) < MIN_SETUP_TIME_S
        ):
            simulator, setup = timed_setup(spec)
            setups.append(setup)
            del simulator
            gc.collect()
    if not outcomes:
        return Result({}, attempted, failed, notes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = outcomes[0].report
    run_s = [probe.scaled(*o.run) for o in outcomes]
    find_ms = [[probe.scaled(*span) * 1e3 for span in o.finds] for o in outcomes]
    metrics = {
        "requests_per_s": statistics.median(report.total_requests / s for s in run_s),
        "find_p50_ms": statistics.median(tail_percentile(f, 50.0) for f in find_ms),
        "find_p99_ms": statistics.median(tail_percentile(f, 99.0) for f in find_ms),
        "setup_s": statistics.median(probe.scaled(*span) for span in setups),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": report.success_rate,
        "probe_messages_per_request": report.probe_messages / report.total_requests,
        "session_survival_rate": report.session_survival_rate,
    }
    samples = len(outcomes[0].finds)
    raw_rate = statistics.median(report.total_requests / o.run_s for o in outcomes)
    notes[:0] = [
        f"{len(outcomes)} run(s) of {spec.duration_s:g} simulated s, "
        f"{report.total_requests} arrivals and {samples} find samples each "
        f"(p99 has {samples - nearest_rank(samples, 99.0)} beyond it); "
        f"{len(setups)} set-ups",
        f"speed factor {probe.median_factor():.3f} ({len(probe.starts)} samples); "
        f"unscaled requests_per_s {raw_rate:.6g}",
    ]
    notes.append(_reference_note(reference, outcomes[0].digest))
    return Result(metrics, attempted, failed, notes)


def traced(spec: RunSpec, reference: Optional[str] = None) -> Result:
    """One untraced run (the overhead baseline), then one traced run of
    the same spec; every per-layer metric comes from the traced one, and
    both runs must give the same decision digest."""
    notes: List[str] = []

    simulator, _ = timed_setup(spec)
    baseline = simulate(spec, simulator, time_find=False)
    del simulator
    gc.collect()

    build_spans = SpanRecorder()
    with Wrapping(build_spans, layers.build_targets()):
        simulator = build_simulator(spec)
    run_spans = SpanRecorder()
    ledger = layers.Ledger(run_spans)
    wrapping = Wrapping(
        run_spans,
        layers.run_targets(ledger, type(simulator.composer), type(simulator.workload)),
    )
    outcome = simulate(spec, simulator, time_find=False, ledger=ledger, wrapping=wrapping)

    failed = 0
    for run, first in ((baseline, None), (outcome, baseline.digest)):
        run.problems += digest_problems(run.digest, first, reference)
        if run.problems:
            failed += 1
            notes += run.problems
    table = layers.SpanTable(run_spans)
    metrics = {
        **layers.build_metrics(layers.SpanTable(build_spans)),
        **layers.run_metrics(table, ledger, simulator, outcome.report, baseline.run_s),
    }
    notes.insert(
        0,
        f"traced {len(run_spans)} run spans and {len(build_spans)} build spans; "
        f"run() {baseline.run_s:.3f} s untraced, {outcome.run_s:.3f} s traced",
    )
    notes += [
        f"  {name:<40} {calls:>9} calls {seconds:10.4f} s self"
        for name, calls, seconds in layers.top_spans(table)
    ]
    notes.append(_reference_note(reference, outcome.digest))
    return Result({name: float(value) for name, value in metrics.items()}, 2, failed, notes)


def _reference_note(reference: Optional[str], digest: str) -> str:
    if reference is None:
        return f"decision digest {digest} (no reference stored for this seed)"
    verdict = "matches" if digest == reference else "DIFFERS FROM"
    return f"decision digest {digest} {verdict} the reference"
