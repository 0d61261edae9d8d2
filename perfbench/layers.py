"""The traced run's layer boundaries and the per-layer ledger built from
their spans.

Every wrapped call is a public method or function of one of the repo's
modules; span names are ``"<layer>.<call>"`` with the layer names used in
``perfbench/attribution.json``.  Counts and ratios are taken at the same
boundaries by observers that read the wrapped call's arguments and result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.simulation.system as system_module
from repro.allocation.allocator import ResourceAllocator, SessionAllocation
from repro.core.fastscore import FastScorer
from repro.discovery.deployment import ComponentDeployer
from repro.middleware.migration import LiveSessionMigrationManager
from repro.middleware.session import SessionManager
from repro.simulation.engine import EventScheduler
from repro.simulation.failures import FailureInjector
from repro.simulation.metrics import MetricsCollector, SimulationReport
from repro.simulation.simulator import StreamProcessingSimulator
from repro.state.aggregation import AggregationManager
from repro.topology.ip_network import IPNetwork
from repro.topology.neighborhood import NeighborhoodIndex
from repro.topology.powerlaw import PowerLawTopologyGenerator
from repro.topology.routing import OverlayRouter

from perfbench.spans import Observer, SpanRecorder, self_times

#: (owner, attribute, span name, observer) — see :class:`spans.Wrapping`
Target = Tuple[Any, str, str, Optional[Observer]]

ROUTING_CALLS = (
    "bottleneck_bandwidth_row",
    "virtual_link_rows",
    "virtual_link",
    "virtual_link_qos",
    "overlay_path",
    "set_down_nodes",
    "set_down_links",
)
NEIGHBORHOOD_CALLS = ("entry", "stale_bottleneck_row", "live_bandwidth", "virtual_link")
ALLOCATION_CALLS = (
    "reserve_component",
    "cancel_transient",
    "commit",
    "release",
    "expire_due",
)
SESSION_CALLS = ("find", "recover_pending", "close_or_abandon", "complete_migration")

#: the run-phase root span; everything ``run()`` does nests under it
RUN_SPAN = "run.simulate"
MIGRATION_SPAN = "migration.run_round"
#: span names listed in the traced run's notes
TOP_SPANS = 12


@dataclass
class Ledger:
    """Counts taken by the observers, plus the live commits the wrapped
    ``commit``/``release`` calls saw (request id -> allocation).  ``spans``
    is the traced run's recorder; observers read its open-span stack."""

    spans: SpanRecorder
    #: successful commits outside live migration, i.e. of a composition
    composition_commits: int = 0
    composes_ok: int = 0
    probe_messages: int = 0
    candidates_scored: int = 0
    qualified: int = 0
    churn_events: int = 0
    committed: Dict[int, SessionAllocation] = field(default_factory=dict)
    neighborhood: Optional[NeighborhoodIndex] = None

    def on_commit(self, args: tuple, kwargs: dict, result: SessionAllocation) -> None:
        self.committed[result.request_id] = result
        # a live migration commits its new placement (or re-commits the old
        # one) without composing; those commits have no compose to pair with
        names = self.spans.names
        if all(names[open_span] != MIGRATION_SPAN for open_span in self.spans.stack):
            self.composition_commits += 1

    def on_release(self, args: tuple, kwargs: dict, result: None) -> None:
        allocation = args[1] if len(args) > 1 else kwargs["allocation"]
        self.committed.pop(allocation.request_id, None)

    def on_compose(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.composes_ok += bool(result.success)
        self.probe_messages += result.probe_messages

    def on_score_level(self, args: tuple, kwargs: dict, result: Any) -> None:
        # score_level(self, request, probes, function_id, candidates, ...)
        self.candidates_scored += len(args[2]) * len(args[4])
        self.qualified += result.size

    def on_entry(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.neighborhood = args[0]

    def on_failure_round(self, args: tuple, kwargs: dict, result: list) -> None:
        self.churn_events += len(result)


def build_targets() -> List[Target]:
    """Boundaries of ``build_simulator``: topology, overlay, deployment."""
    return [
        (PowerLawTopologyGenerator, "generate", "build.topology.generate", None),
        (IPNetwork, "__init__", "build.topology.ip_network", None),
        (IPNetwork, "delays_from", "build.topology.delays_from", None),
        (system_module, "build_overlay_network", "build.overlay", None),
        (ComponentDeployer, "deploy", "build.deploy", None),
    ]


def run_targets(
    ledger: Ledger, composer_class: type, workload_class: type
) -> List[Target]:
    """Boundaries of ``run()``.  Wrapping is per class, so the scorer and
    neighbourhood index the composition context builds lazily are covered
    from their first call."""
    targets: List[Target] = [
        (StreamProcessingSimulator, "run", RUN_SPAN, None),
        (EventScheduler, "run_until", "engine.run_until", None),
        (EventScheduler, "step", "engine.step", None),
        (composer_class, "compose", "compose.compose", ledger.on_compose),
        (FastScorer, "begin_request", "fastscore.begin_request", None),
        (FastScorer, "score_level", "fastscore.score_level", ledger.on_score_level),
        (AggregationManager, "run_round", "state.aggregation", None),
        (LiveSessionMigrationManager, "run_round", MIGRATION_SPAN, None),
        (FailureInjector, "run_round", "failures.run_round", ledger.on_failure_round),
        (workload_class, "make_request", "workload.make_request", None),
        (workload_class, "next_interarrival", "workload.next_interarrival", None),
        (MetricsCollector, "record", "metrics.record", None),
        (MetricsCollector, "close_window", "metrics.close_window", None),
    ]
    targets += [(OverlayRouter, name, f"routing.{name}", None) for name in ROUTING_CALLS]
    targets += [
        (
            NeighborhoodIndex,
            name,
            f"neighborhood.{name}",
            ledger.on_entry if name == "entry" else None,
        )
        for name in NEIGHBORHOOD_CALLS
    ]
    observers = {"commit": ledger.on_commit, "release": ledger.on_release}
    targets += [
        (ResourceAllocator, name, f"allocation.{name}", observers.get(name))
        for name in ALLOCATION_CALLS
    ]
    targets += [(SessionManager, name, f"session.{name}", None) for name in SESSION_CALLS]
    return targets


class SpanTable:
    """Count, summed self time and summed duration per span name over one
    recorder's spans (one phase of the traced run)."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.names = recorder.names
        self.parents = recorder.parents
        self.count: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        own = self_times(recorder.starts, recorder.ends, recorder.parents)
        for name, start, end, own_s in zip(
            recorder.names, recorder.starts, recorder.ends, own
        ):
            self.count[name] = self.count.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own_s
            self.total_s[name] = self.total_s.get(name, 0.0) + (end - start)

    def calls(self, *prefixes: str) -> int:
        return sum(n for name, n in self.count.items() if name.startswith(prefixes))

    def seconds(self, *prefixes: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.startswith(prefixes))

    def composes_that_reserved(self) -> int:
        """Compose spans with an ``allocation.reserve_component`` span
        somewhere below them."""
        marked = set()
        for position, name in enumerate(self.names):
            if name != "allocation.reserve_component":
                continue
            parent = self.parents[position]
            while parent >= 0 and self.names[parent] != "compose.compose":
                parent = self.parents[parent]
            if parent >= 0:
                marked.add(parent)
        return len(marked)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def build_metrics(table: SpanTable) -> Dict[str, float]:
    return {
        "build.topology_s": table.seconds("build.topology."),
        "build.overlay_s": table.seconds("build.overlay"),
        "build.deploy_s": table.seconds("build.deploy"),
    }


def run_metrics(
    table: SpanTable,
    ledger: Ledger,
    simulator: StreamProcessingSimulator,
    report: SimulationReport,
    untraced_run_s: float,
) -> Dict[str, float]:
    """Every run-phase per-layer metric of one traced run."""
    router = simulator.system.router
    index = ledger.neighborhood
    composes = table.calls("compose.compose")
    return {
        "routing.calls": table.calls("routing."),
        "routing.self_s": table.seconds("routing."),
        "routing.bottleneck_row_calls": table.calls("routing.bottleneck_bandwidth_row"),
        "routing.bottleneck_row_s": table.seconds("routing.bottleneck_bandwidth_row"),
        "routing.invalidate_calls": table.calls(
            "routing.set_down_nodes", "routing.set_down_links"
        ),
        "routing.invalidate_s": table.seconds(
            "routing.set_down_nodes", "routing.set_down_links"
        ),
        "routing.cached_trees": router.cached_tree_count,
        "routing.tree_evictions": router.tree_evictions,
        "neighborhood.entry_calls": table.calls("neighborhood.entry"),
        "neighborhood.self_s": table.seconds("neighborhood."),
        "neighborhood.evictions": index.evictions if index is not None else 0,
        "fastscore.score_level_calls": table.calls("fastscore.score_level"),
        "fastscore.self_s": table.seconds("fastscore."),
        "fastscore.candidates_scored": ledger.candidates_scored,
        "fastscore.qualified_ratio": _ratio(ledger.qualified, ledger.candidates_scored),
        "compose.calls": composes,
        "compose.self_s": table.seconds("compose."),
        "compose.success_ratio": _ratio(ledger.composes_ok, composes),
        "compose.probe_messages": ledger.probe_messages,
        "allocation.reserve_calls": table.calls("allocation.reserve_component"),
        "allocation.commit_calls": table.calls("allocation.commit"),
        "allocation.release_calls": table.calls("allocation.release"),
        "allocation.self_s": table.seconds("allocation."),
        "allocation.commit_ratio": _ratio(
            ledger.composition_commits, table.composes_that_reserved()
        ),
        "state.aggregation_rounds": table.calls("state.aggregation"),
        "state.aggregation_s": table.seconds("state.aggregation"),
        # the report counts the global-state updates sent during run()
        "state.update_messages": report.state_update_messages,
        "session.find_self_s": table.seconds("session.find"),
        "session.recover_calls": table.calls("session.recover_pending"),
        "session.recover_s": table.seconds("session.recover_pending"),
        "session.recovered": report.sessions_recovered,
        "session.killed": report.sessions_killed,
        "migration.rounds": table.calls("migration.run_round"),
        "migration.round_s": table.seconds("migration.run_round"),
        "migration.migrated": report.sessions_migrated,
        "migration.aborted_on_slack": report.migrations_aborted_on_slack,
        "failures.rounds": table.calls("failures.run_round"),
        "failures.round_s": table.seconds("failures.run_round"),
        "failures.churn_events": ledger.churn_events,
        "workload.calls": table.calls("workload."),
        "workload.self_s": table.seconds("workload."),
        "metrics.self_s": table.seconds("metrics."),
        "engine.events": table.calls("engine.step"),
        "engine.self_s": table.seconds("engine."),
        "trace.overhead_ratio": _ratio(table.total_s[RUN_SPAN], untraced_run_s),
        # the root span's self time is the part of run() no layer covers
        "trace.unattributed_share": _ratio(
            table.self_s[RUN_SPAN], table.total_s[RUN_SPAN]
        ),
    }


def top_spans(table: SpanTable) -> Sequence[Tuple[str, int, float]]:
    """The ``TOP_SPANS`` span names with the most self time:
    (name, calls, self seconds)."""
    ranked = sorted(table.self_s.items(), key=lambda item: -item[1])[:TOP_SPANS]
    return [(name, table.count[name], seconds) for name, seconds in ranked]
