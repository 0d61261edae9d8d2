"""Correctness checks run on every benchmark run.

* :func:`decision_digest` hashes what the run decided — every request's
  (id, success, failure reason, phi) plus the whole report — so a repeat
  of one workload and seed must reproduce it bit for bit, and a speed-up
  that changes a single decision changes it.
* :func:`conservation_violations` checks resource accounting after the
  run: once every transient reservation has expired, each node's and
  link's allocated amount equals the sum of the live committed session
  demands.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, List, Mapping, Optional

from repro.allocation.allocator import SessionAllocation
from repro.simulation.metrics import RequestRecord, SimulationReport
from repro.simulation.simulator import StreamProcessingSimulator

#: float slack for comparing sums accumulated in a different order
REL_TOL = 1e-9
ABS_TOL = 1e-6


def decision_digest(
    records: Iterable[RequestRecord], report: SimulationReport
) -> str:
    """SHA-256 over per-request outcomes and the report's counters."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(
            repr(
                (
                    record.request_id,
                    record.success,
                    record.failure_reason,
                    record.phi,
                )
            ).encode()
        )
    digest.update(repr(report).encode())
    return digest.hexdigest()


def live_allocations(
    simulator: StreamProcessingSimulator,
) -> Dict[int, SessionAllocation]:
    """Committed allocations still held after the run, by request id,
    found through the allocator's public per-request accessor."""
    allocator = simulator.system.allocator
    live = {}
    for record in simulator.metrics.records:
        allocation = allocator.session(record.request_id)
        if allocation is not None:
            live[record.request_id] = allocation
    return live


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def conservation_violations(
    simulator: StreamProcessingSimulator,
    horizon_s: float,
    ledger: Optional[Mapping[int, SessionAllocation]] = None,
) -> List[str]:
    """Expire every transient reservation taken up to ``horizon_s``, then
    compare each node's and link's allocated amount with the live session
    demands.  ``ledger`` (request id -> allocation, as the traced
    ``commit``/``release`` calls saw them) must name the same sessions.
    Returns one message per violation."""
    allocator = simulator.system.allocator
    network = simulator.system.network
    allocator.expire_due(horizon_s + allocator.transient_timeout_s)
    problems = []
    if allocator.transient_request_ids:
        problems.append(
            f"{len(allocator.transient_request_ids)} transient reservations "
            "outlived their timeout"
        )
    live = live_allocations(simulator)
    if len(live) != allocator.active_session_count:
        problems.append(
            f"allocator holds {allocator.active_session_count} sessions, "
            f"{len(live)} reachable from request records"
        )
    if ledger is not None and set(ledger) != set(live):
        problems.append(
            f"traced commit/release ledger names {len(ledger)} live sessions, "
            f"allocator {len(live)}"
        )
    node_totals: Dict[int, List[float]] = {}
    link_totals: Dict[int, float] = {}
    for allocation in live.values():
        for node_id, demand in allocation.node_demands.items():
            total = node_totals.setdefault(node_id, [0.0] * len(demand.values))
            for position, value in enumerate(demand.values):
                total[position] += value
        for link_id, kbps in allocation.link_demands.items():
            link_totals[link_id] = link_totals.get(link_id, 0.0) + kbps
    for node in network.nodes:
        expected = node_totals.get(node.node_id, [0.0] * len(node.allocated.values))
        if not all(map(_close, node.allocated.values, expected)):
            problems.append(
                f"node v{node.node_id}: allocated {node.allocated.values}, "
                f"live sessions hold {tuple(expected)}"
            )
    for link in network.links:
        expected_kbps = link_totals.get(link.link_id, 0.0)
        if not _close(link.allocated_kbps, expected_kbps):
            problems.append(
                f"link e{link.link_id}: allocated {link.allocated_kbps} kbps, "
                f"live sessions hold {expected_kbps}"
            )
    return problems
