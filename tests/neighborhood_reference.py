"""Reference bounded Dijkstra for the neighbourhood index.

A plain-python ``heapq`` solve that settles at most ``k`` nodes from the
source, in ``(distance, node id)`` order, and records each member's
delay, composed loss, arriving tree link and parent position as it
settles.  :class:`repro.topology.neighborhood.NeighborhoodIndex` answers
the same question with one compiled scipy solve; the differential tests
(``tests/test_neighborhood_oracle.py``) compare the two with ``==``.

The solve mirrors the router's matrix semantics: links adjacent to a
down node are skipped, and so are down links.  Distance accumulates as
``d(v) = d(u) + w`` and loss composes per tree edge as
``1 − (1 − loss(u))(1 − w)``, float for float what the router computes.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, List, Tuple

import numpy as np

from repro.model.qos import MetricKind
from repro.topology.routing import OverlayRouter

Edge = Tuple[int, int, float, float]


def adjacency(router: OverlayRouter) -> List[List[Edge]]:
    """Per node, ``(other end, link id, delay, loss)`` of every link."""
    network = router.network
    neighbors: List[List[Edge]] = [[] for _ in range(len(network))]
    for link in network.links:
        kinds = link.qos.schema.kinds
        loss = next(
            (
                float(link.qos.values[index])
                for index, kind in enumerate(kinds)
                if kind is MetricKind.MULTIPLICATIVE_LOSS
            ),
            0.0,
        )
        neighbors[link.node_a].append((link.node_b, link.link_id, link.delay_ms, loss))
        neighbors[link.node_b].append((link.node_a, link.link_id, link.delay_ms, loss))
    return neighbors


def heap_solve(
    router: OverlayRouter, source: int, k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(members, delay, loss, uplink, parent_pos)`` of ``source``'s
    bounded tree of at most ``k`` nodes, in settle order."""
    down_nodes = router.down_nodes
    down_links = router.down_links
    neighbors = adjacency(router)
    dist: Dict[int, float] = {source: 0.0}
    done = set()
    pred_node: Dict[int, int] = {}
    pred_link: Dict[int, int] = {}
    edge_loss_of: Dict[int, float] = {}

    members: List[int] = []
    delay: List[float] = []
    loss: List[float] = []
    uplink: List[int] = []
    parent_pos: List[int] = []
    position_of: Dict[int, int] = {}
    loss_at: Dict[int, float] = {}

    source_down = source in down_nodes
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap and len(members) < k:
        d, node = heappop(heap)
        if node in done:
            continue
        done.add(node)
        position_of[node] = len(members)
        members.append(node)
        delay.append(d)
        if node == source:
            node_loss = 0.0
            uplink.append(-1)
            parent_pos.append(-1)
        else:
            parent = pred_node[node]
            node_loss = 1.0 - (1.0 - loss_at[parent]) * (1.0 - edge_loss_of[node])
            uplink.append(pred_link[node])
            parent_pos.append(position_of[parent])
        loss_at[node] = node_loss
        loss.append(node_loss)
        if source_down:
            break  # a crashed source relays nothing (the matrix drops its links)
        for other, link_id, weight, edge_loss in neighbors[node]:
            if other in done or link_id in down_links or other in down_nodes:
                continue
            through = d + weight
            if through < dist.get(other, math.inf):
                dist[other] = through
                pred_node[other] = node
                pred_link[other] = link_id
                edge_loss_of[other] = edge_loss
                heappush(heap, (through, other))

    return (
        np.asarray(members, dtype=np.int64),
        np.asarray(delay, dtype=np.float64),
        np.asarray(loss, dtype=np.float64),
        np.asarray(uplink, dtype=np.int64),
        np.asarray(parent_pos, dtype=np.int64),
    )
