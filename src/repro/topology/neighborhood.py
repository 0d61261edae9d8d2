"""Router-neighbourhood index: bounded shortest-path trees for pruning.

The scale curve's remaining superlinearity (BENCH_scale.json, PR 6) comes
from per-source *full-row* routing work: every fresh upstream node costs
one whole-graph Dijkstra plus two depth-batched folds over all N
destinations (the `_annotated` uplink/loss rows and the
bottleneck-bandwidth row) even though a probing level only ever commits
to a handful of nearby candidates.  Asaduzzaman & Maheswaran and Benoit
et al. (PAPERS.md) observe that mapping quality survives when each step
considers only a resource's *network neighbourhood* — which is exactly
what :class:`NeighborhoodIndex` materialises:

* per source, a **bounded Dijkstra** over the overlay mesh that stops
  after ``k`` settled nodes — the ``k`` delay-nearest routers (including
  the source itself), in settle (= nondecreasing-delay) order, with the
  composed loss, arriving tree link, and predecessor position of each;
* maintained **incrementally under churn** through the router's churn
  listener seam (the same dirty-set reasoning as
  :mod:`repro.topology.routing`, specialised below);
* **LRU-bounded** (``SystemConfig.neighborhood_cache_size``): resident
  memory is O(cache × k) — strictly inside PR 6's O(cache × N) contract —
  and :meth:`memory_footprint` attributes it for BENCH_scale.

Determinism/byte-identity contract: overlay delays are continuous, so
shortest paths are unique and the bounded tree is a *prefix* of the full
tree in distance order.  Distance accumulates as ``d(v) = d(u) + w`` —
float-for-float what scipy's Dijkstra computes — and loss composes per
tree edge as ``1 − (1 − loss(u))(1 − w)``, the same expression
:meth:`OverlayRouter._annotated` folds.  Every figure the index answers
for a member (delay, loss, path links, bottleneck bandwidth) is therefore
byte-identical to the full router's answer, which is what makes pruned
candidate scoring decision-identical to the full scan whenever
``k >= N`` (``tests/test_fastscore_pruned.py``).

Churn invalidation rules (why they are sufficient):

* **node crash** ``d``: a bounded tree is affected only if ``d`` is one
  of its members — every relay of a bounded tree is itself settled
  (a node on the unique shortest path to a settled node settles first),
  so a non-member crash can neither break a member's path nor shrink any
  member's distance, and removing a node never brings a new node into
  the k-nearest set;
* **node recovery** ``r``: a new path via ``r`` enters it through a
  neighbour ``x`` whose prefix avoids every recovered node (take the
  first recovered node along the path), so ``x`` was already reachable
  at a distance below the current k-th member's — i.e. ``x`` is a
  member.  Dropping trees whose members touch ``{r} ∪ neighbours(r)``
  therefore catches every tree the recovery can change;
* **link failure**: only trees using the link as a *tree edge* (it
  appears in ``uplink``) can change — removing a non-tree edge cannot
  reroute a unique shortest path nor admit new members;
* **link recovery**: a shortcut via the new link enters through one of
  its endpoints, reachable below the k-th distance by the same
  first-recovered-edge argument, so dropping trees whose members touch
  either endpoint suffices.
"""

from __future__ import annotations

import math
import sys
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.model.component_graph import VirtualLinkPath
from repro.model.lru import LRUDict
from repro.model.qos import MetricKind, QoSVector
from repro.observability import NULL_RECORDER, Recorder
from repro.observability.hotpath import hot_path
from repro.topology.routing import OverlayRouter, fold_bottleneck, tree_levels

#: ``SystemConfig.candidate_prune_k`` accepts ``None`` (full scan), the
#: string ``"auto"``, or an explicit positive neighbourhood size.
PruneSpec = Union[None, int, str]

#: Floor of the ``"auto"`` neighbourhood size: below this, pruning saves
#: nothing (the full candidate table is already this small) and the
#: widen-retry rate climbs.
AUTO_PRUNE_FLOOR = 256


def resolve_prune_k(spec: PruneSpec, num_nodes: int) -> Optional[int]:
    """Resolve a configured prune spec to a concrete neighbourhood size.

    ``None`` disables pruning (the full-scan default — committed figures
    replay byte-identically).  ``"auto"`` scales the neighbourhood as
    ``max(256, ceil(8·√N))`` capped at ``N``: wide enough that a level's
    probe budget ``⌈α·k⌉`` finds qualified candidates without widening in
    the common case, sublinear so per-source routing work stops growing
    with the overlay.  An explicit int is validated and capped at ``N``.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        if spec != "auto":
            raise ValueError(
                f"candidate_prune_k must be None, 'auto', or a positive "
                f"int, got {spec!r}"
            )
        return min(num_nodes, max(AUTO_PRUNE_FLOOR, math.ceil(8.0 * math.sqrt(num_nodes))))
    if spec < 1:
        raise ValueError(f"candidate_prune_k must be >= 1, got {spec}")
    return min(num_nodes, int(spec))


class NeighborhoodEntry:
    """One source's bounded shortest-path tree (its delay neighbourhood).

    Parallel arrays over the ``<= k`` members in settle order —
    ``members[0]`` is the source itself at distance 0.  ``members_sorted``
    / ``sorted_to_pos`` support O(log k) membership and batched gathers
    (``np.searchsorted``); the per-member arrays are O(k), never O(N).
    """

    __slots__ = (
        "source",
        "k",
        "version",
        "members",
        "members_sorted",
        "sorted_to_pos",
        "delay",
        "loss",
        "uplink",
        "parent_pos",
        "levels",
        "level_offsets",
        "bw_link_version",
        "bw_row",
    )

    def __init__(
        self,
        source: int,
        k: int,
        version: int,
        members: np.ndarray,
        delay: np.ndarray,
        loss: np.ndarray,
        uplink: np.ndarray,
        parent_pos: np.ndarray,
    ) -> None:
        self.source = source
        self.k = k
        #: router epoch the tree was solved at (churn drops stale entries)
        self.version = version
        self.members = members
        self.delay = delay
        self.loss = loss
        self.uplink = uplink
        self.parent_pos = parent_pos
        sort = np.argsort(members, kind="stable")
        self.members_sorted = members[sort]
        self.sorted_to_pos = sort
        #: member positions 1.. grouped by tree depth (narrow dtype), built
        #: on the first bottleneck fold (see
        #: :func:`repro.topology.routing.tree_levels`)
        self.levels: Optional[np.ndarray] = None
        self.level_offsets: Optional[np.ndarray] = None
        #: stale bottleneck-bandwidth row over the members, valid for one
        #: global-state link version (lazily filled by the scorer)
        self.bw_link_version = -1
        self.bw_row: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.members)

    def positions(self, node_ids: np.ndarray) -> np.ndarray:
        """Member position of each node id (-1 where not a member)."""
        sorted_members = self.members_sorted
        count = len(sorted_members)
        index = np.searchsorted(sorted_members, node_ids)
        index = np.minimum(index, count - 1)
        found = sorted_members[index] == node_ids
        return np.where(found, self.sorted_to_pos[index], -1)

    def position(self, node_id: int) -> int:
        """Member position of one node id (-1 when not a member)."""
        sorted_members = self.members_sorted
        index = int(np.searchsorted(sorted_members, node_id))
        if index < len(sorted_members) and int(sorted_members[index]) == node_id:
            return int(self.sorted_to_pos[index])
        return -1

    def path_links(self, position: int) -> Tuple[int, ...]:
        """Overlay link ids from the source to a member, in path order."""
        links: List[int] = []
        while position > 0:
            links.append(int(self.uplink[position]))
            position = int(self.parent_pos[position])
        links.reverse()
        return tuple(links)

    def nbytes(self) -> int:
        total = (
            self.members.nbytes
            + self.members_sorted.nbytes
            + self.sorted_to_pos.nbytes
            + self.delay.nbytes
            + self.loss.nbytes
            + self.uplink.nbytes
            + self.parent_pos.nbytes
        )
        if self.levels is not None:
            total += self.levels.nbytes
        if self.level_offsets is not None:
            total += self.level_offsets.nbytes
        if self.bw_row is not None:
            total += self.bw_row.nbytes
        return int(total)


class NeighborhoodIndex:
    """LRU-bounded cache of per-source bounded shortest-path trees.

    Entries are keyed ``(source, k)`` — the widen-retry fallback asks for
    progressively larger neighbourhoods of the same source, and each size
    is a distinct (cheap, O(k)) entry.  The index registers itself on the
    router's churn-listener seam; :meth:`close` detaches it.
    """

    def __init__(
        self,
        router: OverlayRouter,
        k: int,
        capacity: Optional[int] = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if k < 1:
            raise ValueError(f"neighbourhood size k must be >= 1, got {k}")
        self.router = router
        self.network = router.network
        self.k = k
        self.recorder = recorder
        self._closed = False
        #: bounded trees solved / dropped by churn since construction
        #: (plain counters so benchmarks need no recorder)
        self.solves = 0
        self.churn_drops = 0
        self._entries: LRUDict[Tuple[int, int], NeighborhoodEntry] = LRUDict(
            capacity=capacity, on_evict=self._on_evicted
        )
        # adjacency in plain-python form: tuple iteration beats repeated
        # numpy indexing in the (python-level) bounded Dijkstra loop.
        # Built once; links are static, liveness is filtered per solve.
        # Link delays/losses are python floats (C doubles), so ``d + w``
        # matches the numpy/scipy float64 accumulation bit-for-bit.
        neighbors: List[List[Tuple[int, int, float, float]]] = [
            [] for _ in range(len(self.network))
        ]
        loss_index = None
        if self.network.links:
            loss_index = next(
                (
                    index
                    for index, kind in enumerate(
                        self.network.links[0].qos.schema.kinds
                    )
                    if kind is MetricKind.MULTIPLICATIVE_LOSS
                ),
                None,
            )
        for link in self.network.links:
            loss = (
                float(link.qos.values[loss_index])
                if loss_index is not None
                else 0.0
            )
            edge_ab = (link.node_b, link.link_id, link.delay_ms, loss)
            edge_ba = (link.node_a, link.link_id, link.delay_ms, loss)
            neighbors[link.node_a].append(edge_ab)
            neighbors[link.node_b].append(edge_ba)
        self._neighbors: Tuple[Tuple[Tuple[int, int, float, float], ...], ...] = (
            tuple(tuple(edges) for edges in neighbors)
        )
        # O(N) scratch shared by every solve, reset via the touched list;
        # plain lists — python-level element access dominates the solve
        n = len(self.network)
        self._dist: List[float] = [math.inf] * n
        self._done: List[bool] = [False] * n
        self._pred_node: List[int] = [-1] * n
        self._pred_link: List[int] = [-1] * n
        router.add_churn_listener(self._on_churn)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Detach from the router's churn seam and free all entries."""
        if self._closed:
            return
        self._closed = True
        self.router.remove_churn_listener(self._on_churn)
        self._entries.clear()

    @property
    def cached_entry_count(self) -> int:
        return len(self._entries)

    @property
    def evictions(self) -> int:
        """Entries evicted by the capacity bound since construction."""
        return self._entries.evictions

    def _on_evicted(
        self, key: Tuple[int, int], entry: NeighborhoodEntry
    ) -> None:
        if self.recorder.enabled:
            self.recorder.inc("neighborhood.evictions")

    def memory_footprint(self) -> Dict[str, int]:
        """Approximate resident bytes per substructure (O(cache × k)
        entries plus the O(N) solve scratch and O(L) adjacency)."""
        entries = sum(entry.nbytes() for _, entry in self._entries.items())
        scratch = int(
            sys.getsizeof(self._dist)
            + sys.getsizeof(self._done)
            + sys.getsizeof(self._pred_node)
            + sys.getsizeof(self._pred_link)
        )
        adjacency = sys.getsizeof(self._neighbors)
        for edges in self._neighbors:
            adjacency += sys.getsizeof(edges)
        footprint = {
            "entries": int(entries),
            "scratch": scratch,
            "adjacency": int(adjacency),
        }
        footprint["total"] = sum(footprint.values())
        return footprint

    # -- solving -----------------------------------------------------------

    def entry(self, source: int, k: Optional[int] = None) -> NeighborhoodEntry:
        """The bounded tree for ``source`` (size ``k``, default the
        configured neighbourhood), solved on demand and LRU-cached."""
        size = self.k if k is None else k
        key = (source, size)
        entry = self._entries.get(key)
        if entry is not None and entry.version == self.router.epoch:
            if self.recorder.enabled:
                self.recorder.inc("neighborhood.hit")
            return entry
        entry = self._solve(source, size)
        self._entries[key] = entry
        self.solves += 1
        if self.recorder.enabled:
            self.recorder.inc("neighborhood.solve")
        return entry

    def _solve(self, source: int, k: int) -> NeighborhoodEntry:
        """Bounded Dijkstra: settle at most ``k`` nodes (source included).

        Mirrors the router's matrix semantics exactly: links adjacent to a
        down node are skipped, and so are down links.  ``d(v) = d(u) + w``
        accumulation and per-edge raw-space loss composition reproduce the
        full solver's floats bit-for-bit on the unique shortest paths.
        """
        router = self.router
        down_nodes = router.down_nodes
        down_links = router.down_links
        filtered = bool(down_nodes) or bool(down_links)
        dist = self._dist
        done = self._done
        pred_node = self._pred_node
        pred_link = self._pred_link
        neighbors = self._neighbors
        infinity = math.inf
        touched: List[int] = [source]

        members: List[int] = []
        delay: List[float] = []
        loss: List[float] = []
        uplink: List[int] = []
        parent_pos: List[int] = []
        position_of: Dict[int, int] = {}
        loss_at: Dict[int, float] = {}
        edge_loss_of: Dict[int, float] = {}

        source_down = source in down_nodes
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap and len(members) < k:
            d, node = heappop(heap)
            if done[node]:
                continue
            done[node] = True
            position = len(members)
            position_of[node] = position
            members.append(node)
            delay.append(d)
            if node == source:
                node_loss = 0.0
                uplink.append(-1)
                parent_pos.append(-1)
            else:
                parent = pred_node[node]
                link_id = pred_link[node]
                node_loss = 1.0 - (1.0 - loss_at[parent]) * (
                    1.0 - edge_loss_of[node]
                )
                uplink.append(link_id)
                parent_pos.append(position_of[parent])
            loss_at[node] = node_loss
            loss.append(node_loss)
            if source_down:
                break  # a crashed source relays nothing (matrix drops its links)
            for other, link_id, weight, edge_loss in neighbors[node]:
                if done[other]:
                    continue
                if filtered and (link_id in down_links or other in down_nodes):
                    continue
                through = d + weight
                if through < dist[other]:
                    if dist[other] == infinity:
                        touched.append(other)
                    dist[other] = through
                    pred_node[other] = node
                    pred_link[other] = link_id
                    edge_loss_of[other] = edge_loss
                    heappush(heap, (through, other))

        for node in touched:
            dist[node] = infinity
            done[node] = False
            pred_node[node] = -1
            pred_link[node] = -1

        return NeighborhoodEntry(
            source,
            k,
            router.epoch,
            np.asarray(members, dtype=np.int64),
            np.asarray(delay, dtype=np.float64),
            np.asarray(loss, dtype=np.float64),
            np.asarray(uplink, dtype=np.int64),
            np.asarray(parent_pos, dtype=np.int64),
        )

    # -- churn maintenance -------------------------------------------------

    def _on_churn(
        self,
        newly_down_nodes: frozenset,
        newly_up_nodes: frozenset,
        newly_down_links: frozenset,
        newly_up_links: frozenset,
    ) -> None:
        """Drop exactly the bounded trees the churn event can affect (see
        the module docstring for why these tests are sufficient)."""
        probe_nodes = set(newly_down_nodes)
        for recovered in sorted(newly_up_nodes):
            probe_nodes.add(recovered)
            probe_nodes.update(self.network.neighbors(recovered))
        for link_id in sorted(newly_up_links):
            link = self.network.link(link_id)
            probe_nodes.add(link.node_a)
            probe_nodes.add(link.node_b)
        probe = (
            np.fromiter(sorted(probe_nodes), dtype=np.int64, count=len(probe_nodes))
            if probe_nodes
            else None
        )
        failed = (
            np.fromiter(
                sorted(newly_down_links),
                dtype=np.int64,
                count=len(newly_down_links),
            )
            if newly_down_links
            else None
        )
        if probe is None and failed is None:
            return
        dropped = 0
        # repro-lint: disable=DET103 -- LRUDict.keys() is a list snapshot in deterministic recency order, not hash order
        for key in self._entries.keys():
            entry = self._entries.peek(key)
            if entry is None:  # pragma: no cover - snapshot, no concurrent evict
                continue
            affected = False
            if probe is not None:
                affected = bool((entry.positions(probe) >= 0).any())
            if not affected and failed is not None:
                affected = bool(np.isin(entry.uplink, failed).any())
            if affected:
                self._entries.pop(key)
                dropped += 1
        self.churn_drops += dropped
        if dropped and self.recorder.enabled:
            self.recorder.inc("neighborhood.churn_drops", dropped)

    # -- queries -----------------------------------------------------------

    @hot_path(budget="O(height × k)")
    def stale_bottleneck_row(
        self, entry: NeighborhoodEntry, link_available_kbps: np.ndarray, link_version: int
    ) -> np.ndarray:
        """Bottleneck bandwidth from the entry's source to each member.

        One numpy pass per depth of the bounded tree (the members grouped
        by depth once per entry) — the member-restricted twin of
        :meth:`OverlayRouter.bottleneck_bandwidth_row`, min-folding the
        identical link values with the same depth-batched fold so member
        figures match byte-for-byte.  Cached on the entry for one
        global-state link version.
        """
        if entry.bw_row is not None and entry.bw_link_version == link_version:
            return entry.bw_row
        count = len(entry.members)
        parent_pos = entry.parent_pos
        levels, offsets = entry.levels, entry.level_offsets
        if levels is None or offsets is None:
            levels, offsets = tree_levels(parent_pos, 0, np.ones(count, dtype=bool))
            # kept in the narrowest dtype that holds a position (uint16
            # for k < 65,536): a quarter of int64's bytes on every cached
            # entry, which is what peak RSS sees
            entry.levels = levels.astype(np.min_scalar_type(count))
            entry.level_offsets = offsets
        else:
            levels = levels.astype(np.intp)  # native-width indices fold faster
        row = np.empty(count)
        row[0] = np.inf
        fold_bottleneck(
            row,
            levels,
            offsets,
            parent_pos[levels],
            link_available_kbps[entry.uplink[levels]],
        )
        entry.bw_row = row
        entry.bw_link_version = link_version
        return row

    def live_bandwidth(self, source: int, node_id: int) -> Optional[float]:
        """Live bottleneck bandwidth source → node via the bounded tree,
        or None when the node is outside the source's neighbourhood (the
        caller falls back to the full router).  Matches
        :meth:`OverlayRouter.available_bandwidth` exactly for members —
        the same link values under the same (exact) min fold.
        """
        if node_id == source:
            return float("inf")
        entry = self.entry(source)
        position = entry.position(node_id)
        if position < 0:
            return None
        values = self.router.link_available
        available = np.inf
        uplink = entry.uplink
        parent_pos = entry.parent_pos
        while position > 0:
            value = values[uplink[position]]
            if value < available:
                available = value
            position = int(parent_pos[position])
        return float(available)

    def virtual_link(self, source: int, node_id: int) -> Optional[VirtualLinkPath]:
        """The virtual link source → member, reconstructed from the bounded
        tree (same overlay links, same QoS floats as the full router), or
        None when the destination is outside the neighbourhood."""
        entry = self.entry(source)
        position = entry.position(node_id)
        if position < 0:
            return None
        schema = self.network.links[0].qos.schema
        return VirtualLinkPath(
            src_node_id=source,
            dst_node_id=node_id,
            overlay_link_ids=entry.path_links(position),
            qos=QoSVector(
                schema,
                [float(entry.delay[position]), float(entry.loss[position])],
            ),
        )
