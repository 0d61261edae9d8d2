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

* per source, a **bounded shortest-path tree**: the ``k`` delay-nearest
  routers (including the source itself) in ``(distance, node id)``
  order, with the composed loss, arriving tree link, and parent position
  of each.  It comes from one compiled, **radius-limited** scipy
  Dijkstra over the router's routing CSR.  The limit is a bound on the
  source's ``k``-th distance that earlier solves give: its own, or a
  live neighbour's plus the link between them (a derived value, not a
  setting), so the solve settles about the ``k`` nearest nodes instead
  of the whole overlay.  When the limit turns out too tight (fewer than
  ``k`` nodes reached, after churn), the solve is repeated once without
  one;
* maintained **incrementally under churn** through the router's churn
  listener seam (the same dirty-set reasoning as
  :mod:`repro.topology.routing`, specialised below) — the listener is the
  only invalidation path, so an entry it keeps is served without a solve;
* **LRU-bounded** (``SystemConfig.neighborhood_cache_size``): resident
  memory is O(cache × k) — strictly inside PR 6's O(cache × N) contract —
  and :meth:`memory_footprint` attributes it for BENCH_scale.

Determinism/byte-identity contract: overlay delays are continuous, so
shortest paths are unique and the bounded tree is a *prefix* of the full
tree in distance order.  The limited solve is the router's own solve —
the same CSR walked directed (it is symmetric), the same
``d(v) = d(u) + w`` accumulation — so member distances and predecessors
are the full solve's floats and nodes, whatever the limit.  Loss
composes per tree edge with :func:`~repro.topology.routing.fold_loss`,
the fold :meth:`OverlayRouter._annotated` runs.  Every figure the index
answers for a member (delay, loss, path links, bottleneck bandwidth) is
therefore byte-identical to the full router's answer, which is what makes
pruned candidate scoring decision-identical to the full scan whenever
``k >= N`` (``tests/test_fastscore_pruned.py``).  The heap solve this
replaced lives on as the reference in ``tests/neighborhood_reference.py``.

Churn invalidation rules (why they are sufficient):

* **node crash** ``d``: a bounded tree is affected only if ``d`` is one
  of its members — every relay of a bounded tree is itself a member
  (a node on the unique shortest path to a member is nearer), so a
  non-member crash can neither break a member's path nor shrink any
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
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.model.component_graph import VirtualLinkPath
from repro.model.lru import LRUDict
from repro.model.qos import QoSVector
from repro.observability import NULL_RECORDER, Recorder
from repro.observability.hotpath import hot_path
from repro.topology.routing import (
    OverlayRouter,
    fold_bottleneck,
    fold_loss,
    tree_levels,
)

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


def _nearest(nodes: np.ndarray, distances: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` of ascending ``nodes`` in ``(distance, node id)``
    order — the order a bounded heap Dijkstra settles them in.  A
    partition keeps every node up to the k-th distance (ties included),
    so only about ``k`` of them go through the stable sort."""
    if len(nodes) > k:
        keep = distances <= np.partition(distances, k - 1)[k - 1]
        nodes = nodes[keep]
        distances = distances[keep]
    return nodes[np.argsort(distances, kind="stable")[:k]]


class NeighborhoodEntry:
    """One source's bounded shortest-path tree (its delay neighbourhood).

    Parallel arrays over the ``<= k`` members in ``(distance, node id)``
    order — ``members[0]`` is the source itself at distance 0.
    ``members_sorted`` / ``sorted_to_pos`` support O(log k) membership and
    batched gathers (``np.searchsorted``); ``levels`` / ``level_offsets``
    group member positions 1.. by tree depth for the folds (see
    :func:`repro.topology.routing.tree_levels`), kept in the narrowest
    dtype that holds a position.  Every array is O(k), never O(N).
    """

    __slots__ = (
        "source",
        "k",
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
        members: np.ndarray,
        members_sorted: np.ndarray,
        sorted_to_pos: np.ndarray,
        delay: np.ndarray,
        loss: np.ndarray,
        uplink: np.ndarray,
        parent_pos: np.ndarray,
        levels: np.ndarray,
        level_offsets: np.ndarray,
    ) -> None:
        self.source = source
        self.k = k
        self.members = members
        self.members_sorted = members_sorted
        self.sorted_to_pos = sorted_to_pos
        self.delay = delay
        self.loss = loss
        self.uplink = uplink
        self.parent_pos = parent_pos
        self.levels = levels
        self.level_offsets = level_offsets
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
            + self.levels.nbytes
            + self.level_offsets.nbytes
        )
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
        #: per k, each node's k-th member distance from its last solve at
        #: that k (inf until solved, or when fewer than k nodes were
        #: reachable): what bounds the search radius of later solves
        self._radii: Dict[int, np.ndarray] = {}
        # tree edge -> link id: every link in both directions, in CSR
        # (row, column) order, keyed row·N + column for np.searchsorted.
        # Links are static; liveness lives in the router's matrix.
        n = len(self.network)
        links = self.network.links
        count = len(links)
        link_a = np.fromiter((link.node_a for link in links), dtype=np.int64, count=count)
        link_b = np.fromiter((link.node_b for link in links), dtype=np.int64, count=count)
        keys = np.concatenate((link_a * n + link_b, link_b * n + link_a))
        order = np.argsort(keys, kind="stable")
        self._edge_keys = keys[order]
        self._edge_links = np.concatenate((np.arange(count), np.arange(count)))[order]
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
        """Resident bytes per substructure: the O(cache × k) entries, the
        O(L) tree-edge → link-id lookup and the O(N) radius row per k."""
        entries = sum(entry.nbytes() for _, entry in self._entries.items())
        footprint = {
            "entries": int(entries),
            "link_ids": int(self._edge_keys.nbytes + self._edge_links.nbytes),
            "radii": sum(int(radii.nbytes) for radii in self._radii.values()),
        }
        footprint["total"] = sum(footprint.values())
        return footprint

    # -- solving -----------------------------------------------------------

    def entry(self, source: int, k: Optional[int] = None) -> NeighborhoodEntry:
        """The bounded tree for ``source`` (size ``k``, default the
        configured neighbourhood), solved on demand and LRU-cached.  A
        cached entry is valid until the churn listener drops it."""
        size = self.k if k is None else k
        key = (source, size)
        entry = self._entries.get(key)
        if entry is not None:
            if self.recorder.enabled:
                self.recorder.inc("neighborhood.hit")
            return entry
        entry = self._solve(source, size)
        self._entries[key] = entry
        self.solves += 1
        if self.recorder.enabled:
            self.recorder.inc("neighborhood.solve")
        return entry

    @hot_path(budget="O(Dijkstra within the k-th radius + N)")
    def _solve(self, source: int, k: int) -> NeighborhoodEntry:
        """The ``k`` nearest nodes of ``source`` and their tree, from one
        radius-limited compiled Dijkstra (two on a shortfall).

        The radius is the tightest bound the index knows on the source's
        k-th distance — its own from an earlier solve, or a live
        neighbour's plus the link between them — and no limit when it
        knows none.  Results never depend on it: within the radius the
        limited solve settles exactly what the full one would.

        Members are the reached nodes in ``(distance, node id)`` order,
        cut at ``k``; parent positions come from the solve's predecessors
        and uplinks from the tree-edge lookup.  A crashed source relays
        nothing (the matrix drops its links), so its tree is itself alone.
        """
        router = self.router
        if source in router.down_nodes:
            members = np.array([source], dtype=np.int64)
            delay = np.zeros(1)
            parents = np.empty(0, dtype=np.int64)
        else:
            radii = self._radii.get(k)
            if radii is None:
                radii = self._radii[k] = np.full(len(self.network), np.inf)
            matrix = router.matrix
            low, high = matrix.indptr[source], matrix.indptr[source + 1]
            # the k nearest nodes of a live neighbour t lie within
            # w(source, t) + r_k(t) of the source, so that bounds r_k(source)
            radius = min(
                radii[source],
                (matrix.data[low:high] + radii[matrix.indices[low:high]]).min(
                    initial=np.inf
                ),
            )
            distances, predecessors = dijkstra(
                matrix,
                directed=True,
                indices=source,
                return_predecessors=True,
                limit=radius,
            )
            reached = np.flatnonzero(np.isfinite(distances))
            if len(reached) < k and radius < np.inf:
                # a radius remembered before churn (or a bound rounded
                # below the path sum) fell short: search without one
                distances, predecessors = dijkstra(
                    matrix, directed=True, indices=source, return_predecessors=True
                )
                reached = np.flatnonzero(np.isfinite(distances))
            members = _nearest(reached, distances[reached], k)
            delay = distances[members]
            radii[source] = delay[-1] if len(members) == k else np.inf
            parents = predecessors[members[1:]].astype(np.int64)

        count = len(members)
        sorted_to_pos = np.argsort(members, kind="stable")
        members_sorted = members[sorted_to_pos]
        parent_pos = np.empty(count, dtype=np.int64)
        parent_pos[0] = -1
        parent_pos[1:] = sorted_to_pos[np.searchsorted(members_sorted, parents)]
        uplink = np.empty(count, dtype=np.int64)
        uplink[0] = -1
        edges = np.searchsorted(
            self._edge_keys, parents * len(self.network) + members[1:]
        )
        uplink[1:] = self._edge_links[edges]
        levels, offsets = tree_levels(parent_pos, 0, np.ones(count, dtype=bool))
        loss = np.zeros(count)
        fold_loss(
            loss,
            levels,
            offsets,
            parent_pos[levels],
            1.0 - router.link_loss[uplink[levels]],
        )
        return NeighborhoodEntry(
            source,
            k,
            members,
            members_sorted,
            sorted_to_pos,
            delay,
            loss,
            uplink,
            parent_pos,
            # narrowest dtype holding a position (uint16 for k < 65,536):
            # a quarter of int64's bytes on every cached entry
            levels.astype(np.min_scalar_type(count)),
            offsets,
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
        by depth when the entry is solved) — the member-restricted twin of
        :meth:`OverlayRouter.bottleneck_bandwidth_row`, min-folding the
        identical link values with the same depth-batched fold so member
        figures match byte-for-byte.  Cached on the entry for one
        global-state link version.
        """
        if entry.bw_row is not None and entry.bw_link_version == link_version:
            return entry.bw_row
        levels = entry.levels.astype(np.intp)  # native-width indices fold faster
        row = np.empty(len(entry.members))
        row[0] = np.inf
        fold_bottleneck(
            row,
            levels,
            entry.level_offsets,
            entry.parent_pos[levels],
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
