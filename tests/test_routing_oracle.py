"""Independent oracles for the depth-batched row folds.

The differential routing tests compare one router against another, so
both sides run the same depth-batched fold and a shared mistake would
cancel out.  These tests check every row entry with ``==`` against a
per-destination walk that shares no code with the fold:

* ``bottleneck_bandwidth_row(s)[d]`` equals
  ``network.path_available_bw(overlay_path(s, d))`` (the link objects'
  own residuals, min-folded along the path);
* ``virtual_link_rows(s)`` equals :func:`combine_all` over the path's
  link QoS vectors;
* ``NeighborhoodIndex.stale_bottleneck_row`` equals the per-member
  ``live_bandwidth`` parent walk.

They run under random node crash/recovery and link down/up, and cover
leaves patched unreachable in place after a crash, destinations cut off
by a partition, and the eager ``incremental=False`` router (whose
predecessor rows come from the all-pairs int32 matrix).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model.node import Node
from repro.model.qos import combine_all
from repro.topology.neighborhood import NeighborhoodIndex
from repro.topology.overlay import OverlayLink, OverlayNetwork
from repro.topology.routing import OverlayRouter, RoutingError, tree_levels
from tests.conftest import rv


@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 60))
@settings(max_examples=50, deadline=None)
def test_tree_levels_group_members_by_walked_depth(seed, size):
    """Random forests over a shuffled id space: the levels hold exactly
    the root's tree below it, each node in the slice of its walked depth."""
    rng = random.Random(seed)
    ids = list(range(size))
    rng.shuffle(ids)
    root = ids[0]
    parents = np.full(size, -9999, dtype=np.int32)
    members = np.zeros(size, dtype=bool)
    members[root] = True
    for position in range(1, size):
        node = ids[position]
        if rng.random() < 0.2:  # outside the tree, maybe with a stale parent
            parents[node] = rng.choice(ids[:position])
            continue
        parents[node] = rng.choice([i for i in ids[:position] if members[i]])
        members[node] = True
    levels, offsets = tree_levels(parents, root, members)
    below = sorted(np.flatnonzero(members).tolist())
    below.remove(root)
    assert sorted(levels.tolist()) == below
    assert offsets[0] == 0 and offsets[-1] == len(levels)
    for depth, (low, high) in enumerate(zip(offsets, offsets[1:]), start=1):
        assert high > low
        for node in levels[low:high].tolist():
            walked, at = 0, node
            while at != root:
                at = int(parents[at])
                walked += 1
            assert walked == depth


def lossy_mesh(seed, num_nodes, extra_edges):
    """A connected random mesh with continuous delays and per-link losses
    (sparse enough that a few crashes partition it)."""
    rng = random.Random(seed)
    nodes = [Node(i, i, rv(10, 10)) for i in range(num_nodes)]
    pairs = set()
    for node in range(1, num_nodes):  # random spanning tree
        parent = rng.randrange(node)
        pairs.add((parent, node))
    while len(pairs) < num_nodes - 1 + extra_edges:
        a, b = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    links = [
        OverlayLink(
            i,
            a,
            b,
            delay_ms=rng.uniform(1.0, 50.0),
            loss_rate=rng.uniform(0.0, 0.05),
            capacity_kbps=10_000.0,
        )
        for i, (a, b) in enumerate(sorted(pairs))
    ]
    return OverlayNetwork(nodes, links)


def check_router_rows(router, network, down):
    """Every row entry of every live source against the path oracles.

    Returns ``(patched, partitioned)``: how many entries were leaves
    patched unreachable in an annotated tree, and how many were live
    destinations with no path.
    """
    n = len(network)
    patched = partitioned = 0
    for source in range(n):
        if source in down:
            continue
        tree = router._trees.peek(source)
        if tree is not None and tree.levels is not None:
            patched += int((tree.uplink[tree.levels] < 0).sum())
        delay_row, loss_row = router.virtual_link_rows(source)
        bandwidth_row = router.bottleneck_bandwidth_row(source)
        assert bandwidth_row[source] == np.inf
        for dest in range(n):
            if dest == source:
                continue
            if dest in down or not router.reachable(source, dest):
                partitioned += dest not in down
                assert delay_row[dest] == np.inf
                assert bandwidth_row[dest] == -np.inf
                with pytest.raises(RoutingError):
                    router.overlay_path(source, dest)
                continue
            path = router.overlay_path(source, dest)
            # the path is a walk source -> dest over live links
            at = source
            for link_id in path:
                link = network.link(link_id)
                assert at in link.endpoints
                assert link_id not in router.down_links
                at = link.other_end(at)
                assert at not in down
            assert at == dest
            assert bandwidth_row[dest] == network.path_available_bw(path)
            qos = combine_all(
                (network.link(link_id).qos for link_id in path),
                network.links[0].qos.schema,
            )
            assert delay_row[dest] == qos.values[0]
            assert loss_row[dest] == qos.values[1]
    return patched, partitioned


def check_stale_rows(index, router, down, link_version):
    """The neighbourhood fold against the per-member live walk."""
    for source in range(len(router.network)):
        if source in down:
            continue
        entry = index.entry(source)
        row = index.stale_bottleneck_row(entry, router.link_available, link_version)
        assert len(row) == len(entry)
        for position, member in enumerate(entry.members.tolist()):
            assert row[position] == index.live_bandwidth(source, member)


def run_churn(seed, incremental, steps=6):
    """Random node/link churn with bandwidth drift; checks after every
    step.  Returns the summed ``(patched, partitioned)`` counts."""
    rng = random.Random(seed)
    network = lossy_mesh(seed, num_nodes=14, extra_edges=rng.randrange(0, 6))
    router = OverlayRouter(network, incremental=incremental)
    index = NeighborhoodIndex(router, k=rng.choice([1, 5, len(network)]))
    n = len(network)
    down, down_links = set(), set()
    totals = [0, 0]
    for step in range(steps):
        # warm annotated trees so later crashes patch leaves in place
        for source in rng.sample(range(n), k=6):
            if source not in down:
                router.bottleneck_bandwidth_row(source)
        for link in rng.sample(network.links, k=4):
            link.allocate_bandwidth(rng.uniform(0.0, link.available_kbps))
        up = [node for node in range(n) if node not in down]
        down |= set(rng.sample(up, k=min(len(up) - 1, rng.randrange(0, 4))))
        down -= set(rng.sample(sorted(down), k=min(len(down), rng.randrange(0, 2))))
        live_links = [l for l in range(len(network.links)) if l not in down_links]
        down_links |= set(rng.sample(live_links, k=min(len(live_links), rng.randrange(0, 3))))
        down_links -= set(
            rng.sample(sorted(down_links), k=min(len(down_links), rng.randrange(0, 2)))
        )
        router.set_down_nodes(down)
        router.set_down_links(down_links)
        patched, partitioned = check_router_rows(router, network, down)
        check_stale_rows(index, router, down, link_version=step)
        totals[0] += patched
        totals[1] += partitioned
    index.close()
    router.close()
    return totals


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
@settings(max_examples=30, deadline=None)
def test_rows_match_path_oracles_under_churn(seed, incremental):
    run_churn(seed, incremental)


@pytest.mark.parametrize("incremental", [True, False])
def test_oracle_churn_reaches_patched_leaves_and_partitions(incremental):
    """The churn generator really produces the corner cases the oracle
    test is meant to cover (eager trees are never patched: every churn
    event flushes them)."""
    patched = partitioned = 0
    for seed in range(12):
        got_patched, got_partitioned = run_churn(seed, incremental)
        patched += got_patched
        partitioned += got_partitioned
    assert partitioned > 0
    if incremental:
        assert patched > 0


def test_eager_router_predecessors_are_int32():
    """The eager router's trees fold over int32 predecessor rows."""
    network = lossy_mesh(3, num_nodes=10, extra_edges=4)
    router = OverlayRouter(network, incremental=False)
    router.virtual_link_rows(0)
    assert router._trees.peek(0).predecessors.dtype == np.int32
    check_router_rows(router, network, set())
