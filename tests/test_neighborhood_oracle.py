"""The compiled neighbourhood solve against the heap reference.

:meth:`NeighborhoodIndex._solve` answers with one radius-limited scipy
Dijkstra (two when the radius falls short); ``tests/neighborhood_reference.py``
keeps the plain-python bounded heap Dijkstra it replaced.  Every array of
every entry — members, delay, loss, uplink, parent positions — must equal
the reference's with ``==`` and the same dtype, on random meshes with
random down nodes and links (the source among them), for k = 1, a small
k, and k at or beyond the reachable set, including partitions smaller
than k.  One index answers a whole churn sequence, so the solves run with
radii remembered from earlier solves and topologies, and a coverage test
checks that limited solves and shortfall retries both happen.

The router's routing CSR is symmetric by construction, which is what lets
both solvers walk it directed; that is checked under churn too.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra

import repro.topology.neighborhood as neighborhood_module
from repro.model.node import Node
from repro.topology.neighborhood import NeighborhoodIndex
from repro.topology.overlay import OverlayLink, OverlayNetwork
from repro.topology.routing import OverlayRouter
from tests.conftest import rv
from tests.neighborhood_reference import heap_solve
from tests.test_routing_oracle import lossy_mesh

FIELDS = ("members", "delay", "loss", "uplink", "parent_pos")


def assert_matches_reference(index, router, source, k):
    entry = index._solve(source, k)
    for name, want in zip(FIELDS, heap_solve(router, source, k)):
        got = getattr(entry, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    return entry


def split_mesh(seed, sizes):
    """Disjoint random meshes side by side: no path crosses between them."""
    rng = random.Random(seed)
    nodes = [Node(i, i, rv(10, 10)) for i in range(sum(sizes))]
    pairs = set()
    base = 0
    for size in sizes:
        for node in range(1, size):
            pairs.add((base + rng.randrange(node), base + node))
        for _ in range(size):
            a, b = base + rng.randrange(size), base + rng.randrange(size)
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        base += size
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


def churn_step(rng, router, down, down_links):
    """Crash/recover a few nodes and fail/restore a few links."""
    network = router.network
    n = len(network)
    up = [node for node in range(n) if node not in down]
    down |= set(rng.sample(up, k=min(len(up) - 1, rng.randrange(0, 4))))
    down -= set(rng.sample(sorted(down), k=min(len(down), rng.randrange(0, 3))))
    live = [link for link in range(len(network.links)) if link not in down_links]
    down_links |= set(rng.sample(live, k=min(len(live), rng.randrange(0, 4))))
    down_links -= set(
        rng.sample(sorted(down_links), k=min(len(down_links), rng.randrange(0, 3)))
    )
    router.set_down_nodes(down)
    router.set_down_links(down_links)


def run_differential(seed, k_choice, steps=4):
    """Every source's entry against the reference after each churn step,
    one index throughout.  Returns the k used."""
    rng = random.Random(seed)
    n = rng.randrange(6, 24)
    # at most as many extra edges as the complete graph has beyond a tree
    extra_edges = rng.randrange(0, min(20, (n - 1) * (n - 2) // 2 + 1))
    network = lossy_mesh(seed, num_nodes=n, extra_edges=extra_edges)
    k = {"one": 1, "small": rng.randrange(2, 7), "all": n + rng.randrange(0, 3)}[k_choice]
    with OverlayRouter(network) as router:
        index = NeighborhoodIndex(router, k=k)
        down, down_links = set(), set()
        for _step in range(steps):
            for source in rng.sample(range(n), n):
                entry = assert_matches_reference(index, router, source, k)
                if source in down:
                    assert entry.members.tolist() == [source]
            churn_step(rng, router, down, down_links)
        index.close()
    return k


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["one", "small", "all"]),
)
@settings(max_examples=40, deadline=None)
def test_compiled_solve_equals_heap_reference(seed, k_choice):
    run_differential(seed, k_choice)


@given(st.integers(min_value=0, max_value=10_000), st.integers(2, 12))
@settings(max_examples=25, deadline=None)
def test_partition_smaller_than_k(seed, extra):
    """Every source sits in a component smaller than k: its entry is the
    whole component, equal to the reference's."""
    sizes = [3 + seed % 5, 4 + extra, 2]
    network = split_mesh(seed, sizes)
    k = max(sizes) + 1
    with OverlayRouter(network) as router:
        index = NeighborhoodIndex(router, k=k)
        starts = np.cumsum([0] + sizes)
        for source in range(len(network)):
            entry = assert_matches_reference(index, router, source, k)
            component = int(np.searchsorted(starts, source, side="right")) - 1
            assert sorted(entry.members.tolist()) == list(
                range(starts[component], starts[component + 1])
            )
        index.close()


def test_limited_solves_and_shortfall_retries_happen(monkeypatch):
    """The differential exercises both search modes: solves limited by a
    remembered radius, and the unlimited retry after a shortfall."""
    limits = []
    compiled = neighborhood_module.dijkstra

    def recording(*args, **kwargs):
        limits.append(kwargs.get("limit", np.inf))
        return compiled(*args, **kwargs)

    monkeypatch.setattr(neighborhood_module, "dijkstra", recording)
    retries = limited = 0
    for seed in range(30):
        for k_choice in ("small", "all"):
            before = len(limits)
            run_differential(seed, k_choice)
            calls = limits[before:]
            limited += sum(limit < np.inf for limit in calls)
            # a retry is an unlimited call right after a limited one
            retries += sum(
                first < np.inf and second == np.inf
                for first, second in zip(calls, calls[1:])
            )
    assert limited > 0
    assert retries > 0


@pytest.mark.parametrize("seed", range(8))
def test_routing_matrix_symmetric_and_directed_solve_agrees(seed):
    rng = random.Random(seed)
    network = lossy_mesh(seed, num_nodes=18, extra_edges=12)
    with OverlayRouter(network) as router:
        down, down_links = set(), set()
        for _step in range(6):
            matrix = router.matrix
            assert (matrix != matrix.T).nnz == 0
            directed, directed_pred = dijkstra(
                matrix, directed=True, return_predecessors=True
            )
            undirected, undirected_pred = dijkstra(
                matrix, directed=False, return_predecessors=True
            )
            assert np.array_equal(directed, undirected)
            # delays are continuous, so shortest paths (and predecessors)
            # are unique
            assert np.array_equal(directed_pred, undirected_pred)
            for source in range(len(network)):
                assert np.array_equal(router._tree(source).distances, directed[source])
            churn_step(rng, router, down, down_links)
