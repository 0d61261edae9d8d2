"""Router-neighbourhood index: byte-identity to the full router, churn
maintenance, LRU bounding, and the prune-spec resolver.

The index's whole value proposition is that for *members* of a source's
bounded tree, every figure it answers — delay, composed loss, path links,
bottleneck bandwidth — is byte-identical to the full
:class:`~repro.topology.routing.OverlayRouter` answer (module docstring
of :mod:`repro.topology.neighborhood` argues why; these tests check it
exactly, ``==`` on floats).  Churn tests are differential: after an
arbitrary fault/recovery sequence the incrementally maintained index must
answer identically to an index built fresh against the same router.
"""

import random

import numpy as np
import pytest

from repro.topology.neighborhood import (
    AUTO_PRUNE_FLOOR,
    NeighborhoodEntry,
    NeighborhoodIndex,
    resolve_prune_k,
)
from repro.topology.routing import OverlayRouter
from tests.test_routing_differential import random_mesh


def assert_entry_matches_router(index, router, source, k):
    """Member figures must equal the full router's, byte for byte."""
    entry = index.entry(source, k)
    delay_row, loss_row = router.virtual_link_rows(source)

    # membership: exactly the k delay-nearest reachable nodes (delays are
    # continuous, so the prefix is unique)
    finite = np.isfinite(delay_row)
    reachable = int(finite.sum())
    assert len(entry) == min(k, reachable)
    full_order = np.argsort(delay_row, kind="stable")[:reachable]
    assert np.array_equal(entry.members, full_order[: len(entry)])

    members = entry.members
    assert entry.members[0] == source
    assert np.array_equal(entry.delay, delay_row[members])
    assert np.array_equal(entry.loss, loss_row[members])
    for position, node_id in enumerate(members.tolist()):
        assert entry.path_links(position) == router.overlay_path(source, node_id)
        assert entry.position(node_id) == position
    # positions() agrees with position() and flags non-members
    probe = np.arange(len(router.network))
    positions = entry.positions(probe)
    for node_id in probe.tolist():
        assert positions[node_id] == entry.position(node_id)
    assert ((positions >= 0).sum()) == len(entry)
    return entry


class TestBoundedTreeIdentity:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("k", [1, 4, 12, 50])
    def test_member_figures_match_full_router(self, seed, k):
        network = random_mesh(seed, num_nodes=25, extra_edges=30)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=k)
            for source in range(len(network)):
                assert_entry_matches_router(index, router, source, k)
            index.close()

    def test_live_bandwidth_matches_router(self):
        network = random_mesh(5, num_nodes=20, extra_edges=25)
        rng = random.Random(9)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=8)
            # perturb residual bandwidth so the min-fold has work to do
            for link in network.links:
                link.allocate_bandwidth(rng.uniform(0.0, 5_000.0))
            for source in range(len(network)):
                entry = index.entry(source)
                for node_id in entry.members.tolist():
                    got = index.live_bandwidth(source, node_id)
                    want = (
                        float("inf")
                        if node_id == source
                        else router.available_bandwidth(source, node_id)
                    )
                    assert got == want
                # non-members answer None (caller falls back to the router)
                non_members = set(range(len(network))) - set(
                    entry.members.tolist()
                )
                for node_id in sorted(non_members):
                    assert index.live_bandwidth(source, node_id) is None
            index.close()

    def test_stale_bottleneck_row_matches_router_row(self):
        network = random_mesh(6, num_nodes=20, extra_edges=25)
        rng = random.Random(10)
        stale = np.asarray(
            [rng.uniform(1_000.0, 9_000.0) for _ in network.links]
        )
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=9)
            for source in range(len(network)):
                entry = index.entry(source)
                row = index.stale_bottleneck_row(entry, stale, link_version=1)
                full = router.bottleneck_bandwidth_row(source, stale)
                assert np.array_equal(row, full[entry.members])
                # cached for the same link version, recomputed on a bump
                assert index.stale_bottleneck_row(entry, stale, 1) is row
                assert index.stale_bottleneck_row(entry, stale, 2) is not row
            index.close()

    def test_virtual_link_matches_router(self):
        network = random_mesh(7, num_nodes=18, extra_edges=20)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=7)
            for source in range(len(network)):
                entry = index.entry(source)
                for node_id in entry.members.tolist():
                    if node_id == source:
                        continue
                    got = index.virtual_link(source, node_id)
                    want = router.virtual_link(source, node_id)
                    assert got.overlay_link_ids == want.overlay_link_ids
                    assert got.qos.values == want.qos.values
            index.close()

    def test_k_at_least_n_covers_every_reachable_node(self):
        network = random_mesh(8, num_nodes=15, extra_edges=12)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=len(network))
            entry = index.entry(4)
            assert len(entry) == len(network)
            index.close()


class TestChurnMaintenance:
    def test_differential_under_random_churn(self):
        """After arbitrary node/link churn, the listener-maintained index
        answers exactly like one built fresh against the same router."""
        network = random_mesh(13, num_nodes=22, extra_edges=26)
        rng = random.Random(31)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=8)
            down_nodes: set = set()
            down_links: set = set()
            for _step in range(25):
                action = rng.random()
                if action < 0.35 and len(down_nodes) < 6:
                    down_nodes.add(rng.randrange(len(network)))
                    router.set_down_nodes(down_nodes)
                elif action < 0.5 and down_nodes:
                    down_nodes.discard(rng.choice(sorted(down_nodes)))
                    router.set_down_nodes(down_nodes)
                elif action < 0.8 and len(down_links) < 6:
                    down_links.add(rng.randrange(len(network.links)))
                    router.set_down_links(down_links)
                elif down_links:
                    down_links.discard(rng.choice(sorted(down_links)))
                    router.set_down_links(down_links)
                fresh = NeighborhoodIndex(router, k=8)
                for source in rng.sample(range(len(network)), 6):
                    a = index.entry(source)
                    b = fresh.entry(source)
                    assert np.array_equal(a.members, b.members)
                    assert np.array_equal(a.delay, b.delay)
                    assert np.array_equal(a.loss, b.loss)
                    assert np.array_equal(a.uplink, b.uplink)
                fresh.close()
            assert index.churn_drops > 0
            index.close()

    def test_crashed_source_yields_singleton_entry(self):
        network = random_mesh(2, num_nodes=10, extra_edges=8)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=5)
            router.set_down_nodes({3})
            entry = index.entry(3)
            assert entry.members.tolist() == [3]
            index.close()

    def test_close_detaches_churn_listener(self):
        network = random_mesh(2, num_nodes=10, extra_edges=8)
        with OverlayRouter(network) as router:
            baseline = len(router._churn_listeners)
            index = NeighborhoodIndex(router, k=5)
            assert len(router._churn_listeners) == baseline + 1
            index.close()
            index.close()  # idempotent
            assert len(router._churn_listeners) == baseline

    def test_router_close_clears_listeners(self):
        network = random_mesh(2, num_nodes=10, extra_edges=8)
        router = OverlayRouter(network)
        NeighborhoodIndex(router, k=5)
        router.close()
        assert router._churn_listeners == []


class TestBounding:
    def test_lru_capacity_holds_and_evictions_count(self):
        network = random_mesh(4, num_nodes=20, extra_edges=20)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=6, capacity=3)
            for source in range(len(network)):
                index.entry(source)
                assert index.cached_entry_count <= 3
            assert index.evictions > 0
            # an evicted source re-solves value-identically
            entry = index.entry(0)
            fresh = NeighborhoodIndex(router, k=6)
            assert np.array_equal(entry.members, fresh.entry(0).members)
            fresh.close()
            index.close()

    def test_memory_footprint_attributes_parts(self):
        network = random_mesh(4, num_nodes=20, extra_edges=20)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=6)
            empty = index.memory_footprint()
            for source in range(10):
                index.entry(source)
            loaded = index.memory_footprint()
            assert set(loaded) == {"entries", "scratch", "adjacency", "total"}
            assert loaded["entries"] > empty["entries"]
            assert loaded["total"] == sum(
                v for k, v in loaded.items() if k != "total"
            )
            index.close()

    def test_entry_nbytes_counts_every_array(self):
        """Exact accounting, including the depth levels the bottleneck
        fold builds on first use."""
        network = random_mesh(4, num_nodes=20, extra_edges=20)
        stale = np.full(len(network.links), 500.0)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=8)
            for source in range(6):
                entry = index.entry(source)
                if source % 2:
                    index.stale_bottleneck_row(entry, stale, link_version=0)
                    assert entry.levels is not None
                arrays = [
                    getattr(entry, slot)
                    for slot in NeighborhoodEntry.__slots__
                    if isinstance(getattr(entry, slot), np.ndarray)
                ]
                assert entry.nbytes() == sum(array.nbytes for array in arrays)
            assert index.memory_footprint()["entries"] == sum(
                entry.nbytes() for _, entry in index._entries.items()
            )
            index.close()

    def test_entries_are_o_of_k_not_n(self):
        network = random_mesh(4, num_nodes=40, extra_edges=50)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=4)
            entry = index.entry(0)
            assert len(entry) == 4
            assert entry.members.nbytes == 4 * 8
            index.close()


class TestResolvePruneK:
    def test_none_disables(self):
        assert resolve_prune_k(None, 10_000) is None

    def test_auto_floor_and_growth(self):
        assert resolve_prune_k("auto", 100) == 100  # capped at N
        assert resolve_prune_k("auto", 1_000) == AUTO_PRUNE_FLOOR
        assert resolve_prune_k("auto", 10_000) == 800
        assert resolve_prune_k("auto", 50_000) == 1789

    def test_explicit_int_capped_at_n(self):
        assert resolve_prune_k(64, 10_000) == 64
        assert resolve_prune_k(5_000, 400) == 400

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="candidate_prune_k"):
            resolve_prune_k("fast", 100)
        with pytest.raises(ValueError, match=">= 1"):
            resolve_prune_k(0, 100)
        with pytest.raises(ValueError, match=">= 1"):
            resolve_prune_k(-3, 100)

    def test_index_rejects_bad_k(self):
        network = random_mesh(1, num_nodes=8, extra_edges=4)
        with OverlayRouter(network) as router:
            with pytest.raises(ValueError, match=">= 1"):
                NeighborhoodIndex(router, k=0)
