"""Micro-benchmarks of the hot operations behind every figure.

These are classic pytest-benchmark timings (many rounds, statistics) of
the per-request building blocks: a single composition by each algorithm,
virtual-link routing queries, and φ(λ) evaluation.  They bound the cost of
scaling the simulation up and catch performance regressions in the core.
"""

import random

import pytest

from repro.core import (
    ACPComposer,
    CompositionEvaluator,
    OptimalComposer,
    RandomComposer,
)
from repro.experiments import EVALUATION_DEPLOYMENT
from repro.model.request import StreamRequest, derive_bandwidth_requirements
from repro.model.qos import DEFAULT_QOS_SCHEMA, QoSVector
from repro.model.resources import DEFAULT_RESOURCE_SCHEMA, ResourceVector
from repro.simulation import SystemConfig, build_system
from repro.topology.neighborhood import NeighborhoodIndex, resolve_prune_k


@pytest.fixture(scope="module")
def system():
    return build_system(
        SystemConfig(
            num_routers=800,
            num_nodes=400,
            deployment=EVALUATION_DEPLOYMENT,
            seed=1,
        )
    )


@pytest.fixture(scope="module")
def context(system):
    return system.composition_context(rng=random.Random(3))


def request_for(system, request_id=0):
    template = system.templates[2]
    graph = template.graph
    stream_rate = 100.0
    return StreamRequest(
        request_id=request_id,
        function_graph=graph,
        qos_requirement=QoSVector(DEFAULT_QOS_SCHEMA, [500.0, 0.2]),
        node_requirements={
            i: ResourceVector(DEFAULT_RESOURCE_SCHEMA, [4.0, 25.0])
            for i in range(len(graph))
        },
        bandwidth_requirements=derive_bandwidth_requirements(
            graph, stream_rate, 2.0
        ),
        stream_rate=stream_rate,
    )


def test_acp_compose_latency(benchmark, system, context):
    composer = ACPComposer(context, probing_ratio=0.3)
    request = request_for(system)

    def compose():
        outcome = composer.compose(request)
        context.allocator.cancel_transient(request.request_id)
        return outcome

    outcome = benchmark(compose)
    assert outcome.success


def test_acp_compose_latency_scalar(benchmark, system, context):
    """The scalar reference path of the same composition — its ratio to
    ``test_acp_compose_latency`` is the vectorised-scoring speedup."""
    composer = ACPComposer(context, probing_ratio=0.3, vectorized=False)
    request = request_for(system)

    def compose():
        outcome = composer.compose(request)
        context.allocator.cancel_transient(request.request_id)
        return outcome

    outcome = benchmark(compose)
    assert outcome.success


def test_optimal_compose_latency(benchmark, system, context):
    composer = OptimalComposer(context, max_explored=5000)
    request = request_for(system, request_id=1)

    def compose():
        outcome = composer.compose(request)
        context.allocator.cancel_transient(request.request_id)
        return outcome

    outcome = benchmark(compose)
    assert outcome.success


def test_random_compose_latency(benchmark, system, context):
    composer = RandomComposer(context)
    request = request_for(system, request_id=2)

    def compose():
        outcome = composer.compose(request)
        context.allocator.cancel_transient(request.request_id)
        return outcome

    benchmark(compose)


def test_virtual_link_query_latency(benchmark, system):
    router = system.router
    n = len(system.network)
    rng = random.Random(0)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(256)]

    def query():
        total = 0.0
        for a, b in pairs:
            total += router.virtual_link_qos(a, b)["delay"]
        return total

    assert benchmark(query) >= 0.0


@pytest.fixture(scope="module", params=[400, 2000], ids=["n400", "n2000"])
def routing_system(request):
    """Systems at the churn (N=400) and scale (N=2,000) benchmark sizes."""
    num_nodes = request.param
    return build_system(
        SystemConfig(
            num_routers=800 if num_nodes == 400 else 3200,
            num_nodes=num_nodes,
            deployment=EVALUATION_DEPLOYMENT,
            seed=1,
        )
    )


def test_cold_tree_annotation_latency(benchmark, routing_system):
    """One cold depth-batched annotation pass (uplinks, levels, loss row)
    over an already-solved shortest-path tree."""
    router = routing_system.router
    sources = iter(range(len(routing_system.network)))

    def solved_tree():
        source = next(sources)
        tree = router._tree(source)
        tree.levels = tree.level_offsets = tree.uplink = tree.loss_row = None
        return (source,), {}

    benchmark.pedantic(router._annotated, setup=solved_tree, rounds=100)


def test_tree_solve_latency(benchmark, routing_system):
    """One cold single-source shortest-path tree (the compiled scipy
    Dijkstra behind every uncached router source)."""
    router = routing_system.router
    sources = iter(range(len(routing_system.network)))

    def evicted_source():
        source = next(sources)
        router._trees.pop(source, None)
        return (source,), {}

    tree = benchmark.pedantic(router._tree, setup=evicted_source, rounds=100)
    assert tree.distances[tree.source] == 0.0


def test_neighborhood_solve_latency(benchmark, routing_system):
    """One cold bounded neighbourhood tree at the ``"auto"`` size, solved
    in a sweep over the sources (each fresh to the index, so the radius
    comes only from neighbours solved before it)."""
    network = routing_system.network
    k = resolve_prune_k("auto", len(network))
    index = NeighborhoodIndex(routing_system.router, k=k)
    sources = iter(range(len(network)))

    def fresh_source():
        return (next(sources), k), {}

    entry = benchmark.pedantic(index._solve, setup=fresh_source, rounds=100)
    assert len(entry) == k
    index.close()


def test_bottleneck_row_latency(benchmark, routing_system):
    """One bottleneck-bandwidth row over an annotated tree."""
    router = routing_system.router
    router.virtual_link_rows(0)
    row = benchmark(router.bottleneck_bandwidth_row, 0)
    assert row[0] == float("inf")


def test_phi_evaluation_latency(benchmark, system, context):
    evaluator = CompositionEvaluator(context)
    request = request_for(system, request_id=3)
    outcome = ACPComposer(context, probing_ratio=0.5).compose(request)
    context.allocator.cancel_transient(request.request_id)
    assert outcome.success
    composition = outcome.composition

    result = benchmark(lambda: evaluator.phi(composition))
    assert result > 0.0


def test_global_state_update_path_latency(benchmark, system):
    node = system.network.node(0)
    amount = ResourceVector(DEFAULT_RESOURCE_SCHEMA, [1.0, 5.0])

    def churn():
        node.allocate(amount)
        node.release(amount)

    benchmark(churn)
