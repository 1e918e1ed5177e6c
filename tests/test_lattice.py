"""Layering, components, flow counting, and execution-flow enumeration."""

import random
from collections import Counter

import pytest

from allocflow import fixtures
from allocflow.lattice import (
    _adjacency,
    _graph_index,
    _groups,
    all_flows,
    count_flows,
    flow_cap,
    layer,
)
from allocflow.model import (
    AlgorithmSpec,
    CapExceededError,
    DependencyGraph,
    instance_from_dict,
)
from allocflow.simulate import GenParams, random_instance


def graph_of(edges, n=None):
    ids = sorted({u for u, _ in edges} | {v for _, v in edges})
    if n is not None:
        ids = sorted(set(ids) | {f"v{i}" for i in range(n)})
    algs = {aid: AlgorithmSpec(id=aid, exec_time={}) for aid in ids}
    return DependencyGraph(algorithms=algs, edges=tuple(sorted(edges)))


def subgraph(graph, members):
    """The component of graph on members: their algorithms and the edges
    between them."""
    return DependencyGraph(
        algorithms={aid: graph.algorithms[aid] for aid in members},
        edges=tuple(e for e in graph.edges if e[0] in members),
    )


def random_dag(rng, n):
    ids = [f"v{i}" for i in range(n)]
    edges = []
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.3:
                edges.append((ids[i], ids[j]))
    return graph_of(edges, n=n)


# ---------------------------------------------------------------------------
# Layering


def test_dataset_layers(dataset_d2):
    assert layer(dataset_d2.graph) == [["data"], ["stage_a", "stage_b"], ["stage_c"]]


def test_vision_layers(vision):
    assert layer(vision.graph) == [["A1"], ["A2"], ["A3", "A4"], ["A5"], ["A6"], ["A7"]]


def test_layer_matches_longest_path_oracle():
    rng = random.Random(7)
    for _ in range(25):
        graph = random_dag(rng, rng.randint(1, 12))
        preds = {aid: [] for aid in graph.algorithms}
        for u, v in graph.edges:
            preds[v].append(u)

        # oracle: 1 + longest predecessor chain, computed by memoized recursion
        depth = {}

        def d(v):
            if v not in depth:
                depth[v] = 1 + max((d(u) for u in preds[v]), default=0)
            return depth[v]

        layers = layer(graph)
        for k, bucket in enumerate(layers, start=1):
            for aid in bucket:
                assert d(aid) == k
        assert sorted(aid for bucket in layers for aid in bucket) == sorted(graph.algorithms)


def test_cycle_raises():
    graph = graph_of([("a", "b"), ("b", "a")])
    with pytest.raises(ValueError, match="cycle"):
        layer(graph)


def test_empty_graph_has_no_layers():
    assert layer(DependencyGraph()) == []


# ---------------------------------------------------------------------------
# Components: the order all_flows walks the sources in


def test_components_split_and_order():
    graph = graph_of([("x", "y"), ("b", "c")], n=0)
    assert _groups(*_adjacency(graph)) == [["b", "c"], ["x", "y"]]
    assert all_flows(graph) == [("b", "c"), ("x", "y")]


def test_isolated_vertices_are_own_components():
    graph = graph_of([], n=3)
    assert _groups(*_adjacency(graph)) == [["v0"], ["v1"], ["v2"]]
    assert all_flows(graph) == [("v0",), ("v1",), ("v2",)]


def test_components_match_bfs_oracle():
    rng = random.Random(11)
    for _ in range(20):
        graph = random_dag(rng, rng.randint(1, 14))
        undirected = {aid: set() for aid in graph.algorithms}
        for u, v in graph.edges:
            undirected[u].add(v)
            undirected[v].add(u)

        seen = set()
        expected = []
        for start in sorted(graph.algorithms):
            if start in seen:
                continue
            queue, members = [start], set()
            while queue:
                node = queue.pop()
                if node in members:
                    continue
                members.add(node)
                queue.extend(undirected[node] - members)
            seen |= members
            expected.append(sorted(members))
        expected.sort(key=min)

        assert _groups(*_adjacency(graph)) == expected


# ---------------------------------------------------------------------------
# Flows


def test_single_vertex_is_source_and_sink():
    graph = graph_of([], n=1)
    assert count_flows(graph) == 1
    assert all_flows(graph) == [("v0",)]


def test_empty_graph_has_no_flows():
    assert count_flows(DependencyGraph()) == 0
    assert all_flows(DependencyGraph()) == []


def test_dataset_flows(dataset_d2):
    assert all_flows(dataset_d2.graph) == [
        ("data", "stage_a", "stage_c"),
        ("data", "stage_b"),
    ]


def test_vision_flows(vision):
    assert all_flows(vision.graph) == [
        ("A1", "A2", "A3", "A6", "A7"),
        ("A1", "A2", "A4", "A5", "A6", "A7"),
    ]


def test_flows_are_lexicographic_and_maximal():
    graph = graph_of([("a", "c"), ("b", "c"), ("c", "d"), ("c", "e")])
    flows = all_flows(graph)
    assert flows == [("a", "c", "d"), ("a", "c", "e"), ("b", "c", "d"), ("b", "c", "e")]
    assert flows == sorted(flows)


def test_count_matches_enumeration(monkeypatch):
    """The pooled DP count equals the enumeration, over the whole graph and
    over each component on its own; and each vertex's paths_in and
    paths_out count the distinct flow prefixes that end at it and suffixes
    that start at it."""
    rng = random.Random(3)
    split = 0
    monkeypatch.setenv("ALLOCFLOW_FLOW_CAP", str(10**9))
    for _ in range(30):
        graph = random_dag(rng, rng.randint(1, 10))
        components = [subgraph(graph, set(members)) for members in _groups(*_adjacency(graph))]
        split += len(components) > 1
        flows = all_flows(graph)
        assert count_flows(graph) == len(flows)
        assert count_flows(graph) == sum(len(all_flows(c)) for c in components)
        prefixes = {flow[: i + 1] for flow in flows for i in range(len(flow))}
        suffixes = {flow[i:] for flow in flows for i in range(len(flow))}
        index = _graph_index(graph)
        paths_in, paths_out = index.paths_in, index.paths_out
        assert paths_in == dict(Counter(p[-1] for p in prefixes))
        assert paths_out == dict(Counter(s[0] for s in suffixes))
    assert split >= 10


def test_every_flow_is_a_real_path():
    rng = random.Random(5)
    graph = random_dag(rng, 10)
    edge_set = set(graph.edges)
    preds = {aid for _, aid in graph.edges}
    succs = {aid for aid, _ in graph.edges}
    for flow in all_flows(graph):
        assert flow[0] not in preds  # starts at a source
        assert flow[-1] not in succs  # ends at a sink
        for u, v in zip(flow, flow[1:]):
            assert (u, v) in edge_set


# ---------------------------------------------------------------------------
# Flow cap


def wide_graph(k):
    # k independent 2-choice diamonds: flow count 2**k
    edges = []
    for i in range(k):
        edges += [(f"s{i}", f"m{i}a"), (f"s{i}", f"m{i}b")]
    return graph_of(edges)


def test_flows_match_recursive_walk_oracle():
    rng = random.Random(31)
    for _ in range(40):
        graph = random_dag(rng, rng.randint(1, 12))
        succs = {aid: sorted(v for u, v in graph.edges if u == aid) for aid in graph.algorithms}
        expected = []

        # oracle: the depth-first walk, one recursion level per path vertex
        def walk(path):
            if not succs[path[-1]]:
                expected.append(tuple(path))
            for w in succs[path[-1]]:
                walk(path + [w])

        has_pred = {v for _, v in graph.edges}
        for members in _groups(*_adjacency(graph)):
            for source in sorted(set(members) - has_pred):
                walk([source])
        assert all_flows(graph) == expected


def test_deep_chain_does_not_hit_the_recursion_limit():
    inst = random_instance(2000, GenParams(layers=2000, edge_prob=0.0), seed=0)
    chain = tuple(aid for bucket in layer(inst.graph) for aid in bucket)
    assert all_flows(inst.graph) == [chain]


def test_cap_exceeded_raises_with_counts(monkeypatch):
    graph = graph_of([("s", "a"), ("s", "b"), ("s", "c")])
    monkeypatch.setenv("ALLOCFLOW_FLOW_CAP", "2")
    with pytest.raises(CapExceededError) as exc:
        all_flows(graph)
    assert exc.value.count == 3
    assert exc.value.cap == 2


def test_cap_bounds_the_flows_pooled_over_components(monkeypatch):
    """Two components of two flows each: every component fits under cap 3,
    their four flows do not."""
    graph = graph_of([("s", "a"), ("s", "b"), ("t", "c"), ("t", "d")])
    monkeypatch.setenv("ALLOCFLOW_FLOW_CAP", "4")
    assert len(all_flows(graph)) == 4
    monkeypatch.setenv("ALLOCFLOW_FLOW_CAP", "3")
    with pytest.raises(CapExceededError) as exc:
        all_flows(graph)
    assert exc.value.count == 4
    assert exc.value.cap == 3


def test_flow_cap_env_override(monkeypatch):
    monkeypatch.setenv("ALLOCFLOW_FLOW_CAP", "2")
    assert flow_cap() == 2
    graph = graph_of([("s", "a"), ("s", "b"), ("s", "c")])
    with pytest.raises(CapExceededError):
        all_flows(graph)


def test_flow_cap_env_rejects_garbage(monkeypatch):
    monkeypatch.setenv("ALLOCFLOW_FLOW_CAP", "many")
    with pytest.raises(ValueError, match="must be an integer"):
        flow_cap()
    monkeypatch.setenv("ALLOCFLOW_FLOW_CAP", "0")
    with pytest.raises(ValueError, match=">= 1"):
        flow_cap()


def test_default_cap_allows_bundled_fixtures():
    for name, data in fixtures.bundled().items():
        if name == "cyclic_invalid":
            continue
        assert all_flows(instance_from_dict(data).graph)
