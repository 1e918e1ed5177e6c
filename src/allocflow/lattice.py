"""Dependency-graph structure: layering, components, flows.

Layer 1 holds the in-degree-0 vertices; a vertex sits in layer k when all of
its predecessors sit in layers below k and at least one sits in layer k-1.
Each weakly-connected component is bounded by a virtual top above its sources
and a virtual bottom below its sinks (both pinned to the edge node), and an
execution flow is one maximal top-to-bottom path with the virtual endpoints
stripped: a path from a source to a sink.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Dict, List, Optional, Tuple

from .model import CapExceededError, DependencyGraph

DEFAULT_FLOW_CAP = 10**6
FLOW_CAP_ENV = "ALLOCFLOW_FLOW_CAP"

ExecutionFlow = Tuple[str, ...]


def flow_cap() -> int:
    raw = os.environ.get(FLOW_CAP_ENV)
    if raw is None:
        return DEFAULT_FLOW_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{FLOW_CAP_ENV} must be an integer, got {raw!r}")
    if value < 1:
        raise ValueError(f"{FLOW_CAP_ENV} must be >= 1, got {value}")
    return value


def _successors(graph: DependencyGraph) -> Dict[str, List[str]]:
    """Each vertex's successors, sorted."""
    succs: Dict[str, List[str]] = {aid: [] for aid in graph.algorithms}
    for u, v in graph.edges:
        succs[u].append(v)
    for vs in succs.values():
        vs.sort()
    return succs


def layer(graph: DependencyGraph) -> List[List[str]]:
    """Layers as sorted id lists; raises on cycles (validate reports them first)."""
    return _layer(graph, _successors(graph))


def _layer(graph: DependencyGraph, succs: Dict[str, List[str]]) -> List[List[str]]:
    """layer, given the graph's _successors."""
    indegree = dict.fromkeys(graph.algorithms, 0)
    for _, v in graph.edges:
        indegree[v] += 1

    level: Dict[str, int] = {}
    queue = deque(sorted(aid for aid, d in indegree.items() if d == 0))
    for aid in queue:
        level[aid] = 1
    seen = len(queue)
    while queue:
        aid = queue.popleft()
        for nxt in succs[aid]:
            level[nxt] = max(level.get(nxt, 0), level[aid] + 1)
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                queue.append(nxt)
                seen += 1
    if seen != len(graph.algorithms):
        raise ValueError("graph contains a cycle; layering undefined")

    layers: List[List[str]] = [[] for _ in range(max(level.values(), default=0))]
    for aid, k in level.items():
        layers[k - 1].append(aid)
    for bucket in layers:
        bucket.sort()
    return layers


def _groups(graph: DependencyGraph) -> List[List[str]]:
    """Weakly-connected components as sorted member lists, ordered by
    smallest member id (union-find over the edges)."""
    parent: Dict[str, str] = {aid: aid for aid in graph.algorithms}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in graph.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv

    groups: Dict[str, List[str]] = {}
    for aid in graph.algorithms:
        groups.setdefault(find(aid), []).append(aid)
    return sorted(map(sorted, groups.values()), key=lambda members: members[0])


def path_counts(graph: DependencyGraph, order: Optional[List[str]] = None) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Per vertex, paths_in (the number of paths from a source to it) and
    paths_out (from it to a sink), 1 at each end: one DP each way over a
    topological order, by default layer's, without enumerating a path.  A
    vertex lies on paths_in * paths_out flows."""
    return _path_counts(graph, order, _successors(graph))


def _path_counts(
    graph: DependencyGraph, order: Optional[List[str]], succs: Dict[str, List[str]]
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """path_counts, given the graph's _successors."""
    if order is None:
        order = [aid for bucket in _layer(graph, succs) for aid in bucket]
    paths_in = dict.fromkeys(order, 0)
    for v in order:  # every predecessor of v has added its count
        count = paths_in[v] = paths_in[v] or 1
        for w in succs[v]:
            paths_in[w] += count
    paths_out: Dict[str, int] = {}
    for v in reversed(order):
        paths_out[v] = sum([paths_out[w] for w in succs[v]]) or 1
    return paths_in, paths_out


def count_flows(graph: DependencyGraph) -> int:
    """Number of source-to-sink paths over every component (DP, no enumeration)."""
    return _count_flows(graph, _successors(graph))


def _count_flows(graph: DependencyGraph, succs: Dict[str, List[str]]) -> int:
    """count_flows, given the graph's _successors."""
    paths_in, _ = _path_counts(graph, None, succs)
    return sum(count for v, count in paths_in.items() if not succs[v])


def all_flows(graph: DependencyGraph, cap: Optional[int] = None) -> List[ExecutionFlow]:
    """All flows: components in _groups order (by smallest member id), each
    in lexicographic order, virtual endpoints stripped.

    Raises CapExceededError("flow explosion") when the DP count over the
    whole graph exceeds cap.
    """
    if cap is None:
        cap = flow_cap()
    succs = _successors(graph)
    total = _count_flows(graph, succs)
    if total > cap:
        raise CapExceededError("flow explosion", total, cap)

    has_pred = {v for _, v in graph.edges}
    sources = [v for members in _groups(graph) for v in members if v not in has_pred]
    # depth-first with an explicit stack of successor iterators, so a deep
    # graph cannot reach the recursion limit
    flows: List[ExecutionFlow] = []
    path: List[str] = []
    pending = [iter(sources)]
    while pending:
        v = next(pending[-1], None)
        if v is None:
            pending.pop()
            if path:
                path.pop()
        elif succs[v]:
            path.append(v)
            pending.append(iter(succs[v]))
        else:
            flows.append((*path, v))
    return flows
