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
from dataclasses import dataclass
from typing import Dict, List, Tuple

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


@dataclass
class _GraphIndex:
    """What one pass over a graph's edges and one layering give; all_flows
    and count_flows read it, and optimizer.CompiledInstance extends it."""

    succs: Dict[str, List[str]]  # each vertex's successors, sorted
    preds: Dict[str, List[str]]  # each vertex's predecessors, in edge order
    order: List[str]  # topological: the layers in turn, each by id
    # per vertex, the number of paths from a source to it and from it to a
    # sink, 1 at each end
    paths_in: Dict[str, int]
    paths_out: Dict[str, int]
    flow_count: int  # source-to-sink paths over every component
    sources: List[str]  # where all_flows starts its flows, in _groups order


def _adjacency(graph: DependencyGraph) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
    """Each vertex's successors, sorted, and predecessors, in edge order."""
    succs: Dict[str, List[str]] = {aid: [] for aid in graph.algorithms}
    preds: Dict[str, List[str]] = {aid: [] for aid in graph.algorithms}
    for u, v in graph.edges:
        succs[u].append(v)
        preds[v].append(u)
    for vs in succs.values():
        vs.sort()
    return succs, preds


def layer(graph: DependencyGraph) -> List[List[str]]:
    """Layers as sorted id lists; raises on cycles (validate reports them first)."""
    return _layer(*_adjacency(graph))


def _layer(succs: Dict[str, List[str]], preds: Dict[str, List[str]]) -> List[List[str]]:
    """layer, given the graph's _adjacency."""
    indegree = {aid: len(us) for aid, us in preds.items()}
    queue = sorted(aid for aid, d in indegree.items() if d == 0)
    level = dict.fromkeys(queue, 1)
    # Kahn's order, first in first out: levels never decrease along the
    # queue, so the predecessor that releases a vertex, processed last of
    # its predecessors, has the highest level among them
    for aid in queue:
        k = level[aid] + 1
        for nxt in succs[aid]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                level[nxt] = k
                queue.append(nxt)
    if len(queue) != len(succs):
        raise ValueError("graph contains a cycle; layering undefined")

    layers: List[List[str]] = [[] for _ in range(level[queue[-1]] if queue else 0)]
    for aid in queue:
        layers[level[aid] - 1].append(aid)
    for bucket in layers:
        bucket.sort()
    return layers


def _graph_index(graph: DependencyGraph) -> _GraphIndex:
    """The graph's _GraphIndex; raises on cycles, as layer does.  Path counts
    are one DP each way over the topological order, without enumerating a
    path; a vertex lies on paths_in * paths_out flows."""
    succs, preds = _adjacency(graph)
    order = [aid for bucket in _layer(succs, preds) for aid in bucket]
    paths_in = dict.fromkeys(order, 0)
    for v in order:  # every predecessor of v has added its count
        count = paths_in[v] = paths_in[v] or 1
        for w in succs[v]:
            paths_in[w] += count
    paths_out = dict.fromkeys(order, 0)
    for v in reversed(order):  # every successor of v has added its count
        count = paths_out[v] = paths_out[v] or 1
        for u in preds[v]:
            paths_out[u] += count
    return _GraphIndex(
        succs=succs,
        preds=preds,
        order=order,
        paths_in=paths_in,
        paths_out=paths_out,
        flow_count=sum([count for v, count in paths_in.items() if not succs[v]]),
        sources=[v for members in _groups(succs, preds) for v in members if not preds[v]],
    )


def _groups(succs: Dict[str, List[str]], preds: Dict[str, List[str]]) -> List[List[str]]:
    """Weakly-connected components, given the graph's _adjacency, as sorted
    member lists ordered by smallest member id: a walk over both directions
    from each vertex, in id order, that no earlier walk reached."""
    seen = set()
    groups: List[List[str]] = []
    for aid in sorted(succs):
        if aid in seen:
            continue
        seen.add(aid)
        members = [aid]
        for u in members:
            for v in succs[u] + preds[u]:
                if v not in seen:
                    seen.add(v)
                    members.append(v)
        members.sort()
        groups.append(members)
    return groups


def count_flows(graph: DependencyGraph) -> int:
    """Number of source-to-sink paths over every component (DP, no enumeration)."""
    return _graph_index(graph).flow_count


def _check_flow_cap(count: int) -> None:
    """Raise CapExceededError("flow explosion") when count, a graph's flow
    count, exceeds flow_cap()."""
    cap = flow_cap()
    if count > cap:
        raise CapExceededError("flow explosion", count, cap)


def all_flows(graph: DependencyGraph) -> List[ExecutionFlow]:
    """All flows: components in _groups order (by smallest member id), each
    in lexicographic order, virtual endpoints stripped.

    Raises CapExceededError("flow explosion") when the DP count over the
    whole graph exceeds flow_cap().
    """
    index = _graph_index(graph)
    _check_flow_cap(index.flow_count)
    succs = index.succs
    # depth-first with an explicit stack of successor iterators, so a deep
    # graph cannot reach the recursion limit
    flows: List[ExecutionFlow] = []
    path: List[str] = []
    pending = [iter(index.sources)]
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
