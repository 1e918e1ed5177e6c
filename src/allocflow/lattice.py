"""Dependency-graph structure: layering, components, semi-lattices, flows.

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
from dataclasses import dataclass
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


def layer(graph: DependencyGraph) -> List[List[str]]:
    """Layers as sorted id lists; raises on cycles (validate reports them first)."""
    preds: Dict[str, List[str]] = {aid: [] for aid in graph.algorithms}
    succs: Dict[str, List[str]] = {aid: [] for aid in graph.algorithms}
    for u, v in graph.edges:
        preds[v].append(u)
        succs[u].append(v)

    indegree = {aid: len(ps) for aid, ps in preds.items()}
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


def connected_components(graph: DependencyGraph) -> List[DependencyGraph]:
    """Weakly-connected components, ordered by smallest member id."""
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

    components = []
    for members in sorted(groups.values(), key=min):
        member_set = set(members)
        components.append(
            DependencyGraph(
                algorithms={aid: graph.algorithms[aid] for aid in sorted(members)},
                edges=tuple(e for e in graph.edges if e[0] in member_set),
            )
        )
    return components


@dataclass
class SemiLattice:
    """One component plus the vertices its virtual top and bottom attach to."""

    vertices: Tuple[str, ...]
    edges: Tuple[Tuple[str, str], ...]
    sources: Tuple[str, ...]  # successors of the virtual top
    sinks: Tuple[str, ...]  # predecessors of the virtual bottom


def build_semilattice(component: DependencyGraph) -> SemiLattice:
    if not component.algorithms:
        raise ValueError("cannot build a semi-lattice over an empty component")
    has_pred = {v for (_, v) in component.edges}
    has_succ = {u for (u, _) in component.edges}
    return SemiLattice(
        vertices=tuple(sorted(component.algorithms)),
        edges=component.edges,
        sources=tuple(sorted(set(component.algorithms) - has_pred)),
        sinks=tuple(sorted(set(component.algorithms) - has_succ)),
    )


def count_flows(lattice: SemiLattice) -> int:
    """Number of maximal source-to-sink paths (DP, no enumeration)."""
    succs: Dict[str, List[str]] = {v: [] for v in lattice.vertices}
    for u, v in lattice.edges:
        succs[u].append(v)
    counts: Dict[str, int] = {}

    order = _topological(lattice)
    for v in reversed(order):
        if not succs[v]:
            counts[v] = 1
        else:
            counts[v] = sum(counts[w] for w in succs[v])
    return sum(counts[s] for s in lattice.sources)


def _topological(lattice: SemiLattice) -> List[str]:
    indeg = {v: 0 for v in lattice.vertices}
    succs: Dict[str, List[str]] = {v: [] for v in lattice.vertices}
    for u, v in lattice.edges:
        indeg[v] += 1
        succs[u].append(v)
    queue = deque(sorted(v for v, d in indeg.items() if d == 0))
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in sorted(succs[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != len(lattice.vertices):
        raise ValueError("component contains a cycle; flows undefined")
    return order


def execution_flows(lattice: SemiLattice, cap: Optional[int] = None) -> List[ExecutionFlow]:
    """All maximal paths in lexicographic order, virtual endpoints stripped.

    Raises CapExceededError("flow explosion") when the DP count exceeds cap.
    """
    if cap is None:
        cap = flow_cap()
    total = count_flows(lattice)
    if total > cap:
        raise CapExceededError("flow explosion", total, cap)

    succs: Dict[str, List[str]] = {v: [] for v in lattice.vertices}
    for u, v in lattice.edges:
        succs[u].append(v)
    for vs in succs.values():
        vs.sort()

    # depth-first with an explicit stack of successor iterators, so a deep
    # graph cannot reach the recursion limit
    flows: List[ExecutionFlow] = []
    path: List[str] = []
    pending = [iter(lattice.sources)]
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


def all_flows(graph: DependencyGraph, cap: Optional[int] = None) -> List[ExecutionFlow]:
    """Flows pooled over every component (component order, lexicographic within)."""
    flows: List[ExecutionFlow] = []
    for component in connected_components(graph):
        flows.extend(execution_flows(build_semilattice(component), cap=cap))
    return flows
