"""Time algebra: serial composition adds, parallel composition takes the max.

A flow's time is measured at the robot: the request hop from the edge node to
the first algorithm's location, the execution times along the flow, the
node-to-node hops between consecutive algorithms (intermediate data never
detours through the robot), and the return hop carrying the last output back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .model import ProblemInstance

Placement = Dict[str, str]  # algorithm id -> node id


def combine_time(t1: float, t2: float, relation: str) -> float:
    """Compose two completion times: "serial" adds, "parallel" takes the max."""
    if relation == "serial":
        return t1 + t2
    if relation == "parallel":
        return max(t1, t2)
    raise ValueError(f"unknown relation {relation!r}")


@dataclass
class FlowTiming:
    """Per-flow breakdown; total is the plain left-to-right sum of segments."""

    flow: Tuple[str, ...]
    segments: Tuple[Tuple[str, float], ...]  # (kind, seconds)
    total: float

    def segment_sum(self, kind: str) -> float:
        return sum(s for k, s in self.segments if k == kind)


def flow_time(
    instance: ProblemInstance,
    flow: Sequence[str],
    placement: Placement,
    delays: Optional[Dict[Tuple[str, str], float]] = None,
    include_return_hop: bool = True,
) -> FlowTiming:
    """Time of one execution flow under a placement.

    include_return_hop=False stops the clock when the last algorithm finishes
    (the end-time objective used by the prior-work comparator).
    """
    comm = instance.comm
    edge = instance.edge_node_id()
    segments: List[Tuple[str, float]] = []
    total = 0.0

    prev_node = edge
    for i, aid in enumerate(flow):
        spec = instance.algorithms[aid]
        node_id = placement[aid]
        if i == 0:
            payload = sum(instance.region_bits(r) for r in sorted(spec.memory.inputs))
            hop = comm.resolve(edge, node_id, payload, delays=delays)
            segments.append(("request-hop", hop))
        else:
            hop = comm.resolve(prev_node, node_id, payload, delays=delays)
            segments.append(("inter-hop", hop))
        total += hop
        exec_s = spec.exec_time_at(instance.nodes[node_id])
        segments.append(("exec", exec_s))
        total += exec_s
        prev_node = node_id
        # the next hop, inter or return, carries this algorithm's outputs
        payload = sum(instance.region_bits(r) for r in sorted(spec.memory.outputs))

    if flow and include_return_hop:
        hop = comm.resolve(prev_node, edge, payload, delays=delays)
        segments.append(("return-hop", hop))
        total += hop

    return FlowTiming(flow=tuple(flow), segments=tuple(segments), total=total)


def aggregate_times(aggregate: str, totals: Sequence[float]) -> float:
    """Aggregate per-flow totals; an empty flow set takes 0 time."""
    if not totals:
        return 0.0
    if aggregate == "max_flow":
        return max(totals)
    if aggregate == "total_flows":
        return sum(totals)
    if aggregate == "mean_flows":
        return sum(totals) / len(totals)
    raise ValueError(f"unknown aggregate {aggregate!r}")


def overall_time(timings: Sequence[FlowTiming], aggregate: str = "max_flow") -> float:
    """Aggregate the flows' totals (see aggregate_times)."""
    return aggregate_times(aggregate, [t.total for t in timings])
