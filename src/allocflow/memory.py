"""Memory algebra over (inputs, processing, outputs) triples.

Inputs and outputs are sets of named regions (shared regions count once per
location); processing is a multiset of anonymous sized blocks.  Parallel
composition unions the region sets and disjoint-unions the processing blocks;
serial composition reuses processing space, so the larger-sized side wins.

A location's footprint follows the step partition S_1..S_z of the flows: the
region union ranges over every step while processing blocks are disjoint-
unioned across steps (an upper bound; the "peak" mode takes the per-step max
instead).  Every algorithm lies in exactly one step, so the default "sum"
mode does not depend on the partition and never builds it; only "peak" does.
The robot additionally holds the outputs of *all* algorithms, wherever they
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .model import DependencyGraph, MemoryRegion, ProblemInstance
from .timing import Placement


@dataclass(frozen=True)
class MemoryTriple:
    inputs: FrozenSet[str] = frozenset()
    processing: Tuple[int, ...] = ()  # anonymous block sizes, bits
    outputs: FrozenSet[str] = frozenset()

    @property
    def processing_bits(self) -> int:
        return sum(self.processing)


def combine_memory(m1: MemoryTriple, m2: MemoryTriple, relation: str) -> MemoryTriple:
    """Compose two footprints; "parallel" blocks coexist, "serial" blocks reuse."""
    if relation == "parallel":
        processing = tuple(sorted(m1.processing + m2.processing))
    elif relation == "serial":
        # The side with the larger total keeps its blocks; ties keep m1.
        processing = m1.processing if m1.processing_bits >= m2.processing_bits else m2.processing
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return MemoryTriple(
        inputs=m1.inputs | m2.inputs,
        processing=processing,
        outputs=m1.outputs | m2.outputs,
    )


def region_bits(regions: Dict[str, MemoryRegion], ids: FrozenSet[str]) -> int:
    return sum(regions[r].size_bits for r in ids)


# ---------------------------------------------------------------------------
# Step partition


def step_partition(
    graph: DependencyGraph, flows: Sequence[Tuple[str, ...]]
) -> List[Tuple[str, ...]]:
    """Partition S_1..S_z of all algorithms into execution steps.

    Repeatedly look at the first not-yet-removed algorithm of every acceptable
    flow (one whose next algorithm has all prerequisites removed) and remove
    the ones of minimal space rank together as the next step.
    """
    covered = {aid for flow in flows for aid in flow}
    if covered != set(graph.algorithms):
        missing = sorted(set(graph.algorithms) - covered)
        raise ValueError(f"flows do not cover algorithms: missing {missing}")

    preds: Dict[str, List[str]] = {aid: [] for aid in graph.algorithms}
    for u, v in graph.edges:
        preds[v].append(u)

    pointers = [0] * len(flows)
    removed: set = set()
    steps: List[Tuple[str, ...]] = []

    while len(removed) < len(covered):
        fronts: Dict[str, int] = {}
        for fi, flow in enumerate(flows):
            p = pointers[fi]
            while p < len(flow) and flow[p] in removed:
                p += 1
            pointers[fi] = p
            if p == len(flow):
                continue
            aid = flow[p]
            if all(q in removed for q in preds[aid]):
                fronts[aid] = graph.algorithms[aid].space_rank
        if not fronts:
            raise ValueError("step partition stalled; graph/flows inconsistent")
        min_rank = min(fronts.values())
        step = tuple(sorted(aid for aid, r in fronts.items() if r == min_rank))
        steps.append(step)
        removed.update(step)

    return steps


# ---------------------------------------------------------------------------
# Location / robot memory


def _location_bits(
    instance: ProblemInstance,
    placement: Placement,
    location: str,
    partition: Optional[Sequence[Tuple[str, ...]]],
    mode: str,
    extra_regions: FrozenSet[str] = frozenset(),
) -> int:
    if mode not in ("sum", "peak"):
        raise ValueError(f"unknown memory mode {mode!r}")
    if partition is None:
        # one step holding every algorithm has the same resident sum
        partition = default_partition(instance) if mode == "peak" else (tuple(instance.algorithms),)
    regions = set(extra_regions)
    step_processing: List[int] = []
    for step in partition:
        pr = 0
        for aid in step:
            if placement.get(aid) == location:
                profile = instance.algorithms[aid].memory
                regions.update(profile.inputs)
                regions.update(profile.outputs)
                pr += profile.processing_bits
        step_processing.append(pr)
    inou = region_bits(instance.regions, regions)
    if mode == "peak":
        return inou + max(step_processing, default=0)
    return inou + sum(step_processing)


def location_memory(
    instance: ProblemInstance,
    placement: Placement,
    location: str,
    partition: Optional[Sequence[Tuple[str, ...]]] = None,
    mode: str = "sum",
) -> float:
    """Bytes held at one location across the step partition."""
    return _location_bits(instance, placement, location, partition, mode) / 8.0


def robot_memory(
    instance: ProblemInstance,
    placement: Placement,
    partition: Optional[Sequence[Tuple[str, ...]]] = None,
    mode: str = "sum",
) -> float:
    """Bytes the robot must hold: its location memory extended by the outputs
    of every algorithm, wherever those run."""
    return robot_memory_bits(instance, placement, partition, mode) / 8.0


def robot_memory_bits(
    instance: ProblemInstance,
    placement: Placement,
    partition: Optional[Sequence[Tuple[str, ...]]] = None,
    mode: str = "sum",
) -> int:
    """Robot memory in bits; the solver's and evaluate's one memory measure."""
    if not instance.algorithms:
        return 0
    # star-arguments from a list, not a generator (see optimizer.CompiledInstance.lex_tuple)
    all_outputs = frozenset().union(*[spec.memory.outputs for spec in instance.algorithms.values()])
    edge = instance.edge_node_id()
    return _location_bits(instance, placement, edge, partition, mode, extra_regions=all_outputs)


def default_partition(instance: ProblemInstance) -> List[Tuple[str, ...]]:
    from .lattice import all_flows

    return step_partition(instance.graph, all_flows(instance.graph))
