"""Bundled example instances (plain dicts, ready to serialize or parse).

- single_sort: one sort algorithm, fixed per-tier transfer times.
- sort_tradeoff(x): one sort algorithm, symmetric transfer time x between
  neighbouring tiers; the optimal tier flips as x grows.
- dataset_pipeline(d): a 500 MB dataset feeding two independent consumers,
  one of which feeds a third algorithm; transmission time d between
  neighbouring tiers.  dataset_jitter adds |N(0, 1)| link jitter at d = 2.
- vision_pipeline: a seven-stage image pipeline (two parallel branches) on
  one edge node, three fog nodes, and two cloud VMs with measured per-message
  transfer times and folded-normal delays.
- cyclic_invalid: a three-algorithm dependency cycle, for validation demos.

Every call builds its instance from fresh lists and dicts, so a caller may
change what it gets without changing the next call's.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

MB = 8 * 1024 * 1024  # bits per megabyte


def _node(nid: str, tier: str) -> dict:
    return {"id": nid, "tier": tier}


def _three_tiers() -> List[dict]:
    """One node per tier: e on the edge, f on fog, c on cloud."""
    return [_node("e", "edge"), _node("f", "fog"), _node("c", "cloud")]


def _link(u: str, v: str, seconds: float, mu: Optional[float] = None, sigma: Optional[float] = None) -> dict:
    entry: dict = {"from": u, "to": v, "base_seconds": seconds}
    if mu is not None:
        entry["delay"] = {"mu": mu, "sigma": sigma}
    return entry


def _both_ways(u: str, v: str, seconds: float, *delay: float) -> List[dict]:
    """The links u -> v and v -> u, each of seconds, plus delay (mu, sigma) if given."""
    return [_link(u, v, seconds, *delay), _link(v, u, seconds, *delay)]


def _chain(seconds: float, *delay: float) -> List[dict]:
    """The robot-fog-cloud chain: e <-> f and f <-> c, each as _both_ways."""
    return _both_ways("e", "f", seconds, *delay) + _both_ways("f", "c", seconds, *delay)


def _algorithm(
    aid: str,
    seconds: Sequence[float],
    inputs: Sequence[str] = (),
    outputs: Sequence[str] = (),
    processing_bits: int = 0,
    rank: int = 0,
    label: Optional[str] = None,
) -> dict:
    """One algorithm entry from its (edge, fog, cloud) execution seconds; a
    space_label appears only if label is given."""
    entry = {
        "id": aid,
        "exec_time": dict(zip(("edge", "fog", "cloud"), seconds)),
        "memory": {"inputs": list(inputs), "outputs": list(outputs), "processing_bits": processing_bits},
        "space_rank": rank,
    }
    if label is not None:
        entry["space_label"] = label
    return entry


def _instance(
    nodes: List[dict], algorithms: List[dict], comm: List[dict], regions: Sequence[dict] = (), edges: Sequence[tuple] = ()
) -> dict:
    """The instance document, each dependency edge a fresh [from, to] list."""
    return {
        "nodes": nodes,
        "regions": list(regions),
        "algorithms": algorithms,
        "edges": [list(edge) for edge in edges],
        "comm": comm,
        "options": {},
    }


def single_sort() -> dict:
    """Sort 5 s on the robot, 3.33 s on fog, 1 s on cloud; transfers 1.5/3 s."""
    links = _both_ways("e", "f", 1.5) + _both_ways("e", "c", 3.0)
    return _instance(_three_tiers(), [_algorithm("sort", (5.0, 5.0 / 1.5, 1.0))], links)


def sort_tradeoff(x: float = 1.0) -> dict:
    """Sort 5/2/1 s on edge/fog/cloud; x s per hop between neighbouring tiers."""
    return _instance(_three_tiers(), [_algorithm("sort", (5.0, 2.0, 1.0))], _chain(x))


def dataset_pipeline(d: float = 2.0, jitter_sigma: float = 0.0) -> dict:
    """500 MB dataset read by two algorithms, one feeding a third.

    Execution seconds (edge/fog/cloud): dataset 0/0/0, stage_a 2/1/0.5,
    stage_b 4/2/1, stage_c 6/3/1.5.  Processing footprints 300/50/100 MB.
    """
    delay = (0.0, jitter_sigma) if jitter_sigma else ()
    algorithms = [
        _algorithm("data", (0.0, 0.0, 0.0), outputs=["dataset"], label="O(1)"),
        _algorithm("stage_a", (2.0, 1.0, 0.5), ["dataset"], processing_bits=300 * MB, rank=3, label="O(n^2)"),
        _algorithm("stage_b", (4.0, 2.0, 1.0), ["dataset"], processing_bits=50 * MB, rank=1, label="O(n)"),
        _algorithm("stage_c", (6.0, 3.0, 1.5), processing_bits=100 * MB, rank=2, label="O(n log n)"),
    ]
    regions = [{"id": "dataset", "size_bits": 500 * MB}]
    edges = [("data", "stage_a"), ("data", "stage_b"), ("stage_a", "stage_c")]
    return _instance(_three_tiers(), algorithms, _chain(d, *delay), regions, edges)


def dataset_jitter() -> dict:
    return dataset_pipeline(d=2.0, jitter_sigma=1.0)


# Measured per-message transfer seconds between tiers: base + |N(mu, sigma)|.
# The edge talks to the clouds through the fog tier, so no direct edge-cloud
# link is declared; resolution composes the cheapest two-hop route.
_TIER_LINKS = {
    ("cloud", "fog"): (0.439, 0.188, 0.087),
    ("fog", "cloud"): (0.417, 0.367, 0.365),
    ("fog", "edge"): (0.475, 0.187, 0.397),
    ("edge", "fog"): (0.447, 0.182, 0.111),
    ("cloud", "cloud"): (0.112, 0.030, 0.018),
    ("fog", "fog"): (0.115, 0.047, 0.025),
}

# id: (edge_s, fog_s, cloud_s, input_bits, output_bits, processing_bytes, label, rank)
_PIPELINE_STAGES = {
    "A1": (0.445, 0.153, 0.047, 4718592, 1120, 14619367, "O(nm)", 3),
    "A2": (4.475, 1.538, 0.470, 47185920, 11200, 11683901, "O(n)", 2),
    "A3": (7.2e-4, 4.1e-4, 1.5e-4, 11200, 11200, 11684220, "O(n)", 2),
    "A4": (2.0e-4, 7.74e-5, 3.46e-5, 11200, 0, 7799083, "O(m)", 1),
    "A5": (6.61e-5, 1.94e-5, 9.96e-6, 11200, 11200, 11253700, "O(m)", 1),
    "A6": (2.1e-4, 1.3e-4, 4.75e-5, 11200, 1120, 11261700, "O(nm)", 3),
    "A7": (1.09e-3, 4.01e-3, 2.7e-4, 4718592, 4718592, 8010779, "O(n)", 2),
}

_PIPELINE_EDGES = (("A1", "A2"), ("A2", "A3"), ("A2", "A4"), ("A3", "A6"), ("A4", "A5"), ("A5", "A6"), ("A6", "A7"))


def vision_pipeline() -> dict:
    """Seven-stage feature/database pipeline over 1 edge, 3 fog, 2 cloud nodes."""
    nodes = [_node("e", "edge"), *(_node(f"f{i}", "fog") for i in (1, 2, 3)), *(_node(f"c{i}", "cloud") for i in (1, 2))]
    regions: List[dict] = []
    algorithms: List[dict] = []
    for aid, (*seconds, in_bits, out_bits, pr_bytes, label, rank) in _PIPELINE_STAGES.items():
        regions += [{"id": f"in_{aid}", "size_bits": in_bits}, {"id": f"out_{aid}", "size_bits": out_bits}]
        algorithms.append(_algorithm(aid, seconds, [f"in_{aid}"], [f"out_{aid}"], pr_bytes * 8, rank, label))
    tier = {n["id"]: n["tier"] for n in nodes}
    pairs = [(u, v) for u in sorted(tier) for v in sorted(tier) if u != v and (tier[u], tier[v]) in _TIER_LINKS]
    comm = [_link(u, v, *_TIER_LINKS[tier[u], tier[v]]) for u, v in pairs]
    return _instance(nodes, algorithms, comm, sorted(regions, key=lambda r: r["id"]), _PIPELINE_EDGES)


def cyclic_invalid() -> dict:
    algorithms = [{"id": aid, "exec_time": {"edge": 1.0}, "memory": {}, "space_rank": 0} for aid in ("A", "B", "C")]
    return _instance([_node("e", "edge")], algorithms, [], edges=[("A", "B"), ("B", "C"), ("C", "A")])


def bundled() -> Dict[str, dict]:
    return {
        "single_sort": single_sort(),
        "sort_tradeoff_x1": sort_tradeoff(1.0),
        "dataset_d1": dataset_pipeline(1.0),
        "dataset_d2": dataset_pipeline(2.0),
        "dataset_d4": dataset_pipeline(4.0),
        "dataset_d6": dataset_pipeline(6.0),
        "dataset_jitter": dataset_jitter(),
        "vision_pipeline": vision_pipeline(),
        "cyclic_invalid": cyclic_invalid(),
    }


def write_examples(directory: str) -> List[str]:
    """Write every bundled fixture as <name>.json; returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, data in bundled().items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths
