"""Exactness past brute force's reach, by relations that need no enumeration
of the whole placement space.

- Restriction invariance: p*, the optimum, still minimizes (primary, memory,
  lex) over any subset of placements that holds it, so restricting every
  algorithm to p*'s node plus some of its other nodes must return p* at an
  equal CostPoint.
- Neighbourhood brute force: with all but k algorithms pinned to p*'s
  nodes, solve_bruteforce over the k free ones (up to 4**k placements here)
  must return p*, which widens a single-move check to every joint move of k
  algorithms.
- Power-of-two scaling: without delayed or per-byte links, doubling every
  exec time, link time, region size and processing bit count doubles every
  float the solver forms, exactly, so the answer keeps its placement and
  search effort and its memory, time and distance double exactly.

These run at sizes no tier-1 comparison with brute force reaches: n = 20-22
on sparse graphs and n = 14-16 on graphs whose placements spread over two
fog nodes and long links.

- Bound independence: a search leaf is timed by the evaluator, not by the
  bound tables, so a search whose tables are all halved (still lower
  bounds, and exact in binary) may explore more but returns the same
  placement, key and time.  It runs at n = 8-10 on the same families."""

import functools
import random
from dataclasses import replace

import pytest

from allocflow.model import instance_from_dict, instance_to_dict
from allocflow.optimizer import (
    Objective,
    _Search,
    build_context,
    solve_branch_bound,
    solve_bruteforce,
    warm_start,
)
from allocflow.simulate import GenParams, random_instance

FAMILIES = {
    "sparse": (GenParams(edge_prob=0.1), 20),
    "spread": (GenParams(fog_nodes=2, tier_ordering=False, link_seconds_range=(0.5, 8.0)), 14),
}
OBJECTIVES = ("min_distance", "min_time_max")
SEEDS = range(1, 11)
FREE = 5  # the neighbourhood's free algorithms
CASES = [(family, kind, seed) for family in FAMILIES for kind in OBJECTIVES for seed in SEEDS]


@functools.lru_cache(maxsize=None)
def optimum(family: str, kind: str, seed: int):
    """The family's instance of this seed, at n from its base to base + 2,
    and its branch-and-bound answer."""
    params, n = FAMILIES[family]
    inst = random_instance(n + seed % 3, params, seed=seed)
    return inst, solve_branch_bound(inst, Objective(kind))


def restricted(inst, allowed):
    """inst with each algorithm's allowed nodes set as allowed maps them."""
    algorithms = {aid: replace(spec, allowed_locations=frozenset(allowed[aid])) for aid, spec in inst.algorithms.items()}
    return replace(inst, graph=replace(inst.graph, algorithms=algorithms))


@pytest.mark.parametrize("family, kind, seed", CASES)
def test_a_restriction_that_keeps_the_optimum_returns_it(family, kind, seed):
    inst, best = optimum(family, kind, seed)
    rng = random.Random(seed)
    nodes = sorted(inst.nodes)
    allowed = {aid: {node, *[y for y in nodes if rng.random() < 0.5]} for aid, node in best.placement.items()}
    result = solve_branch_bound(restricted(inst, allowed), Objective(kind))
    assert (result.placement, result.cost) == (best.placement, best.cost)


@pytest.mark.parametrize("family, kind, seed", CASES)
def test_no_joint_move_of_few_algorithms_beats_the_optimum(family, kind, seed):
    inst, best = optimum(family, kind, seed)
    free = set(random.Random(seed).sample(sorted(inst.algorithms), FREE))
    allowed = {aid: inst.nodes if aid in free else {node} for aid, node in best.placement.items()}
    result = solve_bruteforce(restricted(inst, allowed), Objective(kind))
    assert (result.placement, result.cost) == (best.placement, best.cost)


# (objective, the instance's time aggregate): every aggregate under
# min_distance, and each other objective once
AIMS = [("min_distance", "max_flow"), ("min_distance", "total_flows"), ("min_distance", "mean_flows"),
        ("min_time_max", "max_flow"), ("min_time_total", "max_flow"), ("min_memory", "max_flow")]
AIMED = [(family, kind, aggregate, seed) for family in FAMILIES for kind, aggregate in AIMS for seed in SEEDS]


def doubled(inst):
    """inst with every exec time, link time, region size and processing bit
    count doubled, through its document; it has no delayed or per-byte link."""
    data = instance_to_dict(inst)
    for region in data["regions"]:
        region["size_bits"] *= 2
    for spec in data["algorithms"]:
        spec["memory"]["processing_bits"] *= 2
        times = spec["exec_time"]
        overrides = times.get("overrides", {})
        for key in times.keys() - {"overrides"}:
            times[key] *= 2
        for nid in overrides:
            overrides[nid] *= 2
    for link in data["comm"]:
        assert link.keys() == {"from", "to", "base_seconds"}
        link["base_seconds"] *= 2
    return instance_from_dict(data)


@pytest.mark.parametrize("family, kind, aggregate, seed", AIMED)
def test_doubling_every_size_and_time_doubles_the_answer(family, kind, aggregate, seed):
    params, n = FAMILIES[family]
    inst = random_instance(n + seed % 3, params, seed=seed)
    inst.options.time_aggregate = aggregate
    best = solve_branch_bound(inst, Objective(kind))
    result = solve_branch_bound(doubled(inst), Objective(kind))
    assert (result.placement, result.explored_nodes) == (best.placement, best.explored_nodes)
    cost = best.cost
    assert result.cost.memory_bytes == 2 * cost.memory_bytes
    assert result.cost.time_seconds == 2 * cost.time_seconds
    assert result.cost.distance == 2 * cost.distance


def halved(table):
    return {key: t / 2 for key, t in table.items()}


class HalvedBounds(_Search):
    """A search whose bound tables and start bounds are halved, with its
    running aggregate rebuilt from the halved start bounds."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.completion = {v: halved(row) for v, row in self.completion.items()}
        self.edge_bound = {s: {u: halved(row) for u, row in rows.items()} for s, rows in self.edge_bound.items()}
        self.start_bound = halved(self.start_bound)
        bounds = self.start_bound.values()
        self.agg = max(bounds, default=0.0) if self.longest else sum(bounds)


def searched(search):
    """repr of the search's answer: placement, key and time."""
    warm_start(search, search.ctx.allowed)
    placement, _ = search.run()
    return repr((placement, search.best_key, search.best_time))


@pytest.mark.parametrize(
    "family, kind, aggregate, seed", [case for case in AIMED if case[1] != "min_time_total"]
)
def test_a_halved_bound_returns_the_same_answer(family, kind, aggregate, seed):
    params, _ = FAMILIES[family]
    inst = random_instance(8 + seed % 3, params, seed=seed)
    inst.options.time_aggregate = aggregate
    ctx = build_context(inst, Objective(kind))
    assert searched(HalvedBounds(ctx)) == searched(_Search(ctx))
