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

Both run at sizes no tier-1 comparison with brute force reaches: n = 20-22
on sparse graphs and n = 14-16 on graphs whose placements spread over two
fog nodes and long links."""

import functools
import random
from dataclasses import replace

import pytest

from allocflow.optimizer import Objective, solve_branch_bound, solve_bruteforce
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
