"""End-time comparator: optimum, hidden return cost, and oracle agreement."""

import random

import pytest

from allocflow import fixtures
from allocflow.baseline import baseline_overall, solve_baseline
from allocflow.lattice import all_flows
from allocflow.model import InfeasibleError, effective_allowed, instance_from_dict
from allocflow.optimizer import Objective, solve_branch_bound
from allocflow.simulate import GenParams, random_instance
from allocflow.timing import flow_time, overall_time


def make_dataset(d):
    return instance_from_dict(fixtures.dataset_pipeline(d))


def make_tradeoff(x):
    return instance_from_dict(fixtures.sort_tradeoff(x))


def test_single_sort_baseline_prefers_cloud(single_sort):
    result = solve_baseline(single_sort)
    assert result.placement == {"sort": "c"}
    assert result.cost.time_seconds == 4.0  # finishes earliest on the cloud
    assert baseline_overall(single_sort, result.placement) == 7.0


def test_overall_refuses_a_placement_as_evaluate_does(single_sort):
    """baseline_overall prices through evaluate, so a placement that misses
    an algorithm or names an unknown node raises InfeasibleError, not a
    KeyError from the evaluator's tables."""
    with pytest.raises(InfeasibleError, match="placement misses algorithm sort"):
        baseline_overall(single_sort, {})
    with pytest.raises(InfeasibleError, match="may not run on 'nowhere'"):
        baseline_overall(single_sort, {"sort": "nowhere"})


def test_transfer_cost_sweep_placements():
    # end times: edge 5, fog x+2, cloud 2x+1; ties prefer deeper offload
    expected = {0.25: "c", 0.75: "c", 1.25: "f", 2.0: "f", 3.5: "e"}
    for x, node in expected.items():
        inst = make_tradeoff(x)
        assert solve_baseline(inst).placement == {"sort": node}, x


def test_dataset_sweep_end_times_and_placements():
    ends = {1.0: 4.0, 2.0: 6.0, 4.0: 8.0, 6.0: 8.0}
    placements = {
        1.0: {"data": "c", "stage_a": "c", "stage_b": "c", "stage_c": "c"},
        2.0: {"data": "c", "stage_a": "c", "stage_b": "c", "stage_c": "c"},
        4.0: {"data": "f", "stage_a": "f", "stage_b": "f", "stage_c": "f"},
        # at d=6 keeping stage_b on fog ends no later and frees 50 MB of
        # processing on the robot, so the memory tie-break picks the split
        6.0: {"data": "e", "stage_a": "e", "stage_b": "f", "stage_c": "e"},
    }
    for d, end in ends.items():
        result = solve_baseline(make_dataset(d))
        assert result.cost.time_seconds == end, d
        assert result.placement == placements[d], d


def test_dataset_d6_return_surplus():
    inst = make_dataset(6.0)
    result = solve_baseline(inst)
    overall = baseline_overall(inst, result.placement)
    assert overall == 14.0
    assert overall - result.cost.time_seconds == 6.0


def test_all_edge_has_no_return_surplus():
    inst = make_tradeoff(10.0)
    result = solve_baseline(inst)
    assert result.placement == {"sort": "e"}
    assert baseline_overall(inst, result.placement) == result.cost.time_seconds == 5.0


def test_end_time_never_exceeds_round_trip_optimum():
    for seed in range(15):
        inst = random_instance(2 + seed % 5, GenParams(), seed=seed)
        ours = solve_branch_bound(inst, Objective("min_time_max"))
        base = solve_baseline(inst)
        # dropping the return hop relaxes the objective...
        assert base.cost.time_seconds <= ours.cost.time_seconds + 1e-9
        # ...but what the robot actually waits can only be worse than ours
        assert baseline_overall(inst, base.placement) >= ours.cost.time_seconds - 1e-9


def test_oracle_flag_changes_nothing():
    for seed in range(12):
        inst = random_instance(1 + seed % 5, GenParams(), seed=200 + seed)
        fast = solve_baseline(inst)
        slow = solve_baseline(inst, oracle=True)
        assert fast.placement == slow.placement
        assert fast.cost == slow.cost


def test_baseline_is_deterministic(dataset_d2):
    first = solve_baseline(dataset_d2)
    second = solve_baseline(dataset_d2)
    assert first.placement == second.placement
    assert first.cost == second.cost


def test_baseline_honours_delays():
    inst = instance_from_dict(fixtures.dataset_pipeline(2.0, jitter_sigma=1.0))
    calm = solve_baseline(inst)
    # critical flow on the fog; stage_b is slack, so lex pushes it deeper
    assert calm.placement == {"data": "f", "stage_a": "f", "stage_b": "c", "stage_c": "f"}
    # a 9 s realization on the uplink makes any offload finish after 11 s,
    # while staying on the robot still ends at 8 s
    stormy = solve_baseline(inst, delays={("e", "f"): 9.0})
    assert stormy.placement == {aid: "e" for aid in inst.algorithms}
    assert stormy.cost.time_seconds == 8.0


def test_delays_only_apply_to_jittery_links(single_sort):
    # links without a delay model ignore the override table
    result = solve_baseline(single_sort, delays={("e", "c"): 99.0})
    assert result.placement == {"sort": "c"}
    assert result.cost.time_seconds == 4.0


def test_baseline_overall_matches_flow_time_reference():
    rng = random.Random(41)
    for seed in range(30):
        params = GenParams(fog_nodes=rng.randint(0, 2), cloud_nodes=rng.randint(1, 2), delay_prob=0.5)
        inst = random_instance(rng.randint(1, 9), params, seed=seed)
        allowed = effective_allowed(inst)
        placement = {aid: rng.choice(allowed[aid]) for aid in sorted(inst.algorithms)}
        delays = None
        if seed % 2:
            delays = {pair: rng.uniform(0.0, 1.0) for pair in sorted(inst.comm.links)}
        timings = [flow_time(inst, f, placement, delays=delays) for f in all_flows(inst.graph)]
        assert baseline_overall(inst, placement, delays) == overall_time(timings, "max_flow")
