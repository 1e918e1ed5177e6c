"""Placement evaluation, exact search, and cost-space enumeration."""

import gc
import hashlib
import itertools
import math
import random
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allocflow import fixtures, lattice, optimizer
from allocflow.baseline import baseline_overall, solve_baseline
from allocflow.lattice import all_flows, count_flows, flow_cap
from allocflow.memory import _location_bits, robot_memory_bits, step_partition
from allocflow.model import (
    TIME_AGGREGATES,
    CapExceededError,
    CommModel,
    InfeasibleError,
    effective_allowed,
    instance_from_dict,
    instance_to_dict,
    node_order,
)
from allocflow.optimizer import (
    OBJECTIVES,
    CostPoint,
    Objective,
    _Search,
    _placement_key,
    build_context,
    compile_instance,
    evaluate,
    make_cost,
    pareto_front,
    primary_value,
    scatter,
    solve_branch_bound,
    solve_bruteforce,
    warm_start,
)
from allocflow.simulate import GenParams, MethodStats, monte_carlo_compare, random_instance
from allocflow.timing import aggregate_times, flow_time, overall_time
from test_model import rich_doc

FOG_TIME = 1.5 + 5.0 / 1.5 + 1.5


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_single_sort_tiers(single_sort):
    assert evaluate(single_sort, {"sort": "e"}) == CostPoint(0.0, 5.0, 5.0)
    assert evaluate(single_sort, {"sort": "f"}) == CostPoint(0.0, FOG_TIME, FOG_TIME)
    assert evaluate(single_sort, {"sort": "c"}) == CostPoint(0.0, 7.0, 7.0)


def test_evaluate_distance_uses_weighted_hypot(dataset_d2):
    placement = {aid: "f" for aid in dataset_d2.algorithms}
    cost = evaluate(dataset_d2, placement)
    assert cost.memory_bytes == 524288000.0
    assert cost.time_seconds == 8.0
    assert cost.distance == math.hypot(500.0, 8.0)  # memory in MB

    heavy = Objective("min_distance", memory_weight=2.0, time_weight=0.5)
    assert evaluate(dataset_d2, placement, heavy).distance == math.hypot(1000.0, 4.0)


def test_evaluate_without_return_hop(single_sort):
    cost = evaluate(single_sort, {"sort": "c"}, include_return_hop=False)
    assert cost.time_seconds == 4.0


def test_evaluate_delay_overrides():
    inst = instance_from_dict(fixtures.dataset_pipeline(2.0, jitter_sigma=1.0))
    placement = {aid: "f" for aid in inst.algorithms}
    jitter = math.sqrt(2 / math.pi)  # folded N(0,1) mean, request + return hops
    assert evaluate(inst, placement).time_seconds == pytest.approx(8.0 + 2 * jitter)
    quiet = {("e", "f"): 0.0, ("f", "e"): 0.0}
    assert evaluate(inst, placement, delays=quiet).time_seconds == 8.0


def test_evaluate_rejects_incomplete_placement(dataset_d2):
    with pytest.raises(InfeasibleError, match="misses algorithm"):
        evaluate(dataset_d2, {"data": "e"})


def test_evaluate_rejects_an_unknown_algorithm(dataset_d2):
    placement = dict.fromkeys(dataset_d2.algorithms, "e")
    with pytest.raises(InfeasibleError, match="unknown algorithm 'stage_x'"):
        evaluate(dataset_d2, {**placement, "stage_x": "nowhere"})
    empty = random_instance(0, GenParams(), seed=0)
    with pytest.raises(InfeasibleError, match="unknown algorithm 'stage_x'"):
        evaluate(empty, {"stage_x": "e"})


def test_evaluate_rejects_forbidden_node():
    data = fixtures.single_sort()
    data["algorithms"][0]["allowed_locations"] = ["e", "f"]
    inst = instance_from_dict(data)
    with pytest.raises(InfeasibleError, match="may not run on"):
        evaluate(inst, {"sort": "c"})


def test_evaluate_empty_instance():
    inst = random_instance(0, GenParams(), seed=0)
    assert evaluate(inst, {}) == CostPoint(0.0, 0.0, 0.0)


@pytest.mark.parametrize("kind", OBJECTIVES)
def test_search_primary_is_primary_value_of_make_cost(kind):
    """The primary function a solve binds once per context, SolveContext.primary,
    equals primary_value of make_cost's CostPoint by repr, for each objective,
    with the weights read from the instance options and from the Objective;
    so does the primary of a solve's answer."""
    inst = random_instance(6, GenParams(fog_nodes=2), seed=4)
    inst.options.memory_weight, inst.options.time_weight = 0.3, 1.7
    rng = random.Random(kind)
    for objective in (Objective(kind), Objective(kind, memory_weight=2.5, time_weight=0.125)):
        ctx = build_context(inst, objective)
        for _ in range(200):
            mem_bits, time_s = rng.randrange(2**40), rng.uniform(0.0, 1e3)
            want = primary_value(objective, make_cost(inst, objective, mem_bits, time_s))
            assert repr(ctx.primary(time_s, mem_bits)) == repr(want)
        result = solve_branch_bound(inst, objective)
        assert repr(_placement_key(ctx, result.placement)[0][0]) == repr(primary_value(objective, result.cost))


def reference_cost(inst, placement, delays, include_return_hop):
    """evaluate's contract, built from the reference pieces: flow_time per
    flow, overall_time, and the robot's _location_bits over an explicit step
    partition."""
    flows = all_flows(inst.graph)
    timings = [
        flow_time(inst, flow, placement, delays=delays, include_return_hop=include_return_hop)
        for flow in flows
    ]
    time_s = overall_time(timings, inst.options.time_aggregate)
    outputs = frozenset().union(*(spec.memory.outputs for spec in inst.algorithms.values()))
    partition = step_partition(inst.graph, flows)
    mem_bits = _location_bits(inst, placement, "e", partition, "sum", extra_regions=outputs)
    distance = math.hypot(
        inst.options.memory_weight * (mem_bits / (8 * 1024 * 1024)),
        inst.options.time_weight * time_s,
    )
    return CostPoint(mem_bits / 8.0, time_s, distance)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 10),
    fog=st.integers(0, 2),
    cloud=st.integers(1, 2),
    aggregate=st.sampled_from(TIME_AGGREGATES),
    include_return_hop=st.booleans(),
    with_delays=st.booleans(),
)
def test_evaluate_matches_flow_time_reference(
    seed, n, fog, cloud, aggregate, include_return_hop, with_delays
):
    params = GenParams(fog_nodes=fog, cloud_nodes=cloud, delay_prob=0.6, unbounded_prob=0.2)
    inst = random_instance(n, params, seed=seed)
    inst = replace(inst, options=replace(inst.options, time_aggregate=aggregate))
    rng = random.Random(seed)
    allowed = effective_allowed(inst)
    placement = {aid: rng.choice(allowed[aid]) for aid in sorted(inst.algorithms)}
    delays = None
    if with_delays:  # a partial realization: absent links fall back to their mean
        delays = {pair: rng.uniform(0.0, 2.0) for pair in sorted(inst.comm.links) if rng.random() < 0.7}
    expected = reference_cost(inst, placement, delays, include_return_hop)
    cost = evaluate(inst, placement, delays=delays, include_return_hop=include_return_hop)
    assert cost == expected


SHAPES = {  # (layers, edge_prob) for random_instance, before shaped_edges
    "edge-free": (1, None),  # one layer: isolated vertices, n components
    "forest": (None, 0.0),  # one predecessor each: a component per root
    "default": (None, None),
    "dense": (None, 0.8),
    "ladder": (None, None),  # rewired: see ladder_edges
    "interleaved": (None, None),  # rewired: components over interleaved ids
}


def ladder_edges(ids):
    """Rungs of two ids, in id order, each feeding both ids of the next rung."""
    return [(u, v) for i in range(0, len(ids) - 2, 2) for u in ids[i : i + 2] for v in ids[i + 2 : i + 4]]


def shaped_edges(inst, shape, rng):
    """The dependency edges of a SHAPES entry over inst's algorithms.  An
    interleaved graph deals the ids into two or three components, and orders
    each component by a shuffle, so its sources are not its smallest ids and
    the components' smallest ids interleave: the flows' order follows the
    components, not the sources' ids."""
    ids = sorted(inst.algorithms)
    if shape == "ladder":
        return tuple(ladder_edges(ids))
    if shape != "interleaved":
        return inst.graph.edges
    part = {aid: rng.randrange(rng.randint(2, 3)) for aid in ids}
    rng.shuffle(ids)
    return tuple((u, v) for i, u in enumerate(ids) for v in ids[i + 1 :] if part[u] == part[v] and rng.random() < 0.5)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(0, 14),
    fog=st.integers(0, 3),
    cloud=st.integers(1, 2),
    shape=st.sampled_from(sorted(SHAPES)),
    include_return_hop=st.booleans(),
    with_delays=st.booleans(),
)
@example(seed=0, n=0, fog=1, cloud=1, shape="default", include_return_hop=True, with_delays=False)
@example(seed=0, n=1, fog=1, cloud=1, shape="default", include_return_hop=True, with_delays=True)
@example(seed=0, n=1, fog=0, cloud=1, shape="edge-free", include_return_hop=False, with_delays=False)
@example(seed=3, n=14, fog=2, cloud=1, shape="ladder", include_return_hop=True, with_delays=True)
@example(seed=4, n=13, fog=1, cloud=2, shape="interleaved", include_return_hop=False, with_delays=True)
def test_time_of_equals_the_per_flow_reference(
    seed, n, fog, cloud, shape, include_return_hop, with_delays
):
    """time_of reproduces the flow_time + aggregate_times reference bit for
    bit (compared by repr) under every aggregate: under max_flow by its
    longest-path pass, under total_flows and mean_flows by its walk over
    the flows' prefixes, whose totals come in all_flows' order.  times_of
    over two realizations gives time_of under each.  Exec times spanning
    1e-9 to 1e3 make rounding show if a pass or the walk groups an
    addition differently."""
    layers, edge_prob = SHAPES[shape]
    params = GenParams(
        fog_nodes=fog,
        cloud_nodes=cloud,
        layers=layers,
        edge_prob=edge_prob,
        exec_range=(1e-9, 1e3),
        delay_prob=0.6,
        tier_ordering=False,
    )
    inst = random_instance(n, params, seed=seed)
    rng = random.Random(seed)
    inst.graph.edges = shaped_edges(inst, shape, rng)
    # a per-byte cost makes hops depend on payload and puts them on the scale
    # of exec times, so a vertex's return hop can outweigh every flow's rest
    links = dict(inst.comm.links)
    for pair, link in sorted(links.items()):
        links[pair] = replace(link, per_byte_seconds=rng.uniform(0.0, 0.1))
    inst.comm = CommModel(links)
    allowed = effective_allowed(inst)
    placement = {aid: rng.choice(allowed[aid]) for aid in sorted(inst.algorithms)}
    delays = None
    if with_delays:  # a partial realization: absent links fall back to their mean
        delays = {pair: rng.uniform(0.0, 2.0) for pair in sorted(inst.comm.links) if rng.random() < 0.7}
    compiled = compile_instance(inst)
    priced = compiled.priced(delays, include_return_hop)
    totals = [flow_time(inst, f, placement, delays, include_return_hop).total for f in all_flows(inst.graph)]
    realizations = [delays or {}, {}]
    over = compiled.priced_over(realizations, include_return_hop)
    for aggregate in TIME_AGGREGATES:
        reference = aggregate_times(aggregate, totals)
        assert repr(priced.time_of(placement, aggregate)) == repr(reference), aggregate
        want = [compiled.priced(d, include_return_hop).time_of(placement, aggregate) for d in realizations]
        assert repr(over.times_of(placement, aggregate, len(realizations))) == repr(want), aggregate


@pytest.mark.parametrize("rungs", [10, 12])
def test_sum_walk_equals_the_reference_on_deep_ladders(rungs):
    """Ladders of 20 and 24 algorithms, with 2**rungs flows as deep as the
    ladder: under total_flows and mean_flows time_of equals aggregate_times
    over flow_time's totals, by repr, with and without the return hop and
    under a delay realization, and times_of gives time_of under each
    realization."""
    inst = instance_from_dict(ladder(rungs, seed=rungs))
    flows = all_flows(inst.graph)
    assert len(flows) == 2**rungs and len(flows[0]) == rungs
    rng = random.Random(rungs)
    compiled = compile_instance(inst)
    realizations = [{pair: rng.uniform(0.0, 2.0) for pair in sorted(inst.comm.links)}, {}]
    for include_return_hop in (True, False):
        over = compiled.priced_over(realizations, include_return_hop)
        for _ in range(3):
            placement = {aid: rng.choice(nodes) for aid, nodes in compiled.allowed.items()}
            for aggregate in ("total_flows", "mean_flows"):
                want = []
                for delays in realizations:
                    totals = [flow_time(inst, f, placement, delays, include_return_hop).total for f in flows]
                    got = compiled.priced(delays, include_return_hop).time_of(placement, aggregate)
                    assert repr(got) == repr(aggregate_times(aggregate, totals))
                    want.append(got)
                assert repr(over.times_of(placement, aggregate, len(realizations))) == repr(want)


@pytest.mark.parametrize("seed", range(6))
def test_compiled_hops_equal_resolve_with_the_true_payload(seed):
    """Without a per-byte link the hop rows are keyed by payload 0; every
    compiled hop still equals CommModel.resolve with the true payload bits
    (by repr), on a fresh model, under a partial delay realization."""
    params = GenParams(fog_nodes=1 + seed % 3, cloud_nodes=1 + seed % 2, delay_prob=0.6)
    inst = random_instance(8, params, seed=seed)
    rng = random.Random(seed)
    delays = {pair: rng.uniform(0.0, 2.0) for pair in sorted(inst.comm.links) if rng.random() < 0.7}
    priced = compile_instance(inst).priced(delays)
    fresh = instance_from_dict(instance_to_dict(inst)).comm
    for aid in sorted(inst.algorithms):
        for src in sorted(inst.nodes):
            for dst in sorted(inst.nodes):
                want = fresh.resolve(src, dst, priced.output_bits[aid], delays)
                assert repr(priced.out_rows[aid][src][dst]) == repr(want)
        for dst in sorted(inst.nodes):
            want = fresh.resolve(priced.edge_id, dst, priced.input_bits[aid], delays)
            assert repr(priced.in_rows[aid][dst]) == repr(want)
    # one shared set of rows, keyed by payload 0
    shared = priced.out_rows[min(inst.algorithms)]
    assert all(rows is shared for rows in priced.out_rows.values())
    assert all(row is shared[priced.edge_id] for row in priced.in_rows.values())


def test_solver_per_flow_matches_flow_time():
    rng = random.Random(17)
    for seed in range(30):
        # unordered tiers and cheap links mix nodes along flows, so inter-hops are nonzero
        params = GenParams(
            fog_nodes=rng.randint(0, 2),
            cloud_nodes=rng.randint(1, 2),
            delay_prob=0.5,
            tier_ordering=False,
            link_seconds_range=(0.01, 0.5),
        )
        inst = random_instance(rng.randint(1, 8), params, seed=seed)
        delays = {pair: rng.uniform(0.0, 0.2) for pair in sorted(inst.comm.links)}
        objective = Objective(("min_distance", "min_time_total")[seed % 2])
        ours = solve_branch_bound(inst, objective, delays=delays)
        base = solve_baseline(inst, delays=delays)
        flows = all_flows(inst.graph)
        assert ours.per_flow == [flow_time(inst, f, ours.placement, delays=delays) for f in flows]
        assert base.per_flow == [
            flow_time(inst, f, base.placement, delays=delays, include_return_hop=False)
            for f in flows
        ]


def test_evaluate_deep_chain():
    inst = random_instance(2000, GenParams(layers=2000, edge_prob=0.0), seed=0)
    placement = dict.fromkeys(inst.algorithms, "e")
    assert evaluate(inst, placement) == reference_cost(inst, placement, None, True)


def test_objective_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown objective"):
        Objective("min_latency")


# ---------------------------------------------------------------------------
# Exact search


def test_single_sort_optimum_stays_on_robot(single_sort):
    result = solve_branch_bound(single_sort)
    assert result.placement == {"sort": "e"}
    assert result.cost.time_seconds == 5.0


def test_min_memory_prefers_deepest_offload(dataset_d2):
    result = solve_branch_bound(dataset_d2, Objective("min_memory"))
    # every off-robot placement frees the same bytes; lex tie-break -> cloud
    assert result.placement == {aid: "c" for aid in dataset_d2.algorithms}
    assert result.cost.memory_bytes == 524288000.0


def test_allowed_locations_pin_placement():
    data = fixtures.single_sort()
    data["algorithms"][0]["allowed_locations"] = ["f"]
    inst = instance_from_dict(data)
    for solver in (solve_bruteforce, solve_branch_bound):
        result = solver(inst)
        assert result.placement == {"sort": "f"}
        assert result.cost.time_seconds == FOG_TIME


def test_unbounded_growth_forces_cloud():
    inst = random_instance(5, GenParams(unbounded_prob=1.0), seed=3)
    result = solve_branch_bound(inst)
    assert all(inst.nodes[nid].tier == "cloud" for nid in result.placement.values())


def test_branch_bound_matches_bruteforce():
    objectives = [Objective(kind) for kind in
                  ("min_distance", "min_time_max", "min_time_total", "min_memory")]
    objectives.append(Objective("min_distance", memory_weight=2.0, time_weight=0.5))
    for seed in range(24):
        inst = random_instance(1 + seed % 6, GenParams(), seed=seed)
        for objective in objectives:
            expect = solve_bruteforce(inst, objective)
            got = solve_branch_bound(inst, objective)
            assert got.placement == expect.placement, (seed, objective.kind)
            assert got.cost == expect.cost, (seed, objective.kind)


def test_branch_bound_matches_without_return_hop():
    for seed in range(12):
        inst = random_instance(2 + seed % 5, GenParams(), seed=100 + seed)
        expect = solve_bruteforce(inst, Objective("min_time_max"), include_return_hop=False)
        got = solve_branch_bound(inst, Objective("min_time_max"), include_return_hop=False)
        assert got.placement == expect.placement
        assert got.cost == expect.cost


@pytest.mark.parametrize("seed", range(6))
def test_rich_instances_solve_and_evaluate_as_the_references(seed):
    """Exec overrides, restricted allowed_locations, a per-byte link, delays
    and memory growth: branch and bound equals brute force, and evaluate
    equals the flow_time reference, under each aggregate."""
    inst = instance_from_dict(rich_doc(seed, TIME_AGGREGATES[seed % len(TIME_AGGREGATES)]))
    for kind in OBJECTIVES:
        expect = solve_bruteforce(inst, Objective(kind))
        got = solve_branch_bound(inst, Objective(kind))
        assert (got.placement, got.cost) == (expect.placement, expect.cost), kind
    rng = random.Random(seed)
    allowed = effective_allowed(inst)
    for _ in range(5):
        placement = {aid: rng.choice(allowed[aid]) for aid in sorted(inst.algorithms)}
        delays = {pair: rng.uniform(0.0, 2.0) for pair in sorted(inst.comm.links) if rng.random() < 0.7}
        for realization in (None, delays):
            assert evaluate(inst, placement, delays=realization) == reference_cost(inst, placement, realization, True)


@pytest.mark.parametrize("solve", [solve_branch_bound, solve_bruteforce, scatter, monte_carlo_compare])
def test_an_algorithm_with_no_feasible_location_is_refused(solve):
    """Every algorithm grows, so it may run on a cloud node only, and there is none."""
    inst = random_instance(4, GenParams(cloud_nodes=0, unbounded_prob=1.0), seed=1)
    with pytest.raises(InfeasibleError) as raised:
        solve(inst)
    assert str(raised.value) == "algorithm a01 has no feasible location"


def test_explored_node_accounting(dataset_d2):
    brute = solve_bruteforce(dataset_d2)
    assert brute.explored_nodes == 3**4
    bnb = solve_branch_bound(dataset_d2)
    full_tree = sum(3**d for d in range(1, 5))
    assert bnb.explored_nodes <= full_tree
    assert (bnb.placement, bnb.cost) == (brute.placement, brute.cost)
    # The warm start, all four algorithms on f, is the optimum: 500 MB and
    # 8 s, lex tuple (1, 1, 1, 1) under the node ranks c=0, f=1, e=2.  At
    # each depth the c child's bound is already worse (cloud takes 10 s);
    # the e child either raises robot memory or, for `data` (whose output is
    # held on the robot anyway), ties and has the lex bound (2, 0, 0, 0) >
    # (1, 1, 1, 1).  The f child ties on (distance, memory) with lex bound
    # (1, ..., 1, 0, ...) below the incumbent's at depths 0-2, so it is
    # explored; at depth 3 its bound is (1, 1, 1, 1), equal to the
    # incumbent's, and is pruned.  That leaves exactly 3 explored nodes.
    assert bnb.explored_nodes == 3


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 5),
    fog=st.integers(0, 2),
    cloud=st.integers(1, 2),
    kind=st.sampled_from(OBJECTIVES),
    aggregate=st.sampled_from(TIME_AGGREGATES),
    include_return_hop=st.booleans(),
    zero_regions=st.booleans(),
    flat_exec=st.booleans(),
    same_links=st.booleans(),
    per_byte=st.booleans(),
    allowed_seed=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_branch_bound_matches_bruteforce_under_ties(
    seed, n, fog, cloud, kind, aggregate, include_return_hop, zero_regions, flat_exec, same_links, per_byte,
    allowed_seed,
):
    """Ties on the primary objective and on memory are settled by the lex
    tuple; the generators force them: zero-size regions and no processing
    memory (every placement ties on memory), one execution time on every
    tier, and one cost on every link.  per_byte charges most links per
    byte, so hops and routes depend on the payload and are keyed by it.
    allowed_seed, when drawn, restricts each algorithm to the robot or to a
    random non-empty subset of the nodes, or leaves it free."""
    data = _relabelled(seed, n, fog, cloud)
    data["options"]["time_aggregate"] = aggregate
    if zero_regions:
        for region in data["regions"]:
            region["size_bits"] = 0
        for alg in data["algorithms"]:
            alg["memory"]["processing_bits"] = 0
    if flat_exec:
        for alg in data["algorithms"]:
            alg["exec_time"] = dict.fromkeys(alg["exec_time"], 2.0)
    if same_links:
        for link in data["comm"]:
            link["base_seconds"] = 1.0
    if per_byte:
        rng = random.Random(seed)
        for link in data["comm"]:
            link["per_byte_seconds"] = rng.choice((0.0, 1e-6, 1e-5))
    if allowed_seed is not None:
        rng = random.Random(allowed_seed)
        node_ids = [node["id"] for node in data["nodes"]]
        for alg in data["algorithms"]:
            pick = rng.randrange(3)
            if pick == 0:
                alg["allowed_locations"] = ["e"]
            elif pick == 1:
                alg["allowed_locations"] = rng.sample(node_ids, rng.randint(1, len(node_ids)))
    inst = instance_from_dict(data)
    objective = Objective(kind)
    expect = solve_bruteforce(inst, objective, include_return_hop=include_return_hop)
    got = solve_branch_bound(inst, objective, include_return_hop=include_return_hop)
    assert got.placement == expect.placement
    assert got.cost == expect.cost
    assert got.per_flow == expect.per_flow
    # the bound alone must be exact, whatever the incumbent: search from the
    # lex-largest placement
    ctx = build_context(inst, objective, include_return_hop)
    worst = {aid: nodes[-1] for aid, nodes in ctx.allowed.items()}
    placement, _ = _search_from(ctx, worst).run()
    assert placement == expect.placement


def _search_from(ctx, start, search=None):
    """A search of ctx whose incumbent is start: warm_start's dive with one
    node per algorithm, start's, scored by the search's own leaf scorer."""
    search = search or _Search(ctx)
    warm_start(search, {aid: (node,) for aid, node in start.items()})
    return search


def _relabelled(seed, n, fog, cloud):
    """A random instance whose algorithm ids are shuffled, so that the lex
    order (by id) differs from the branching order (by layer)."""
    data = instance_to_dict(
        random_instance(n, GenParams(fog_nodes=fog, cloud_nodes=cloud), seed=seed)
    )
    ids = [alg["id"] for alg in data["algorithms"]]
    shuffled = random.Random(seed).sample(ids, len(ids))
    rename = dict(zip(ids, shuffled))
    for alg in data["algorithms"]:
        alg["id"] = rename[alg["id"]]
    data["edges"] = [[rename[u], rename[v]] for u, v in data["edges"]]
    return data


# Exec times spanning five decades and delayed links: sums whose rounding
# depends on their order, so a bound added from a path's end can read an ulp
# above the time a completion adds from its start.
ULP_PARAMS = GenParams(
    fog_nodes=1, cloud_nodes=1, edge_prob=0.6, delay_prob=0.6, exec_range=(1e-3, 1e2), tier_ordering=False
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 6),
    kind=st.sampled_from(OBJECTIVES),
    aggregate=st.sampled_from(TIME_AGGREGATES),
    include_return_hop=st.booleans(),
)
@example(seed=33, n=6, kind="min_time_max", aggregate="max_flow", include_return_hop=True)
def test_search_answer_is_independent_of_its_incumbent(seed, n, kind, aggregate, include_return_hop):
    """A search started from any placement that ties the optimum on
    (primary, memory), or from a random one, returns brute force's
    placement.  The dive that takes the start scores it, through the
    search's own state, exactly as brute force's key and time_of do."""
    inst = random_instance(n, ULP_PARAMS, seed=seed)
    inst.options.time_aggregate = aggregate
    objective = Objective(kind)
    expect = solve_bruteforce(inst, objective, include_return_hop=include_return_hop)
    ctx = build_context(inst, objective, include_return_hop)
    placements = [
        dict(zip(ctx.sorted_ids, combo)) for combo in itertools.product(*(ctx.allowed[a] for a in ctx.sorted_ids))
    ]
    keys = [_placement_key(ctx, p)[0] for p in placements]
    best = min(keys)
    starts = [p for p, key in zip(placements, keys) if key[:2] == best[:2]]
    starts += random.Random(seed).sample(placements, min(4, len(placements)))
    for start in starts:
        search = _search_from(ctx, start)
        assert repr(search.best_key) == repr(_placement_key(ctx, start)[0]), start
        assert repr(search.best_time) == repr(ctx.time_of(start, ctx.aggregate)), start
        # the dive is undone and not counted
        fresh = _Search(ctx)
        assert repr((search.agg, search.memory.bits)) == repr((fresh.agg, fresh.memory.bits))
        assert (search.best_placement, search.assignment, search.explored) == (start, {}, 0)
        placement, _ = search.run()
        assert placement == expect.placement, start


def test_an_incumbent_one_ulp_under_the_root_bound_does_not_stop_the_search():
    """The start ties brute force's optimum on time and memory but has a
    higher lex tuple, and the root bound reads one ulp above that time.  A
    search that compared the bound exactly returned the start after 0 nodes."""
    inst = random_instance(6, ULP_PARAMS, seed=33)
    objective = Objective("min_time_max")
    expect = solve_bruteforce(inst, objective)
    ctx = build_context(inst, objective)
    start = {"a01": "e", "a02": "e", "a03": "c1", "a04": "c1", "a05": "e", "a06": "f1"}
    assert start != expect.placement
    assert _placement_key(ctx, start)[0][:2] == _placement_key(ctx, expect.placement)[0][:2]
    search = _Search(ctx)
    assert search.agg == math.nextafter(expect.cost.time_seconds, math.inf)
    placement, explored = _search_from(ctx, start, search).run()
    assert placement == expect.placement
    assert explored > 0


def _twin_clouds(seed, n, aggregate):
    """A random instance whose cloud c2 has c1's links (and, as every cloud
    does, its exec times), so each placement on c2 ties the same placement
    on c1 exactly in time and memory."""
    data = instance_to_dict(random_instance(n, GenParams(fog_nodes=1, cloud_nodes=2), seed=seed))
    data["options"]["time_aggregate"] = aggregate
    links = {(link["from"], link["to"]): link for link in data["comm"]}
    twin = {"c2": "c1"}
    data["comm"] = [
        {**links[twin.get(src, src), twin.get(dst, dst)], "from": src, "to": dst} for src, dst in links
    ]
    return instance_from_dict(data)


def test_exact_time_ties_do_not_multiply_the_search():
    """Twin clouds make exact time ties common; a bound snapped within the
    rounding slack must still prune them, so the explored total is pinned.
    Comparing bounds exactly explores 331 nodes here; dividing every bound by
    the slack, to make it strictly admissible, explores 30,395.  Seeds 0-119
    cover every (n in 3-7, objective, aggregate) twice."""
    explored = 0
    for seed in range(120):
        inst = _twin_clouds(seed, 3 + seed % 5, TIME_AGGREGATES[seed // 20 % 3])
        objective = Objective(OBJECTIVES[seed % 4])
        got = solve_branch_bound(inst, objective)
        expect = solve_bruteforce(inst, objective)
        assert (got.placement, got.cost) == (expect.placement, expect.cost)
        explored += got.explored_nodes
    assert explored == 346


class _LexSpy(_Search):
    """Checks on entry to every search node that lex_lb is the least lex
    tuple over all completions of the partial assignment."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.checked = 0

    def _children(self, depth):
        ctx = self.ctx
        choices = [
            [self.assignment[aid]] if aid in self.assignment else ctx.allowed[aid]
            for aid in ctx.sorted_ids
        ]
        least = min(
            ctx.lex_tuple(dict(zip(ctx.sorted_ids, combo))) for combo in itertools.product(*choices)
        )
        assert tuple(self.lex_lb) == least
        self.checked += 1
        return super()._children(depth)


def test_lex_bound_is_the_least_completion_lex():
    checked = 0
    for seed in range(30):
        inst = instance_from_dict(_relabelled(seed, 3 + seed % 4, seed % 3, 1 + seed % 2))
        unbounded = random_instance(4, GenParams(unbounded_prob=0.5), seed=seed)
        for instance in (inst, unbounded):
            for kind in OBJECTIVES:
                ctx = build_context(instance, Objective(kind))
                # the lex-largest incumbent leaves the search the most to do
                worst = {aid: nodes[-1] for aid, nodes in ctx.allowed.items()}
                spy = _search_from(ctx, worst, _LexSpy(ctx))
                spy.run()
                checked += spy.checked
    assert checked > 1000


class _Checked(Exception):
    """Ends a spied search once its budget of checks is spent."""


def _reference_bound(ctx, resolve, exec_s=None, paths_out=None):
    """C, E and the start bounds built afresh from resolve and exec_s (by
    default ctx.exec_s), per algorithm in reverse topological order.  For
    each successor s of v, E(v, y, s) is the least over nodes z of w * (hop
    + exec(s, z)) + C(s, z).  Under max_flow (paths_out None) w = 1 and
    C(v, y) is the largest E, B; otherwise w = paths_out[s] and C(v, y) is
    the sum of the E, over successors in branching order.  At a sink, C is
    its return hop or a zero hop.  A source's start bound is the least over
    its nodes z of w * (request hop + exec) + C(v, z), w = paths_out[v] or
    1.  Returns C, E keyed [(v, s)][y], and the start bounds."""
    exec_s = exec_s or ctx.exec_s
    weight = (lambda aid: 1) if paths_out is None else paths_out.__getitem__
    succs = {aid: [s for s in ctx.order if aid in ctx.preds[s]] for aid in ctx.order}
    completion, shares = {}, {}
    for v in reversed(ctx.order):
        payload = ctx.output_bits[v]
        if not succs[v]:
            completion[v] = {
                y: resolve(y, ctx.edge_id if ctx.include_return_hop else y, payload) for y in ctx.allowed[v]
            }
            continue
        for s in succs[v]:
            shares[v, s] = {
                y: min(
                    weight(s) * (resolve(y, z, payload) + exec_s[s][z]) + completion[s][z] for z in ctx.allowed[s]
                )
                for y in ctx.allowed[v]
            }
        completion[v] = {}
        for y in ctx.allowed[v]:
            if paths_out is None:
                completion[v][y] = max(shares[v, s][y] for s in succs[v])
            else:
                completion[v][y] = 0
                for s in succs[v]:
                    completion[v][y] += shares[v, s][y]
    start = {
        v: min(
            weight(v) * (resolve(ctx.edge_id, z, ctx.input_bits[v]) + exec_s[v][z]) + completion[v][z]
            for z in ctx.allowed[v]
        )
        for v in ctx.order
        if not ctx.preds[v]
    }
    return completion, shares, start


def _reference_path_counts(ctx):
    """paths_in and paths_out counted from the enumerated flows: the
    distinct flow prefixes that end at each algorithm, and the distinct
    suffixes that start at it."""
    flows = all_flows(ctx.instance.graph)
    prefixes = {flow[: i + 1] for flow in flows for i in range(len(flow))}
    suffixes = {flow[i:] for flow in flows for i in range(len(flow))}
    return dict(Counter(p[-1] for p in prefixes)), dict(Counter(s[0] for s in suffixes))


def _reference_finish(ctx, placement, resolve, exec_s=None):
    """P(v) of every placed algorithm: the largest prefix sum, in
    _flow_total's order, over the paths from a source to v."""
    exec_s = exec_s or ctx.exec_s
    finish = {}
    for v in ctx.order:
        if v not in placement:
            break
        node = placement[v]
        preds = ctx.preds[v]
        if preds:
            t = max(finish[u] + resolve(placement[u], node, ctx.output_bits[u]) for u in preds)
        else:
            t = resolve(ctx.edge_id, node, ctx.input_bits[v])  # never -0.0, so 0.0 + t is t
        finish[v] = t + exec_s[v][node]
    return finish


def _reference_flow_sums(ctx, placement, resolve, paths_in, exec_s=None):
    """F(v) of every placed algorithm, the sum over the paths from a source
    to v of their time through v's exec: over v's predecessors u, F(u) plus
    paths_in[u] times the hop from u's node, then plus paths_in[v] times
    v's exec; at a source, its request hop plus exec."""
    exec_s = exec_s or ctx.exec_s
    sums = {}
    for v in ctx.order:
        if v not in placement:
            break
        node = placement[v]
        preds = ctx.preds[v]
        if preds:
            t = 0
            for u in preds:
                t += sums[u] + paths_in[u] * resolve(placement[u], node, ctx.output_bits[u])
            t += paths_in[v] * exec_s[v][node]
        else:
            t = resolve(ctx.edge_id, node, ctx.input_bits[v]) + exec_s[v][node]
        sums[v] = t
    return sums


class _BoundSpy(_Search):
    """Checks every max_flow child bound and leaf time against references
    built from resolve: a child's time bound must be the larger of its
    parent's and P(v) + B(v, node), and the time _leaf scores a leaf at the
    largest flow total, compared by repr."""

    def __init__(self, ctx, resolve, delays, budget):
        super().__init__(ctx)
        self.resolve = resolve
        self.delays = delays
        self.budget = budget
        self.reference, _, _ = _reference_bound(ctx, resolve)
        self.children = self.leaves = 0

    def _spend(self):
        if self.children + self.leaves >= self.budget:
            raise _Checked

    def _price_children(self, aid, nodes):
        self._spend()
        ctx = self.ctx
        children = super()._price_children(aid, nodes)
        assert [child[3] for child in children] == list(nodes)
        for primary, mem_bits, _, node, (_, time_bound) in children:
            finish = _reference_finish(ctx, {**self.assignment, aid: node}, self.resolve)
            want = max(self.agg, finish[aid] + self.reference[aid][node])
            assert repr(time_bound) == repr(want)
            assert repr(primary) == repr(ctx.primary(want, mem_bits))
            self.children += 1
        return children

    def _leaf(self):
        self._spend()
        ctx = self.ctx
        incumbent = self.best_key, self.best_time, self.best_placement
        self.best_key = None  # so _leaf records this leaf's time
        super()._leaf()
        totals = [flow_time(ctx.instance, f, self.assignment, self.delays, ctx.include_return_hop).total
                  for f in all_flows(ctx.instance.graph)]
        assert repr(self.best_time) == repr(max(totals))
        self.leaves += 1
        if incumbent[0] is not None and not self.best_key < incumbent[0]:
            self.best_key, self.best_time, self.best_placement = incumbent


def _jittered(seed, n, params, kind, include_return_hop, aggregate="max_flow"):
    """A context over random_instance(n, params, seed) under aggregate and a
    partial delay realization, with a memoized resolve under it."""
    inst = random_instance(n, params, seed=seed)
    inst.options.time_aggregate = aggregate
    rng = random.Random(seed)
    delays = {pair: rng.uniform(0.0, 2.0) for pair in sorted(inst.comm.links) if rng.random() < 0.7}
    ctx = build_context(inst, Objective(kind), include_return_hop, delays)
    assert ctx.aggregate == aggregate
    hops = {}

    def resolve(src, dst, payload):
        if (src, dst, payload) not in hops:
            hops[src, dst, payload] = inst.comm.resolve(src, dst, payload, delays)
        return hops[src, dst, payload]

    return ctx, delays, resolve


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(10, 18),
    dense=st.booleans(),
    kind=st.sampled_from(("min_distance", "min_time_max")),
    include_return_hop=st.booleans(),
)
@example(seed=6, n=14, dense=True, kind="min_time_max", include_return_hop=True)
@example(seed=2, n=14, dense=True, kind="min_distance", include_return_hop=False)
def test_max_flow_child_bound_is_the_longest_path_plus_the_completion_bound(
    seed, n, dense, kind, include_return_hop
):
    """Under max_flow the search keeps one longest-path sum P(v) per
    algorithm and prices a child as max(agg, P(v) + B(v, node)), B the
    completion bound of one backward pass.  Dense graphs give hundreds of
    flows; exec times spanning 1e-9 to 1e3 and a partial delay realization
    make a regrouped sum show.  Unordered tiers make some of these searches
    long, so each checks its first 400 steps."""
    params = GenParams(
        fog_nodes=2,
        edge_prob=0.6 if dense else None,
        exec_range=(1e-9, 1e3),
        delay_prob=0.6,
        tier_ordering=False,
    )
    ctx, delays, resolve = _jittered(seed, n, params, kind, include_return_hop)
    spy = _BoundSpy(ctx, resolve, delays, budget=400)
    assert repr(spy.completion) == repr(spy.reference)
    try:
        warm_start(spy, ctx.allowed)
        spy.run()
    except _Checked:
        pass
    assert spy.children >= len(ctx.allowed[ctx.order[0]]) and spy.leaves >= 1


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 7),
    include_return_hop=st.booleans(),
)
def test_max_flow_completion_bound_is_admissible(seed, n, include_return_hop):
    """P(v) + B(v, y) is at most the max_flow time of every completion that
    puts v on y, and the largest source start bound at most every
    placement's time: every placement enumerated.  The sums are exact
    (Fractions of the same hop and exec floats), since B adds a path's terms
    from its end and time_of from its start, and the two roundings differ
    by an ulp either way."""
    params = GenParams(edge_prob=0.6, delay_prob=0.6)
    ctx, _, resolve = _jittered(seed, n, params, "min_distance", include_return_hop)
    exact = lambda src, dst, payload: Fraction(resolve(src, dst, payload))
    exec_s = {aid: {z: Fraction(t) for z, t in row.items()} for aid, row in ctx.exec_s.items()}
    completion, _, _ = _reference_bound(ctx, exact, exec_s)
    lowest = max(
        min((exact(ctx.edge_id, z, ctx.input_bits[v]) + exec_s[v][z]) + completion[v][z] for z in ctx.allowed[v])
        for v in ctx.order
        if not ctx.preds[v]
    )
    sinks = [aid for aid in ctx.order if not ctx.succs[aid]]
    for combo in itertools.product(*(ctx.allowed[aid] for aid in ctx.order)):
        placement = dict(zip(ctx.order, combo))
        finish = _reference_finish(ctx, placement, exact, exec_s)
        time_s = max(finish[s] + completion[s][placement[s]] for s in sinks)
        assert lowest <= time_s
        for aid, p in finish.items():
            assert p + completion[aid][placement[aid]] <= time_s


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 6),
    aggregate=st.sampled_from(("total_flows", "mean_flows")),
    include_return_hop=st.booleans(),
)
def test_sum_completion_bound_is_admissible(seed, n, aggregate, include_return_hop):
    """Under total_flows and mean_flows the start bound, and the bound of
    each child along a placement's branching order, are at most the
    placement's time: every placement enumerated.  With the first d
    algorithms of the order assigned, the bound adds one term per live
    item: per dependency edge (u, s) with u assigned and s not, F(u)
    paths_out(s) + paths_in(u) E(u, y_u, s); per assigned sink t, F(t) +
    paths_in(t) C(t, y_t); per unassigned source, its start bound.  The sums
    are exact (Fractions of the same hop and exec floats), and once every
    algorithm is assigned the bound is the time itself."""
    params = GenParams(edge_prob=0.6, delay_prob=0.6)
    ctx, _, resolve = _jittered(seed, n, params, "min_distance", include_return_hop, aggregate)
    exact = lambda src, dst, payload: Fraction(resolve(src, dst, payload))
    exec_s = {aid: {z: Fraction(t) for z, t in row.items()} for aid, row in ctx.exec_s.items()}
    paths_in, paths_out = _reference_path_counts(ctx)
    assert (ctx.paths_in, ctx.paths_out) == (paths_in, paths_out)
    completion, shares, start = _reference_bound(ctx, exact, exec_s, paths_out)
    flows = all_flows(ctx.instance.graph)
    per_flow = 1 if aggregate == "total_flows" else Fraction(1, len(flows))
    edges = [(u, s) for s in ctx.order for u in ctx.preds[s]]
    for combo in itertools.product(*(ctx.allowed[aid] for aid in ctx.order)):
        placement = dict(zip(ctx.order, combo))
        total = 0
        for flow in flows:
            src, payload = ctx.edge_id, ctx.input_bits[flow[0]]
            for aid in flow:
                total += exact(src, placement[aid], payload) + exec_s[aid][placement[aid]]
                src, payload = placement[aid], ctx.output_bits[aid]
            if include_return_hop:
                total += exact(src, ctx.edge_id, payload)
        sums = _reference_flow_sums(ctx, placement, exact, paths_in, exec_s)
        for d in range(len(ctx.order) + 1):
            assigned = set(ctx.order[:d])
            bound = sum(b for v, b in start.items() if v not in assigned)
            for u, s in edges:
                if u in assigned and s not in assigned:
                    bound += sums[u] * paths_out[s] + paths_in[u] * shares[u, s][placement[u]]
            for t in assigned:
                if not ctx.succs[t]:
                    bound += sums[t] + paths_in[t] * completion[t][placement[t]]
            assert bound * per_flow <= total * per_flow
        assert bound == total


def test_min_memory_ties_do_not_walk_the_tree():
    """Under min_memory every placement that keeps the edge empty ties on
    memory.  Pruning on (primary, memory) alone walked all
    488,280 nodes of this 5^8 tree; the lex component of the bound proves the
    warm start optimal without descending."""
    inst = random_instance(8, GenParams(fog_nodes=3, cloud_nodes=2), seed=1)
    result = solve_branch_bound(inst, Objective("min_memory"))
    assert result.explored_nodes <= len(inst.algorithms) * len(inst.nodes)
    # With the edge empty, robot memory is only the outputs it always holds,
    # the least any placement reaches; the lex-smallest such placement puts
    # every algorithm on the rank-0 node, the first cloud node.
    first_cloud = node_order(inst)[0]
    assert result.placement == dict.fromkeys(sorted(inst.algorithms), first_cloud)


def test_branch_bound_answers_are_pinned():
    """Golden answers: any change to the search's order of work or float
    accumulation shows here as a different digest or node count."""
    digest = hashlib.sha256()
    explored = 0
    for seed in range(24):
        for fog, cloud in ((1, 1), (2, 1), (3, 2)):
            params = GenParams(fog_nodes=fog, cloud_nodes=cloud, unbounded_prob=0.2)
            inst = random_instance(4 + seed % 5, params, seed=seed)
            for kind in OBJECTIVES:
                for include_return_hop in (True, False):
                    r = solve_branch_bound(inst, Objective(kind), include_return_hop=include_return_hop)
                    digest.update(repr((sorted(r.placement.items()), r.cost, r.per_flow)).encode())
                    explored += r.explored_nodes
    assert digest.hexdigest() == "5d769fdb10c126fdc46761b77cfce62b977114938660a1d530beaede4f3b428a"
    assert explored == 791


def _per_flow_tails(ctx):
    """Per flow fi, table[pos][node] = the cheapest way to finish flow fi
    (inbound hop, execs, inter-hops, return hop) given position pos-1 sits
    on node, built afresh at every position of every flow."""
    tables = []
    for flow in all_flows(ctx.instance.graph):
        suffix = [{} for _ in range(len(flow) + 1)]
        last = flow[-1]
        suffix[-1] = {
            nid: ctx.out_rows[last][nid][ctx.edge_id] if ctx.include_return_hop else 0.0
            for nid in ctx.allowed[last]
        }
        for pos in range(len(flow) - 1, -1, -1):
            aid = flow[pos]
            # the rows of the hop into aid, per source node
            rows = {ctx.edge_id: ctx.in_rows[aid]} if pos == 0 else ctx.out_rows[flow[pos - 1]]
            sources = (ctx.edge_id,) if pos == 0 else ctx.allowed[flow[pos - 1]]
            nxt = suffix[pos + 1]
            suffix[pos] = {
                src: min(
                    rows[src][nid] + ctx.exec_s[aid][nid] + nxt[nid]
                    for nid in ctx.allowed[aid]
                )
                for src in sources
            }
        tables.append(suffix)
    return tables


def _reference_dive(ctx, resolve):
    """The warm start rebuilt from reference pieces: in branching order, each
    algorithm goes to the node with the least (primary of the time bound,
    robot memory of the partial placement, rank).  The time bound is a
    running aggregate that starts at the source start bounds.  Under
    max_flow it is their largest and of P(v) + B(v, y) over the placed
    algorithms, from _reference_finish and _reference_bound.  Otherwise it
    is their sum, and placing v trades the term of each inbound edge (u, v),
    F(u) paths_out(v) + paths_in(u) E(u, y_u, v) (at a source, its start
    bound), for F(v) paths_out(v) + paths_in(v) C(v, y), from
    _reference_flow_sums, _reference_path_counts and _reference_bound, in
    the search's order.  Every hop comes from resolve."""
    placement, flows = {}, all_flows(ctx.instance.graph)
    if ctx.aggregate == "max_flow":
        completion, _, start = _reference_bound(ctx, resolve)
        agg = max(start.values())
    else:
        paths_in, paths_out = _reference_path_counts(ctx)
        completion, shares, start = _reference_bound(ctx, resolve, paths_out=paths_out)
        agg = sum(start.values())
    for aid in ctx.order:
        children = []
        for node in ctx.allowed[aid]:
            trial = {**placement, aid: node}
            if ctx.aggregate == "max_flow":
                bound = _reference_finish(ctx, trial, resolve)[aid] + completion[aid][node]
                child_agg = time_bound = max(agg, bound)
            else:
                sums = _reference_flow_sums(ctx, trial, resolve, paths_in)
                w = paths_out[aid]
                child_agg = agg
                for u in ctx.preds[aid]:
                    child_agg -= sums[u] * w + paths_in[u] * shares[u, aid][trial[u]]
                if not ctx.preds[aid]:
                    child_agg -= start[aid]
                child_agg += sums[aid] * w + paths_in[aid] * completion[aid][node]
                time_bound = child_agg if ctx.aggregate == "total_flows" else child_agg / len(flows)
            mem_bits = robot_memory_bits(ctx.instance, trial)
            key = (ctx.primary(time_bound, mem_bits), mem_bits, ctx.node_rank[node])
            children.append((key, node, child_agg))
        _, placement[aid], agg = min(children)
    return placement


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(10, 16),
    fog=st.integers(1, 3),
    cloud=st.integers(1, 2),
    kind=st.sampled_from(OBJECTIVES),
    aggregate=st.sampled_from(TIME_AGGREGATES),
    include_return_hop=st.booleans(),
)
def test_shared_tables_and_warm_start_match_the_per_flow_reference(
    seed, n, fog, cloud, kind, aggregate, include_return_hop
):
    """Under every aggregate the path counts equal those counted from the
    enumerated flows.  Under total_flows and mean_flows C, E and the start
    bounds equal a reference built from resolve (compared by repr).  Under
    max_flow there are no per-edge tables, and the completion bound is at
    least each flow's cheapest completion, built per position of every
    flow.  The warm start is the dive a reference rebuilds from these
    pieces.  Exec times spanning 1e-9 to 1e3 and jittered links make
    rounding show if a sum is grouped differently."""
    params = GenParams(
        fog_nodes=fog, cloud_nodes=cloud, exec_range=(1e-9, 1e3), delay_prob=0.6, tier_ordering=False
    )
    inst = random_instance(n, params, seed=seed)
    inst.options.time_aggregate = aggregate
    rng = random.Random(seed)
    delays = {pair: rng.uniform(0.0, 2.0) for pair in sorted(inst.comm.links) if rng.random() < 0.7}
    ctx = build_context(inst, Objective(kind), include_return_hop, delays)
    hops = {}

    def resolve(src, dst, payload):
        if (src, dst, payload) not in hops:
            hops[src, dst, payload] = inst.comm.resolve(src, dst, payload, delays)
        return hops[src, dst, payload]

    search = _Search(ctx)  # it builds the bound tables
    sources = [aid for aid in ctx.order if not ctx.preds[aid]]
    assert list(search.start_bound) == sources
    paths_in, paths_out = _reference_path_counts(ctx)
    assert (ctx.paths_in, ctx.paths_out) == (paths_in, paths_out)
    if ctx.aggregate == "max_flow":
        # no per-edge tables: B bounds every flow's tail table from above,
        # entry by entry, and each source's start bound every flow from it
        assert search.edge_bound == {}
        reference = _per_flow_tails(ctx)
        flows = all_flows(ctx.instance.graph)
        for fi, flow in enumerate(flows):
            for pos, aid in enumerate(flow):
                for nid, tail in reference[fi][pos + 1].items():
                    assert search.completion[aid][nid] >= tail
        for fi, flow in enumerate(flows):
            assert search.start_bound[flow[0]] >= reference[fi][0][ctx.edge_id]
    else:
        completion, shares, start = _reference_bound(ctx, resolve, paths_out=paths_out)
        assert repr(search.completion) == repr(completion)
        assert repr(search.start_bound) == repr(start)
        got = {(u, s): share for s, by_pred in search.edge_bound.items() for u, share in by_pred.items()}
        assert sorted(got) == sorted(shares) == sorted(ctx.instance.graph.edges)
        for edge, share in shares.items():
            assert repr(got[edge]) == repr(share)

    warm_start(search, ctx.allowed)
    assert search.best_placement == _reference_dive(ctx, resolve)


@pytest.mark.parametrize("kind", ["min_distance", "min_time_total"])
def test_no_aggregate_builds_per_flow_state(kind, monkeypatch):
    """Each aggregate builds its bound in one _completion pass, and the
    search keeps no per-flow state: its containers are sized by the
    algorithms, here far fewer than the flows.  A solve enumerates no flow
    under any aggregate: under the sum aggregates time_of times a whole
    placement by one walk over the flows' prefixes, and only per_flow
    enumerates, once, on its first read, which calls timing.flow_time once
    per flow.  Under max_flow there are no per-edge tables, and a solve
    walks no flow.  A solve builds one _Search, whose warm start is
    its own first dive, and prices nothing outside its leaf scorer: no
    robot_memory_bits, and one time_of per leaf it scores under every
    aggregate, the dive's included.  The bound belongs to the search:
    brute force, scatter and evaluate build no _Search and run no
    _completion pass, and every entry point reads effective_allowed once,
    through its compile."""
    calls = {
        "_completion": 0,
        "all_flows": 0,
        "flow_time": 0,
        "robot_memory_bits": 0,
        "effective_allowed": 0,
    }
    for name in calls:
        original = getattr(optimizer, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(optimizer, name, counted)
    timed, walks = [], []
    time_of, flow_totals = optimizer.CompiledInstance.time_of, optimizer.CompiledInstance._flow_totals
    monkeypatch.setattr(
        optimizer.CompiledInstance, "time_of", lambda self, p, *args: timed.append(dict(p)) or time_of(self, p, *args)
    )
    monkeypatch.setattr(
        optimizer.CompiledInstance, "_flow_totals", lambda self, p: walks.append(dict(p)) or flow_totals(self, p)
    )
    searches, leaves = [], []

    class Counted(_Search):
        def __init__(self, ctx):
            searches.append(ctx)
            super().__init__(ctx)

        def _leaf(self):
            leaves.append(dict(self.assignment))
            super()._leaf()

    monkeypatch.setattr(optimizer, "_Search", Counted)
    inst = random_instance(14, GenParams(fog_nodes=2, delay_prob=0.5), seed=3)
    result = solve_branch_bound(inst, Objective(kind))
    solved = dict(calls, time_of=len(timed), walks=len(walks), searches=len(searches), leaves=len(leaves))
    assert solved["searches"] == 1 and solved["robot_memory_bits"] == 0 and solved["leaves"] >= 1
    timings = result.per_flow
    read = dict(calls)
    assert result.per_flow is timings and calls == read  # built once
    ctx = build_context(inst, Objective(kind))
    assert len(all_flows(inst.graph)) > 5 * len(ctx.order)
    search = _Search(ctx)
    warm_start(search, ctx.allowed)
    search.run()
    sized = [value for value in vars(search).values() if isinstance(value, (list, dict))]
    assert sized and all(len(value) <= len(ctx.order) for value in sized)
    assert solved["_completion"] == solved["effective_allowed"] == 1
    assert solved["all_flows"] == 0 and read["all_flows"] == 1
    assert solved["flow_time"] == 0 and read["flow_time"] == len(timings)
    assert timed[: solved["time_of"]] == leaves  # one time_of per leaf, the dive's included
    if kind == "min_distance":
        assert search.edge_bound == {}
        assert solved["walks"] == 0
    else:
        assert sorted((u, s) for s in search.edge_bound for u in search.edge_bound[s]) == sorted(inst.graph.edges)
        assert walks[: solved["walks"]] == leaves  # and one walk per time_of

    small = random_instance(5, GenParams(fog_nodes=2, delay_prob=0.5), seed=3)  # 4**5 placements
    entries = {
        "solve_branch_bound": lambda: solve_branch_bound(small, Objective(kind)),
        "solve_bruteforce": lambda: solve_bruteforce(small, Objective(kind)),
        "scatter": lambda: scatter(small, Objective(kind)),
        "evaluate": lambda: evaluate(small, dict.fromkeys(small.algorithms, "e"), Objective(kind)),
    }
    work = {}
    for name, enter in entries.items():
        before = dict(calls, searches=len(searches))
        enter()
        after = dict(calls, searches=len(searches))
        work[name] = tuple(after[key] - before[key] for key in ("searches", "_completion", "effective_allowed"))
    assert work == {
        "solve_branch_bound": (1, 1, 1),
        "solve_bruteforce": (0, 0, 1),
        "scatter": (0, 0, 1),
        "evaluate": (0, 0, 1),
    }


def ladder(rungs, seed=0):
    """A document whose dependency graph is a ladder of rungs of two
    algorithms, each feeding both of the next rung: 2**rungs flows, over
    random_instance(2 * rungs)'s algorithms, nodes and jittered links."""
    data = instance_to_dict(random_instance(2 * rungs, GenParams(delay_prob=0.5), seed=seed))
    data["edges"] = [list(e) for e in ladder_edges(sorted(spec["id"] for spec in data["algorithms"]))]
    return data


def test_max_flow_prices_a_ladder_past_the_flow_cap():
    """A 42-algorithm ladder has 2**21 flows, past the default flow cap.
    Under max_flow the search, evaluate, baseline_overall and the
    Monte-Carlo comparison price it per dependency edge and enumerate no
    flow; only reading per_flow does, and meets the cap."""
    inst = instance_from_dict(ladder(21))
    assert inst.options.time_aggregate == "max_flow"
    assert count_flows(inst.graph) == 2**21 > flow_cap()
    result = solve_branch_bound(inst)
    assert evaluate(inst, result.placement) == result.cost
    base = solve_baseline(inst)
    assert baseline_overall(inst, base.placement) >= base.cost.time_seconds
    stats = monte_carlo_compare(inst, trials=3, seed=1)
    assert (stats.ours_placement, stats.baseline_placement) == (result.placement, base.placement)
    with pytest.raises(CapExceededError, match="flow explosion"):
        result.per_flow


def test_sum_aggregates_meet_the_flow_cap_before_walking(monkeypatch):
    """With the flow cap below a 4-rung ladder's 16 flows, every time the
    sum aggregates read raises the CapExceededError all_flows raises: a
    solve, evaluate and times_of, under total_flows and mean_flows.  Under
    max_flow a solve and evaluate of a 2**21-flow ladder, past the default
    cap, enumerate no flow."""
    small = instance_from_dict(ladder(4, seed=5))
    monkeypatch.setenv("ALLOCFLOW_FLOW_CAP", "15")
    with pytest.raises(CapExceededError) as enumerated:
        all_flows(small.graph)
    expected = (enumerated.value.kind, enumerated.value.count, enumerated.value.cap)
    assert expected == ("flow explosion", 16, 15)
    placement = dict.fromkeys(small.algorithms, "e")
    for aggregate in ("total_flows", "mean_flows"):
        small.options.time_aggregate = aggregate
        over = compile_instance(small).priced_over([{}])
        for price in (
            lambda: solve_branch_bound(small),
            lambda: evaluate(small, placement),
            lambda: over.times_of(placement, aggregate, 1),
        ):
            with pytest.raises(CapExceededError) as raised:
                price()
            assert (raised.value.kind, raised.value.count, raised.value.cap) == expected
    monkeypatch.delenv("ALLOCFLOW_FLOW_CAP")

    calls = []
    monkeypatch.setattr(optimizer, "all_flows", lambda *args: calls.append(args))
    monkeypatch.setattr(lattice, "all_flows", lambda *args: calls.append(args))
    big = instance_from_dict(ladder(21))
    result = solve_branch_bound(big)
    assert evaluate(big, result.placement) == result.cost
    assert calls == []


@pytest.mark.parametrize("kind", ["min_distance", "min_time_max", "min_memory"])
def test_max_flow_ladder_past_a_lowered_cap_matches_bruteforce(kind, monkeypatch):
    """A 4-rung ladder (16 flows) with the flow cap at 15: under max_flow
    both solvers price it without enumerating a flow and agree on the
    placement and cost.  per_flow enumerates on first read, so with the cap
    lifted it reads the same timings from both."""
    inst = instance_from_dict(ladder(4, seed=5))
    monkeypatch.setenv("ALLOCFLOW_FLOW_CAP", "15")
    for include_return_hop in (True, False):
        got = solve_branch_bound(inst, Objective(kind), include_return_hop)
        expect = solve_bruteforce(inst, Objective(kind), include_return_hop)
        assert (got.placement, got.cost) == (expect.placement, expect.cost)
    monkeypatch.delenv("ALLOCFLOW_FLOW_CAP")
    assert len(got.per_flow) == 16 and got.per_flow == expect.per_flow


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    """A 1,200-algorithm chain: the first leaf lies at depth 1,200, deeper
    than Python's default recursion limit."""
    inst = random_instance(1200, GenParams(layers=1200, edge_prob=0.0), seed=1)
    ctx = build_context(inst)
    worst = {aid: nodes[-1] for aid, nodes in ctx.allowed.items()}
    placement, explored = _search_from(ctx, worst).run()
    assert explored >= 1200
    assert placement == solve_branch_bound(inst).placement


def test_enumeration_cap():
    """3**15 placements exceed the enumeration cap, 10**7; brute force
    counts them before it enumerates any."""
    inst = random_instance(15, GenParams(), seed=0)
    with pytest.raises(CapExceededError) as exc:
        solve_bruteforce(inst)
    assert exc.value.count == 3**15
    assert exc.value.cap == 10**7


def test_empty_instance_solves_to_nothing():
    """With no algorithm, branch and bound and evaluate take the general
    path: the empty placement, 0 nodes explored, a zero CostPoint and no
    flow, under every objective and aggregate, with and without the return
    hop, whether the instance has nodes, only an edge node or nothing.
    Brute force answers the same, and scatter lists no placement.  The
    Monte-Carlo path times the empty placement at 0.0 under one delay
    realization or many, and compares all-zero costs and empty placements,
    with fixed placements and with a search per trial."""
    instances = [
        random_instance(0, GenParams(), seed=0),
        instance_from_dict({}),
        instance_from_dict({"nodes": [{"id": "e", "tier": "edge"}]}),
    ]
    for inst, kind, aggregate, include_return_hop in itertools.product(
        instances, OBJECTIVES, TIME_AGGREGATES, (True, False)
    ):
        inst.options.time_aggregate = aggregate
        objective = Objective(kind)
        for solver in (solve_branch_bound, solve_bruteforce):
            result = solver(inst, objective, include_return_hop, {})
            assert (result.placement, result.cost, result.explored_nodes) == ({}, CostPoint(0.0, 0.0, 0.0), 0)
            assert result.per_flow == []
        assert evaluate(inst, {}, objective, {}, include_return_hop) == CostPoint(0.0, 0.0, 0.0)
        assert scatter(inst, objective) == []
    zero = MethodStats(0.0, 0.0, 0.0, 0.0)
    for inst, aggregate in itertools.product(instances, TIME_AGGREGATES):
        inst.options.time_aggregate = aggregate
        compiled = compile_instance(inst)
        assert compiled.priced().time_of({}, aggregate) == 0.0
        assert compiled.priced_over([{}, {}]).times_of({}, aggregate, 2) == [0.0, 0.0]
        for resolve_per_trial in (False, True):
            stats = monte_carlo_compare(inst, trials=3, resolve_per_trial=resolve_per_trial)
            assert (stats.ours, stats.baseline, stats.win_rate) == (zero, zero, 1.0)
            assert (stats.ours_placement, stats.baseline_placement) == ({}, {})


def test_each_sum_aggregate_walk_reads_the_flow_cap(monkeypatch):
    """Brute force under min_time_total walks the flows of each of 4**6
    placements, and reads the flow cap once before each walk; under
    max_flow it walks none and reads no cap."""
    reads = []
    read = lattice.flow_cap
    monkeypatch.setattr(lattice, "flow_cap", lambda: reads.append(1) or read())
    inst = random_instance(6, GenParams(fog_nodes=2), seed=3)
    assert solve_bruteforce(inst, Objective("min_time_total")).explored_nodes == 4**6
    assert len(reads) == 4**6
    solve_bruteforce(inst, Objective("min_time_max"))
    assert len(reads) == 4**6


def test_a_result_does_not_keep_its_solve_context_alive(monkeypatch):
    """A result keeps its instance and delays for per_flow, not its search's
    SolveContext: once collected, the context is gone while the result
    lives, and per_flow still reads the same timings."""
    contexts, make = [], optimizer._context

    def spied(*args):
        ctx = make(*args)
        contexts.append(weakref.ref(ctx))
        return ctx

    monkeypatch.setattr(optimizer, "_context", spied)
    inst = random_instance(8, GenParams(fog_nodes=2, delay_prob=0.5), seed=1)
    delays = {pair: 0.25 for pair in sorted(inst.comm.links)}
    result = solve_branch_bound(inst, Objective("min_time_total"), False, delays)
    gc.collect()
    assert len(contexts) == 1 and contexts[0]() is None
    assert result.per_flow == [flow_time(inst, f, result.placement, delays, False) for f in all_flows(inst.graph)]


# ---------------------------------------------------------------------------
# Scatter / front


def test_scatter_single_sort(single_sort):
    points = scatter(single_sort)
    assert [(p.index, p.placement, p.cost.time_seconds, p.on_front) for p in points] == [
        (0, ("c",), 7.0, False),
        (1, ("f",), FOG_TIME, False),
        (2, ("e",), 5.0, True),
    ]


def test_dataset_front_has_two_equal_cost_points(dataset_d2):
    front = pareto_front(dataset_d2)
    assert [p.placement for p in front] == [("e", "f", "f", "f"), ("f", "f", "f", "f")]
    for p in front:
        assert (p.cost.memory_bytes, p.cost.time_seconds) == (524288000.0, 8.0)


def test_front_flags_match_dominance_oracle(dataset_d2):
    points = scatter(dataset_d2)
    assert len(points) == 81
    pairs = [(p.cost.memory_bytes, p.cost.time_seconds) for p in points]
    for p, (m, t) in zip(points, pairs):
        dominated = any(
            m2 <= m and t2 <= t and (m2 < m or t2 < t) for m2, t2 in pairs
        )
        assert p.on_front == (not dominated)


def test_optimum_lies_on_front(dataset_d2):
    best = solve_branch_bound(dataset_d2)
    front_pairs = {
        (p.cost.memory_bytes, p.cost.time_seconds) for p in pareto_front(dataset_d2)
    }
    assert (best.cost.memory_bytes, best.cost.time_seconds) in front_pairs


def test_scatter_indices_follow_enumeration_order(dataset_d2):
    points = scatter(dataset_d2)
    assert [p.index for p in points] == list(range(81))
    # index 0 is the lex-smallest placement: everything on the cloud node
    assert points[0].placement == ("c", "c", "c", "c")
    by_placement = {p.placement: p.cost for p in points}
    placement = {aid: "f" for aid in dataset_d2.algorithms}
    assert by_placement[("f", "f", "f", "f")] == evaluate(dataset_d2, placement)


def test_scatter_subsample_is_deterministic(dataset_d2):
    with pytest.warns(UserWarning, match="stratified"):
        first = scatter(dataset_d2, max_points=10)
    with pytest.warns(UserWarning, match="stratified"):
        second = scatter(dataset_d2, max_points=10)
    assert len(first) == 10
    assert [(p.index, p.placement, p.cost) for p in first] == [
        (p.index, p.placement, p.cost) for p in second
    ]
    assert [p.index for p in first] == sorted(p.index for p in first)


def test_scatter_empty_instance():
    assert scatter(random_instance(0, GenParams(), seed=0)) == []
