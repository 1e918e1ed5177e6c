"""Delay sampling, Monte-Carlo comparison, instance generation, scaling fits."""

import hashlib
import json
import math
import random
import statistics
import struct
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allocflow.baseline import baseline_overall, solve_baseline
from allocflow.lattice import all_flows, layer
from allocflow.model import (
    TIME_AGGREGATES,
    CommLink,
    CommModel,
    DelaySpec,
    Tier,
    effective_allowed,
    serialize_problem,
    validate,
)
from allocflow.optimizer import Objective, compile_instance, evaluate, solve_branch_bound
from allocflow.simulate import (
    GenParams,
    ScalingResult,
    _mean,
    _method_stats,
    _scaled,
    _stdev,
    loglog_fit,
    monte_carlo_compare,
    random_instance,
    scaling_benchmark,
    trial_rng,
)

GOLDEN = Path(__file__).parent / "data" / "random_n12_seed7.json"


# ---------------------------------------------------------------------------
# Folded-normal sampling


def test_standard_folded_mean_converges():
    rng = random.Random(0)
    spec = DelaySpec(0.0, 1.0)
    n = 10**6
    mean = sum(spec.sample(rng) for _ in range(n)) / n
    assert abs(mean - math.sqrt(2 / math.pi)) < 0.003


def test_measured_link_sample_mean_matches_closed_form():
    rng = random.Random(11)
    spec = DelaySpec(0.188, 0.087)
    n = 10**5
    mean = sum(spec.sample(rng) for _ in range(n)) / n
    assert abs(mean - spec.mean()) < 0.002


def test_degenerate_sigma_is_exact():
    rng = random.Random(1)
    spec = DelaySpec(-0.4, 0.0)
    assert all(spec.sample(rng) == 0.4 for _ in range(10))
    assert spec.mean() == 0.4


def test_samples_are_nonnegative():
    rng = random.Random(2)
    spec = DelaySpec(-0.1, 0.3)
    assert all(spec.sample(rng) >= 0.0 for _ in range(1000))


def test_trial_streams_are_stable_and_independent():
    a = [trial_rng(5, 3).random() for _ in range(3)]
    b = [trial_rng(5, 3).random() for _ in range(3)]
    assert a == b
    first = {t: trial_rng(5, t).random() for t in range(6)}
    assert len(set(first.values())) == 6
    assert trial_rng(5, 3).random() != trial_rng(6, 3).random()


# ---------------------------------------------------------------------------
# Monte-Carlo comparison


def jitter_instance():
    from allocflow import fixtures
    from allocflow.model import instance_from_dict

    return instance_from_dict(fixtures.dataset_pipeline(2.0, jitter_sigma=1.0))


def test_monte_carlo_requires_a_trial(dataset_d2):
    with pytest.raises(ValueError, match="trials"):
        monte_carlo_compare(dataset_d2, trials=0)


def test_monte_carlo_is_seed_deterministic():
    inst = jitter_instance()
    first = monte_carlo_compare(inst, trials=8, seed=3)
    second = monte_carlo_compare(inst, trials=8, seed=3)
    assert first.to_dict() == second.to_dict()
    other_seed = monte_carlo_compare(inst, trials=8, seed=4)
    assert other_seed.ours.mean_distance != first.ours.mean_distance


def test_monte_carlo_thread_count_is_invisible():
    inst = jitter_instance()
    serial = monte_carlo_compare(inst, trials=8, seed=3, threads=1)
    pooled = monte_carlo_compare(inst, trials=8, seed=3, threads=4)
    assert serial.to_dict() == pooled.to_dict()


def test_single_quiet_trial_equals_deterministic_cost(dataset_d2):
    stats = monte_carlo_compare(dataset_d2, trials=1, seed=0)
    ours = solve_branch_bound(dataset_d2, Objective("min_distance"))
    assert stats.ours_placement == ours.placement
    assert stats.ours.mean_distance == ours.cost.distance
    assert stats.ours.std_distance == 0.0
    base_cost = evaluate(dataset_d2, stats.baseline_placement)
    assert stats.baseline.mean_distance == base_cost.distance
    assert stats.win_rate == 1.0  # the distance optimum can never lose


def test_monte_carlo_shape_and_bounds():
    inst = jitter_instance()
    stats = monte_carlo_compare(inst, trials=5, seed=9)
    assert stats.trials == 5 and stats.seed == 9
    assert 0.0 <= stats.win_rate <= 1.0
    assert set(stats.ours_placement) == set(inst.algorithms)
    assert set(stats.baseline_placement) == set(inst.algorithms)
    payload = stats.to_dict()
    assert payload["ours"]["placement"] == stats.ours_placement
    assert payload["baseline"]["mean_time"] == stats.baseline.mean_time


def test_monte_carlo_resolve_per_trial():
    inst = jitter_instance()
    first = monte_carlo_compare(inst, trials=4, seed=1, resolve_per_trial=True)
    second = monte_carlo_compare(inst, trials=4, seed=1, resolve_per_trial=True)
    assert first.to_dict() == second.to_dict()
    # re-solving inside a trial can only improve on the frozen placement
    frozen = monte_carlo_compare(inst, trials=4, seed=1)
    assert first.ours.mean_distance <= frozen.ours.mean_distance + 1e-12


def reference_comparison(inst, trials, seed, resolve_per_trial):
    """The comparison as plain per-trial re-evaluation: every trial draws its
    delays from trial_rng and evaluates both placements in full."""
    objective = Objective("min_distance")
    ours = solve_branch_bound(inst, objective).placement
    base = solve_baseline(inst).placement
    links = sorted(pair for pair, link in inst.comm.links.items() if link.delay is not None)
    costs = {"ours": [], "baseline": []}
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        delays = {pair: inst.comm.links[pair].delay.sample(rng) for pair in links}
        placements = {"ours": ours, "baseline": base}
        if resolve_per_trial:
            placements = {
                "ours": solve_branch_bound(inst, objective, delays=delays).placement,
                "baseline": solve_baseline(inst, delays=delays).placement,
            }
        for name, placement in placements.items():
            costs[name].append(evaluate(inst, placement, objective, delays=delays))

    def stats(cs):
        distances = [c.distance for c in cs]
        return {
            "mean_distance": statistics.mean(distances),
            "std_distance": statistics.stdev(distances) if len(distances) > 1 else 0.0,
            "mean_time": statistics.mean(c.time_seconds for c in cs),
            "mean_memory": statistics.mean(c.memory_bytes for c in cs),
        }

    wins = sum(o.distance <= b.distance for o, b in zip(costs["ours"], costs["baseline"]))
    return {
        "trials": trials,
        "seed": seed,
        "win_rate": wins / trials,
        "ours": dict(stats(costs["ours"]), placement=ours),
        "baseline": dict(stats(costs["baseline"]), placement=base),
    }


@pytest.mark.parametrize(
    "fog, cloud, aggregate, seed, tier_ordering",
    [
        (1, 1, "max_flow", 3, True),
        (2, 1, "total_flows", 8, True),
        (0, 2, "mean_flows", 5, True),
        (3, 2, "max_flow", 11, True),
        (1, 1, "max_flow", 3, False),
    ],
)
def test_monte_carlo_matches_per_trial_evaluate(fog, cloud, aggregate, seed, tier_ordering):
    """Without tier ordering (the last case) ours' and the baseline's
    placements hold different robot memory, so each column must report its own."""
    params = GenParams(fog_nodes=fog, cloud_nodes=cloud, delay_prob=0.7, tier_ordering=tier_ordering)
    inst = random_instance(9, params, seed=seed)
    inst.options.time_aggregate = aggregate
    assert any(link.delay is not None for link in inst.comm.links.values())
    stats = monte_carlo_compare(inst, trials=15, seed=seed)
    assert stats.to_dict() == reference_comparison(inst, 15, seed, resolve_per_trial=False)
    if not tier_ordering:
        assert stats.ours.mean_memory != stats.baseline.mean_memory


def test_monte_carlo_resolve_per_trial_matches_reference():
    inst = random_instance(6, GenParams(fog_nodes=2, delay_prob=0.8, sigma_range=(0.5, 1.5)), seed=2)
    stats = monte_carlo_compare(inst, trials=6, seed=4, resolve_per_trial=True)
    assert stats.to_dict() == reference_comparison(inst, 6, 4, resolve_per_trial=True)


@pytest.mark.parametrize("resolve_per_trial", [False, True])
@pytest.mark.parametrize(
    "n, delay_prob", [(0, 0.8), (7, 0.0)], ids=["empty instance", "no delayed link"]
)
def test_monte_carlo_edge_cases_match_reference(n, delay_prob, resolve_per_trial):
    inst = random_instance(n, GenParams(fog_nodes=2, delay_prob=delay_prob), seed=4)
    delayed = any(link.delay is not None for link in inst.comm.links.values())
    assert (len(inst.algorithms), delayed) == (n, delay_prob > 0)
    stats = monte_carlo_compare(inst, trials=5, seed=6, resolve_per_trial=resolve_per_trial)
    assert stats.to_dict() == reference_comparison(inst, 5, 6, resolve_per_trial)


@pytest.mark.parametrize("resolve_per_trial", [False, True])
def test_monte_carlo_compiles_once(resolve_per_trial, monkeypatch):
    """One compile_instance per comparison: both searches and every trial
    price over the same compiled instance, and none enumerates a flow.
    Under max_flow nothing reads a flow; the sum aggregates time each
    placement by one walk over the flows' prefixes."""
    from allocflow import optimizer

    calls = []
    original = optimizer.all_flows

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(optimizer, "all_flows", counted)
    inst = jitter_instance()
    for aggregate in ("max_flow", "total_flows", "mean_flows"):
        inst.options.time_aggregate = aggregate
        calls.clear()
        monte_carlo_compare(inst, trials=5, seed=2, resolve_per_trial=resolve_per_trial)
        assert len(calls) == 0, aggregate


def test_huge_spread_gives_finite_statistics():
    """Trial distances spread by about 1e200: the comparison reports finite
    statistics on every Python, since it takes the correctly rounded root
    of the exact variance (Python 3.10's statistics.stdev overflowed
    converting the variance to a float).  It takes no fixture, so a script
    can call it where pytest is missing."""
    from allocflow import fixtures
    from allocflow.model import instance_from_dict

    data = fixtures.dataset_jitter()
    for link in data["comm"]:
        link["delay"] = {"mu": 0.0, "sigma": 1e200}
    for spec in data["algorithms"]:
        if spec["id"] == "stage_a":
            spec["allowed_locations"] = ["f"]
    inst = instance_from_dict(data)
    payload = monte_carlo_compare(inst, trials=5, seed=0).to_dict()
    numbers = [v for method in ("ours", "baseline") for k, v in payload[method].items() if k != "placement"]
    assert all(math.isfinite(v) for v in numbers)


def is_rounded_root(root: float, square: Fraction) -> bool:
    """root is square's square root rounded to the nearest float, ties to
    even: square lies between the squares of the midpoints from root to its
    neighbours, on the even side of a tie."""
    here = Fraction(root)
    low = (Fraction(math.nextafter(root, -math.inf)) + here) / 2
    high = (here + Fraction(math.nextafter(root, math.inf))) / 2
    even = struct.unpack("<Q", struct.pack("<d", root))[0] % 2 == 0
    above_low = low <= 0 or low * low < square or (low * low == square and even)
    below_high = square < high * high or (square == high * high and even)
    return root >= 0 and above_low and below_high


def summary_matches_statistics(xs):
    """_mean over one scaling of xs gives statistics.mean bit for bit, and
    _stdev the correctly rounded root of the exact sample variance, which is
    statistics.stdev's from Python 3.11 on.  Plain, so a script can run it
    where pytest and hypothesis are missing."""
    a, p = _scaled(xs)
    assert struct.pack("<d", _mean(a, p)) == struct.pack("<d", statistics.mean(xs))
    if len(xs) < 2:
        return
    root = _stdev(a, p)
    exact = [Fraction(x) for x in xs]
    mean = sum(exact) / len(xs)
    assert is_rounded_root(root, sum((x - mean) ** 2 for x in exact) / (len(xs) - 1))
    if sys.version_info >= (3, 11):
        assert struct.pack("<d", root) == struct.pack("<d", statistics.stdev(xs))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SUBNORMAL = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.sampled_from((1, 2, 100)).flatmap(lambda n: st.lists(FINITE, min_size=n, max_size=n)),
        st.lists(FINITE | SUBNORMAL, min_size=1, max_size=100),
        st.builds(lambda x, n: [x] * n, FINITE | SUBNORMAL, st.sampled_from((1, 2, 100))),
        st.lists(st.floats(0.0, 1e3), min_size=100, max_size=100),
    )
)
@example([5e-324, 1e-320, 2.2250738585072014e-308])
@example([1e-300, 1e300])
@example([0.0] + [1.7976931348623157e308] * 99)
def test_exact_summary_equals_statistics(xs):
    """Floats over every binade, subnormals, equal values and n = 1, 2, 100."""
    summary_matches_statistics(xs)


def test_distances_whose_variance_exceeds_a_float_have_a_finite_stdev():
    """Distances 0 and 1e300: their variance, about 5e599, is past the float
    range (Python 3.10's statistics.stdev overflows on it), but its root is
    not.  _method_stats gives the correctly rounded root on every version."""
    inst = random_instance(1, seed=1)
    stats, distances = _method_stats(inst, Objective("min_distance"), [0, 0], [0.0, 1e300])
    assert distances == [0.0, 1e300]
    assert is_rounded_root(stats.std_distance, Fraction(1e300) ** 2 / 2)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 12),
    aggregate=st.sampled_from(TIME_AGGREGATES),
    include_return_hop=st.booleans(),
    delay_prob=st.sampled_from((0.0, 0.7)),
    trials=st.integers(1, 6),
)
def test_batched_trials_equal_one_pass_per_realization(seed, n, aggregate, include_return_hop, delay_prob, trials):
    """times_of prices a placement under every realization at once; entry i
    equals time_of under realization i alone, by repr.  Exec times spanning
    1e-9 to 1e3 make a regrouped sum show.  Realizations are empty, partial
    or full over the delayed links, and some instances have none."""
    params = GenParams(fog_nodes=2, exec_range=(1e-9, 1e3), delay_prob=delay_prob, tier_ordering=False)
    inst = random_instance(n, params, seed=seed)
    rng = random.Random(seed)
    delayed = sorted(pair for pair, link in inst.comm.links.items() if link.delay is not None)
    realizations = []
    for _ in range(trials):
        share = rng.choice((0.0, 0.5, 1.0))
        realizations.append({pair: rng.uniform(0.0, 2.0) for pair in delayed if rng.random() < share})
    allowed = effective_allowed(inst)
    compiled = compile_instance(inst)
    over = compiled.priced_over(realizations, include_return_hop)
    for _ in range(2):  # the second placement reads the hop lists the first resolved
        placement = {aid: rng.choice(nodes) for aid, nodes in allowed.items()}
        want = [compiled.priced(d, include_return_hop).time_of(placement, aggregate) for d in realizations]
        assert repr(over.times_of(placement, aggregate, trials)) == repr(want)
    # every hop within one node, which times_of's max_flow pass skips: the
    # common case of a placement that keeps most of its dependency edges on
    # one node
    for node in sorted(inst.nodes):
        placement = dict.fromkeys(inst.algorithms, node)
        for return_hop in (True, False):
            over = compiled.priced_over(realizations, return_hop)
            want = [compiled.priced(d, return_hop).time_of(placement, aggregate) for d in realizations]
            assert repr(over.times_of(placement, aggregate, trials)) == repr(want)


def test_column_pricing_equals_resolve_per_realization():
    """priced_over prices each hop's route once over per-link delay columns;
    every hop list equals resolve under each realization, by repr.  The
    routes run over two links (cloud to cloud through the edge, with no fog)
    and up to three (a chain), some links charge per byte, so payloads key
    apart, and realizations may lack a delayed link, which keeps its mean."""
    rng = random.Random(5)
    chain = CommModel(links={
        (u, v): CommLink(rng.uniform(0.5, 2.0), delay=DelaySpec(0.3, 0.4) if rng.random() < 0.7 else None,
                         per_byte_seconds=rng.choice((0.0, 1e-6)))
        for a, b in (("a", "b"), ("b", "c"), ("c", "d"))
        for u, v in ((a, b), (b, a))
    })
    inst = random_instance(9, GenParams(fog_nodes=0, cloud_nodes=2, delay_prob=0.8), seed=4)
    pair = ("c1", "e")
    inst.comm = CommModel({**inst.comm.links, pair: replace(inst.comm.links[pair], per_byte_seconds=1e-7)})
    for comm in (chain, inst.comm):
        delayed = sorted(hop for hop, link in comm.links.items() if link.delay is not None)
        assert comm.payload_key(8) == 8 and len(delayed) >= 2
        realizations = [{hop: rng.uniform(0.0, 2.0) for hop in part} for part in (delayed, delayed[::2], [], delayed)]
        columns = comm.delay_columns(realizations)
        nodes = sorted({u for hop in comm.links for u in hop})
        for src in nodes:
            for dst in nodes:
                for bits in (0, 8, 12_345):
                    want = [comm.resolve(src, dst, bits, d) for d in realizations]
                    assert repr(comm.resolve_over(src, dst, bits, columns, 4)) == repr(want)
        assert max(comm._route(u, v, 0, 0, lambda links, *_: links + 1) for u in nodes for v in nodes) >= 2
    over = compile_instance(inst).priced_over(realizations)
    for aid, rows in over.out_rows.items():
        for src in sorted(inst.nodes):
            for dst in sorted(inst.nodes):
                bits = over.output_bits[aid]
                want = [inst.comm.resolve(src, dst, bits, d) for d in realizations]
                assert repr(rows[src][dst]) == repr(want)
                if src == over.edge_id:
                    want = [inst.comm.resolve(src, dst, over.input_bits[aid], d) for d in realizations]
                    assert repr(over.in_rows[aid][dst]) == repr(want)


def test_each_trial_draws_its_own_stream(monkeypatch):
    """The trials reseed one generator, which must draw trial_rng(seed, t)'s
    stream in trial t.  Three delayed links take three gauss draws, an odd
    number, so each trial leaves the second value of a pair in gauss_next;
    a reseed that kept it would shift every later trial's draws."""
    from allocflow import optimizer

    seen = []
    priced_over = optimizer.CompiledInstance.priced_over
    monkeypatch.setattr(
        optimizer.CompiledInstance, "priced_over", lambda self, rs, *args: seen.append(rs) or priced_over(self, rs, *args)
    )
    inst = random_instance(6, GenParams(delay_prob=0.8), seed=8)
    delayed = sorted(pair for pair, link in inst.comm.links.items() if link.delay is not None)
    assert len(delayed) == 3
    monte_carlo_compare(inst, trials=4, seed=7)
    want = []
    for trial in range(4):
        rng = trial_rng(7, trial)
        want.append({pair: inst.comm.links[pair].delay.sample(rng) for pair in delayed})
    assert repr(seen) == repr([want])


@pytest.mark.parametrize("resolve_per_trial", [False, True])
@pytest.mark.parametrize("seed, same", [(1, True), (8, False)], ids=["one placement", "two placements"])
def test_a_shared_placement_is_priced_once(seed, same, resolve_per_trial, monkeypatch):
    """When ours equals the baseline's placement (seed 1), the comparison
    times it once and summarizes it once; the report still equals the
    per-trial reference, and each method keeps its own MethodStats.  Each
    method's robot memory is the memory its search scored, which delays
    never change, so no path calls robot_memory_bits; the reference's
    evaluate and the pins still check every reported memory.  With
    resolve_per_trial ours costs what its search scored it at, so a trial
    times only a baseline placement that differs from ours: one time_of.
    Every search times each leaf it scores by one time_of, and each search
    here scores one leaf, its dive's: 2, 26, 2 and 38 time_of calls in all."""
    from allocflow import optimizer, simulate

    # memory is priced only through optimizer's binding, counted below
    assert "robot_memory_bits" not in vars(simulate)
    calls = dict.fromkeys(["times_of", "_method_stats", "robot_memory_bits", "time_of"], 0)
    for owner, name in (
        (optimizer.CompiledInstance, "times_of"),
        (simulate, "_method_stats"),
        (optimizer, "robot_memory_bits"),
        (optimizer.CompiledInstance, "time_of"),
    ):
        def counted(*args, _original=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    found = []  # each search's answer: the fixed pair, then one pair per trial
    search = simulate._search
    monkeypatch.setattr(simulate, "_search", lambda ctx: found.append(search(ctx)) or found[-1])
    leaves = []
    leaf = optimizer._Search._leaf
    monkeypatch.setattr(optimizer._Search, "_leaf", lambda self: leaves.append(1) or leaf(self))
    inst = random_instance(6, GenParams(delay_prob=0.8), seed=seed)
    assert inst.options.time_aggregate == "max_flow"
    stats = monte_carlo_compare(inst, trials=12, seed=3, resolve_per_trial=resolve_per_trial)
    compared, scored = dict(calls), len(leaves)
    assert (stats.ours_placement == stats.baseline_placement) is same
    assert stats.to_dict() == reference_comparison(inst, 12, 3, resolve_per_trial)
    assert stats.baseline is not stats.ours
    if resolve_per_trial:
        assert len(found) == 2 + 2 * 12
        differ = sum(ours[0] != base[0] for ours, base in zip(found[2::2], found[3::2]))
        priced = {"times_of": 0, "robot_memory_bits": 0, "time_of": scored + differ}
    else:
        priced = {"times_of": 2 - same, "robot_memory_bits": 0, "time_of": scored}
    assert scored == len(found)
    assert compared == dict(priced, _method_stats=2 - same)


def test_monte_carlo_answers_are_pinned():
    """Golden comparisons and baseline overall times.  The per-trial reference
    above prices through evaluate, the same evaluator as monte_carlo_compare,
    so only pinned digits catch a change to how that evaluator sums time."""
    digest = hashlib.sha256()
    for n in (6, 8, 10, 12):
        for seed in (1, 2, 3):
            inst = random_instance(n, GenParams(delay_prob=0.8), seed=seed)
            stats = monte_carlo_compare(inst, trials=30, seed=seed)
            digest.update(json.dumps(stats.to_dict(), sort_keys=True).encode())
            rng = trial_rng(seed, 0)
            delays = {pair: rng.uniform(0.0, 1.0) for pair in sorted(inst.comm.links) if rng.random() < 0.5}
            for d in (None, delays):
                digest.update(repr(baseline_overall(inst, stats.baseline_placement, d)).encode())
    assert digest.hexdigest() == "1bb01bbafd610c68a8fcdd1f4b48ed6e0107ab9ed795d7d03cbf3e1c1a3aa1b1"


def test_sum_aggregate_monte_carlo_answers_are_pinned():
    """The golden comparisons above are all max_flow, which random_instance
    draws by default; these pin total_flows and mean_flows, whose trials are
    timed by the walk over the flows' prefixes, with fixed placements and
    with a search per trial.  Without tier_ordering the placements spread
    over the edge, fog and cloud nodes, so hops between algorithms count;
    with it, every placement here keeps all algorithms on the cloud."""
    digest = hashlib.sha256()
    for aggregate in ("total_flows", "mean_flows"):
        for n in (6, 8, 10):
            for seed in (1, 2, 3):
                inst = random_instance(n, GenParams(delay_prob=0.8, tier_ordering=False), seed=seed)
                inst = replace(inst, options=replace(inst.options, time_aggregate=aggregate))
                for resolve_per_trial in (False, True):
                    stats = monte_carlo_compare(inst, trials=4, seed=seed, resolve_per_trial=resolve_per_trial)
                    digest.update(json.dumps(stats.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == "af67c4d1ef686414936df67a3f2dcbb1e841b73418aaf3d0f3cf3d4d9767a170"


# ---------------------------------------------------------------------------
# Random instances


def test_negative_size_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        random_instance(-1)


@pytest.mark.parametrize("counts", [{"fog_nodes": -1}, {"cloud_nodes": -1}])
def test_negative_node_count_rejected(counts):
    with pytest.raises(ValueError, match="fog_nodes and cloud_nodes must be >= 0"):
        random_instance(3, GenParams(**counts))


def test_empty_instance_is_valid():
    inst = random_instance(0, GenParams(), seed=1)
    assert not inst.algorithms
    assert validate(inst).ok


def test_single_algorithm_reads_external_input():
    inst = random_instance(1, GenParams(), seed=5)
    (spec,) = inst.algorithms.values()
    assert inst.graph.edges == ()
    assert spec.memory.inputs == frozenset({f"x_{spec.id}"})
    assert spec.memory.outputs == frozenset({f"r_{spec.id}"})


def test_generated_instances_validate_clean():
    for n in (1, 3, 6, 10, 17):
        for seed in (0, 1, 2):
            report = validate(random_instance(n, GenParams(), seed=seed))
            assert report.ok, (n, seed, report.lines())


def test_generation_is_deterministic():
    a = serialize_problem(random_instance(9, GenParams(), seed=13))
    b = serialize_problem(random_instance(9, GenParams(), seed=13))
    assert a == b
    c = serialize_problem(random_instance(9, GenParams(), seed=14))
    assert a != c


def test_tier_ordering_default():
    inst = random_instance(12, GenParams(), seed=4)
    for spec in inst.algorithms.values():
        assert spec.exec_time[Tier.CLOUD] <= spec.exec_time[Tier.FOG]
        assert spec.exec_time[Tier.FOG] <= spec.exec_time[Tier.EDGE]


def test_tier_ordering_can_be_disabled():
    inst = random_instance(20, GenParams(tier_ordering=False), seed=0)
    inverted = [
        spec.id
        for spec in inst.algorithms.values()
        if spec.exec_time[Tier.CLOUD] > spec.exec_time[Tier.EDGE]
    ]
    assert inverted  # seed 0 shuffles several algorithms out of order


def test_layer_structure_has_previous_layer_predecessor():
    for seed in range(5):
        inst = random_instance(14, GenParams(), seed=seed)
        layers = layer(inst.graph)
        index = {aid: k for k, bucket in enumerate(layers) for aid in bucket}
        for bucket in layers[1:]:
            for aid in bucket:
                preds = [u for u, v in inst.graph.edges if v == aid]
                assert preds
                assert any(index[p] == index[aid] - 1 for p in preds)


def test_unbounded_growth_generation():
    inst = random_instance(6, GenParams(unbounded_prob=1.0), seed=8)
    assert all(s.memory.growth_per_step[1] > 0 for s in inst.algorithms.values())
    assert validate(inst).ok


def test_delay_generation_ranges():
    inst = random_instance(4, GenParams(delay_prob=1.0), seed=2)
    for link in inst.comm.links.values():
        assert link.delay is not None
        assert 0.0 <= link.delay.mu <= 0.5
        assert 0.0 <= link.delay.sigma <= 0.5
    quiet = random_instance(4, GenParams(delay_prob=0.0), seed=2)
    assert all(l.delay is None for l in quiet.comm.links.values())


def test_topology_without_fog_links_edge_to_cloud():
    inst = random_instance(3, GenParams(fog_nodes=0, cloud_nodes=1), seed=6)
    assert set(inst.comm.links) == {("e", "c1"), ("c1", "e")}
    assert validate(inst).ok


def test_wider_topologies_stay_star_shaped():
    inst = random_instance(3, GenParams(fog_nodes=2, cloud_nodes=2), seed=6)
    assert sorted(inst.nodes) == ["c1", "c2", "e", "f1", "f2"]
    expected = set()
    for f in ("f1", "f2"):
        expected |= {("e", f), (f, "e")}
        for c in ("c1", "c2"):
            expected |= {(f, c), (c, f)}
    assert set(inst.comm.links) == expected  # no direct edge<->cloud shortcut


def test_golden_instance_bytes():
    inst = random_instance(12, GenParams(), seed=7)
    text = serialize_problem(inst)
    assert text == GOLDEN.read_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "4329f56334e8cf62c835479e0b63925e6992858c2ca67a267ff790e4951494f7"


def test_golden_instance_structure():
    inst = random_instance(12, GenParams(), seed=7)
    assert sorted(inst.nodes) == ["c1", "e", "f1"]
    assert len(inst.graph.edges) == 31
    assert layer(inst.graph) == [
        ["a01", "a12"],
        ["a02", "a09"],
        ["a03", "a08"],
        ["a04", "a10"],
        ["a05"],
        ["a06", "a11"],
        ["a07"],
    ]
    assert len(all_flows(inst.graph)) == 41
    a01 = inst.algorithms["a01"]
    assert a01.exec_time[Tier.CLOUD] == 2.824821325205652
    assert a01.exec_time[Tier.FOG] == 3.3195808171299688
    assert a01.exec_time[Tier.EDGE] == 3.3774795084200737


# ---------------------------------------------------------------------------
# Log-log fit and benchmark


def test_loglog_fit_recovers_power_law():
    points = [(n, 3.5 * n**2.25) for n in (2, 4, 8, 16, 32)]
    slope, intercept, r2 = loglog_fit(points)
    assert slope == pytest.approx(2.25, abs=1e-9)
    assert intercept == pytest.approx(math.log(3.5), abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_loglog_fit_needs_two_points():
    assert loglog_fit([]) == (None, None, None)
    assert loglog_fit([(4, 0.1)]) == (None, None, None)


def test_loglog_fit_needs_two_distinct_sizes():
    assert loglog_fit([(3, 0.1), (3, 0.2)]) == (None, None, None)
    slope, _, _ = loglog_fit([(3, 0.1), (3, 0.2), (9, 0.9)])
    assert slope > 0


def test_benchmark_rejects_zero_reps():
    with pytest.raises(ValueError, match="reps"):
        scaling_benchmark([4], reps=0)


@pytest.mark.parametrize("sizes", [[0, 4], [4, -1]])
def test_benchmark_rejects_a_size_below_one(sizes):
    with pytest.raises(ValueError, match="sizes"):
        scaling_benchmark(sizes, reps=1)


def test_benchmark_empty_sizes():
    result = scaling_benchmark([], reps=1)
    assert result.points == []
    assert result.slope is None and result.r_squared is None


def test_benchmark_single_size_has_no_fit():
    result = scaling_benchmark([3], reps=1, seed=0)
    assert len(result.points) == 1
    assert result.points[0][0] == 3
    assert result.points[0][1] > 0.0
    assert result.r_squared is None


def test_benchmark_smoke_and_payload():
    result = scaling_benchmark([3, 5], reps=2, seed=0)
    assert [n for n, _ in result.points] == [3, 5]
    assert all(s > 0.0 for _, s in result.points)
    payload = result.to_dict()
    assert [p["n"] for p in payload["points"]] == [3, 5]
    assert set(payload) == {"points", "slope", "intercept", "r_squared"}
    assert isinstance(result, ScalingResult)
