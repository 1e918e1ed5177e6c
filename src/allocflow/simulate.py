"""Stochastic-delay simulation, random instances, and scaling benchmarks.

The Monte-Carlo comparison compiles its instance once, for both searches and
every trial.  With fixed placements it prices each hop once over all trials
and times each distinct placement over all trials in one pass (see
optimizer.CompiledInstance.times_of); under max_flow that pass is one
longest path over the dependency graph.  Its statistics come from each
trial's time and robot memory as plain floats, equal to what CostPoints
would give, computed exactly in integers."""

from __future__ import annotations

import gc
import math
import random
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .baseline import _END_TIME
from .model import (
    CommLink,
    CommModel,
    DelaySpec,
    DependencyGraph,
    AlgorithmSpec,
    LocationNode,
    MemoryProfile,
    MemoryRegion,
    Options,
    ProblemFormatError,
    ProblemInstance,
    Tier,
)
from .memory import robot_memory_bits
from .optimizer import (
    MB_BITS,
    CompiledInstance,
    Objective,
    _aggregate_for,
    _context,
    _price,
    _search,
    _weights,
    compile_instance,
    evaluate,  # unused here; perfbench's tracer test reads simulate.evaluate
    solve_branch_bound,
)
from .timing import Placement


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial  # independent per-trial streams, stable across runs


def trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(_trial_seed(seed, trial))


@dataclass
class MethodStats:
    mean_distance: float
    std_distance: float
    mean_time: float
    mean_memory: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ComparisonStats:
    trials: int
    seed: int
    ours: MethodStats
    baseline: MethodStats
    win_rate: float  # fraction of trials with ours' distance <= baseline's
    ours_placement: Dict[str, str] = field(default_factory=dict)
    baseline_placement: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "win_rate": self.win_rate,
            "ours": dict(self.ours.to_dict(), placement=self.ours_placement),
            "baseline": dict(self.baseline.to_dict(), placement=self.baseline_placement),
        }


def _scaled(xs: Sequence[float]) -> Tuple[List[int], int]:
    """Integers a and a power of two p with xs[i] == a[i] / p exactly: each
    float's integer ratio brought to the largest denominator."""
    ratios = [x.as_integer_ratio() for x in xs]
    p = max([d for _, d in ratios])
    return [n * (p // d) for n, d in ratios], p


def _mean(a: List[int], p: int) -> float:
    """The mean of the floats _scaled gave (a, p) for, correctly rounded
    from its exact value as statistics.mean rounds it: int / int rounds
    once."""
    return sum(a) / (len(a) * p)


def _stdev(a: List[int], p: int) -> float:
    """The sample standard deviation of the floats _scaled gave (a, p) for,
    correctly rounded from its exact value, as statistics.stdev gives it
    from Python 3.11 on.  The exact variance is (n * sum(a**2) - sum(a)**2)
    / (n * (n - 1) * p**2); an integer root of it of more than twice a
    float's precision, rounded to odd, rounds once to a float.  Needs
    n >= 2."""
    n, total = len(a), sum(a)
    num, den = n * sum([x * x for x in a]) - total * total, n * (n - 1) * p * p
    q = (num.bit_length() - den.bit_length() - 2 * sys.float_info.mant_dig - 3) // 2
    num, den = (num, den << 2 * q) if q >= 0 else (num << -2 * q, den)
    root = math.isqrt(num // den)
    root |= root * root * den != num  # to odd: the last bit marks an inexact root
    return (root << q) / 1 if q >= 0 else root / (1 << -q)


def _method_stats(
    instance: ProblemInstance, objective: Objective, mem_bits: List[int], times: List[float]
) -> Tuple[MethodStats, List[float]]:
    """One method's statistics over the trials, and each trial's distance,
    from its robot memory and time in each trial.  Each column is scaled to
    integers once (_scaled), and its mean and standard deviation are
    computed exactly from them and rounded once, so every float equals the
    statistics module's over make_cost's CostPoints, bit for bit, from
    Python 3.11 on.  (Python 3.10's stdev rounds the variance to a float
    before its root, which can differ in the last bit and overflows when
    the distances spread by about 1e154; nonnegative distances have a
    finite standard deviation, which this gives.)"""
    w_m, w_t = _weights(instance, objective)
    distances = [math.hypot(w_m * (m / MB_BITS), w_t * t) for m, t in zip(mem_bits, times)]
    # an overflowing time sum comes from the input, so it is a
    # ProblemFormatError; as_integer_ratio would fail on inf or nan
    if not all(map(math.isfinite, distances)):
        raise ProblemFormatError("result is not finite: a time or memory sum overflows")
    scaled = _scaled(distances)
    if mem_bits.count(mem_bits[0]) == len(mem_bits):
        mean_memory = mem_bits[0] / 8.0  # the exact mean of equal values
    else:
        mean_memory = _mean(*_scaled([m / 8.0 for m in mem_bits]))
    stats = MethodStats(
        mean_distance=_mean(*scaled),
        std_distance=_stdev(*scaled) if len(distances) > 1 else 0.0,
        mean_time=_mean(*_scaled(times)),
        mean_memory=mean_memory,
    )
    return stats, distances


def monte_carlo_compare(
    instance: ProblemInstance,
    trials: int = 50,
    seed: int = 0,
    resolve_per_trial: bool = False,
    threads: int = 1,
) -> ComparisonStats:
    """Compare both methods under sampled link delays.

    Each method is solved once on mean delays and its placement held fixed;
    every trial then draws one folded-normal realization per delayed link (the
    same network realization for both methods) and re-prices both
    placements.  resolve_per_trial=True re-runs both searches inside each
    trial instead, as a sensitivity check.

    The instance is compiled once: both searches (ours, and the end-time
    baseline's without the return hop) run on contexts built from it.  Every
    trial's delays are drawn first, by one generator reseeded as
    trial_rng(seed, trial).  With fixed placements each placement's robot
    memory is computed once (delays never change it), each hop either
    placement uses is priced once over per-link delay columns into a list
    that both share (priced_over), and each distinct placement is timed over
    all trials in one pass (times_of), whose entry per trial equals a pass
    over that trial alone.  With resolve_per_trial each trial searches on
    the compiled instance priced under its delays: ours costs the memory and
    time its search scored it at, and the baseline's placement is priced
    with its return hop unless it is ours.  Equal costs are summarized once,
    into two MethodStats, exactly in integers (_method_stats), equal bit for
    bit to the statistics module's over make_cost's CostPoints from Python
    3.11 on.
    Trials run serially: threads is accepted for compatibility and changes nothing.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    objective = Objective("min_distance")
    aggregate = _aggregate_for(instance, objective)
    rng = random.Random(0)  # reseeded per trial; any seed spares Random() its read of OS entropy
    realizations = []
    for trial in range(trials):
        rng.seed(_trial_seed(seed, trial))  # seed also clears gauss_next: trial_rng(seed, trial)'s stream
        realizations.append({pair: delay.sample(rng) for pair, delay in instance.comm.delayed})

    compiled = compile_instance(instance)

    def optima(priced: CompiledInstance) -> Tuple[tuple, tuple]:
        """Ours and the baseline's searches with hops as priced, each
        (placement, explored, memory bits, time) as _search returns it: the
        placements solve_branch_bound and solve_baseline return."""
        return (
            _search(_context(priced, objective)),
            _search(_context(replace(priced, include_return_hop=False), _END_TIME)),
        )

    def once(pair: tuple, cost) -> tuple:
        """cost of each of the pair, computed once if they are equal."""
        first = cost(pair[0])
        return first, first if pair[1] == pair[0] else cost(pair[1])

    (ours, *_), (base, *_) = optima(compiled.priced())
    # per method, its robot memory bits and its time in each trial
    if resolve_per_trial:
        costs = []  # per trial, per method, (memory bits, time)
        for delays in realizations:
            priced = compiled.priced(delays)
            (mine, _, *scored), (theirs, *_) = optima(priced)
            # ours as its search scored it; the baseline's search left out the return hop, so price it
            costs.append((scored, scored if theirs == mine else _price(priced, theirs, aggregate)))
        columns = [tuple(zip(*method)) for method in zip(*costs)]
    else:
        over = compiled.priced_over(realizations)
        columns = once(
            (ours, base), lambda p: ([robot_memory_bits(instance, p)] * trials, over.times_of(p, aggregate, trials))
        )

    summaries = once(columns, lambda column: _method_stats(instance, objective, *column))
    (ours_stats, ours_distances), (base_stats, base_distances) = summaries
    wins = sum(1 for o, b in zip(ours_distances, base_distances) if o <= b)
    return ComparisonStats(
        trials=trials,
        seed=seed,
        ours=ours_stats,
        baseline=replace(base_stats),  # its own object, also when the summary is shared
        win_rate=wins / trials,
        ours_placement=ours,
        baseline_placement=base,
    )


# ---------------------------------------------------------------------------
# Random instances


@dataclass
class GenParams:
    """Knobs for the layered-DAG instance generator."""

    fog_nodes: int = 1
    cloud_nodes: int = 1
    layers: Optional[int] = None  # None -> depth grows with log2(n)
    edge_prob: Optional[float] = None  # None -> min(0.6, 5 / n)
    exec_range: Tuple[float, float] = (1.0, 5.0)
    link_seconds_range: Tuple[float, float] = (0.5, 2.0)
    delay_prob: float = 0.0
    sigma_range: Tuple[float, float] = (0.0, 0.5)
    tier_ordering: bool = True  # per algorithm: cloud exec <= fog <= edge
    unbounded_prob: float = 0.0


def random_instance(n: int, params: Optional[GenParams] = None, seed: int = 0) -> ProblemInstance:
    """Seeded layered DAG over 1 edge + fog + cloud nodes.

    Every vertex outside the first layer gets at least one predecessor in the
    previous layer, so the generated layering is exactly the assignment drawn
    here.  With tier_ordering, each algorithm runs fastest on cloud and
    slowest on the edge.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    params = params or GenParams()
    if params.fog_nodes < 0 or params.cloud_nodes < 0:
        raise ValueError("fog_nodes and cloud_nodes must be >= 0")
    rng = random.Random(seed)

    nodes = {"e": LocationNode("e", Tier.EDGE)}
    for i in range(params.fog_nodes):
        nid = f"f{i + 1}"
        nodes[nid] = LocationNode(nid, Tier.FOG)
    for i in range(params.cloud_nodes):
        nid = f"c{i + 1}"
        nodes[nid] = LocationNode(nid, Tier.CLOUD)

    ids = [f"a{i + 1:02d}" for i in range(n)]
    # logarithmic depth keeps path counts polynomial in n, so solve times
    # scale smoothly instead of exploding on deep chains
    n_layers = params.layers if params.layers is not None else (
        max(1, round(2.0 * math.log2(n))) if n > 1 else 1
    )
    n_layers = max(1, min(n_layers, n)) if n else 1
    edge_prob = params.edge_prob if params.edge_prob is not None else min(0.6, 5.0 / max(n, 1))
    layer_of: Dict[str, int] = {}
    for k, aid in enumerate(ids[:n_layers]):
        layer_of[aid] = k + 1
    for aid in ids[n_layers:]:
        layer_of[aid] = rng.randint(1, n_layers)
    by_layer: Dict[int, List[str]] = {}
    for aid in ids:
        by_layer.setdefault(layer_of[aid], []).append(aid)

    edges: List[Tuple[str, str]] = []
    for aid in ids:
        k = layer_of[aid]
        if k == 1:
            continue
        forced = rng.choice(sorted(by_layer[k - 1]))
        edges.append((forced, aid))
        for j in range(1, k):
            for u in sorted(by_layer[j]):
                if u != forced and rng.random() < edge_prob:
                    edges.append((u, aid))

    regions: Dict[str, MemoryRegion] = {}
    specs: Dict[str, AlgorithmSpec] = {}
    preds: Dict[str, List[str]] = {aid: [] for aid in ids}
    for u, v in edges:
        preds[v].append(u)

    for aid in ids:
        out_region = f"r_{aid}"
        regions[out_region] = MemoryRegion(out_region, rng.randint(8, 10**6))
        inputs = {f"r_{p}" for p in sorted(preds[aid])}
        if not preds[aid]:
            ext = f"x_{aid}"
            regions[ext] = MemoryRegion(ext, rng.randint(8, 10**6))
            inputs = {ext}
        draws = sorted(rng.uniform(*params.exec_range) for _ in range(3))
        if not params.tier_ordering:
            rng.shuffle(draws)
        exec_time = {Tier.CLOUD: draws[0], Tier.FOG: draws[1], Tier.EDGE: draws[2]}
        growth = (0, 0, 0)
        if rng.random() < params.unbounded_prob:
            growth = (0, 8 * rng.randint(1, 100), 0)
        specs[aid] = AlgorithmSpec(
            id=aid,
            exec_time=exec_time,
            memory=MemoryProfile(
                inputs=frozenset(inputs),
                outputs=frozenset({out_region}),
                processing_bits=rng.randint(0, 10**7),
                growth_per_step=growth,
            ),
            space_rank=rng.randint(0, max(1, n)),
        )

    links: Dict[Tuple[str, str], CommLink] = {}
    fog_ids = sorted(nid for nid, node in nodes.items() if node.tier is Tier.FOG)
    cloud_ids = sorted(nid for nid, node in nodes.items() if node.tier is Tier.CLOUD)
    pairs = [("e", f) for f in fog_ids] + [(f, c) for f in fog_ids for c in cloud_ids]
    if not fog_ids:  # degenerate topologies still need the cloud reachable
        pairs += [("e", c) for c in cloud_ids]
    for u, v in pairs:
        for src, dst in ((u, v), (v, u)):
            delay = None
            if rng.random() < params.delay_prob:
                delay = DelaySpec(
                    mu=rng.uniform(0.0, 0.5), sigma=rng.uniform(*params.sigma_range)
                )
            links[(src, dst)] = CommLink(
                base_seconds=rng.uniform(*params.link_seconds_range), delay=delay
            )

    return ProblemInstance(
        nodes=nodes,
        regions=regions,
        graph=DependencyGraph(algorithms=specs, edges=tuple(sorted(edges))),
        comm=CommModel(links=links),
        options=Options(),
    )


# ---------------------------------------------------------------------------
# Scaling benchmark


@dataclass
class ScalingResult:
    points: List[Tuple[int, float]]  # (n, mean solve seconds)
    slope: Optional[float]
    intercept: Optional[float]
    r_squared: Optional[float]

    def to_dict(self) -> dict:
        return {
            "points": [{"n": n, "mean_seconds": s} for n, s in self.points],
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
        }


def loglog_fit(points: Sequence[Tuple[int, float]]) -> Tuple[Optional[float], Optional[float], Optional[float]]:
    """OLS fit of log(seconds) against log(n); (None, None, None) below 2
    distinct sizes, where no line is determined."""
    if len({n for n, _ in points}) < 2:
        return None, None, None
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(s, 1e-9)) for _, s in points]
    slope, intercept = statistics.linear_regression(xs, ys)
    r2 = statistics.correlation(xs, ys) ** 2
    return slope, intercept, r2


def scaling_benchmark(
    sizes: Sequence[int],
    reps: int = 10,
    seed: int = 0,
    params: Optional[GenParams] = None,
) -> ScalingResult:
    """Mean branch-and-bound solve time per instance size, with a log-log
    least-squares fit (slope, intercept, r^2) over the size/time points."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if any(n < 1 for n in sizes):
        raise ValueError("sizes must be >= 1")
    if not sizes:
        return ScalingResult([], *loglog_fit([]))
    instances = {
        n: [
            random_instance(n, params, seed=seed * 1_000_003 + n * 1009 + rep)
            for rep in range(reps)
        ]
        for n in sizes
    }
    best = {n: [math.inf] * reps for n in sizes}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # untimed warm-up so interpreter cold-start does not inflate the
        # first (smallest) sizes and bend the fit
        solve_branch_bound(instances[sizes[0]][0])
        # twenty passes keep each instance's fastest time, since load only
        # adds time (with fewer, r^2 over sizes 4-20 dipped to 0.94); a
        # pass takes the sizes in turn, one instance of each, so a slow
        # stretch slows every size alike instead of bending the fit at one
        for _ in range(20):
            for rep in range(reps):
                for n in sizes:
                    start = time.perf_counter()
                    solve_branch_bound(instances[n][rep])
                    took = time.perf_counter() - start
                    if took < best[n][rep]:
                        best[n][rep] = took
    finally:
        if gc_was_enabled:
            gc.enable()
    points = [(n, statistics.mean(best[n])) for n in sizes]

    return ScalingResult(points, *loglog_fit(points))
