"""The benchmark's workloads: instance pools, the request each serves, and
the checks every answer must pass.

Parameters come from workloads.json beside this file.  Every program
function is looked up on its module at call time (``program.model.parse_problem``),
so a tracer installed on those modules sees the calls.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

SPEC = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())

# Instances whose whole placement space is at most this large are also solved
# by exhaustive enumeration, which must pick the same placement.
BRUTEFORCE_LIMIT = 3**8

WARMUP_N = 6


@dataclass(frozen=True)
class Request:
    index: int  # position in the pool
    text: str  # serialized instance, parsed afresh by every request
    objective: str = "min_distance"
    mc_seed: int = 0  # Monte-Carlo seed, for the workloads that sample delays


class Workload:
    """A workload builds its pool and, per request kind, defines:

    make_request(program, rng, index) -> Request, one member of the population;
    warmup_request(program) -> Request, a small request served during set-up;
    run(program, request) -> answer, the request itself;
    summarize(answer) -> a compact, comparable form, all that is kept of it;
    check(program, request, summary) -> list of errors, empty when correct.
    """

    def __init__(self, name: str):
        self.name = name
        self.spec = SPEC[name]
        self.gen = self.spec["generator"]

    def build_pool(self, program, seed: int) -> List[Request]:
        """The workload's fixed population of instances, served in an order
        and with Monte-Carlo seeds drawn from `seed`.

        Per-request cost is heavy-tailed across instances (search effort most
        of all), so pools drawn afresh for each seed differed in mean cost by
        more than the bounds this benchmark has to resolve; the seed therefore
        permutes one population instead of drawing a new one.
        """
        population_rng = random.Random(f"{self.name}:population")
        population = [
            self.make_request(program, population_rng, i) for i in range(self.spec["pool_size"])
        ]
        rng = random.Random(f"{self.name}:{seed}")
        rng.shuffle(population)
        return [
            replace(request, index=i, mc_seed=rng.getrandbits(32))
            for i, request in enumerate(population)
        ]

    def check_run(self, program, request: Request, summary) -> List[str]:
        """Checks made once per run, on the first request served."""
        return []


def _instance_text(program, n: int, seed: int, aggregate: Optional[str] = None, **params) -> str:
    instance = program.simulate.random_instance(n, program.simulate.GenParams(**params), seed=seed)
    if aggregate is not None:
        instance.options.time_aggregate = aggregate
    return program.model.serialize_problem(instance)


def stratified(bounds, index: int) -> int:
    """Sizes cycle through the inclusive range, so every size is equally
    represented in the population."""
    low, high = bounds
    return low + index % (high - low + 1)


def flow_count(instance) -> int:
    """Number of execution flows: maximal source-to-sink paths of the
    dependency graph, counted without enumerating them."""
    succs: Dict[str, List[str]] = {aid: [] for aid in instance.algorithms}
    has_pred = set()
    for u, v in instance.graph.edges:
        succs[u].append(v)
        has_pred.add(v)
    paths: Dict[str, int] = {}
    for aid in reversed(topological(succs)):
        paths[aid] = sum(paths[v] for v in succs[aid]) or 1
    return sum(paths[aid] for aid in succs if aid not in has_pred)


def topological(succs: Dict[str, List[str]]) -> List[str]:
    indegree = {aid: 0 for aid in succs}
    for vs in succs.values():
        for v in vs:
            indegree[v] += 1
    order = [aid for aid, d in indegree.items() if d == 0]
    for aid in order:
        for v in succs[aid]:
            indegree[v] -= 1
            if indegree[v] == 0:
                order.append(v)
    return order


# ---------------------------------------------------------------------------
# Solve workloads


@dataclass(frozen=True)
class SolveSummary:
    placement: tuple
    cost: object
    explored_nodes: int


class SolveWorkload(Workload):
    def warmup_request(self, program) -> Request:
        return Request(-1, _instance_text(program, WARMUP_N, seed=0))

    def run(self, program, request: Request):
        instance = program.model.parse_problem(request.text)
        report = program.model.validate(instance)
        if not report.ok:
            raise ValueError("; ".join(report.lines()))
        return program.optimizer.solve_branch_bound(
            instance, program.optimizer.Objective(request.objective)
        )

    def summarize(self, answer) -> SolveSummary:
        return SolveSummary(tuple(sorted(answer.placement.items())), answer.cost, answer.explored_nodes)

    def check(self, program, request: Request, summary: SolveSummary) -> List[str]:
        opt = program.optimizer
        instance = program.model.parse_problem(request.text)
        objective = opt.Objective(request.objective)
        placement = dict(summary.placement)
        errors = []
        cost = opt.evaluate(instance, placement, objective)
        if cost != summary.cost:
            errors.append(f"evaluate gives {cost}, solver reported {summary.cost}")
        move = better_single_move(program, instance, objective, placement)
        if move is not None:
            errors.append(f"moving {move[0]} to {move[1]} gives a strictly better key")
        allowed = program.model.effective_allowed(instance)
        if math.prod(len(nodes) for nodes in allowed.values()) <= BRUTEFORCE_LIMIT:
            oracle = opt.solve_bruteforce(instance, objective)
            if oracle.placement != placement or oracle.cost != summary.cost:
                errors.append(f"brute force picks {oracle.placement} at {oracle.cost}")
        return errors


def better_single_move(program, instance, objective, placement: Dict[str, str]):
    """(algorithm, node) of a single move with a strictly better (primary,
    memory) key than placement, or None.

    Flow times are summed here hop by hop in timing.flow_time's order, and
    only the flows holding the moved algorithm are re-timed, so the check
    costs a fraction of a solve instead of one evaluate per move.
    """
    opt = program.optimizer
    flows = program.lattice.all_flows(instance.graph)
    partition = program.memory.step_partition(instance.graph, flows)
    aggregate = {"min_time_max": "max_flow", "min_time_total": "total_flows"}.get(
        objective.kind, instance.options.time_aggregate
    )
    edge = instance.edge_node_id()
    algorithms = instance.algorithms
    in_bits = {aid: sum(instance.region_bits(r) for r in sorted(spec.memory.inputs))
               for aid, spec in algorithms.items()}
    out_bits = {aid: sum(instance.region_bits(r) for r in sorted(spec.memory.outputs))
                for aid, spec in algorithms.items()}
    hops: Dict[tuple, float] = {}

    def hop(src: str, dst: str, bits: int) -> float:
        if (src, dst, bits) not in hops:
            hops[src, dst, bits] = instance.comm.resolve(src, dst, bits)
        return hops[src, dst, bits]

    def flow_total(flow, candidate) -> float:
        total = 0.0
        prev = edge
        for i, aid in enumerate(flow):
            node = candidate[aid]
            total += hop(prev, node, in_bits[aid] if i == 0 else out_bits[flow[i - 1]])
            total += algorithms[aid].exec_time_at(instance.nodes[node])
            prev = node
        return total + hop(prev, edge, out_bits[flow[-1]])

    def key(candidate, totals):
        if aggregate == "max_flow":
            time_s = max(totals)
        elif aggregate == "total_flows":
            time_s = sum(totals)
        else:
            time_s = sum(totals) / len(totals)
        mem_bits = program.memory.robot_memory_bits(instance, candidate, partition)
        return opt.primary_value(objective, opt.make_cost(instance, objective, mem_bits, time_s)), mem_bits

    totals = [flow_total(flow, placement) for flow in flows]
    best = key(placement, totals)
    member_of: Dict[str, List[int]] = {aid: [] for aid in placement}
    for fi, flow in enumerate(flows):
        for aid in flow:
            member_of[aid].append(fi)
    for aid, nodes in program.model.effective_allowed(instance).items():
        for node in nodes:
            if node == placement[aid]:
                continue
            moved = dict(placement)
            moved[aid] = node
            moved_totals = list(totals)
            for fi in member_of[aid]:
                moved_totals[fi] = flow_total(flows[fi], moved)
            if key(moved, moved_totals) < best:
                return aid, node
    return None


class SolveSmall(SolveWorkload):
    def make_request(self, program, rng, index):
        g = self.gen
        objectives = g["objectives"]
        objective = objectives[index % len(objectives)]
        aggregate = g["time_aggregates"][index % len(g["time_aggregates"])]
        # each objective's k-th request gets size k and topology k, cyclically
        k = index // len(objectives)
        if objective == "min_memory":
            n = stratified(g["min_memory_n"], k)
            fog, cloud = g["min_memory_topology"]
        else:
            n = stratified(g["n"], k)
            fog, cloud = g["topologies"][k % len(g["topologies"])]
        text = _instance_text(
            program, n, rng.getrandbits(32), aggregate, fog_nodes=fog, cloud_nodes=cloud
        )
        return Request(index, text, objective)


class SolveHard(SolveWorkload):
    def make_request(self, program, rng, index):
        g = self.gen
        fog, cloud = g["topology"]
        text = _instance_text(
            program, stratified(g["n"], index), rng.getrandbits(32), g["time_aggregate"],
            fog_nodes=fog, cloud_nodes=cloud, edge_prob=g["edge_prob"],
        )
        return Request(index, text, g["objective"])


# ---------------------------------------------------------------------------
# Monte-Carlo evaluation under link jitter


class JitterEval(Workload):
    def make_request(self, program, rng, index):
        g = self.gen
        n = stratified(g["n"], index)
        low, high = g["flows"]
        while True:
            instance = program.simulate.random_instance(
                n, program.simulate.GenParams(delay_prob=g["delay_prob"]), seed=rng.getrandbits(32)
            )
            if low <= flow_count(instance) <= high:
                break
        return Request(index, program.model.serialize_problem(instance))

    def warmup_request(self, program) -> Request:
        return Request(-1, _instance_text(program, WARMUP_N, seed=0, delay_prob=self.gen["delay_prob"]))

    def run(self, program, request: Request):
        instance = program.model.parse_problem(request.text)
        return program.simulate.monte_carlo_compare(
            instance, trials=self.gen["trials"], seed=request.mc_seed,
            resolve_per_trial=False, threads=1,
        )

    def summarize(self, answer) -> str:
        return json.dumps(answer.to_dict(), sort_keys=True)

    def check(self, program, request: Request, summary: str) -> List[str]:
        report = json.loads(summary)
        instance = program.model.parse_problem(request.text)
        ours = program.optimizer.solve_branch_bound(instance, program.optimizer.Objective("min_distance"))
        base = program.baseline.solve_baseline(instance)
        errors = []
        if report["ours"]["placement"] != ours.placement:
            errors.append(f"reported placement {report['ours']['placement']} != solver {ours.placement}")
        if report["baseline"]["placement"] != base.placement:
            errors.append(
                f"reported baseline {report['baseline']['placement']} != comparator {base.placement}"
            )
        if report["trials"] != self.gen["trials"] or not 0.0 <= report["win_rate"] <= 1.0:
            errors.append(f"trials={report['trials']} win_rate={report['win_rate']}")
        return errors

    def check_run(self, program, request: Request, summary: str) -> List[str]:
        again = self.summarize(self.run(program, request))
        if again != summary:
            return ["repeating the request with the same seed changed its to_dict()"]
        return []


WORKLOADS = {"solve-small": SolveSmall, "solve-hard": SolveHard, "jitter-eval": JitterEval}
