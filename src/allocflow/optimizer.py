"""Placement search: exact brute force and an equivalent branch-and-bound.

A placement's cost is the pair (robot memory, overall time) collapsed to a
weighted Euclidean distance from the origin (memory in MB, time in seconds).
Optima are exact; ties break first toward minimum robot memory, then toward
the lexicographically smallest placement under the node order cloud nodes by
id, fog nodes by id, edge node last (deepest offload wins a dead heat).
Branch and bound returns brute force's tie-broken optimum whatever its
incumbent, but for a completion faster than the incumbent by less than a
rounding slack that loses on (memory, lex); see _Search._children.

Where each mechanism lives:
- compile_instance builds an instance's delay-independent tables on the
  graph index they extend (lattice._GraphIndex); CompiledInstance.priced
  and priced_over add the hop rows of one or many delay realizations.
- One evaluator: CompiledInstance.time_of gives a placement's time (_longest
  under max_flow, _flow_totals under the sum aggregates; times_of runs
  either over many realizations at once), memory.robot_memory_bits its
  memory, and _price both.  Every time reported or compared is time_of's
  (per_flow's is timing.flow_time's), a search leaf's too: the search's
  bounds only bound.  Only AllocationResult.per_flow enumerates flows, on
  first read, so a solve, evaluate and the Monte-Carlo comparison list none.
- A solve is three steps: a SolveContext (build_context, or _context over a
  priced compile), the search (_search, one _Search) and _finish, which
  costs the answer at the memory and time its leaf scored.  The Monte-Carlo
  comparison runs the first two on one compiled instance.  Brute force and
  scatter build no search: they price each placement of _placements through
  _price, as evaluate does.
- _Search keeps one incremental state under every aggregate: _completion
  builds its bound, _price_children prices all of a search node's children
  in one call, _assign applies one, _leaf scores a leaf, warm_start dives
  for the first incumbent, and run walks the tree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from operator import add
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from .lattice import _check_flow_cap, _graph_index, _GraphIndex, all_flows
from .memory import robot_memory_bits
from .model import (
    CapExceededError,
    InfeasibleError,
    ProblemInstance,
    effective_allowed,
    node_order,
)
from .timing import FlowTiming, Placement, aggregate_times, flow_time

MB_BITS = 8 * 1024 * 1024  # distance works in 2**20-byte megabytes

OBJECTIVES = ("min_distance", "min_time_max", "min_time_total", "min_memory")

DEFAULT_ENUMERATION_CAP = 10**7


@dataclass(frozen=True)
class CostPoint:
    memory_bytes: float
    time_seconds: float
    distance: float


@dataclass(frozen=True)
class Objective:
    kind: str = "min_distance"
    memory_weight: Optional[float] = None  # None -> instance option
    time_weight: Optional[float] = None

    def __post_init__(self):
        if self.kind not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.kind!r}")


@dataclass
class AllocationResult:
    placement: Placement
    cost: CostPoint
    explored_nodes: int
    # per_flow once read; until then (instance, delays, include_return_hop), which time it
    _per_flow: Union[List[FlowTiming], tuple] = field(default_factory=list, repr=False, compare=False)

    @property
    def per_flow(self) -> List[FlowTiming]:
        """timing.flow_time of each flow, in all_flows' order, built on first read."""
        if isinstance(self._per_flow, tuple):
            instance, delays, include_return_hop = self._per_flow
            flows = all_flows(instance.graph)
            self._per_flow = [flow_time(instance, f, self.placement, delays, include_return_hop) for f in flows]
        return self._per_flow


def _weights(instance: ProblemInstance, objective: Objective) -> Tuple[float, float]:
    w_m = objective.memory_weight if objective.memory_weight is not None else instance.options.memory_weight
    w_t = objective.time_weight if objective.time_weight is not None else instance.options.time_weight
    return w_m, w_t


def _aggregate_for(instance: ProblemInstance, objective: Objective) -> str:
    if objective.kind == "min_time_max":
        return "max_flow"
    if objective.kind == "min_time_total":
        return "total_flows"
    return instance.options.time_aggregate


def make_cost(instance: ProblemInstance, objective: Objective, memory_bits: int, time_seconds: float) -> CostPoint:
    w_m, w_t = _weights(instance, objective)
    distance = math.hypot(w_m * (memory_bits / MB_BITS), w_t * time_seconds)
    return CostPoint(memory_bytes=memory_bits / 8.0, time_seconds=time_seconds, distance=distance)


def primary_value(objective: Objective, cost: CostPoint):
    if objective.kind == "min_memory":
        return cost.memory_bytes
    if objective.kind in ("min_time_max", "min_time_total"):
        return cost.time_seconds
    return cost.distance


# ---------------------------------------------------------------------------
# Compiled instance: the one evaluator


class _Lazy(dict):
    """A dict that fills a missing key with make(key) on first use."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


@dataclass
class CompiledInstance(_GraphIndex):
    """The graph's index and the other delay-independent tables of one
    instance, plus the hop rows of one delay realization once priced.  The
    index's path counts weigh the sum aggregates' bound and give the search
    its rounding slack and the mean's divisor."""

    instance: ProblemInstance
    edge_id: str
    allowed: Dict[str, Tuple[str, ...]]  # effective_allowed: in node tie-break order
    sorted_ids: List[str]  # tie-break order for lex tuples
    node_rank: Dict[str, int]
    exec_s: Dict[str, Dict[str, float]]  # alg -> node -> seconds
    input_bits: Dict[str, int]
    output_bits: Dict[str, int]
    all_output_regions: frozenset
    include_return_hop: bool
    in_rows: Dict[str, Dict[str, float]]  # alg -> its request-hop row
    out_rows: Dict[str, Dict[str, Dict[str, float]]]  # alg -> the rows of its output payload

    def priced(
        self,
        delays: Optional[Dict[Tuple[str, str], float]] = None,
        include_return_hop: bool = True,
    ) -> CompiledInstance:
        """The same tables under another delay realization, with fresh hop rows.

        A row maps a destination node to one hop's seconds, resolved on first
        use, so a pair no placement reaches is never resolved (nor raises
        CommUnreachableError).  out_rows[u][src] is the row of u's output
        payload from src and in_rows[v] the request-hop row of v's input payload.
        """
        comm = self.instance.comm
        return self._with_hops(lambda src, dst, bits: comm.resolve(src, dst, bits, delays), include_return_hop)

    def priced_over(
        self,
        realizations: List[Dict[Tuple[str, str], float]],
        include_return_hop: bool = True,
    ) -> CompiledInstance:
        """The same tables with each hop a list: its seconds under each delay
        realization, in order, for times_of, priced over one column per
        delayed link.  Every placement priced on the result shares these lists."""
        comm, trials = self.instance.comm, len(realizations)
        columns = comm.delay_columns(realizations)
        return self._with_hops(
            lambda src, dst, bits: comm.resolve_over(src, dst, bits, columns, trials), include_return_hop
        )

    def _with_hops(self, hop, include_return_hop: bool) -> CompiledInstance:
        """These tables with fresh rows of hop(src, dst, payload bits), one
        row per payload key and source node: without a per-byte link every
        payload keys as 0 (CommModel.payload_key), so all share one row."""
        key = self.instance.comm.payload_key
        rows = _Lazy(lambda bits: _Lazy(lambda src: _Lazy(lambda dst: hop(src, dst, bits))))
        return replace(
            self,
            include_return_hop=include_return_hop,
            in_rows={aid: rows[key(bits)][self.edge_id] for aid, bits in self.input_bits.items()},
            out_rows={aid: rows[key(bits)] for aid, bits in self.output_bits.items()},
        )

    def lex_tuple(self, placement: Placement) -> Tuple[int, ...]:
        # Tuples made per request are built from lists, not generators: CPython
        # allocates a tuple from a generator at another size and resizes it,
        # but frees it to the free list of its final size, so that list gains
        # more than it gives back and grows until a full garbage collection.
        return tuple([self.node_rank[placement[aid]] for aid in self.sorted_ids])

    def time_of(self, placement: Placement, aggregate: str) -> float:
        """Overall seconds of a placement under an aggregate of its flows:
        the largest flow's by _longest under max_flow; under total_flows and
        mean_flows the aggregate of _flow_totals' per-flow totals, in
        all_flows' order, which fixes their floats."""
        if aggregate == "max_flow":
            return self._longest(placement, 0.0, add, add, max)
        return aggregate_times(aggregate, self._flow_totals(placement))

    def _longest(self, placement: Placement, start, add_hop, add_exec, larger):
        """The largest flow's seconds by one longest-path pass in topological
        order, which touches each dependency edge once instead of each flow
        position: P(v) is the larger, the first on a tie, over v's
        predecessors u of add_hop(P(u), hop), or add_hop(start, request hop)
        at a source, then add_exec(P(v), exec); a sink adds its return hop if
        it counts, and the result is the larger over start and the sinks.
        The flows are the source-to-sink paths, each sum is kept in
        timing.flow_time's order, and rounded addition is monotone (x <= y
        gives x + c <= y + c), so the maximum commutes with every addition
        and equals the largest flow's total bit for bit.  A hop within one
        node is skipped: it costs 0.0, no sum here is -0.0, and x + 0.0 is x.
        time_of passes floats: 0.0, add, add and max."""
        in_rows, out_rows, exec_s, edge = self.in_rows, self.out_rows, self.exec_s, self.edge_id
        finish = {}
        longest = start  # every sum starts at start, so no flow ends below it
        for aid in self.order:
            node = placement[aid]
            preds = self.preds[aid]
            if not preds:  # a source
                t = start if node == edge else add_hop(start, in_rows[aid][node])
            for i, u in enumerate(preds):
                y = placement[u]
                s = finish[u] if y == node else add_hop(finish[u], out_rows[u][y][node])
                t = larger(t, s) if i else s
            finish[aid] = t = add_exec(t, exec_s[aid][node])
            if not self.succs[aid]:  # a sink
                if self.include_return_hop and node != edge:
                    t = add_hop(t, out_rows[aid][node][edge])
                longest = larger(longest, t)
        return longest

    def _flow_totals(
        self, placement: Placement, start=0.0, add_step=lambda t, hop, e: t + hop + e, add_return=add
    ) -> List:
        """Each flow's seconds, in all_flows' order, by one depth-first walk
        over the flows' prefixes, which lists no flow: a prefix's running
        total, start, then add_step(total, hop, exec) at each algorithm, and
        at a sink add_return(total, return hop) when the return hop counts, is
        shared by every flow that starts with it, so each flow gets the same
        additions in the same order as timing.flow_time, and the walk visits v
        once per path to it (paths_in), not once per flow through it.  The
        defaults add floats: (total + hop) + exec, then total + return hop,
        which is flow_time's order.  times_of passes a list over the trials and
        the same two additions made entry by entry, so each entry keeps that
        order.  Raises CapExceededError past the flow cap, as all_flows does,
        before walking."""
        _check_flow_cap(self.flow_count)
        succs, exec_s, out_rows, edge = self.succs, self.exec_s, self.out_rows, self.edge_id
        totals = []
        # (successors left, the prefix's total, the hop row from its last
        # node); at the root the row is each source's request-hop row
        pending = [(iter(self.sources), start, None)]
        while pending:
            _, t, row = top = pending[-1]
            v = next(top[0], None)
            if v is None:
                pending.pop()
                continue
            node = placement[v]
            t = add_step(t, (self.in_rows[v] if row is None else row)[node], exec_s[v][node])
            row = out_rows[v][node]
            if succs[v]:
                pending.append((iter(succs[v]), t, row))
            else:
                totals.append(add_return(t, row[edge]) if self.include_return_hop else t)
        return totals

    def times_of(self, placement: Placement, aggregate: str, trials: int) -> List[float]:
        """time_of under each of the trials realizations of priced_over, in
        one pass: every sum is a list over the realizations, added and
        maximized entry by entry in time_of's order, so entry i equals
        time_of on priced(realizations[i]) bit for bit: both run one walk,
        _longest under max_flow and _flow_totals under the sum aggregates,
        over floats or over such lists.  b if b > a else a is max(a, b), nan
        included."""
        start = [0.0] * trials
        add_hops = lambda t, hops: [x + h for x, h in zip(t, hops)]
        if aggregate == "max_flow":
            add_exec = lambda t, e: [x + e for x in t]
            larger = lambda t, s: [b if b > a else a for a, b in zip(t, s)]
            return self._longest(placement, start, add_hops, add_exec, larger)
        totals = self._flow_totals(placement, start, lambda t, hops, e: [x + h + e for x, h in zip(t, hops)], add_hops)
        if not totals:
            return start
        return [aggregate_times(aggregate, column) for column in zip(*totals)]


def compile_instance(instance: ProblemInstance) -> CompiledInstance:
    """An instance's delay-independent tables, with no hop rows until priced.
    An algorithm may have no allowed node; _context refuses to solve it."""
    exec_s: Dict[str, Dict[str, float]] = {}
    input_bits: Dict[str, int] = {}
    output_bits: Dict[str, int] = {}
    for aid, spec in instance.algorithms.items():
        # every timed node, not only allowed ones: unchecked placements may use any
        exec_s[aid] = row = {}
        for nid, node in instance.nodes.items():
            if nid in spec.node_overrides or node.tier in spec.exec_time:
                row[nid] = spec.exec_time_at(node)
        input_bits[aid] = sum(instance.region_bits(r) for r in sorted(spec.memory.inputs))
        output_bits[aid] = sum(instance.region_bits(r) for r in sorted(spec.memory.outputs))
    return CompiledInstance(
        **vars(_graph_index(instance.graph)),
        instance=instance,
        edge_id=instance.edge_node_id() if instance.algorithms else "",
        allowed=effective_allowed(instance),
        sorted_ids=sorted(instance.algorithms),
        node_rank={nid: i for i, nid in enumerate(node_order(instance))},
        exec_s=exec_s,
        input_bits=input_bits,
        output_bits=output_bits,
        all_output_regions=frozenset().union(*[s.memory.outputs for s in instance.algorithms.values()]),
        include_return_hop=True,
        in_rows={},
        out_rows={},
    )


def check_placement(instance: ProblemInstance, placement: Placement) -> None:
    """Raise InfeasibleError unless placement puts every algorithm on one of
    its allowed nodes and names no other algorithm."""
    _check_placement(instance, placement, effective_allowed(instance))


def _check_placement(instance: ProblemInstance, placement: Placement, allowed: Dict[str, Tuple[str, ...]]) -> None:
    """check_placement, given effective_allowed of instance."""
    for aid in placement:
        if aid not in instance.algorithms:
            raise InfeasibleError(f"placement names unknown algorithm {aid!r}")
    for aid in instance.algorithms:
        if aid not in placement:
            raise InfeasibleError(f"placement misses algorithm {aid}")
        if placement[aid] not in allowed[aid]:
            raise InfeasibleError(
                f"algorithm {aid} may not run on {placement[aid]!r} "
                f"(allowed: {', '.join(allowed[aid])})"
            )


def evaluate(
    instance: ProblemInstance,
    placement: Placement,
    objective: Optional[Objective] = None,
    delays: Optional[Dict[Tuple[str, str], float]] = None,
    include_return_hop: bool = True,
) -> CostPoint:
    """CostPoint of one placement (robot memory, overall time, distance)."""
    objective = objective or Objective()
    compiled = compile_instance(instance)
    _check_placement(instance, placement, compiled.allowed)
    priced = compiled.priced(delays, include_return_hop)
    return make_cost(instance, objective, *_price(priced, placement, _aggregate_for(instance, objective)))


def _price(c: CompiledInstance, placement: Placement, aggregate: str) -> Tuple[int, float]:
    """Robot memory bits and seconds of a whole placement, as c is priced."""
    return robot_memory_bits(c.instance, placement), c.time_of(placement, aggregate)


# ---------------------------------------------------------------------------
# Shared solve context


@dataclass
class SolveContext(CompiledInstance):
    """A priced compiled instance under one objective, the time aggregate
    that objective reads, and its primary value (see _primary)."""

    objective: Objective
    aggregate: str
    primary: Callable[[float, int], float]


def build_context(
    instance: ProblemInstance,
    objective: Optional[Objective] = None,
    include_return_hop: bool = True,
    delays: Optional[Dict[Tuple[str, str], float]] = None,
) -> SolveContext:
    return _context(compile_instance(instance).priced(delays, include_return_hop), objective or Objective())


def _context(priced: CompiledInstance, objective: Objective) -> SolveContext:
    """The SolveContext of a compiled instance, as priced (its delay
    realization and return hop), under objective; it shares priced's tables
    and hop rows.  Raises InfeasibleError if an algorithm has no allowed node."""
    for aid, nodes in priced.allowed.items():
        if not nodes:
            raise InfeasibleError(f"algorithm {aid} has no feasible location")
    aggregate, primary = _aggregate_for(priced.instance, objective), _primary(priced.instance, objective)
    return SolveContext(**vars(priced), objective=objective, aggregate=aggregate, primary=primary)


def _completion(
    c: CompiledInstance, longest: bool
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, Dict[str, Dict[str, float]]], Dict[str, float]]:
    """C, E and the start bounds of _Search, in one backward pass over c's
    allowed nodes, once per search; longest (max_flow) keeps no E and weighs
    no term by a path count.  Each is a dict keyed by algorithm, then node:
    C[v][y], E[s][v][y] and, per source, its start bound.

    For each dependency edge (v, s) and node y of v, E(v, y, s) is the least
    over s's nodes z of w * (hop(y -> z) + exec(s, z)) + C(s, z): the share
    of C(v, y) that the paths through (v, s) carry.  C(v, y) combines v's
    edges: under max_flow w = 1 and C = max_s E, which is B; under the sum
    aggregates w = c.paths_out[s], the number of paths that take the hop and
    the exec, C = sum_s E, and E is kept for the trades that
    _Search._price_children prices.  At a sink C is its return hop, 0.0
    without.  A source's start bound is the least over its nodes z of w *
    (request hop + exec(v, z)) + C(v, z), w = 1 under max_flow and
    paths_out[v] otherwise.

    Every completion's paths run through each successor on some node, so in
    exact arithmetic C(v, y) is at most the rest of every completion that
    puts v on y: the longest path's under max_flow, the paths' sum
    otherwise.  In floats C adds a path's terms from its end and time_of
    from its start, so the two can differ by rounding (see _Search.__init__).
    """
    paths_out, key, allowed = c.paths_out, c.instance.comm.payload_key, c.allowed
    # successors in c.order, not c.succs' id order: C sums v's edges in this
    # order, which fixes its floats
    succs: Dict[str, List[str]] = {aid: [] for aid in c.order}
    for v in c.order:
        for u in c.preds[v]:
            succs[u].append(v)
    exec_s, edge = c.exec_s, c.edge_id
    completion: Dict[str, Dict[str, float]] = {}
    edge_bound: Dict[str, Dict[str, Dict[str, float]]] = {} if longest else {aid: {} for aid in c.order}
    # E(v, ., s) over allowed[v], per (s, v's payload key, allowed[v]): all it reads of v
    tables: Dict[tuple, Dict[str, float]] = {}
    for v in reversed(c.order):
        rows, ys = c.out_rows[v], allowed[v]
        if not succs[v]:
            completion[v] = {y: rows[y][edge] if c.include_return_hop else 0.0 for y in ys}
            continue
        best = dict.fromkeys(ys, -math.inf if longest else 0.0)
        payload = key(c.output_bits[v])
        for s in succs[v]:
            table = tables.get((s, payload, ys))
            if table is None:
                later = tuple(completion[s].values())  # keyed by allowed[s], in its order
                execs = [(z, exec_s[s][z]) for z in allowed[s]]
                w = 1 if longest else paths_out[s]  # 1 * x is x
                table = tables[(s, payload, ys)] = {}
                for y in ys:
                    row = rows[y]
                    table[y] = min(map(add, [w * (row[z] + e) for z, e in execs], later))
            if longest:
                for y, t in table.items():
                    if t > best[y]:
                        best[y] = t
            else:
                edge_bound[s][v] = table
                for y, t in table.items():
                    best[y] += t
        completion[v] = best
    start_bound = {}
    for v in c.order:
        if not c.preds[v]:
            row, execs, w = c.in_rows[v], exec_s[v], 1 if longest else paths_out[v]
            steps = [w * (row[z] + execs[z]) for z in allowed[v]]
            start_bound[v] = min(map(add, steps, completion[v].values()))
    return completion, edge_bound, start_bound


def _primary(instance: ProblemInstance, objective: Objective) -> Callable[[float, int], float]:
    """The objective's value of (time_s, mem_bits), the first component of
    the placement key, with its weights read once; equal to primary_value of
    make_cost's CostPoint.  Every solve computes its primary objective here
    only, through SolveContext.primary."""
    if objective.kind == "min_memory":
        return lambda time_s, mem_bits: mem_bits / 8.0
    if objective.kind in ("min_time_max", "min_time_total"):
        return lambda time_s, mem_bits: time_s
    w_m, w_t = _weights(instance, objective)
    return lambda time_s, mem_bits: math.hypot(w_m * (mem_bits / MB_BITS), w_t * time_s)


def _placement_key(ctx: SolveContext, placement: Placement) -> Tuple[Tuple, float]:
    """The key (primary, memory, lex tuple) and time of a placement, from scratch."""
    mem_bits, time_s = _price(ctx, placement, ctx.aggregate)
    return (ctx.primary(time_s, mem_bits), mem_bits, ctx.lex_tuple(placement)), time_s


def _finish(ctx: SolveContext, placement: Placement, explored: int, mem_bits: int, time_s: float, delays):
    """The result of a search's answer: placement, in sorted id order, with
    the cost of the memory and time it was scored at; per_flow is timed on
    first read by timing.flow_time under delays, the realization ctx is
    priced at, and ctx's return hop.  The result keeps ctx's instance, not ctx."""
    cost = make_cost(ctx.instance, ctx.objective, mem_bits, time_s)
    return AllocationResult(placement, cost, explored, (ctx.instance, delays, ctx.include_return_hop))


def solve_bruteforce(
    instance: ProblemInstance,
    objective: Optional[Objective] = None,
    include_return_hop: bool = True,
    delays: Optional[Dict[Tuple[str, str], float]] = None,
) -> AllocationResult:
    """Reference oracle: enumerate every feasible placement (at most DEFAULT_ENUMERATION_CAP)."""
    if not instance.algorithms:  # the enumeration would count the one empty placement
        return AllocationResult({}, CostPoint(0.0, 0.0, 0.0), 0)
    ctx = build_context(instance, objective, include_return_hop, delays)
    total = math.prod(map(len, ctx.allowed.values()))
    if total > DEFAULT_ENUMERATION_CAP:
        raise CapExceededError("placement enumeration", total, DEFAULT_ENUMERATION_CAP)

    best_key = best_time = best_placement = None
    for placement in _placements(ctx, range(total)):
        key, time_s = _placement_key(ctx, placement)
        if best_key is None or key < best_key:
            best_key, best_time, best_placement = key, time_s, placement
    return _finish(ctx, best_placement, total, best_key[1], best_time, delays)  # every placement explored


def _placements(c: CompiledInstance, indices) -> Iterator[Placement]:
    """The feasible placements at the given indices of their enumeration in
    itertools.product order over c.allowed of c.sorted_ids (the last id
    varies fastest), each keyed in sorted id order."""
    ids, choices = c.sorted_ids, [c.allowed[aid] for aid in reversed(c.sorted_ids)]
    for index in indices:
        combo = []
        for nodes in choices:
            index, digit = divmod(index, len(nodes))
            combo.append(nodes[digit])
        combo.reverse()
        yield dict(zip(ids, combo))


# ---------------------------------------------------------------------------
# Branch and bound


class _EdgeMemory:
    """Robot memory in bits as algorithms join and leave the edge: region
    refcounts seeded with every algorithm's outputs (the robot holds them
    wherever they run), plus the processing bits of each edge algorithm."""

    def __init__(self, ctx: SolveContext):
        instance = ctx.instance
        self.count = dict.fromkeys(ctx.all_output_regions, 1)
        self.bits = sum(instance.region_bits(r) for r in ctx.all_output_regions)
        self.held = {}  # aid -> (processing bits, ((region, bits), ...))
        for aid, spec in instance.algorithms.items():
            m = spec.memory
            # from a list, not a generator (see CompiledInstance.lex_tuple)
            self.held[aid] = (m.processing_bits, tuple([(r, instance.region_bits(r)) for r in m.inputs | m.outputs]))

    def gain(self, aid: str) -> int:
        """Bits that adding aid to the edge would add."""
        processing, regions = self.held[aid]
        count = self.count
        return processing + sum(bits for r, bits in regions if not count.get(r, 0))

    def add(self, aid: str) -> None:
        processing, regions = self.held[aid]
        count = self.count
        self.bits += processing
        for r, bits in regions:
            held = count.get(r, 0)
            if not held:
                self.bits += bits
            count[r] = held + 1

    def remove(self, aid: str) -> None:
        processing, regions = self.held[aid]
        count = self.count
        self.bits -= processing
        for r, bits in regions:
            held = count[r] - 1
            if not held:
                self.bits -= bits
            count[r] = held


class _Search:
    def __init__(self, ctx: SolveContext):
        self.ctx = ctx
        self.longest = ctx.aggregate == "max_flow"
        self.completion, self.edge_bound, self.start_bound = _completion(ctx, self.longest)
        # agg, the running aggregate of the bounds, starts from the sources'
        # start bounds: under max_flow their maximum (bounds only grow under
        # _assign, so a stale one stays a valid lower bound and agg needs no
        # rescan), otherwise their sum (see _price_children)
        bounds = self.start_bound.values()
        self.agg = max(bounds, default=0.0) if self.longest else sum(bounds)
        self.finish: Dict[str, float] = {}  # P(v) or F(v) per assigned algorithm
        self.hop_row: Dict[str, Dict[str, float]] = {}  # out_rows[v][y_v] per assigned algorithm v
        self.memory = _EdgeMemory(ctx)
        self.assignment: Placement = {}
        # lex_lb: the lex tuple with every unassigned algorithm on its
        # lowest-rank allowed node (allowed is in tie-break order)
        self.lex_lb = [ctx.node_rank[ctx.allowed[aid][0]] for aid in ctx.sorted_ids]
        slot = {aid: i for i, aid in enumerate(ctx.sorted_ids)}
        self.lex_slot = [slot[aid] for aid in ctx.order]
        self.explored = 0
        self.best_key = self.best_time = self.best_placement = None  # the incumbent (see _leaf)
        # The rounding slack of _children: a float primary bound exceeds the
        # float primary of any completion by at most the factor 1 + k u, u =
        # 2**-53, to first order.  Each float operation rounds within u,
        # relatively, so a sum of nonnegative terms lies within r u of its
        # exact value, r the most roundings one term passes through, and a
        # min or max of such sums no further.  n algorithms, m dependency
        # edges; four ulps cover hypot and the weights' products.
        #
        # max_flow: a flow adds its n + 1 hops and n execs to 0.0 from its
        # start, within (2n + 2)u; the time bound adds terms of the same kind
        # in another order (B from the path's end), another (2n + 2)u, and is
        # at most the completion's time in exact arithmetic.  k also holds
        # 2 sum|flow| + #flows spare ulps: a wider slack explores more
        # near-ties and loses none, and this k fixes max_flow's node counts.
        # Both are path counts, not enumerations: v lies on paths_in(v)
        # paths_out(v) flows, so sum|flow| is the sum of those products, and
        # #flows the sum of paths_in over the sinks.
        #
        # total_flows and mean_flows: let T be a completion's exact total,
        # which the exact bound is at most.  Each product by a path count
        # rounds once.  F(v) takes at most 1 + indeg roundings per node of a
        # path, within (m + n + 1)u; E and C at most outdeg + 2, within
        # (m + 2n)u.  The running sum holds one term per live item (an edge
        # (u, s) with u assigned and s not, an assigned sink, an unassigned
        # source), each within (m + 2n + 3)u, and their exact terms add up
        # to at most T.  Each assigned v also leaves its trade: its term less
        # the terms of its out-edges, zero in exact arithmetic, rounded in
        # outdeg(v) + 5 places of size at most the flows through v; over the
        # nodes of each flow, (m + 5n)u of T.  The sum's own steps, n - 1 to
        # start and at most indeg + 2 per assignment, each lose at most uT:
        # (m + 3n)u.  So the bound is within (3m + 10n + 2)u of T, and
        # time_of, 2n roundings per flow and #flows - 1 to add them, within
        # (2n + #flows - 1)u; with the mean's division on each side and the
        # four ulps, k = 3m + 12n + #flows + 7.
        n = len(ctx.order)
        paths_in = ctx.paths_in
        if self.longest:
            k = 4 * n + 8 + 2 * sum([paths_in[v] * ctx.paths_out[v] for v in ctx.order]) + ctx.flow_count
        else:
            m = sum(map(len, ctx.preds.values()))
            k = 3 * m + 12 * n + ctx.flow_count + 7
        self.slack = 1.0 + k * 2.0**-53

    # -- incremental state -------------------------------------------------

    def _price_children(self, aid: str, nodes: Tuple[str, ...]) -> List[Tuple]:
        """Price assigning aid to each of nodes without applying it, at a cost
        per child of aid's in-degree, never its flow count: what every child
        reads is loaded once per call.  Returns per node, in nodes' order,
        (primary, memory, rank, node, state): the child's bound, then what
        _assign writes, (P or F of aid, agg).  Under max_flow P is aid's
        longest-path finish: the largest P(u) + hop over aid's predecessors
        u, or the request hop at a source, then + exec, and agg the larger
        of the parent's and P + B(aid, node), which bounds every flow
        through aid.
        Otherwise F is the sum over the paths to aid of their time through
        aid's exec, and agg trades the term of each inbound edge (u, aid),
        F(u) paths_out(aid) + paths_in(u) E(u, y_u, aid) (at a source, its
        start bound), for aid's own, F paths_out(aid) + paths_in(aid) C(aid,
        node): the flows those paths run on, priced through aid on node.  The
        inbound terms are the same for every child, so they come off agg
        once, in the order of aid's predecessors.
        """
        ctx, finish, hop_row = self.ctx, self.finish, self.hop_row
        preds, longest, agg = ctx.preds[aid], self.longest, self.agg
        execs, later, request = ctx.exec_s[aid], self.completion[aid], ctx.in_rows[aid]
        if longest:
            loaded = [(finish[u], hop_row[u]) for u in preds]
        else:
            paths_in, w, edge_bound = ctx.paths_in, ctx.paths_out[aid], self.edge_bound[aid]
            count_in, total = paths_in[aid], ctx.aggregate == "total_flows"
            loaded = [(finish[u], paths_in[u], hop_row[u]) for u in preds]
            for u, (f, count, _) in zip(preds, loaded):
                agg -= f * w + count * edge_bound[u][self.assignment[u]]
            if not preds:
                agg -= self.start_bound[aid]
        edge, memory, primary, rank = ctx.edge_id, self.memory.bits, ctx.primary, ctx.node_rank
        on_edge = memory + self.memory.gain(aid) if edge in nodes else memory
        children = []
        for node in nodes:
            if longest:
                if loaded:
                    t = -math.inf
                    for f, row in loaded:
                        s = f + row[node]
                        if s > t:
                            t = s
                else:
                    t = request[node]
                t += execs[node]
                bound = t + later[node]
                child_agg = time_bound = bound if bound > agg else agg
            else:
                if loaded:
                    t = 0.0
                    for f, count, row in loaded:
                        t += f + count * row[node]
                    t += count_in * execs[node]
                else:
                    t = request[node] + execs[node]
                child_agg = agg + (t * w + count_in * later[node])
                time_bound = child_agg if total else child_agg / ctx.flow_count
            mem_bits = on_edge if node == edge else memory
            children.append((primary(time_bound, mem_bits), mem_bits, rank[node], node, (t, child_agg)))
        return children

    def _assign(self, aid: str, node: str, state: Tuple) -> None:
        """Apply exactly what _price_children priced, so a child is priced
        once, and record aid's outbound hop row from node."""
        self.finish[aid], self.agg = state
        self.hop_row[aid] = self.ctx.out_rows[aid][node]
        if node == self.ctx.edge_id:
            self.memory.add(aid)
        self.assignment[aid] = node

    def _unassign(self, aid: str, agg: float) -> None:
        """Undo _assign, given the agg it overwrote (P or F of an unassigned
        algorithm is never read)."""
        self.agg = agg
        if self.assignment.pop(aid) == self.ctx.edge_id:
            self.memory.remove(aid)

    def _leaf(self) -> None:
        """The full assignment, with its key and time (time_of's, so a weaker
        bound changes the search's effort, never its answer), becomes the
        incumbent if first (the dive's) or better."""
        ctx, mem_bits = self.ctx, self.memory.bits
        time_s = ctx.time_of(self.assignment, ctx.aggregate)
        key = (ctx.primary(time_s, mem_bits), mem_bits, ctx.lex_tuple(self.assignment))
        if self.best_key is None or key < self.best_key:
            self.best_key, self.best_time, self.best_placement = key, time_s, dict(self.assignment)

    # -- search ------------------------------------------------------------

    def run(self) -> Tuple[Placement, int]:
        """Search from warm_start's incumbent; return the optimum and the search
        nodes explored.  The walk keeps an explicit stack of per-depth child
        generators, so its depth is not bounded by the recursion limit."""
        stack = [self._children(0)]
        while stack:
            if next(stack[-1], False):
                stack.append(self._children(len(stack)))
            else:
                stack.pop()
        return self.best_placement, self.explored

    def _children(self, depth: int):
        """Enter the search node at depth: a leaf is scored at once; an inner
        node yields True with each surviving child assigned in turn, and
        undoes it when resumed."""
        ctx = self.ctx
        if depth == len(ctx.order):
            self._leaf()
            return
        aid = ctx.order[depth]
        slot = self.lex_slot[depth]
        lex_lb = self.lex_lb
        floor = lex_lb[slot]
        # rank is unique per node, so the sort never compares past it
        children = self._price_children(aid, ctx.allowed[aid])
        children.sort()
        agg = self.agg
        for primary, mem_bits, rank, node, state in children:
            # Descend only if the bound (primary, mem, lex_lb) beats the
            # incumbent's key.  Every completion of the child has memory no
            # lower (robot memory only grows) and a lex tuple no lower entry
            # by entry, and primary no lower in exact arithmetic; in floats
            # the primary bound may exceed a completion's by rounding, up to
            # the factor slack.  So a bound above best_primary * slack proves
            # every completion slower than the incumbent, and as children
            # ascend in primary, every later child's too: stop.  A bound
            # above best_primary but within the slack may hide a tie, so it
            # counts as equal to best_primary and (memory, lex_lb) decide;
            # those children no longer ascend in memory, so a loser moves on
            # to the next child.  Leaves compare exact keys.  This misses only
            # a completion faster than the incumbent by less than the slack
            # that loses on (memory, lex).  best_key only tightens between
            # pricing and here, so the child bounds stay valid.
            best_primary, best_mem, best_lex = self.best_key
            if primary > best_primary * self.slack:
                break
            lex_lb[slot] = rank
            if primary >= best_primary and (
                mem_bits > best_mem or (mem_bits == best_mem and tuple(lex_lb) >= best_lex)
            ):
                continue
            self._assign(aid, node, state)
            self.explored += 1
            yield True
            self._unassign(aid, agg)
        lex_lb[slot] = floor


def warm_start(search: _Search, nodes: Dict[str, Tuple[str, ...]]) -> None:
    """The search's first dive, uncounted, which gives its incumbent: each
    algorithm in branching order takes its least child over nodes[aid] by
    the key _price_children gives (bound, memory, rank), _leaf scores the
    leaf, and the dive is undone.  One node per algorithm starts the search
    from that placement; only its effort depends on the incumbent (see the
    module docstring)."""
    order, agg = search.ctx.order, search.agg
    for aid in order:
        # rank is unique per node, so min never compares past it
        _, _, _, node, state = min(search._price_children(aid, nodes[aid]))
        search._assign(aid, node, state)
    search._leaf()
    for aid in order:  # nothing reads agg between these, and the last sets it back
        search._unassign(aid, agg)


def solve_branch_bound(
    instance: ProblemInstance,
    objective: Optional[Objective] = None,
    include_return_hop: bool = True,
    delays: Optional[Dict[Tuple[str, str], float]] = None,
) -> AllocationResult:
    """Exact search over placements, branching in layering order, from the
    warm start's incumbent.

    Returns the same optimum and the same tie-broken placement as
    solve_bruteforce, usually after exploring far fewer nodes.
    """
    ctx = build_context(instance, objective, include_return_hop, delays)
    return _finish(ctx, *_search(ctx), delays)


def _search(ctx: SolveContext) -> Tuple[Placement, int, int, float]:
    """The branch-and-bound optimum of ctx, in sorted id order, the number of
    search nodes explored, and its leaf's memory bits and time."""
    search = _Search(ctx)
    warm_start(search, ctx.allowed)
    placement, explored = search.run()
    return {aid: placement[aid] for aid in ctx.sorted_ids}, explored, search.best_key[1], search.best_time


# ---------------------------------------------------------------------------
# Pareto front


@dataclass(frozen=True)
class ScatterPoint:
    index: int  # position in the feasible enumeration (tie-break node order)
    placement: Tuple[str, ...]  # node per algorithm, algorithms sorted by id
    cost: CostPoint
    on_front: bool


def scatter(
    instance: ProblemInstance,
    objective: Optional[Objective] = None,
    max_points: int = 10**6,
) -> List[ScatterPoint]:
    """Cost of every feasible placement with its non-dominated flag.

    When the feasible space exceeds max_points a deterministic stratified
    subsample (evenly spaced enumeration indices) is evaluated instead.
    """
    if not instance.algorithms:
        return []
    ctx = build_context(instance, objective)
    total = math.prod(map(len, ctx.allowed.values()))
    if total > max_points:
        warnings.warn(
            f"feasible space has {total} placements; evaluating a stratified "
            f"subsample of {max_points}",
            stacklevel=2,
        )
        indices = [i * total // max_points for i in range(max_points)]
    else:
        indices = range(total)

    points = [
        (index, tuple(placement.values()), *_price(ctx, placement, ctx.aggregate))
        for index, placement in zip(indices, _placements(ctx, indices))
    ]

    # Non-dominated over (memory, time), both minimized: in sorted order, a
    # distinct pair is on the front when it is faster than every earlier one.
    front_keys, fastest = set(), math.inf
    for key in sorted({(mem_bits, time_s) for _, _, mem_bits, time_s in points}):
        if key[1] < fastest:
            front_keys.add(key)
            fastest = key[1]

    return [
        ScatterPoint(index, combo, make_cost(instance, ctx.objective, mem_bits, time_s), (mem_bits, time_s) in front_keys)
        for index, combo, mem_bits, time_s in points
    ]


def pareto_front(
    instance: ProblemInstance,
    objective: Optional[Objective] = None,
    max_points: int = 10**6,
) -> List[ScatterPoint]:
    """The non-dominated placements, sorted by (memory, time, placement)."""
    return sorted(
        (p for p in scatter(instance, objective, max_points) if p.on_front),
        key=lambda p: (p.cost.memory_bytes, p.cost.time_seconds, p.placement),
    )
