"""Problem model: nodes, memory regions, algorithms, dependency graph, comm links.

An instance describes a single robot (the unique edge-tier node) that must run a
DAG of interdependent algorithms, each placeable on edge, fog, or cloud nodes.
All data sizes are bits (ints), all times are seconds (floats).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple


class Tier(str, Enum):
    EDGE = "edge"
    FOG = "fog"
    CLOUD = "cloud"


class ProblemFormatError(ValueError):
    """Raised when instance text cannot be parsed into a ProblemInstance."""


class CommUnreachableError(ValueError):
    """Raised when no declared link path connects a requested node pair."""


class InfeasibleError(ValueError):
    """Raised when a placement (or search) violates location constraints."""


class CapExceededError(RuntimeError):
    """Raised when an enumeration would exceed its configured cap."""

    def __init__(self, kind: str, count: int, cap: int):
        super().__init__(f"{kind}: {count} exceeds cap {cap}")
        self.kind = kind
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class LocationNode:
    id: str
    tier: Tier


@dataclass(frozen=True)
class MemoryRegion:
    """Named block of data; shared regions are counted once per location."""

    id: str
    size_bits: int


@dataclass(frozen=True)
class MemoryProfile:
    """Input/processing/output footprint of one algorithm.

    growth_per_step gives the per-execution-step linear growth (bits) of each
    component; any positive growth marks the algorithm as unbounded.
    """

    inputs: FrozenSet[str] = frozenset()
    outputs: FrozenSet[str] = frozenset()
    processing_bits: int = 0
    growth_per_step: Tuple[int, int, int] = (0, 0, 0)  # (inputs, processing, outputs)


@dataclass(frozen=True)
class DelaySpec:
    """Folded-normal stochastic delay |N(mu, sigma)| added to a link."""

    mu: float
    sigma: float

    def mean(self) -> float:
        if self.sigma == 0.0:
            return abs(self.mu)
        z = self.mu / self.sigma
        return self.sigma * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * z * z) + self.mu * math.erf(
            z / math.sqrt(2.0)
        )

    def sample(self, rng) -> float:
        return abs(rng.gauss(self.mu, self.sigma))


@dataclass(frozen=True)
class CommLink:
    base_seconds: float
    delay: Optional[DelaySpec] = None
    per_byte_seconds: float = 0.0

    def expected_seconds(self, payload_bits: int) -> float:
        cost = self.base_seconds + self.per_byte_seconds * _payload_bytes(payload_bits)
        if self.delay is not None:
            cost += self.delay.mean()
        return cost


def _payload_bytes(payload_bits: int) -> int:
    return -(-payload_bits // 8)


@dataclass
class CommModel:
    """Directed link set; missing pairs are composed by cheapest declared path.

    Routes are chosen by expected total time and cached; same-node cost is 0.
    The links are read once, at the first route: its adjacency lists and
    whether any link charges per byte are kept with the routes.
    """

    links: Dict[Tuple[str, str], CommLink] = field(default_factory=dict)
    _routes: Dict[Tuple[str, str, int], Tuple[Tuple[str, str], ...]] = field(
        default_factory=dict, compare=False, repr=False
    )
    # node -> its link targets, sorted; built with _per_byte on first use
    _out: Optional[Dict[str, List[str]]] = field(default=None, compare=False, repr=False)
    _per_byte: bool = field(default=False, compare=False, repr=False)

    def payload_key(self, payload_bits: int) -> int:
        """The payload a hop's route and seconds depend on: payload_bits if
        some link charges per byte, else 0.  Without such a link every
        payload prices base + 0.0 * bytes, so its routes and seconds are the
        same floats as payload 0's."""
        if self._out is None:
            self._index()
        return payload_bits if self._per_byte else 0

    def _index(self) -> None:
        out: Dict[str, List[str]] = {}
        for (u, v) in self.links:
            out.setdefault(u, []).append(v)
        for vs in out.values():
            vs.sort()
        self._out = out
        self._per_byte = any(link.per_byte_seconds for link in self.links.values())

    def resolve(
        self,
        src: str,
        dst: str,
        payload_bits: int = 0,
        delays: Optional[Dict[Tuple[str, str], float]] = None,
    ) -> float:
        """Seconds to ship payload_bits from src to dst.

        A delayed link costs its analytic folded-normal mean, unless a delays
        dict holds a realization for it (links absent from it keep their mean).
        """
        if src == dst:
            return 0.0
        total = 0.0
        for hop in self._route(src, dst, payload_bits):
            link = self.links[hop]
            total += link.base_seconds + link.per_byte_seconds * _payload_bytes(payload_bits)
            if link.delay is not None:
                # the mean only on a miss: it costs a sqrt, an exp and an erf
                delay = delays.get(hop) if delays is not None else None
                total += link.delay.mean() if delay is None else delay
        return total

    def _route(self, src: str, dst: str, payload_bits: int) -> Tuple[Tuple[str, str], ...]:
        payload_bits = self.payload_key(payload_bits)
        key = (src, dst, payload_bits)
        cached = self._routes.get(key)
        if cached is not None:
            return cached
        self._dijkstra(src, payload_bits)
        if key not in self._routes:
            raise CommUnreachableError(f"no communication path from {src!r} to {dst!r}")
        return self._routes[key]

    def _dijkstra(self, src: str, payload_bits: int) -> None:
        import heapq

        # Path tuples in the heap give a deterministic lexicographic tie-break
        # between equal-cost routes.
        out = self._out
        heap: List[Tuple[float, Tuple[str, ...]]] = [(0.0, (src,))]
        done = set()
        while heap:
            cost, path = heapq.heappop(heap)
            node = path[-1]
            if node in done:
                continue
            done.add(node)
            hops = tuple(list(zip(path, path[1:])))  # see optimizer.SolveContext.lex_tuple
            self._routes[(src, node, payload_bits)] = hops
            for nxt in out.get(node, ()):
                if nxt in done:
                    continue
                step = self.links[(node, nxt)].expected_seconds(payload_bits)
                heapq.heappush(heap, (cost + step, path + (nxt,)))


@dataclass
class DependencyGraph:
    """DAG of algorithms; edges (producer, consumer)."""

    algorithms: Dict[str, "AlgorithmSpec"] = field(default_factory=dict)
    edges: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class AlgorithmSpec:
    id: str
    exec_time: Dict[Tier, float] = field(default_factory=dict)
    node_overrides: Dict[str, float] = field(default_factory=dict)
    memory: MemoryProfile = MemoryProfile()
    space_rank: int = 0
    space_label: str = ""
    allowed_locations: Optional[FrozenSet[str]] = None

    def exec_time_at(self, node: LocationNode) -> float:
        if node.id in self.node_overrides:
            return self.node_overrides[node.id]
        try:
            return self.exec_time[node.tier]
        except KeyError:
            raise KeyError(f"algorithm {self.id!r} has no execution time for node {node.id!r}")

    __hash__ = None  # the generated hash would fail on the dict fields; the generated eq is kept


@dataclass
class Options:
    time_aggregate: str = "max_flow"  # max_flow | total_flows | mean_flows
    memory_weight: float = 1.0
    time_weight: float = 1.0
    boundedness_horizon: int = 16


@dataclass
class ProblemInstance:
    nodes: Dict[str, LocationNode] = field(default_factory=dict)
    regions: Dict[str, MemoryRegion] = field(default_factory=dict)
    graph: DependencyGraph = field(default_factory=DependencyGraph)
    comm: CommModel = field(default_factory=CommModel)
    options: Options = field(default_factory=Options)

    @property
    def algorithms(self) -> Dict[str, AlgorithmSpec]:
        return self.graph.algorithms

    def edge_node_id(self) -> str:
        edges = [n.id for n in self.nodes.values() if n.tier is Tier.EDGE]
        if len(edges) != 1:
            raise InfeasibleError(f"expected exactly one edge node, found {len(edges)}")
        return edges[0]

    def region_bits(self, region_id: str) -> int:
        return self.regions[region_id].size_bits


TIME_AGGREGATES = ("max_flow", "total_flows", "mean_flows")

# Tie-break order over nodes: cloud nodes by id, then fog nodes by id, then the
# edge node.  Placements are compared lexicographically in this order, so equal
# costs resolve toward the deepest offload.
_TIER_ORDER = {Tier.CLOUD: 0, Tier.FOG: 1, Tier.EDGE: 2}


def node_order(instance: ProblemInstance) -> List[str]:
    return [
        n.id
        for n in sorted(instance.nodes.values(), key=lambda n: (_TIER_ORDER[n.tier], n.id))
    ]


def unbounded_restrictions(profile: MemoryProfile, horizon: int) -> Tuple[str, ...]:
    """Names of memory components that strictly grow over steps 1..horizon."""
    if horizon < 2:
        return ()
    names = ("inputs", "processing", "outputs")
    return tuple(name for name, g in zip(names, profile.growth_per_step) if g > 0)


def effective_allowed(instance: ProblemInstance) -> Dict[str, Tuple[str, ...]]:
    """Allowed node ids per algorithm, in tie-break order.

    Algorithms with unbounded memory growth are restricted to cloud-tier nodes
    (their growth has to live on elastic storage, not on the robot or fog).
    An allowed location that names no node is left out (validate reports it).
    """
    order = node_order(instance)
    rank = {nid: i for i, nid in enumerate(order)}
    horizon = instance.options.boundedness_horizon
    out: Dict[str, Tuple[str, ...]] = {}
    for aid, spec in instance.algorithms.items():
        allowed = set(order) if spec.allowed_locations is None else rank.keys() & spec.allowed_locations
        if unbounded_restrictions(spec.memory, horizon):
            allowed = {nid for nid in allowed if instance.nodes[nid].tier is Tier.CLOUD}
        out[aid] = tuple(sorted(allowed, key=rank.__getitem__))
    return out


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    members: Tuple[str, ...] = ()


@dataclass
class ValidationReport:
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> List[str]:
        return [f"{v.kind}: {v.message}" for v in self.violations]


def _strongly_connected(edges: Iterable[Tuple[str, str]], vertices: Iterable[str]) -> List[List[str]]:
    """Tarjan SCCs (iterative), returned as sorted member lists."""
    adj: Dict[str, List[str]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in sorted(adj):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs


def validate(instance: ProblemInstance) -> ValidationReport:
    """Collect every admissibility violation; an empty report means valid."""
    report = ValidationReport()
    nodes = instance.nodes
    algs = instance.algorithms

    def flag(kind: str, message: str, *members: str) -> None:
        report.violations.append(Violation(kind, message, members))

    edge_nodes = sorted(n.id for n in nodes.values() if n.tier is Tier.EDGE)
    if (nodes or algs) and not edge_nodes:
        flag("no-edge-node", "no edge-tier node: the robot is missing")
    if len(edge_nodes) > 1:
        flag("single-robot", f"single-robot violation: {len(edge_nodes)} edge nodes {edge_nodes}", *edge_nodes)

    for u, v in instance.graph.edges:
        for missing in sorted({u, v} - algs.keys()):
            flag("unknown-algorithm", f"dependency edge ({u}, {v}) names unknown algorithm {missing}", u, v)
    edges = [(u, v) for u, v in instance.graph.edges if u in algs and v in algs]
    for scc in _strongly_connected(edges, algs):
        if len(scc) > 1:
            flag("cycle", f"dependency cycle through {', '.join(scc)}", *scc)

    allowed = effective_allowed(instance)
    for aid in sorted(algs):
        spec = algs[aid]
        declared = (
            sorted(spec.allowed_locations) if spec.allowed_locations is not None else sorted(nodes)
        )
        for nid in declared:
            if nid not in nodes:
                flag("unknown-node", f"algorithm {aid} allows unknown node {nid}", aid, nid)
            elif nid not in spec.node_overrides and nodes[nid].tier not in spec.exec_time:
                flag("missing-exec-time", f"algorithm {aid} has no execution time for allowed node {nid}", aid, nid)
        if not allowed[aid]:
            flag(
                "no-feasible-location",
                f"algorithm {aid} has no feasible location "
                "(allowed set empty after unbounded-growth restriction to cloud)",
                aid,
            )

    # Every ordered node pair must be resolvable: flow evaluation may route
    # between any two locations.
    reach: Dict[str, set] = {nid: {nid} for nid in nodes}
    for (u, v) in instance.comm.links:
        for missing in sorted({u, v} - nodes.keys()):
            flag("unknown-node", f"comm link ({u}, {v}) names unknown node {missing}", u, v)
        if u in nodes and v in nodes:
            reach[u].add(v)
    changed = True
    while changed:
        changed = False
        for nid in reach:
            before = len(reach[nid])
            for mid in tuple(reach[nid]):
                reach[nid] |= reach[mid]
            if len(reach[nid]) != before:
                changed = True
    for u in sorted(nodes):
        for v in sorted(nodes):
            if v not in reach[u]:
                flag("unreachable-pair", f"no communication path from {u} to {v}", u, v)

    return report


# ---------------------------------------------------------------------------
# Parsing / serialization

_TOP_KEYS = {"nodes", "regions", "algorithms", "edges", "comm", "options"}


def _reject_unknown(obj: dict, known: set, ctx: str) -> None:
    unknown = set(obj) - known
    if unknown:
        raise ProblemFormatError(f"{ctx}: unknown key(s) {sorted(unknown)}")


def _require(obj: dict, key: str, ctx: str):
    if key not in obj:
        raise ProblemFormatError(f"{ctx}: missing required key {key!r}")
    return obj[key]


def _object(value, ctx: str) -> dict:
    if not isinstance(value, dict):
        raise ProblemFormatError(f"{ctx}: expected an object, got {value!r}")
    return value


def _array(value, ctx: str) -> list:
    if not isinstance(value, list):
        raise ProblemFormatError(f"{ctx}: expected an array, got {value!r}")
    return value


def _number(value, ctx: str) -> float:
    # the range test also rejects NaN, infinities and ints too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        -sys.float_info.max <= value <= sys.float_info.max
    ):
        raise ProblemFormatError(f"{ctx}: expected a number, got {value!r}")
    return float(value)


def _time(value, ctx: str) -> float:
    value = _number(value, ctx)
    if value < 0:
        raise ProblemFormatError(f"{ctx}: negative time {value!r}")
    return value


def _bits(value, ctx: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFormatError(f"{ctx}: expected an integer bit count, got {value!r}")
    if value < 0:
        raise ProblemFormatError(f"{ctx}: negative size {value!r}")
    # memory is priced in floats, which hold every count up to 2**53 exactly
    if value > 2**53:
        raise ProblemFormatError(f"{ctx}: size exceeds 2**53 bits")
    return value


def _ident(value, ctx: str) -> str:
    if not isinstance(value, str) or not value:
        raise ProblemFormatError(f"{ctx}: expected a non-empty string id, got {value!r}")
    # one shared string per id across parsed instances, not a copy per document
    return sys.intern(value)


def parse_problem(text: str) -> ProblemInstance:
    """Parse instance JSON; raises ProblemFormatError with a position on bad syntax."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ProblemFormatError("top level must be a JSON object")
    return instance_from_dict(data)


def instance_from_dict(data: dict) -> ProblemInstance:
    _reject_unknown(_object(data, "instance"), _TOP_KEYS, "instance")

    nodes: Dict[str, LocationNode] = {}
    for entry in _array(data.get("nodes", []), "nodes"):
        _reject_unknown(_object(entry, "node"), {"id", "tier"}, "node")
        nid = _ident(_require(entry, "id", "node"), "node.id")
        if nid in nodes:
            raise ProblemFormatError(f"duplicate node id {nid!r}")
        tier_raw = _require(entry, "tier", f"node {nid}")
        try:
            tier = Tier(tier_raw)
        except ValueError:
            raise ProblemFormatError(f"node {nid}: unknown tier {tier_raw!r}")
        nodes[nid] = LocationNode(nid, tier)

    regions: Dict[str, MemoryRegion] = {}
    for entry in _array(data.get("regions", []), "regions"):
        _reject_unknown(_object(entry, "region"), {"id", "size_bits"}, "region")
        rid = _ident(_require(entry, "id", "region"), "region.id")
        if rid in regions:
            raise ProblemFormatError(f"duplicate region id {rid!r}")
        regions[rid] = MemoryRegion(rid, _bits(_require(entry, "size_bits", f"region {rid}"), f"region {rid}"))

    algorithms: Dict[str, AlgorithmSpec] = {}
    for entry in _array(data.get("algorithms", []), "algorithms"):
        _reject_unknown(
            _object(entry, "algorithm"),
            {"id", "exec_time", "memory", "space_rank", "space_label", "allowed_locations"},
            "algorithm",
        )
        aid = _ident(_require(entry, "id", "algorithm"), "algorithm.id")
        if aid in algorithms:
            raise ProblemFormatError(f"duplicate algorithm id {aid!r}")

        exec_time: Dict[Tier, float] = {}
        overrides: Dict[str, float] = {}
        raw_exec = _object(entry.get("exec_time", {}), f"algorithm {aid}.exec_time")
        _reject_unknown(raw_exec, {"edge", "fog", "cloud", "overrides"}, f"algorithm {aid}.exec_time")
        for tier in Tier:
            if tier.value in raw_exec:
                exec_time[tier] = _time(raw_exec[tier.value], f"algorithm {aid}.exec_time.{tier.value}")
        raw_overrides = _object(raw_exec.get("overrides", {}), f"algorithm {aid}.exec_time.overrides")
        for nid, secs in raw_overrides.items():
            if nid not in nodes:
                raise ProblemFormatError(f"algorithm {aid}: exec override for unknown node {nid!r}")
            overrides[sys.intern(nid)] = _time(secs, f"algorithm {aid}.exec_time.overrides.{nid}")

        raw_mem = _object(entry.get("memory", {}), f"algorithm {aid}.memory")
        _reject_unknown(
            raw_mem,
            {"inputs", "outputs", "processing_bits", "growth_per_step"},
            f"algorithm {aid}.memory",
        )
        region_sets = {}
        for key in ("inputs", "outputs"):
            ids = [
                _ident(rid, f"algorithm {aid}.memory.{key}")
                for rid in _array(raw_mem.get(key, []), f"algorithm {aid}.memory.{key}")
            ]
            for rid in ids:
                if rid not in regions:
                    raise ProblemFormatError(f"algorithm {aid}: unknown region {rid!r} in memory.{key}")
            region_sets[key] = frozenset(ids)
        raw_growth = _object(raw_mem.get("growth_per_step", {}), f"algorithm {aid}.memory.growth_per_step")
        _reject_unknown(raw_growth, {"inputs", "processing", "outputs"}, f"algorithm {aid}.growth_per_step")
        growth = tuple([  # from a list, see optimizer.SolveContext.lex_tuple
            _bits(raw_growth.get(key, 0), f"algorithm {aid}.growth_per_step.{key}")
            for key in ("inputs", "processing", "outputs")
        ])
        profile = MemoryProfile(
            inputs=region_sets["inputs"],
            outputs=region_sets["outputs"],
            processing_bits=_bits(raw_mem.get("processing_bits", 0), f"algorithm {aid}.processing_bits"),
            growth_per_step=growth,
        )

        allowed = None
        if "allowed_locations" in entry:
            allowed_list = [
                _ident(nid, f"algorithm {aid}.allowed_locations")
                for nid in _array(entry["allowed_locations"], f"algorithm {aid}.allowed_locations")
            ]
            for nid in allowed_list:
                if nid not in nodes:
                    raise ProblemFormatError(f"algorithm {aid}: unknown node {nid!r} in allowed_locations")
            allowed = frozenset(allowed_list)

        rank = entry.get("space_rank", 0)
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise ProblemFormatError(f"algorithm {aid}: space_rank must be an integer")
        label = entry.get("space_label", "")
        if not isinstance(label, str):
            raise ProblemFormatError(f"algorithm {aid}: space_label must be a string")

        algorithms[aid] = AlgorithmSpec(
            id=aid,
            exec_time=exec_time,
            node_overrides=overrides,
            memory=profile,
            space_rank=rank,
            space_label=label,
            allowed_locations=allowed,
        )

    seen_edges = set()
    edges: List[Tuple[str, str]] = []
    for entry in _array(data.get("edges", []), "edges"):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ProblemFormatError(f"edge {entry!r}: expected a [from, to] pair")
        u, v = (_ident(endpoint, "edge endpoint") for endpoint in entry)
        for endpoint in (u, v):
            if endpoint not in algorithms:
                raise ProblemFormatError(f"edge ({u!r}, {v!r}): unknown algorithm {endpoint!r}")
        if u == v:
            raise ProblemFormatError(f"edge ({u!r}, {v!r}): self-loop")
        if (u, v) in seen_edges:
            raise ProblemFormatError(f"duplicate edge ({u!r}, {v!r})")
        seen_edges.add((u, v))
        edges.append((u, v))

    links: Dict[Tuple[str, str], CommLink] = {}
    for entry in _array(data.get("comm", []), "comm"):
        _reject_unknown(_object(entry, "comm link"), {"from", "to", "base_seconds", "delay", "per_byte_seconds"}, "comm link")
        u = _ident(_require(entry, "from", "comm link"), "comm.from")
        v = _ident(_require(entry, "to", "comm link"), "comm.to")
        for endpoint in (u, v):
            if endpoint not in nodes:
                raise ProblemFormatError(f"comm link ({u!r}, {v!r}): unknown node {endpoint!r}")
        if u == v:
            raise ProblemFormatError(f"comm link ({u!r}, {v!r}): same-node links are implicit")
        if (u, v) in links:
            raise ProblemFormatError(f"duplicate comm link ({u!r}, {v!r})")
        delay = None
        if "delay" in entry and entry["delay"] is not None:
            raw_delay = _object(entry["delay"], f"comm link ({u}, {v}).delay")
            _reject_unknown(raw_delay, {"mu", "sigma"}, f"comm link ({u}, {v}).delay")
            mu = _number(_require(raw_delay, "mu", f"comm link ({u}, {v}).delay"), f"comm link ({u}, {v}).delay.mu")
            sigma = _time(_require(raw_delay, "sigma", f"comm link ({u}, {v}).delay"), f"comm link ({u}, {v}).delay.sigma")
            delay = DelaySpec(mu, sigma)
        links[(u, v)] = CommLink(
            base_seconds=_time(_require(entry, "base_seconds", f"comm link ({u}, {v})"), f"comm link ({u}, {v}).base_seconds"),
            delay=delay,
            per_byte_seconds=_time(entry.get("per_byte_seconds", 0.0), f"comm link ({u}, {v}).per_byte_seconds"),
        )

    _check_time_sums(len(nodes), algorithms, regions, links)

    raw_opts = _object(data.get("options", {}), "options")
    _reject_unknown(
        raw_opts,
        {"time_aggregate", "memory_weight", "time_weight", "boundedness_horizon"},
        "options",
    )
    aggregate = raw_opts.get("time_aggregate", "max_flow")
    if aggregate not in TIME_AGGREGATES:
        raise ProblemFormatError(f"options.time_aggregate: unknown aggregate {aggregate!r}")
    w_m = _time(raw_opts.get("memory_weight", 1.0), "options.memory_weight")
    w_t = _time(raw_opts.get("time_weight", 1.0), "options.time_weight")
    if w_m <= 0 or w_t <= 0:
        raise ProblemFormatError("options: weights must be positive")
    horizon = raw_opts.get("boundedness_horizon", 16)
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise ProblemFormatError("options.boundedness_horizon: expected an integer >= 1")

    return ProblemInstance(
        nodes=nodes,
        regions=regions,
        graph=DependencyGraph(algorithms=algorithms, edges=tuple(sorted(edges))),
        comm=CommModel(links=links),
        options=Options(
            time_aggregate=aggregate,
            memory_weight=w_m,
            time_weight=w_t,
            boundedness_horizon=horizon,
        ),
    )


def _check_time_sums(
    n_nodes: int,
    algorithms: Dict[str, AlgorithmSpec],
    regions: Dict[str, MemoryRegion],
    links: Dict[Tuple[str, str], CommLink],
) -> None:
    """Raise ProblemFormatError unless every flow's time is finite at mean
    delays.  A flow has at most n executions and n + 1 hops, and a hop is a
    route of at most n_nodes - 1 links, each priced by CommModel.resolve as
    one base + per-byte term, then its mean delay.  The largest of each
    term, added in that shape and order, bounds every flow's sum, since
    rounded addition is monotone in each operand."""
    specs = algorithms.values()
    size = 0  # the largest payload in bytes, which only a per-byte link reads
    if any(link.per_byte_seconds for link in links.values()):
        held = [region_set for s in specs for region_set in (s.memory.inputs, s.memory.outputs)]
        size = _payload_bytes(max((sum(regions[r].size_bits for r in rs) for rs in held), default=0))
    term = max((link.base_seconds + link.per_byte_seconds * size for link in links.values()), default=0.0)
    delay = max((link.delay.mean() for link in links.values() if link.delay is not None), default=0.0)
    exec_max = max(
        (max(times.values(), default=0.0) for s in specs for times in (s.exec_time, s.node_overrides)),
        default=0.0,
    )
    hop = 0.0
    for _ in range(n_nodes - 1):
        hop += term
        hop += delay
    total = hop
    for _ in algorithms:
        total += exec_max
        total += hop
    if not math.isfinite(total):
        raise ProblemFormatError(
            f"time sums overflow: {len(algorithms)} executions of up to {exec_max!r} s and "
            f"{len(algorithms) + 1} hops of up to {hop!r} s exceed the float range"
        )


def instance_to_dict(instance: ProblemInstance) -> dict:
    """Canonical plain-dict form (stable ordering, round-trips via parse)."""
    algorithms = []
    for aid in sorted(instance.algorithms):
        spec = instance.algorithms[aid]
        exec_time: dict = {tier.value: spec.exec_time[tier] for tier in Tier if tier in spec.exec_time}
        if spec.node_overrides:
            exec_time["overrides"] = {nid: spec.node_overrides[nid] for nid in sorted(spec.node_overrides)}
        entry: dict = {
            "id": aid,
            "exec_time": exec_time,
            "memory": {
                "inputs": sorted(spec.memory.inputs),
                "outputs": sorted(spec.memory.outputs),
                "processing_bits": spec.memory.processing_bits,
                "growth_per_step": dict(
                    zip(("inputs", "processing", "outputs"), spec.memory.growth_per_step)
                ),
            },
            "space_rank": spec.space_rank,
        }
        if spec.space_label:
            entry["space_label"] = spec.space_label
        if spec.allowed_locations is not None:
            entry["allowed_locations"] = sorted(spec.allowed_locations)
        algorithms.append(entry)

    comm = []
    for (u, v) in sorted(instance.comm.links):
        link = instance.comm.links[(u, v)]
        entry = {"from": u, "to": v, "base_seconds": link.base_seconds}
        if link.delay is not None:
            entry["delay"] = {"mu": link.delay.mu, "sigma": link.delay.sigma}
        if link.per_byte_seconds:
            entry["per_byte_seconds"] = link.per_byte_seconds
        comm.append(entry)

    return {
        "nodes": [
            {"id": nid, "tier": instance.nodes[nid].tier.value} for nid in sorted(instance.nodes)
        ],
        "regions": [
            {"id": rid, "size_bits": instance.regions[rid].size_bits}
            for rid in sorted(instance.regions)
        ],
        "algorithms": algorithms,
        "edges": [list(e) for e in sorted(instance.graph.edges)],
        "comm": comm,
        "options": {
            "time_aggregate": instance.options.time_aggregate,
            "memory_weight": instance.options.memory_weight,
            "time_weight": instance.options.time_weight,
            "boundedness_horizon": instance.options.boundedness_horizon,
        },
    }


def serialize_problem(instance: ProblemInstance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2, sort_keys=True) + "\n"
