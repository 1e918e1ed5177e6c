"""Problem model: nodes, memory regions, algorithms, dependency graph, comm links.

An instance describes a single robot (the unique edge-tier node) that must run a
DAG of interdependent algorithms, each placeable on edge, fog, or cloud nodes.
All data sizes are bits (ints), all times are seconds (floats).
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple


class Tier(str, Enum):
    EDGE = "edge"
    FOG = "fog"
    CLOUD = "cloud"


class ProblemFormatError(ValueError):
    """Raised when instance text cannot be parsed into a ProblemInstance."""


NOT_FINITE = "result is not finite: a time or memory sum overflows"


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


def _delay_seconds(hop: Tuple[str, str], spec: DelaySpec, delays: Optional[Dict[Tuple[str, str], float]]) -> float:
    """hop's realization in delays, or else its mean (only then: it costs a sqrt, an exp and an erf)."""
    delay = delays.get(hop) if delays is not None else None
    return spec.mean() if delay is None else delay


@dataclass(frozen=True)
class CommModel:
    """Directed link set; missing pairs are composed by cheapest declared path.

    Routes are chosen by expected total time and cached; same-node cost is 0.
    The links are fixed once the model is built: links is a read-only copy,
    no field can be reassigned, and every fact read from the links is derived
    here, at construction: each node's link targets, whether any link charges
    per byte, and delayed, the delayed links sorted by pair.
    """

    links: Mapping[Tuple[str, str], CommLink] = field(default_factory=dict)
    # (src, dst, payload key) -> the route's link pairs, filled as routes are asked for
    _routes: Dict[tuple, tuple] = field(default_factory=dict, init=False, compare=False, repr=False)
    # node -> its link targets, sorted
    _out: Dict[str, List[str]] = field(init=False, compare=False, repr=False)
    _per_byte: bool = field(init=False, compare=False, repr=False)
    delayed: Tuple[Tuple[Tuple[str, str], DelaySpec], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        links = MappingProxyType(dict(self.links))
        out: Dict[str, List[str]] = {}
        for (u, v) in sorted(links):
            out.setdefault(u, []).append(v)
        delayed = tuple((hop, link.delay) for hop, link in sorted(links.items()) if link.delay is not None)
        # a frozen dataclass's fields are set through object.__setattr__, once, here
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_per_byte", any(link.per_byte_seconds for link in links.values()))
        object.__setattr__(self, "delayed", delayed)

    def __reduce__(self):  # pickle and deepcopy rebuild the model from a plain copy of its links
        return CommModel, (dict(self.links),)

    def payload_key(self, payload_bits: int) -> int:
        """The payload a hop's route and seconds depend on: payload_bits if
        some link charges per byte, else 0.  Without such a link every
        payload prices base + 0.0 * bytes, so its routes and seconds are the
        same floats as payload 0's."""
        return payload_bits if self._per_byte else 0

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
        def add_link(total, hop, fixed, spec):
            return total + fixed if spec is None else total + fixed + _delay_seconds(hop, spec, delays)

        return self._route(src, dst, payload_bits, 0.0, add_link)

    def delay_columns(self, realizations: List[Dict[Tuple[str, str], float]]) -> Dict[Tuple[str, str], List[float]]:
        """Per delayed link, its delay in each realization as resolve reads it."""
        return {hop: [_delay_seconds(hop, spec, d) for d in realizations] for hop, spec in self.delayed}

    def resolve_over(self, src: str, dst: str, payload_bits: int, columns: dict, trials: int) -> List[float]:
        """resolve under each realization of delay_columns: (total + fixed) + delay per link, as resolve adds."""
        def add_link(total, hop, fixed, spec):
            if spec is None:
                return [t + fixed for t in total]
            return [t + fixed + d for t, d in zip(total, columns[hop])]

        return self._route(src, dst, payload_bits, [0.0] * trials, add_link)

    def _route(self, src: str, dst: str, payload_bits: int, total, add_link):
        """total, then add_link(total, link pair, base + per-byte seconds,
        delay spec) per link of the cached route from src to dst; a hop within
        one node has no link and costs total as it stands."""
        if src == dst:
            return total
        key = (src, dst, self.payload_key(payload_bits))
        if key not in self._routes:
            self._dijkstra(src, key[2])
            if key not in self._routes:
                raise CommUnreachableError(f"no communication path from {src!r} to {dst!r}")
        size = _payload_bytes(payload_bits)
        for hop in self._routes[key]:
            link = self.links[hop]
            total = add_link(total, hop, link.base_seconds + link.per_byte_seconds * size, link.delay)
        return total

    def _dijkstra(self, src: str, payload_bits: int) -> None:
        # Path tuples in the heap give a deterministic lexicographic tie-break
        # between equal-cost routes.
        heap: List[Tuple[float, Tuple[str, ...]]] = [(0.0, (src,))]
        done = set()
        while heap:
            cost, path = heapq.heappop(heap)
            node = path[-1]
            if node in done:
                continue
            done.add(node)
            hops = tuple(list(zip(path, path[1:])))  # see optimizer.CompiledInstance.lex_tuple
            self._routes[(src, node, payload_bits)] = hops
            for nxt in self._out.get(node, ()):
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
    Every algorithm with neither shares one tuple, every node in order.
    """
    order = node_order(instance)
    everywhere = tuple(order)
    rank = {nid: i for i, nid in enumerate(order)}
    horizon = instance.options.boundedness_horizon
    out: Dict[str, Tuple[str, ...]] = {}
    for aid, spec in instance.algorithms.items():
        unbounded = unbounded_restrictions(spec.memory, horizon)
        if spec.allowed_locations is None and not unbounded:
            out[aid] = everywhere
            continue
        allowed = set(order) if spec.allowed_locations is None else rank.keys() & spec.allowed_locations
        if unbounded:
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


def _strongly_connected(adj: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan SCCs of the graph of successor lists adj, returned as sorted
    member lists: iterative, by frames (vertex, successors left) under a root
    frame over every vertex in id order; len(index) counts the vertices met."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    work = [(None, iter(sorted(adj)))]
    while work:
        v, succ = work[-1]
        for w in succ:
            if w not in index:
                index[w] = low[w] = len(index)
                stack.append(w)
                on_stack.add(w)
                work.append((w, iter(adj[w])))
                break
            if w in on_stack:  # never at the root frame: each of its searches emptied the stack
                low[v] = min(low[v], index[w])
        else:
            work.pop()
            if v is None:
                break
            if low[v] < index[v]:  # v's component closes at an ancestor
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
                continue
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
    regions = instance.regions.keys()

    def flag(kind: str, message: str, *members: str) -> None:
        report.violations.append(Violation(kind, message, members))

    edge_nodes = sorted(n.id for n in nodes.values() if n.tier is Tier.EDGE)
    if (nodes or algs) and not edge_nodes:
        flag("no-edge-node", "no edge-tier node: the robot is missing")
    if len(edge_nodes) > 1:
        flag("single-robot", f"single-robot violation: {len(edge_nodes)} edge nodes {edge_nodes}", *edge_nodes)

    succs: Dict[str, List[str]] = {aid: [] for aid in algs}
    indegree = dict.fromkeys(algs, 0)
    for u, v in instance.graph.edges:
        if u in algs and v in algs:
            succs[u].append(v)
            indegree[v] += 1
            continue
        for missing in sorted({u, v} - algs.keys()):
            flag("unknown-algorithm", f"dependency edge ({u}, {v}) names unknown algorithm {missing}", u, v)
    # Kahn's order reaches every algorithm exactly when the graph has no
    # cycle, and then no strongly connected component has two members
    ready = [aid for aid, d in indegree.items() if not d]
    for u in ready:
        for v in succs[u]:
            indegree[v] -= 1
            if not indegree[v]:
                ready.append(v)
    for scc in _strongly_connected(succs) if len(ready) < len(algs) else ():
        if len(scc) > 1:
            flag("cycle", f"dependency cycle through {', '.join(scc)}", *scc)

    allowed = effective_allowed(instance)
    node_ids = sorted(nodes)
    for aid in sorted(algs):
        spec = algs[aid]
        declared = sorted(spec.allowed_locations) if spec.allowed_locations is not None else node_ids
        for nid in declared:
            if nid not in nodes:
                flag("unknown-node", f"algorithm {aid} allows unknown node {nid}", aid, nid)
            elif nid not in spec.node_overrides and nodes[nid].tier not in spec.exec_time:
                flag("missing-exec-time", f"algorithm {aid} has no execution time for allowed node {nid}", aid, nid)
        if not (regions >= spec.memory.inputs and regions >= spec.memory.outputs):  # builds no set
            for key in ("inputs", "outputs"):
                for rid in sorted(getattr(spec.memory, key) - regions):
                    flag("unknown-region", f"algorithm {aid} names unknown region {rid} in memory.{key}", aid, rid)
        if not allowed[aid]:
            flag(
                "no-feasible-location",
                f"algorithm {aid} has no feasible location "
                "(allowed set empty after unbounded-growth restriction to cloud)",
                aid,
            )

    # Every ordered node pair must be resolvable: flow evaluation may route
    # between any two locations.  One walk from each node, over links between
    # known nodes.
    for (u, v) in instance.comm.links:
        for missing in sorted({u, v} - nodes.keys()) if u not in nodes or v not in nodes else ():
            flag("unknown-node", f"comm link ({u}, {v}) names unknown node {missing}", u, v)
    for u in node_ids:
        reached, stack = {u}, [u]
        while stack:
            for v in instance.comm._out.get(stack.pop(), ()):
                if v in nodes and v not in reached:
                    reached.add(v)
                    stack.append(v)
        for v in node_ids if len(reached) < len(nodes) else ():
            if v not in reached:
                flag("unreachable-pair", f"no communication path from {u} to {v}", u, v)

    return report


# ---------------------------------------------------------------------------
# Parsing / serialization
#
# instance_from_dict reads a document in one pass, in a fixed order: its
# nodes, regions, algorithms, edges and comm links (then the time sums, see
# _check_time_sums), then its options; within an object, first its keys
# (each must be one _KNOWN lists for its kind), then its id, then its fields.
# Each value gets an inline test of the exact type and range a parsed
# instance holds: a float time in [0, max], an int bit count in [0, 2**53],
# a non-empty str id.  Any other value goes to its field check below, which
# returns it converted (an int time as a float) or raises the message that
# names it.  A field check takes (value, owner, name): owner names the
# value's entity ("algorithm a") or is "", name the value's field.  A
# reference to an entity (an override key, an id in a list, an endpoint)
# reads as the id that entity holds, so every id is one interned string.

_MAX = sys.float_info.max
_TIERS = {tier.value: tier for tier in Tier}  # a member hashes and compares as its value
_KNOWN = {  # the keys each kind of object may hold
    "instance": frozenset({"nodes", "regions", "algorithms", "edges", "comm", "options"}),
    "node": frozenset({"id", "tier"}),
    "region": frozenset({"id", "size_bits"}),
    "algorithm": frozenset({"id", "exec_time", "memory", "allowed_locations", "space_rank", "space_label"}),
    "exec_time": frozenset({"edge", "fog", "cloud", "overrides"}),
    "memory": frozenset({"inputs", "outputs", "growth_per_step", "processing_bits"}),
    "growth_per_step": frozenset({"inputs", "processing", "outputs"}),
    "comm link": frozenset({"from", "to", "delay", "base_seconds", "per_byte_seconds"}),
    "delay": frozenset({"mu", "sigma"}),
    "options": frozenset({"time_aggregate", "memory_weight", "time_weight", "boundedness_horizon"}),
}


def _shown(value) -> str:
    """repr(value) for an error message, or a stand-in if it holds an int too
    long for repr or is nested too deeply for it."""
    try:
        return repr(value)
    except (ValueError, RecursionError):  # past Python's int-to-string limit, or its recursion limit
        return f"<{type(value).__name__} too large to print>"


def _fail(owner: str, name: str, problem: str):
    raise ProblemFormatError(f"{f'{owner}.{name}' if owner and name else owner or name}: {problem}")


def _need(owner: str, name: str, key: str):
    _fail(owner, name, f"missing required key {key!r}")


def _object(value, owner: str, name: str, kind: Optional[str] = None) -> dict:
    """value as an object, holding only keys _KNOWN lists for kind."""
    if not isinstance(value, dict):
        _fail(owner, name, f"expected an object, got {_shown(value)}")
    if kind is not None and not _KNOWN[kind].issuperset(value):
        unknown = sorted(set(value) - _KNOWN[kind], key=lambda k: (0, k) if isinstance(k, str) else (1, _shown(k)))
        _fail(owner, kind, f"unknown key(s) {_shown(unknown)}")
    return value


def _array(value, owner: str, name: str) -> list:
    if not isinstance(value, list):
        _fail(owner, name, f"expected an array, got {_shown(value)}")
    return value


def _int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, owner: str, name: str) -> float:
    # the range test also rejects NaN, infinities and ints too large for a float
    if not (isinstance(value, float) or _int(value)) or not -_MAX <= value <= _MAX:
        _fail(owner, name, f"expected a number, got {_shown(value)}")
    return float(value)


def _time(value, owner: str, name: str) -> float:
    value = _number(value, owner, name)
    if value < 0:
        _fail(owner, name, f"negative time {value!r}")
    return value


def _bits(value, owner: str, name: str) -> int:
    if not _int(value):
        _fail(owner, name, f"expected an integer bit count, got {_shown(value)}")
    # memory is priced in floats, which hold every count up to 2**53 exactly
    if not 0 <= value <= 2**53:
        _fail(owner, name, f"negative size {_shown(value)}" if value < 0 else "size exceeds 2**53 bits")
    return int(value)  # an int subclass in range reads as a plain int


def _id(value, owner: str, name: str) -> str:
    if type(value) is not str or not value:  # a str subclass cannot be interned
        _fail(owner, name, f"expected a non-empty string id, got {_shown(value)}")
    return value


def _head(entry, kind: str, entities: dict) -> str:
    """The interned id of entry, an object of kind's array, once its keys
    are known and its id is new to entities."""
    if type(entry) is not dict or not entry.keys() <= _KNOWN[kind]:
        _object(entry, "", kind, kind)
    eid = entry["id"] if "id" in entry else _need("", kind, "id")
    # one shared string per id across parsed instances, not a copy per document
    eid = sys.intern(eid) if type(eid) is str and eid else _id(eid, "", f"{kind}.id")
    if eid in entities:
        raise ProblemFormatError(f"duplicate {kind} id {eid!r}")
    return eid


def _refs(value, entities: dict, kind: str, owner: str, name: str) -> FrozenSet[str]:
    """An array of ids of kind's entities, as the entities hold them."""
    if type(value) is not list:
        _array(value, owner, name)
    ids = [entities[i].id for i in value if type(i) is str and i in entities]
    if len(ids) < len(value):  # the first item that is no id raises, or else the first unknown id
        for item in value:
            _id(item, owner, name)
        for item in value:
            if item not in entities:
                _fail(owner, "", f"unknown {kind} {item!r} in {name}")
    return frozenset(ids)


def decode_json(text: str):
    """json.loads(text); text that is not JSON raises ProblemFormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past int's digit limit
        raise ProblemFormatError(f"syntax error: {exc}") from exc
    except RecursionError:  # arrays or objects nested past the decoder's depth
        raise ProblemFormatError("syntax error: arrays and objects nested too deeply") from None


def parse_problem(text: str) -> ProblemInstance:
    """Parse instance JSON; raises ProblemFormatError with a position on bad syntax."""
    data = decode_json(text)
    if not isinstance(data, dict):
        raise ProblemFormatError("top level must be a JSON object")
    return instance_from_dict(data)


def instance_from_dict(data: dict) -> ProblemInstance:
    """The instance data describes, read in the order above; the first value
    that fails its check raises ProblemFormatError."""
    _object(data, "", "instance", "instance")

    nodes: Dict[str, LocationNode] = {}
    for e in _array(data.get("nodes", []), "", "nodes"):
        nid = _head(e, "node", nodes)
        tier = e["tier"] if "tier" in e else _need(f"node {nid}", "", "tier")
        if not isinstance(tier, str) or tier not in _TIERS:
            _fail(f"node {nid}", "", f"unknown tier {_shown(tier)}")
        nodes[nid] = LocationNode(nid, _TIERS[tier])

    regions: Dict[str, MemoryRegion] = {}
    for e in _array(data.get("regions", []), "", "regions"):
        rid = _head(e, "region", regions)
        bits = e["size_bits"] if "size_bits" in e else _need(f"region {rid}", "", "size_bits")
        bits = bits if type(bits) is int and 0 <= bits <= 2**53 else _bits(bits, f"region {rid}", "")
        regions[rid] = MemoryRegion(rid, bits)

    algorithms: Dict[str, AlgorithmSpec] = {}
    for e in _array(data.get("algorithms", []), "", "algorithms"):
        aid = _head(e, "algorithm", algorithms)
        owner = f"algorithm {aid}"
        times = e.get("exec_time", {})
        if type(times) is not dict or not times.keys() <= _KNOWN["exec_time"]:
            _object(times, owner, "exec_time", "exec_time")
        exec_time = {}
        for key, tier in _TIERS.items():
            if key in times:
                t = times[key]
                exec_time[tier] = t if type(t) is float and 0.0 <= t <= _MAX else _time(t, owner, f"exec_time.{key}")
        overrides = times.get("overrides", {})
        if type(overrides) is not dict:
            _object(overrides, owner, "exec_time.overrides")
        node_overrides = {}
        for nid, t in overrides.items():
            if nid not in nodes:
                _fail(owner, "", f"exec override for unknown node {_shown(nid)}")
            t = t if type(t) is float and 0.0 <= t <= _MAX else _time(t, owner, f"exec_time.overrides.{nid}")
            node_overrides[nodes[nid].id] = t
        memory = e.get("memory", {})
        if type(memory) is not dict or not memory.keys() <= _KNOWN["memory"]:
            _object(memory, owner, "memory", "memory")
        inputs = _refs(memory.get("inputs", []), regions, "region", owner, "memory.inputs")
        outputs = _refs(memory.get("outputs", []), regions, "region", owner, "memory.outputs")
        growth = memory.get("growth_per_step", {})
        if type(growth) is not dict or not growth.keys() <= _KNOWN["growth_per_step"]:
            _object(growth, owner, "memory.growth_per_step", "growth_per_step")
        step = []
        for key in ("inputs", "processing", "outputs"):
            b = growth.get(key, 0)
            step.append(b if type(b) is int and 0 <= b <= 2**53 else _bits(b, owner, f"growth_per_step.{key}"))
        bits = memory.get("processing_bits", 0)
        bits = bits if type(bits) is int and 0 <= bits <= 2**53 else _bits(bits, owner, "processing_bits")
        allowed = e.get("allowed_locations")  # absent reads as None; null is rejected
        if "allowed_locations" in e:
            allowed = _refs(allowed, nodes, "node", owner, "allowed_locations")
        rank, label = e.get("space_rank", 0), e.get("space_label", "")
        if type(rank) is not int and not _int(rank):
            _fail(owner, "", "space_rank must be an integer")
        if not isinstance(label, str):
            _fail(owner, "", "space_label must be a string")
        profile = MemoryProfile(inputs, outputs, bits, tuple(step))
        algorithms[aid] = AlgorithmSpec(aid, exec_time, node_overrides, profile, rank, label, allowed)

    edges = set()
    for pair in _array(data.get("edges", []), "", "edges"):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ProblemFormatError(f"edge {_shown(pair)}: expected a [from, to] pair")
        u, v = pair[0], pair[1]
        u = u if type(u) is str and u else _id(u, "", "edge endpoint")
        v = v if type(v) is str and v else _id(v, "", "edge endpoint")
        if u not in algorithms or v not in algorithms:
            end = u if u not in algorithms else v
            raise ProblemFormatError(f"edge ({u!r}, {v!r}): unknown algorithm {end!r}")
        if u == v:
            raise ProblemFormatError(f"edge ({u!r}, {v!r}): self-loop")
        edge = (algorithms[u].id, algorithms[v].id)
        if edge in edges:
            raise ProblemFormatError(f"duplicate edge ({u!r}, {v!r})")
        edges.add(edge)

    links: Dict[Tuple[str, str], CommLink] = {}
    for e in _array(data.get("comm", []), "", "comm"):
        if type(e) is not dict or not e.keys() <= _KNOWN["comm link"]:
            _object(e, "", "comm link", "comm link")
        u = e["from"] if "from" in e else _need("", "comm link", "from")
        u = u if type(u) is str and u else _id(u, "", "comm.from")
        v = e["to"] if "to" in e else _need("", "comm link", "to")
        v = v if type(v) is str and v else _id(v, "", "comm.to")
        if u not in nodes or v not in nodes:
            end = u if u not in nodes else v
            raise ProblemFormatError(f"comm link ({u!r}, {v!r}): unknown node {end!r}")
        if u == v:
            raise ProblemFormatError(f"comm link ({u!r}, {v!r}): same-node links are implicit")
        hop = (nodes[u].id, nodes[v].id)
        if hop in links:
            raise ProblemFormatError(f"duplicate comm link ({u!r}, {v!r})")
        owner = f"comm link ({u}, {v})"
        delay = e.get("delay")
        if delay is not None:
            if type(delay) is not dict or not delay.keys() <= _KNOWN["delay"]:
                _object(delay, owner, "delay", "delay")
            mu = delay["mu"] if "mu" in delay else _need(owner, "delay", "mu")
            mu = mu if type(mu) is float and -_MAX <= mu <= _MAX else _number(mu, owner, "delay.mu")
            sigma = delay["sigma"] if "sigma" in delay else _need(owner, "delay", "sigma")
            sigma = sigma if type(sigma) is float and 0.0 <= sigma <= _MAX else _time(sigma, owner, "delay.sigma")
            delay = DelaySpec(mu, sigma)
        base = e["base_seconds"] if "base_seconds" in e else _need(owner, "", "base_seconds")
        base = base if type(base) is float and 0.0 <= base <= _MAX else _time(base, owner, "base_seconds")
        size = e.get("per_byte_seconds", 0.0)
        size = size if type(size) is float and 0.0 <= size <= _MAX else _time(size, owner, "per_byte_seconds")
        links[hop] = CommLink(base, delay, size)
    comm = CommModel(links)
    _check_time_sums(len(nodes), algorithms, regions, comm)

    options = _object(data.get("options", {}), "", "options", "options")
    aggregate = options.get("time_aggregate", "max_flow")
    if aggregate not in TIME_AGGREGATES:
        _fail("", "options.time_aggregate", f"unknown aggregate {_shown(aggregate)}")
    memory_weight = _time(options.get("memory_weight", 1.0), "", "options.memory_weight")
    time_weight = _time(options.get("time_weight", 1.0), "", "options.time_weight")
    if memory_weight <= 0 or time_weight <= 0:
        raise ProblemFormatError("options: weights must be positive")
    horizon = options.get("boundedness_horizon", 16)
    if not (_int(horizon) and horizon >= 1):
        _fail("", "options.boundedness_horizon", "expected an integer >= 1")
    graph = DependencyGraph(algorithms, tuple(sorted(edges)))
    return ProblemInstance(nodes, regions, graph, comm, Options(aggregate, memory_weight, time_weight, horizon))


def _check_time_sums(
    n_nodes: int,
    algorithms: Dict[str, AlgorithmSpec],
    regions: Dict[str, MemoryRegion],
    comm: CommModel,
) -> None:
    """Raise ProblemFormatError unless every flow's time is finite at mean
    delays.  A flow has at most n executions and n + 1 hops, and a hop is a
    route of at most n_nodes - 1 links, each priced by CommModel.resolve as
    one base + per-byte term, then its mean delay.  The largest of each
    term, added in that shape and order, bounds every flow's sum, since
    rounded addition is monotone in each operand."""
    specs = algorithms.values()
    size = 0  # the largest payload in bytes, which only a per-byte link reads
    if comm._per_byte:
        held = [region_set for s in specs for region_set in (s.memory.inputs, s.memory.outputs)]
        size = _payload_bytes(max((sum(regions[r].size_bits for r in rs) for rs in held), default=0))
    term = max((link.base_seconds + link.per_byte_seconds * size for link in comm.links.values()), default=0.0)
    delay = max((spec.mean() for _, spec in comm.delayed), default=0.0)
    exec_max = max([t for s in specs for times in (s.exec_time, s.node_overrides) for t in times.values()], default=0.0)
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
    for (u, v), link in sorted(instance.comm.links.items()):
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
