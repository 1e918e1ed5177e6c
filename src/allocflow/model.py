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
        if src == dst:
            return 0.0
        total = 0.0
        for hop, fixed, spec in self._legs(src, dst, payload_bits):
            total += fixed
            if spec is not None:
                total += _delay_seconds(hop, spec, delays)
        return total

    def delay_columns(self, realizations: List[Dict[Tuple[str, str], float]]) -> Dict[Tuple[str, str], List[float]]:
        """Per delayed link, its delay in each realization as resolve reads it."""
        return {hop: [_delay_seconds(hop, spec, d) for d in realizations] for hop, spec in self.delayed}

    def resolve_over(self, src: str, dst: str, payload_bits: int, columns: dict, trials: int) -> List[float]:
        """resolve under each realization of delay_columns: (total + fixed) + delay per link, as resolve adds."""
        total = [0.0] * trials
        for hop, fixed, spec in self._legs(src, dst, payload_bits) if src != dst else ():
            if spec is None:
                total = [t + fixed for t in total]
            else:
                total = [t + fixed + d for t, d in zip(total, columns[hop])]
        return total

    def _legs(self, src: str, dst: str, payload_bits: int):
        """(link pair, base + per-byte seconds, delay spec) along the cached route."""
        key = (src, dst, self.payload_key(payload_bits))
        if key not in self._routes:
            self._dijkstra(src, key[2])
            if key not in self._routes:
                raise CommUnreachableError(f"no communication path from {src!r} to {dst!r}")
        size = _payload_bytes(payload_bits)
        for hop in self._routes[key]:
            link = self.links[hop]
            yield hop, link.base_seconds + link.per_byte_seconds * size, link.delay

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
            hops = tuple(list(zip(path, path[1:])))  # see optimizer.SolveContext.lex_tuple
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


def _strongly_connected(adj: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan SCCs (iterative) of the graph of successor lists adj, returned
    as sorted member lists."""
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
    regions = instance.regions.keys()

    def flag(kind: str, message: str, *members: str) -> None:
        report.violations.append(Violation(kind, message, members))

    edge_nodes = sorted(n.id for n in nodes.values() if n.tier is Tier.EDGE)
    if (nodes or algs) and not edge_nodes:
        flag("no-edge-node", "no edge-tier node: the robot is missing")
    if len(edge_nodes) > 1:
        flag("single-robot", f"single-robot violation: {len(edge_nodes)} edge nodes {edge_nodes}", *edge_nodes)

    succs: Dict[str, List[str]] = {aid: [] for aid in algs}
    for u, v in instance.graph.edges:
        if u in algs and v in algs:
            succs[u].append(v)
            continue
        for missing in sorted({u, v} - algs.keys()):
            flag("unknown-algorithm", f"dependency edge ({u}, {v}) names unknown algorithm {missing}", u, v)
    for scc in _strongly_connected(succs):
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
# instance_from_dict reads a document in two steps.  First _read_regular
# reads it in one pass per kind, with every check of _TABLE made inline and
# no call per field.  It takes only a regular document: one the table
# accepts, with every value of the type the table returns, save that a time
# may be an int, converted as the table converts it.  At anything else it
# raises, and _read_by_table reads the document again (every fuzzed document
# the table accepts is regular, so only a rejected one is read twice),
# by _TABLE: per object kind, its keys in reading order,
# each with its field kind (a check that returns the value converted), its
# default and the name its errors give it; _HEAD holds the rows read first
# (an id, which the other rows' errors name, or values checked together);
# other keys are unknown.  A check takes (value, owner, name, refs): owner is
# the value's entity as a format and its ids (or ()), formatted with name
# only in an error; refs holds each kind's entities.  Every error message is
# written by the table reader, and only there.

_REQUIRED = object()  # the default of a key the object must hold
_ABSENT = object()  # the default of a key that reads as None when absent
_MAX = sys.float_info.max
_TIERS = {tier.value: tier for tier in Tier}  # a member hashes and compares as its value


def _shown(value) -> str:
    """repr(value) for an error message, or a stand-in if it holds an int too
    long for repr or is nested too deeply for it."""
    try:
        return repr(value)
    except (ValueError, RecursionError):  # past Python's int-to-string limit, or its recursion limit
        return f"<{type(value).__name__} too large to print>"


def _fail(owner: tuple, name: str, problem: str):
    head = owner[0].format(*owner[1:]) if owner else ""
    raise ProblemFormatError(f"{f'{head}.{name}' if head and name else head or name}: {problem}")


def _object(value, owner: tuple, name: str, kind: Optional[str] = None) -> dict:
    """value as an object, holding only keys the table lists for kind."""
    if not isinstance(value, dict):
        _fail(owner, name, f"expected an object, got {_shown(value)}")
    if kind is not None and not _KNOWN[kind].issuperset(value):
        unknown = sorted(set(value) - _KNOWN[kind], key=lambda k: (0, k) if isinstance(k, str) else (1, _shown(k)))
        _fail(owner, kind, f"unknown key(s) {_shown(unknown)}")
    return value


def _read(obj: dict, fields: tuple, owner: tuple, title: str, refs: dict) -> dict:
    """obj's values of fields (rows of a table) by key; title names obj if one is missing."""
    values = {}
    for key, check, default, name in fields:
        value = obj.get(key, default)
        if value is _REQUIRED:
            _fail(owner, title, f"missing required key {key!r}")
        values[key] = None if value is _ABSENT else check(value, owner, name, refs)
    return values


def _int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _test(ok, problem: str):
    """The field kind of a value that ok accepts as it is; problem formats the error."""
    return lambda value, owner, name, refs: value if ok(value) else _fail(owner, name, problem.format(_shown(value)))


_array = _test(lambda value: isinstance(value, list), "expected an array, got {}")
_aggregate = _test(TIME_AGGREGATES.__contains__, "unknown aggregate {}")
_horizon = _test(lambda value: _int(value) and value >= 1, "expected an integer >= 1")
_rank = _test(_int, "space_rank must be an integer")
_label = _test(lambda value: isinstance(value, str), "space_label must be a string")
_tier = _test(lambda value: isinstance(value, str) and value in _TIERS, "unknown tier {}")


def _number(value, owner, name, refs) -> float:
    # the range test also rejects NaN, infinities and ints too large for a float
    if not (isinstance(value, float) or _int(value)) or not -_MAX <= value <= _MAX:
        _fail(owner, name, f"expected a number, got {_shown(value)}")
    return float(value)


def _time(value, owner, name, refs) -> float:
    value = _number(value, owner, name, refs)
    if value < 0:
        _fail(owner, name, f"negative time {value!r}")
    return value


def _bits(value, owner, name, refs) -> int:
    if not _int(value):
        _fail(owner, name, f"expected an integer bit count, got {_shown(value)}")
    # memory is priced in floats, which hold every count up to 2**53 exactly
    if not 0 <= value <= 2**53:
        _fail(owner, name, f"negative size {_shown(value)}" if value < 0 else "size exceeds 2**53 bits")
    return value


def _id(value, owner, name, refs) -> str:
    if not isinstance(value, str) or not value:
        _fail(owner, name, f"expected a non-empty string id, got {_shown(value)}")
    # one shared string per id across parsed instances, not a copy per document
    return sys.intern(value)


def _ids_of(kind: str):
    """The field kind of an array of ids, each of a kind's entity read so far."""

    def check(value, owner, name, refs) -> FrozenSet[str]:
        ids = [_id(item, owner, name, refs) for item in _array(value, owner, name, refs)]
        for item in ids:
            if item not in refs[kind]:
                _fail(owner, "", f"unknown {kind} {item!r} in {name}")
        return frozenset(ids)

    return check


def _overrides(value, owner, name, refs) -> Dict[str, float]:
    overrides = {}
    for nid, secs in _object(value, owner, name).items():
        if nid not in refs["node"]:
            _fail(owner, "", f"exec override for unknown node {_shown(nid)}")
        overrides[sys.intern(nid)] = _time(secs, owner, f"{name}.{nid}", refs)
    return overrides


def _object_of(kind: str, build):
    """The field kind of an object of kind: build(its values)."""
    return lambda v, owner, name, refs: build(_read(_object(v, owner, name, kind), _TABLE[kind], owner, kind, refs))


def _delay(value, owner, name, refs) -> Optional[DelaySpec]:
    delay = _object_of("delay", lambda v: DelaySpec(v["mu"], v["sigma"]))
    return None if value is None else delay(value, owner, name, refs)


def _entities(kind: str, build):
    """The field kind of an array of kind's entities, kept in refs[kind]: objects
    whose head is a new id, each build(id, its other values)."""

    def check(value, owner, name, refs) -> dict:
        entities, title = refs[kind], kind + " {}"
        for entry in _array(value, owner, name, refs):
            eid = _read(_object(entry, (), kind, kind), _HEAD[kind], (), kind, refs)["id"]
            if eid in entities:
                raise ProblemFormatError(f"duplicate {kind} id {eid!r}")
            entities[eid] = build(eid, _read(entry, _TABLE[kind], (title, eid), "", refs))
        return entities

    return check


def _check_pair(what: str, u: str, v: str, ends: dict, kind: str, same: str, pairs) -> None:
    """u -> v joins two different ids of ends (kind's) and is not yet in pairs."""
    for end in (u, v):
        if end not in ends:
            raise ProblemFormatError(f"{what} ({u!r}, {v!r}): unknown {kind} {end!r}")
    if u == v:
        raise ProblemFormatError(f"{what} ({u!r}, {v!r}): {same}")
    if (u, v) in pairs:
        raise ProblemFormatError(f"duplicate {what} ({u!r}, {v!r})")


def _edges(value, owner, name, refs) -> Tuple[Tuple[str, str], ...]:
    edges = set()
    for entry in _array(value, owner, name, refs):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ProblemFormatError(f"edge {_shown(entry)}: expected a [from, to] pair")
        u, v = _id(entry[0], (), "edge endpoint", refs), _id(entry[1], (), "edge endpoint", refs)
        _check_pair("edge", u, v, refs["algorithm"], "algorithm", "self-loop", edges)
        edges.add((u, v))
    return tuple(sorted(edges))


def _links(value, owner, name, refs) -> CommModel:
    """The comm links; the last times read, so the time sums are checked here."""
    links: Dict[Tuple[str, str], CommLink] = {}
    for entry in _array(value, owner, name, refs):
        ends = _read(_object(entry, (), "comm link", "comm link"), _HEAD["comm link"], (), "comm link", refs)
        u, v = ends["from"], ends["to"]
        _check_pair("comm link", u, v, refs["node"], "node", "same-node links are implicit", links)
        link = _read(entry, _TABLE["comm link"], ("comm link ({}, {})", u, v), "", refs)
        links[(u, v)] = CommLink(link["base_seconds"], link["delay"], link["per_byte_seconds"])
    comm = CommModel(links)
    _check_time_sums(len(refs["node"]), refs["algorithm"], refs["region"], comm)
    return comm


def _options(value, owner, name, refs) -> Options:
    head = _read(_object(value, owner, name, "options"), _HEAD["options"], (), "options", refs)
    if head["memory_weight"] <= 0 or head["time_weight"] <= 0:
        raise ProblemFormatError("options: weights must be positive")
    return Options(**head, **_read(value, _TABLE["options"], (), "options", refs))


_HEAD = {
    **{kind: (("id", _id, _REQUIRED, f"{kind}.id"),) for kind in ("node", "region", "algorithm")},
    "comm link": (("from", _id, _REQUIRED, "comm.from"), ("to", _id, _REQUIRED, "comm.to")),
    "options": (  # the weights are checked before the horizon is read
        ("time_aggregate", _aggregate, "max_flow", "options.time_aggregate"),
        ("memory_weight", _time, 1.0, "options.memory_weight"),
        ("time_weight", _time, 1.0, "options.time_weight"),
    ),
}
_TABLE = {
    "instance": (
        ("nodes", _entities("node", lambda nid, v: LocationNode(nid, _TIERS[v["tier"]])), [], "nodes"),
        ("regions", _entities("region", lambda rid, v: MemoryRegion(rid, v["size_bits"])), [], "regions"),
        ("algorithms", _entities("algorithm", lambda aid, v: AlgorithmSpec(aid, *v["exec_time"], v["memory"],
            v["space_rank"], v["space_label"], v["allowed_locations"])), [], "algorithms"),
        ("edges", _edges, [], "edges"),
        ("comm", _links, [], "comm"),
        ("options", _options, {}, "options"),
    ),
    "node": (("tier", _tier, _REQUIRED, ""),),
    "region": (("size_bits", _bits, _REQUIRED, ""),),
    "algorithm": (
        ("exec_time", _object_of("exec_time", lambda v: (  # (times per tier, overrides)
            {tier: v[key] for key, tier in _TIERS.items() if v[key] is not None}, v["overrides"])), {}, "exec_time"),
        ("memory", _object_of("memory", lambda v: MemoryProfile(
            v["inputs"], v["outputs"], v["processing_bits"], v["growth_per_step"])), {}, "memory"),
        ("allowed_locations", _ids_of("node"), _ABSENT, "allowed_locations"),
        ("space_rank", _rank, 0, ""),
        ("space_label", _label, "", ""),
    ),
    "exec_time": tuple((tier, _time, _ABSENT, f"exec_time.{tier}") for tier in _TIERS)
    + (("overrides", _overrides, {}, "exec_time.overrides"),),
    "memory": (
        ("inputs", _ids_of("region"), [], "memory.inputs"),
        ("outputs", _ids_of("region"), [], "memory.outputs"),
        ("growth_per_step", _object_of("growth_per_step", lambda v: (
            v["inputs"], v["processing"], v["outputs"])), {}, "memory.growth_per_step"),
        ("processing_bits", _bits, 0, "processing_bits"),
    ),
    "growth_per_step": tuple((key, _bits, 0, f"growth_per_step.{key}") for key in ("inputs", "processing", "outputs")),
    "comm link": (
        ("delay", _delay, _ABSENT, "delay"),
        ("base_seconds", _time, _REQUIRED, "base_seconds"),
        ("per_byte_seconds", _time, 0.0, "per_byte_seconds"),
    ),
    "delay": (("mu", _number, _REQUIRED, "delay.mu"), ("sigma", _time, _REQUIRED, "delay.sigma")),
    "options": (("boundedness_horizon", _horizon, 16, "options.boundedness_horizon"),),
}
_KNOWN = {kind: frozenset(key for key, *_ in _HEAD.get(kind, ()) + fields) for kind, fields in _TABLE.items()}


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
    try:
        return _read_regular(data)
    except Exception:  # not regular: the table reader answers, or writes the message
        pass
    return _read_by_table(data)


def _read_by_table(data) -> ProblemInstance:
    refs: Dict[str, dict] = {"node": {}, "region": {}, "algorithm": {}}
    top = _read(_object(data, (), "instance", "instance"), _TABLE["instance"], (), "instance", refs)
    graph = DependencyGraph(top["algorithms"], top["edges"])
    return ProblemInstance(top["nodes"], top["regions"], graph, top["comm"], top["options"])


class _Irregular(Exception):
    """A value the table reader would convert, fill in or reject."""


def _read_regular(data) -> ProblemInstance:
    """_read_by_table's instance of a regular document, with the table's
    checks made inline: every object a dict of known keys, every array a
    list, every id a non-empty str (sys.intern rejects any other type),
    every time a float or int >= 0, every count, rank and horizon an int.
    Times are converted as read (x * 1.0 is float(x) for an int or float x)
    and, with bit counts, checked together at the end.  Raises at the first
    value that fails a check, or at the first failed lookup."""
    intern, known = sys.intern, _KNOWN
    seconds: list = []  # every time, weight and sigma, as the document holds it
    counts: List[int] = []  # every bit count
    if type(data) is not dict or not data.keys() <= known["instance"]:
        raise _Irregular
    kinds = [data.get(key, []) for key in ("nodes", "regions", "algorithms", "edges", "comm")]
    options = data.get("options", {})
    if set(map(type, kinds)) != {list} or type(options) is not dict or not options.keys() <= known["options"]:
        raise _Irregular
    nodes: Dict[str, LocationNode] = {}
    for e in kinds[0]:
        if type(e) is not dict or not e.keys() <= known["node"] or e["id"] in nodes:
            raise _Irregular
        nid = intern(e["id"])
        nodes[nid] = LocationNode(nid, _TIERS[e["tier"]])
    regions: Dict[str, MemoryRegion] = {}
    for e in kinds[1]:
        if type(e) is not dict or not e.keys() <= known["region"] or e["id"] in regions:
            raise _Irregular
        rid, bits = intern(e["id"]), e["size_bits"]
        counts.append(bits)
        regions[rid] = MemoryRegion(rid, bits)
    algorithms: Dict[str, AlgorithmSpec] = {}
    for e in kinds[2]:
        if type(e) is not dict or not e.keys() <= known["algorithm"] or e["id"] in algorithms:
            raise _Irregular
        aid, times, memory = intern(e["id"]), e.get("exec_time", {}), e.get("memory", {})
        overrides, growth = times.get("overrides", {}), memory.get("growth_per_step", {})
        inputs, outputs, allowed = memory.get("inputs", []), memory.get("outputs", []), e.get("allowed_locations", [])
        rank, label = e.get("space_rank", 0), e.get("space_label", "")
        if (
            type(times) is not dict or type(memory) is not dict or type(overrides) is not dict
            or type(growth) is not dict or type(inputs) is not list or type(outputs) is not list
            or type(allowed) is not list or type(rank) is not int or type(label) is not str
            or not times.keys() <= known["exec_time"] or not memory.keys() <= known["memory"]
            or not growth.keys() <= known["growth_per_step"] or not overrides.keys() <= nodes.keys()
        ):
            raise _Irregular
        inputs, outputs = frozenset(map(intern, inputs)), frozenset(map(intern, outputs))
        allowed = frozenset(map(intern, allowed)) if "allowed_locations" in e else None
        if not regions.keys() >= inputs | outputs or allowed is not None and not nodes.keys() >= allowed:
            raise _Irregular
        exec_time = {tier: times[key] for key, tier in _TIERS.items() if key in times}
        seconds += exec_time.values()
        seconds += overrides.values()
        exec_time = {tier: secs * 1.0 for tier, secs in exec_time.items()}
        node_overrides = {intern(nid): secs * 1.0 for nid, secs in overrides.items()}
        step = (growth.get("inputs", 0), growth.get("processing", 0), growth.get("outputs", 0))
        bits = memory.get("processing_bits", 0)
        counts += step
        counts.append(bits)
        profile = MemoryProfile(inputs, outputs, bits, step)
        algorithms[aid] = AlgorithmSpec(aid, exec_time, node_overrides, profile, rank, label, allowed)
    edges = set()
    for pair in kinds[3]:
        if type(pair) is not list:
            raise _Irregular
        u, v = pair
        u, v = intern(u), intern(v)
        if u == v or u not in algorithms or v not in algorithms or (u, v) in edges:
            raise _Irregular
        edges.add((u, v))
    links: Dict[Tuple[str, str], CommLink] = {}
    for e in kinds[4]:
        if type(e) is not dict or not e.keys() <= known["comm link"]:
            raise _Irregular
        u, v, delay = intern(e["from"]), intern(e["to"]), e.get("delay")
        if u == v or u not in nodes or v not in nodes or (u, v) in links:
            raise _Irregular
        if delay is not None:
            if type(delay) is not dict or not delay.keys() <= known["delay"]:
                raise _Irregular
            mu, sigma = delay["mu"], delay["sigma"]
            if type(mu) not in (float, int) or not -_MAX <= mu <= _MAX:
                raise _Irregular
            seconds.append(sigma)
            delay = DelaySpec(mu * 1.0, sigma * 1.0)
        base, per_byte = e["base_seconds"], e.get("per_byte_seconds", 0.0)
        seconds += (base, per_byte)
        links[(u, v)] = CommLink(base * 1.0, delay, per_byte * 1.0)
    weights = (options.get("memory_weight", 1.0), options.get("time_weight", 1.0))
    aggregate, horizon = options.get("time_aggregate", "max_flow"), options.get("boundedness_horizon", 16)
    seconds += weights
    if (
        "" in nodes or "" in regions or "" in algorithms
        # max compares an int exactly, where * 1.0 may round it down to _MAX; NaN fails the sum's test
        or not set(map(type, seconds)) <= {float, int} or min(seconds) < 0 or max(seconds) > _MAX
        or not sum(seconds) <= _MAX
        or set(map(type, counts)) - {int} or min(counts, default=0) < 0 or max(counts, default=0) > 2**53
        or not min(weights) > 0 or aggregate not in TIME_AGGREGATES or type(horizon) is not int or horizon < 1
    ):
        raise _Irregular
    comm = CommModel(links)
    _check_time_sums(len(nodes), algorithms, regions, comm)
    graph = DependencyGraph(algorithms, tuple(sorted(edges)))
    return ProblemInstance(nodes, regions, graph, comm, Options(aggregate, weights[0] * 1.0, weights[1] * 1.0, horizon))


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
