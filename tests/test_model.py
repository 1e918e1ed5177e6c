"""Parsing, validation, communication resolution, and delay specs."""

import copy
import dataclasses
import hashlib
import json
import math
import pickle
import random
import sys
from collections.abc import Mapping
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from allocflow import fixtures
from allocflow.model import (
    CommLink,
    CommModel,
    CommUnreachableError,
    DelaySpec,
    LocationNode,
    MemoryProfile,
    ProblemFormatError,
    ProblemInstance,
    Tier,
    effective_allowed,
    instance_from_dict,
    instance_to_dict,
    parse_problem,
    serialize_problem,
    Violation,
    unbounded_restrictions,
    validate,
)
from allocflow.optimizer import evaluate, solve_branch_bound
from allocflow.simulate import GenParams, random_instance


def minimal() -> dict:
    return {
        "nodes": [{"id": "e", "tier": "edge"}],
        "regions": [],
        "algorithms": [
            {"id": "a", "exec_time": {"edge": 1.0}, "memory": {}, "space_rank": 0}
        ],
        "edges": [],
        "comm": [],
        "options": {},
    }


# ---------------------------------------------------------------------------
# Parse errors


def test_syntax_error_reports_position():
    with pytest.raises(ProblemFormatError, match=r"syntax error at line 2 column 12"):
        parse_problem('{\n  "nodes": oops\n}')


def test_an_overlong_integer_literal_is_a_format_error():
    """json.loads raises a plain ValueError, not a JSONDecodeError, for an
    integer literal past int's string-conversion limit (4300 digits by
    default), which escaped parse_problem, and the CLI as a traceback."""
    with pytest.raises(ProblemFormatError):
        parse_problem('{"nodes": 1' + "0" * 5000 + "}")


def test_top_level_must_be_object():
    with pytest.raises(ProblemFormatError, match="top level"):
        parse_problem("[1, 2]")


def test_unknown_top_level_key_rejected():
    data = minimal()
    data["extra"] = 1
    with pytest.raises(ProblemFormatError, match=r"unknown key\(s\) \['extra'\]"):
        instance_from_dict(data)


@pytest.mark.parametrize(
    "mutate, pattern",
    [
        (lambda d: d["nodes"].append({"id": "e", "tier": "edge"}), "duplicate node"),
        (lambda d: d["nodes"].append({"id": "x", "tier": "mist"}), "unknown tier"),
        (lambda d: d["nodes"].append({"id": "x"}), "missing required key"),
        (lambda d: d["nodes"].append({"id": "", "tier": "fog"}), "non-empty string"),
        (lambda d: d["algorithms"].append(dict(d["algorithms"][0])), "duplicate algorithm"),
        (lambda d: d["algorithms"][0].__setitem__("bogus", 1), "unknown key"),
        (lambda d: d["algorithms"][0]["exec_time"].__setitem__("edge", -1.0), "negative time"),
        (lambda d: d["algorithms"][0]["exec_time"].__setitem__("edge", True), "expected a number"),
        (lambda d: d["algorithms"][0]["exec_time"].__setitem__("lake", 1.0), "unknown key"),
        (lambda d: d["algorithms"][0]["memory"].__setitem__("inputs", ["ghost"]), "unknown region"),
        (lambda d: d["algorithms"][0].__setitem__("space_rank", 1.5), "must be an integer"),
        (lambda d: d["algorithms"][0].__setitem__("allowed_locations", ["nope"]), "unknown node"),
        (lambda d: d["edges"].append(["a", "a"]), "self-loop"),
        (lambda d: d["edges"].append(["a", "ghost"]), "unknown algorithm"),
        (lambda d: d["edges"].append("a->b"), "expected a .from, to. pair"),
        (lambda d: d["comm"].append({"from": "e", "to": "e", "base_seconds": 1.0}), "same-node"),
        (lambda d: d["comm"].append({"from": "e", "to": "ghost", "base_seconds": 1.0}), "unknown node"),
        (lambda d: d["options"].__setitem__("time_aggregate", "median"), "unknown aggregate"),
        (lambda d: d["options"].__setitem__("memory_weight", 0.0), "weights must be positive"),
        (lambda d: d["options"].__setitem__("boundedness_horizon", 0), "integer >= 1"),
    ],
)
def test_malformed_instances_rejected(mutate, pattern):
    data = minimal()
    mutate(data)
    with pytest.raises(ProblemFormatError, match=pattern):
        instance_from_dict(data)


@pytest.mark.parametrize(
    "text, pattern",
    [
        ('{"nodes": [5]}', "node: expected an object"),
        ('{"edges": 5}', "edges: expected an array"),
        ('{"options": []}', "options: expected an object"),
        ('{"algorithms": [{"id": "a", "memory": []}]}', r"a\.memory: expected an object"),
        (
            '{"nodes": [{"id": "e", "tier": "edge"}],'
            ' "algorithms": [{"id": "a", "exec_time": {"overrides": ["e"]}}]}',
            r"exec_time\.overrides: expected an object",
        ),
    ],
)
def test_container_types_checked(text, pattern):
    """Each of these used to escape as a raw TypeError or AttributeError."""
    with pytest.raises(ProblemFormatError, match=pattern):
        parse_problem(text)


def _oversized_region(data):
    data["regions"] = [{"id": "r", "size_bits": 2**53 + 1}]


def _oversized_processing(data):
    data["algorithms"][0]["memory"]["processing_bits"] = 10**400


def _oversized_growth(data):
    data["algorithms"][0]["memory"]["growth_per_step"] = {"outputs": 2**53 + 1}


@pytest.mark.parametrize("mutate", [_oversized_region, _oversized_processing, _oversized_growth])
def test_bit_counts_capped_at_2_53(mutate):
    """Larger counts used to parse and then overflow in the float cost."""
    data = minimal()
    mutate(data)
    with pytest.raises(ProblemFormatError, match=r"exceeds 2\*\*53 bits"):
        instance_from_dict(data)
    data = minimal()
    data["regions"] = [{"id": "r", "size_bits": 2**53}]
    data["algorithms"][0]["memory"] = {"outputs": ["r"], "processing_bits": 2**53}
    assert instance_from_dict(data).regions["r"].size_bits == 2**53


def line_instance(execs, link_seconds):
    """A chain of algorithms with the given exec time on every node, over
    nodes e - f - c joined by links of link_seconds both ways, so that the
    edge reaches the cloud over a two-link route."""
    pairs = (("e", "f"), ("f", "e"), ("f", "c"), ("c", "f"))
    return {
        "nodes": [{"id": "e", "tier": "edge"}, {"id": "f", "tier": "fog"}, {"id": "c", "tier": "cloud"}],
        "algorithms": [
            {"id": f"a{i}", "exec_time": dict.fromkeys(("edge", "fog", "cloud"), t)} for i, t in enumerate(execs)
        ],
        "edges": [[f"a{i}", f"a{i + 1}"] for i in range(len(execs) - 1)],
        "comm": [{"from": u, "to": v, "base_seconds": link_seconds} for u, v in pairs],
    }


@pytest.mark.parametrize(
    "execs, link_seconds, overflows",
    [
        ((1e308, 1e308), 1.0, True),  # two exec times on one flow
        ((8e307, 8e307), 1.0, False),
        ((0.0,), 5e307, True),  # request and return hop over two links each: 2e308
        ((0.0,), 4e307, False),
    ],
)
def test_time_sums_that_can_overflow_are_rejected(execs, link_seconds, overflows):
    """The cap comes from a flow's shape: n executions and n + 1 hops, each a
    route of up to (#nodes - 1) links.  Before it, the overflowing cases
    parsed and solved to time_seconds=inf; an accepted one solves finite."""
    data = line_instance(execs, link_seconds)
    if overflows:
        with pytest.raises(ProblemFormatError, match="time sums overflow"):
            instance_from_dict(data)
        return
    instance = instance_from_dict(data)
    farthest = dict.fromkeys(instance.algorithms, "c")
    assert math.isfinite(evaluate(instance, farthest).time_seconds)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, path + (index,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@st.composite
def mutated_fixtures(draw):
    """(name, document): a bundled fixture with one to three parts replaced
    or deleted, with random JSON values or with other parts of the same
    document."""
    bundle = fixtures.bundled()
    name = draw(st.sampled_from(sorted(bundle)))
    doc = copy.deepcopy(bundle[name])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        donor = copy.deepcopy(_at(doc, draw(st.sampled_from(paths))))
        value = draw(JSON_VALUES | st.just(donor))
        if not path:
            doc = value
            continue
        parent = _at(doc, path[:-1])
        if draw(st.booleans()):
            parent[path[-1]] = value
        elif isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent.pop(path[-1])
    return name, doc


@settings(max_examples=300, deadline=None)
@given(mutated_fixtures())
def test_mutated_fixtures_parse_or_raise_format_error(mutated):
    """Parsing a mutated fixture either raises ProblemFormatError or returns
    an instance that validate() can report on and that serializes and parses
    back to the same text."""
    _, doc = mutated
    try:
        instance = instance_from_dict(doc)
    except ProblemFormatError:
        return
    validate(instance)
    text = serialize_problem(instance)
    assert serialize_problem(parse_problem(text)) == text


def test_duplicate_region_rejected():
    data = minimal()
    data["regions"] = [{"id": "r", "size_bits": 8}, {"id": "r", "size_bits": 16}]
    with pytest.raises(ProblemFormatError, match="duplicate region"):
        instance_from_dict(data)


def test_duplicate_edge_rejected():
    data = minimal()
    data["algorithms"].append(
        {"id": "b", "exec_time": {"edge": 1.0}, "memory": {}, "space_rank": 0}
    )
    data["edges"] = [["a", "b"], ["a", "b"]]
    with pytest.raises(ProblemFormatError, match="duplicate edge"):
        instance_from_dict(data)


def test_duplicate_comm_link_rejected():
    data = minimal()
    data["nodes"].append({"id": "f", "tier": "fog"})
    data["comm"] = [
        {"from": "e", "to": "f", "base_seconds": 1.0},
        {"from": "e", "to": "f", "base_seconds": 2.0},
    ]
    with pytest.raises(ProblemFormatError, match="duplicate comm link"):
        instance_from_dict(data)


def test_region_bits_must_be_integer():
    data = minimal()
    data["regions"] = [{"id": "r", "size_bits": 7.5}]
    with pytest.raises(ProblemFormatError, match="integer bit count"):
        instance_from_dict(data)


def test_exec_override_unknown_node_rejected():
    data = minimal()
    data["algorithms"][0]["exec_time"]["overrides"] = {"ghost": 1.0}
    with pytest.raises(ProblemFormatError, match="unknown node"):
        instance_from_dict(data)


def test_delay_requires_mu_and_sigma():
    data = minimal()
    data["nodes"].append({"id": "f", "tier": "fog"})
    data["comm"] = [{"from": "e", "to": "f", "base_seconds": 1.0, "delay": {"mu": 0.1}}]
    with pytest.raises(ProblemFormatError, match="missing required key 'sigma'"):
        instance_from_dict(data)


def _doc() -> dict:
    """A valid instance that every message case below breaks in one place."""
    both = {"edge": 1.0, "fog": 1.0}
    return {
        "nodes": [{"id": "e", "tier": "edge"}, {"id": "f", "tier": "fog"}],
        "regions": [{"id": "r", "size_bits": 8}],
        "algorithms": [
            {"id": "a", "exec_time": dict(both), "memory": {"outputs": ["r"]}},
            {"id": "b", "exec_time": dict(both), "memory": {"inputs": ["r"]}},
        ],
        "edges": [["a", "b"]],
        "comm": [{"from": "e", "to": "f", "base_seconds": 1.0}, {"from": "f", "to": "e", "base_seconds": 1.0}],
        "options": {},
    }


def put(*path_value):
    *path, value = path_value
    return lambda doc: _at(doc, path[:-1]).__setitem__(path[-1], value)


def add(*path_value):
    *path, value = path_value
    return lambda doc: _at(doc, path).append(value)


def drop(*path):
    return lambda doc: _at(doc, path[:-1]).__delitem__(path[-1])


def _slowest_edge_execs(doc):
    for spec in doc["algorithms"]:
        spec["exec_time"]["edge"] = 1e308


A, B, L = ("algorithms", 0), ("algorithms", 1), ("comm", 1)

# One case per raise site and per context a site formats, each with the full
# text of its message: a document text for parse_problem, or a change to
# _doc() (or a replacement document) for instance_from_dict.
MESSAGES = [
    ('{\n  "nodes": oops\n}', "syntax error at line 2 column 12: Expecting value"),
    ("[1, 2]", "top level must be a JSON object"),
    (lambda d: [1], "instance: expected an object, got [1]"),
    (put("extra", 1), "instance: unknown key(s) ['extra']"),
    (put("nodes", 5), "nodes: expected an array, got 5"),
    (add("nodes", 5), "node: expected an object, got 5"),
    (add("nodes", {"id": "x", "tier": "fog", "zone": 1, "rack": 2}), "node: unknown key(s) ['rack', 'zone']"),
    (add("nodes", {"tier": "fog"}), "node: missing required key 'id'"),
    (add("nodes", {"id": "", "tier": "fog"}), "node.id: expected a non-empty string id, got ''"),
    (add("nodes", {"id": "e", "tier": "fog"}), "duplicate node id 'e'"),
    (add("nodes", {"id": "x"}), "node x: missing required key 'tier'"),
    (add("nodes", {"id": "x", "tier": "mist"}), "node x: unknown tier 'mist'"),
    (add("nodes", {"id": "x", "tier": ["fog"]}), "node x: unknown tier ['fog']"),
    (put("regions", {}), "regions: expected an array, got {}"),
    (add("regions", "s"), "region: expected an object, got 's'"),
    (add("regions", {"id": "s", "bits": 8}), "region: unknown key(s) ['bits']"),
    (add("regions", {"size_bits": 8}), "region: missing required key 'id'"),
    (add("regions", {"id": 3, "size_bits": 8}), "region.id: expected a non-empty string id, got 3"),
    (add("regions", {"id": "r", "size_bits": 8}), "duplicate region id 'r'"),
    (add("regions", {"id": "s"}), "region s: missing required key 'size_bits'"),
    (add("regions", {"id": "s", "size_bits": 7.5}), "region s: expected an integer bit count, got 7.5"),
    (add("regions", {"id": "s", "size_bits": True}), "region s: expected an integer bit count, got True"),
    (add("regions", {"id": "s", "size_bits": -1}), "region s: negative size -1"),
    (add("regions", {"id": "s", "size_bits": 2**53 + 1}), "region s: size exceeds 2**53 bits"),
    (put("algorithms", "a"), "algorithms: expected an array, got 'a'"),
    (add("algorithms", None), "algorithm: expected an object, got None"),
    (put(*A, "bogus", 1), "algorithm: unknown key(s) ['bogus']"),
    (drop(*A, "id"), "algorithm: missing required key 'id'"),
    (put(*A, "id", None), "algorithm.id: expected a non-empty string id, got None"),
    (put(*B, "id", "a"), "duplicate algorithm id 'a'"),
    (put(*A, "exec_time", []), "algorithm a.exec_time: expected an object, got []"),
    (put(*A, "exec_time", "lake", 1.0), "algorithm a.exec_time: unknown key(s) ['lake']"),
    (put(*A, "exec_time", "edge", "1"), "algorithm a.exec_time.edge: expected a number, got '1'"),
    (put(*A, "exec_time", "edge", True), "algorithm a.exec_time.edge: expected a number, got True"),
    (put(*B, "exec_time", "fog", Fraction(1, 2)), "algorithm b.exec_time.fog: expected a number, got Fraction(1, 2)"),
    (put(*A, "exec_time", "cloud", float("nan")), "algorithm a.exec_time.cloud: expected a number, got nan"),
    (put(*A, "exec_time", "fog", -1), "algorithm a.exec_time.fog: negative time -1.0"),
    (put(*A, "exec_time", "overrides", ["e"]), "algorithm a.exec_time.overrides: expected an object, got ['e']"),
    (put(*A, "exec_time", "overrides", {"ghost": 1.0}), "algorithm a: exec override for unknown node 'ghost'"),
    (
        put(*A, "exec_time", "overrides", {"e": float("inf")}),
        "algorithm a.exec_time.overrides.e: expected a number, got inf",
    ),
    (put(*A, "exec_time", "overrides", {"e": -2}), "algorithm a.exec_time.overrides.e: negative time -2.0"),
    (put(*A, "memory", []), "algorithm a.memory: expected an object, got []"),
    (put(*A, "memory", "cache", 1), "algorithm a.memory: unknown key(s) ['cache']"),
    (put(*A, "memory", "inputs", "r"), "algorithm a.memory.inputs: expected an array, got 'r'"),
    (put(*A, "memory", "outputs", ["r", ""]), "algorithm a.memory.outputs: expected a non-empty string id, got ''"),
    (put(*A, "memory", "inputs", ["ghost"]), "algorithm a: unknown region 'ghost' in memory.inputs"),
    (put(*A, "memory", "outputs", ["ghost"]), "algorithm a: unknown region 'ghost' in memory.outputs"),
    (put(*A, "memory", "growth_per_step", []), "algorithm a.memory.growth_per_step: expected an object, got []"),
    (put(*A, "memory", "growth_per_step", {"total": 8}), "algorithm a.growth_per_step: unknown key(s) ['total']"),
    (
        put(*A, "memory", "growth_per_step", {"processing": -8}),
        "algorithm a.growth_per_step.processing: negative size -8",
    ),
    (
        put(*A, "memory", "growth_per_step", {"outputs": 2**53 + 1}),
        "algorithm a.growth_per_step.outputs: size exceeds 2**53 bits",
    ),
    (put(*A, "memory", "processing_bits", 1.0), "algorithm a.processing_bits: expected an integer bit count, got 1.0"),
    (put(*A, "memory", "processing_bits", 10**400), "algorithm a.processing_bits: size exceeds 2**53 bits"),
    (put(*A, "allowed_locations", "e"), "algorithm a.allowed_locations: expected an array, got 'e'"),
    (put(*A, "allowed_locations", None), "algorithm a.allowed_locations: expected an array, got None"),
    (put(*A, "allowed_locations", ["e", 1]), "algorithm a.allowed_locations: expected a non-empty string id, got 1"),
    (put(*A, "allowed_locations", ["nope"]), "algorithm a: unknown node 'nope' in allowed_locations"),
    (put(*A, "space_rank", 1.5), "algorithm a: space_rank must be an integer"),
    (put(*A, "space_rank", True), "algorithm a: space_rank must be an integer"),
    (put(*A, "space_rank", False), "algorithm a: space_rank must be an integer"),
    (put(*A, "space_label", 3), "algorithm a: space_label must be a string"),
    (put("edges", 5), "edges: expected an array, got 5"),
    (add("edges", "a->b"), "edge 'a->b': expected a [from, to] pair"),
    (add("edges", ["a"]), "edge ['a']: expected a [from, to] pair"),
    (add("edges", ["a", 7]), "edge endpoint: expected a non-empty string id, got 7"),
    (add("edges", ["ghost", "a"]), "edge ('ghost', 'a'): unknown algorithm 'ghost'"),
    (add("edges", ["a", "ghost"]), "edge ('a', 'ghost'): unknown algorithm 'ghost'"),
    (add("edges", ["a", "a"]), "edge ('a', 'a'): self-loop"),
    (add("edges", ["a", "b"]), "duplicate edge ('a', 'b')"),
    (put("comm", {}), "comm: expected an array, got {}"),
    (add("comm", 1), "comm link: expected an object, got 1"),
    (put(*L, "latency", 1), "comm link: unknown key(s) ['latency']"),
    (drop(*L, "from"), "comm link: missing required key 'from'"),
    (put(*L, "from", 1), "comm.from: expected a non-empty string id, got 1"),
    (drop(*L, "to"), "comm link: missing required key 'to'"),
    (put(*L, "to", ""), "comm.to: expected a non-empty string id, got ''"),
    (put(*L, "to", "ghost"), "comm link ('f', 'ghost'): unknown node 'ghost'"),
    (put(*L, "to", "f"), "comm link ('f', 'f'): same-node links are implicit"),
    (put(*L, "from", "e"), "comm link ('e', 'e'): same-node links are implicit"),
    (add("comm", {"from": "e", "to": "f", "base_seconds": 2.0}), "duplicate comm link ('e', 'f')"),
    (put(*L, "delay", []), "comm link (f, e).delay: expected an object, got []"),
    (put(*L, "delay", {"mu": 0.0, "sigma": 0.1, "nu": 1}), "comm link (f, e).delay: unknown key(s) ['nu']"),
    (put(*L, "delay", {"sigma": 0.1}), "comm link (f, e).delay: missing required key 'mu'"),
    (put(*L, "delay", {"mu": "x", "sigma": 0.1}), "comm link (f, e).delay.mu: expected a number, got 'x'"),
    (put(*L, "delay", {"mu": True, "sigma": 0.1}), "comm link (f, e).delay.mu: expected a number, got True"),
    (put(*L, "delay", {"mu": 0.1}), "comm link (f, e).delay: missing required key 'sigma'"),
    (put(*L, "delay", {"mu": 0.1, "sigma": -0.5}), "comm link (f, e).delay.sigma: negative time -0.5"),
    (drop(*L, "base_seconds"), "comm link (f, e): missing required key 'base_seconds'"),
    (put(*L, "base_seconds", None), "comm link (f, e).base_seconds: expected a number, got None"),
    (put(*L, "per_byte_seconds", -1), "comm link (f, e).per_byte_seconds: negative time -1.0"),
    (
        _slowest_edge_execs,
        "time sums overflow: 2 executions of up to 1e+308 s and 3 hops of up to 1.0 s exceed the float range",
    ),
    (put("options", []), "options: expected an object, got []"),
    (put("options", "solver", "exact"), "options: unknown key(s) ['solver']"),
    (put("options", "time_aggregate", "median"), "options.time_aggregate: unknown aggregate 'median'"),
    (put("options", "time_aggregate", ["max_flow"]), "options.time_aggregate: unknown aggregate ['max_flow']"),
    (put("options", "memory_weight", "1"), "options.memory_weight: expected a number, got '1'"),
    (put("options", "time_weight", -1), "options.time_weight: negative time -1.0"),
    (put("options", "time_weight", True), "options.time_weight: expected a number, got True"),
    (put("options", "memory_weight", 0), "options: weights must be positive"),
    (put("options", "time_weight", 0.0), "options: weights must be positive"),
    (put("options", "boundedness_horizon", 0), "options.boundedness_horizon: expected an integer >= 1"),
    (put("options", "boundedness_horizon", 2.0), "options.boundedness_horizon: expected an integer >= 1"),
    (put("options", "boundedness_horizon", True), "options.boundedness_horizon: expected an integer >= 1"),
]


@pytest.mark.parametrize("case, message", MESSAGES)
def test_format_errors_keep_their_full_text(case, message):
    with pytest.raises(ProblemFormatError) as raised:
        if isinstance(case, str):
            parse_problem(case)
        else:
            doc = _doc()
            instance_from_dict(case(doc) or doc)
    assert str(raised.value) == message


HUGE = 10**5000  # past Python's int-to-string limit: its repr raises ValueError
BIG, BIG_LIST = "<int too large to print>", "<list too large to print>"

# One case per field kind whose error message shows the value, with the value
# an int too long for repr, alone or in a list.
HUGE_INT_MESSAGES = [
    (put(*A, "memory", HUGE), f"algorithm a.memory: expected an object, got {BIG}"),
    (put(HUGE, 1), f"instance: unknown key(s) {BIG_LIST}"),
    (put(*A, "exec_time", "edge", HUGE), f"algorithm a.exec_time.edge: expected a number, got {BIG}"),
    (put(*A, "exec_time", "fog", [HUGE]), f"algorithm a.exec_time.fog: expected a number, got {BIG_LIST}"),
    (put(*A, "exec_time", "overrides", {HUGE: 1.0}), f"algorithm a: exec override for unknown node {BIG}"),
    (put(*A, "id", HUGE), f"algorithm.id: expected a non-empty string id, got {BIG}"),
    (add("regions", {"id": "s", "size_bits": -HUGE}), f"region s: negative size {BIG}"),
    (add("regions", {"id": "s", "size_bits": [HUGE]}), f"region s: expected an integer bit count, got {BIG_LIST}"),
    (put("nodes", HUGE), f"nodes: expected an array, got {BIG}"),
    (put("options", "time_aggregate", HUGE), f"options.time_aggregate: unknown aggregate {BIG}"),
    (add("nodes", {"id": "x", "tier": [HUGE]}), f"node x: unknown tier {BIG_LIST}"),
    (add("edges", [HUGE]), f"edge {BIG_LIST}: expected a [from, to] pair"),
]


@pytest.mark.parametrize("case, message", HUGE_INT_MESSAGES)
def test_an_int_too_long_to_print_is_a_format_error(case, message):
    """From Python, a value may hold an int whose repr raises ValueError;
    the error that names it is still one ProblemFormatError."""
    doc = _doc()
    case(doc)
    with pytest.raises(ProblemFormatError) as raised:
        instance_from_dict(doc)
    assert str(raised.value) == message


def test_unknown_keys_of_mixed_types_are_a_format_error():
    """From Python, an object's unknown keys may not sort together (1 and
    "zz"); the error is still one ProblemFormatError, listing the strings
    and then the others by repr.  String keys keep their plain sorted list."""
    doc = fixtures.dataset_pipeline(2.0)
    doc.update({1: 0, "zz": 0})
    with pytest.raises(ProblemFormatError) as raised:
        instance_from_dict(doc)
    assert str(raised.value) == "instance: unknown key(s) ['zz', 1]"
    doc = fixtures.dataset_pipeline(2.0)
    doc["algorithms"][0].update({("t",): 0, 2.5: 0, "b": 0, "a": 0})
    with pytest.raises(ProblemFormatError) as raised:
        instance_from_dict(doc)
    assert str(raised.value) == "algorithm: unknown key(s) ['a', 'b', ('t',), 2.5]"
    del doc["algorithms"][0][("t",)], doc["algorithms"][0][2.5]
    with pytest.raises(ProblemFormatError) as raised:
        instance_from_dict(doc)
    assert str(raised.value) == "algorithm: unknown key(s) ['a', 'b']"


# ---------------------------------------------------------------------------
# The reader


def _typed(value):
    """value as nested lists that carry each part's type, so that 1 and 1.0,
    True and 1, or 0.0 and -0.0 no longer compare equal."""
    if dataclasses.is_dataclass(value):
        return [type(value)] + [_typed(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, Mapping):
        return [type(value)] + [[_typed(k), _typed(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple, frozenset)):
        return [type(value)] + [_typed(v) for v in (sorted(value) if isinstance(value, frozenset) else value)]
    return [type(value), repr(value)]


def _ids(instance):
    """Every id an instance holds, in a fixed order."""
    yield from instance.nodes
    yield from instance.regions
    for aid, spec in instance.algorithms.items():
        yield from (aid, spec.id, *spec.node_overrides, *sorted(spec.allowed_locations or ()))
        yield from (*sorted(spec.memory.inputs), *sorted(spec.memory.outputs))
    for pairs in (instance.graph.edges, instance.comm.links):
        yield from (end for pair in pairs for end in pair)


# What a mutation writes: each JSON kind, each bound a check tests, and the
# values only a Python caller can pass (a tuple pair, a Fraction).
_VALUES = [
    None, True, False, 0, 1, -1, 7, 2**53, 2**53 + 1, 10**400, int(sys.float_info.max) + 1,
    0.0, -0.0, 0.5, -1.0, 1e308, math.inf, math.nan, Fraction(1, 2),
    "", "e", "f1", "c1", "a", "a01", "r", "ghost", "edge", "fog", "cloud", "max_flow", "mean_flows",
    [], {}, ["e"], ["r"], [1], ["a01", "a02"], ("a01", "a02"), {"mu": 0.1, "sigma": 0.2}, {"zone": 1},
]
# the keys a mutation adds: one of each kind of object, and two of none
_KEYS = ["id", "tier", "size_bits", "exec_time", "overrides", "inputs", "mu", "from", "delay", "time_weight", "zone", 1]


def _reader_sources():
    """The bundled fixtures, and serialized random instances with delays,
    exec overrides and allowed locations, each decoded from its text."""
    docs = [fixtures.bundled()[name] for name in sorted(fixtures.bundled())]
    for n, seed, delay_prob in [(6, 1, 0.0), (12, 2, 0.8), (20, 3, 0.3)]:
        doc = instance_to_dict(random_instance(n, GenParams(delay_prob=delay_prob, fog_nodes=2), seed=seed))
        doc["algorithms"][0]["exec_time"]["overrides"] = {"f1": 0.5, "c1": 2}
        doc["algorithms"][1]["allowed_locations"] = ["c1", "f2"]
        docs.append(doc)
    return [json.loads(json.dumps(doc)) for doc in docs]


def _mutated(rng, doc):
    """doc with one to three parts grown (a key or item added), deleted or
    replaced, with a value of _VALUES or another part of doc."""
    for _ in range(rng.randint(1, 3)):
        paths = list(_paths(doc))
        path, donor = rng.choice(paths), rng.choice(paths)
        value = copy.deepcopy(_at(doc, donor) if rng.random() < 0.3 else rng.choice(_VALUES))
        target, op = _at(doc, path), rng.randrange(3)
        if op == 0 and isinstance(target, dict):
            target[rng.choice(_KEYS)] = value
        elif op == 0 and isinstance(target, list):
            target.append(value)
        elif not path:
            doc = value
        elif op == 1:
            del _at(doc, path[:-1])[path[-1]]
        else:
            _at(doc, path[:-1])[path[-1]] = value
    return doc


def test_reader_outcomes_are_pinned():
    """instance_from_dict's outcome on a fixed corpus of mutated documents:
    its full message, or the instance with each value's type.  Every id of
    an accepted instance is the interned string."""
    rng, outcomes = random.Random(23), []
    for source in _reader_sources():
        for _ in range(250):
            try:
                instance = instance_from_dict(_mutated(rng, copy.deepcopy(source)))
            except ProblemFormatError as exc:
                outcomes.append(f"E: {exc}")
                continue
            assert all(sys.intern(i) is i for i in _ids(instance))
            outcomes.append(repr(_typed(instance)))
    accepted = sum(not outcome.startswith("E: ") for outcome in outcomes)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert (len(outcomes), accepted, len(set(outcomes))) == (3000, 301, 1949)
    assert digest == "8877081f70ba14654d121bc4bbbfd7d66ebc9f5ad3af19cf14223bd463fc62a0"


def assert_parsed_types(instance):
    """instance holds what the reader writes: float times and weights, int
    counts, and every id an interned str."""
    options = instance.options
    times, counts = [options.memory_weight, options.time_weight], [options.boundedness_horizon]
    counts += [region.size_bits for region in instance.regions.values()]
    for spec in instance.algorithms.values():
        times += [*spec.exec_time.values(), *spec.node_overrides.values()]
        counts += [spec.memory.processing_bits, *spec.memory.growth_per_step, spec.space_rank]
    for link in instance.comm.links.values():
        times += [link.base_seconds, link.per_byte_seconds, *((link.delay.mu, link.delay.sigma) if link.delay else ())]
    assert {type(t) for t in times} <= {float} and {type(c) for c in counts} <= {int}
    assert all(type(i) is str and sys.intern(i) is i for i in _ids(instance))


@pytest.mark.parametrize("index", range(len(_reader_sources())))
def test_sources_read_as_floats_ints_and_interned_ids(index):
    """The corpus sources: the bundled fixtures and three serialized random
    instances, whose ids json.loads made as new strings."""
    assert_parsed_types(instance_from_dict(_reader_sources()[index]))


@settings(max_examples=300, deadline=None)
@given(mutated_fixtures())
def test_mutated_fixtures_read_as_floats_ints_and_interned_ids(mutated):
    """Each document is decoded from its text, so its ids are new strings."""
    try:
        instance = instance_from_dict(json.loads(json.dumps(mutated[1])))
    except ProblemFormatError:
        return
    assert_parsed_types(instance)


class _Str(str):
    """A str subclass, which sys.intern refuses."""


@pytest.mark.parametrize(
    "case, message",
    [
        (add("nodes", {"id": _Str("x"), "tier": "fog"}), "node.id: expected a non-empty string id, got 'x'"),
        (put("edges", [[_Str("a"), "b"]]), "edge endpoint: expected a non-empty string id, got 'a'"),
        (put(*A, "exec_time", "overrides", {_Str("e"): 0.5}), None),
    ],
    ids=["node id", "edge endpoint", "exec override key"],
)
def test_a_str_subclass_id_is_a_format_error_or_reads_as_its_entity_id(case, message):
    """An id or endpoint must be a str; a key that names a node reads as that
    node's id.  Each of these escaped as TypeError: can't intern."""
    doc = _doc()
    case(doc)
    if message is not None:
        with pytest.raises(ProblemFormatError) as raised:
            instance_from_dict(doc)
        assert str(raised.value) == message
        return
    instance = instance_from_dict(doc)
    assert_parsed_types(instance)
    assert instance.algorithms["a"].node_overrides == {"e": 0.5}


def test_an_int_time_that_rounds_into_the_float_range_is_rejected():
    """float() rounds int(max) + 1 down to the largest float, which one
    execution on one node sums to without overflow; the reader rejects the
    int, so it must compare it before converting."""
    doc = {"nodes": [{"id": "e", "tier": "edge"}], "algorithms": [{"id": "a", "exec_time": {"edge": 1.0}}]}
    assert_parsed_types(instance_from_dict(doc))
    doc["algorithms"][0]["exec_time"]["edge"] = int(sys.float_info.max) + 1
    with pytest.raises(ProblemFormatError, match="algorithm a.exec_time.edge: expected a number"):
        instance_from_dict(doc)


def test_a_null_delay_reads_as_none_and_int_times_as_floats():
    """delay: null is a link without delay; an int time, weight or mu is
    converted to a float, as hand-written documents often hold "edge": 2 or
    "base_seconds": 1."""
    doc = _doc()
    doc["comm"][1]["delay"] = None
    assert instance_from_dict(doc).comm.links[("f", "e")].delay is None
    doc["algorithms"][0]["exec_time"] = {"edge": 2, "overrides": {"f": 0}}
    doc["comm"][0].update(base_seconds=1, per_byte_seconds=0, delay={"mu": -1, "sigma": 3})
    doc["options"].update(memory_weight=3, time_weight=1)
    instance = instance_from_dict(doc)
    assert_parsed_types(instance)
    assert instance.algorithms["a"].exec_time[Tier.EDGE] == 2.0
    assert instance.comm.links[("e", "f")] == CommLink(1.0, DelaySpec(-1.0, 3.0), 0.0)
    assert (instance.options.memory_weight, instance.options.time_weight) == (3.0, 1.0)


def test_deeply_nested_json_is_a_format_error():
    """json raises RecursionError, not JSONDecodeError, past the depth its
    decoder can recurse to; so did repr on a value nested past the
    recursion limit, when an error message showed it."""
    with pytest.raises(ProblemFormatError) as raised:
        parse_problem("[" * 100_000)
    assert str(raised.value) == "syntax error: arrays and objects nested too deeply"
    nested = []
    for _ in range(2 * sys.getrecursionlimit()):
        nested = [nested]
    with pytest.raises(ProblemFormatError) as raised:
        instance_from_dict({"nodes": [nested]})
    assert str(raised.value) == "node: expected an object, got <list too large to print>"


# ---------------------------------------------------------------------------
# Round trips


@pytest.mark.parametrize("name", sorted(fixtures.bundled()))
def test_serialize_parse_round_trip(name):
    instance = instance_from_dict(fixtures.bundled()[name])
    text = serialize_problem(instance)
    again = parse_problem(text)
    assert instance_to_dict(again) == instance_to_dict(instance)
    assert serialize_problem(again) == text


def test_serialized_form_is_stable_json():
    text = serialize_problem(instance_from_dict(fixtures.single_sort()))
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Validation


def test_valid_fixtures_have_clean_reports():
    for name, data in fixtures.bundled().items():
        if name == "cyclic_invalid":
            continue
        assert validate(instance_from_dict(data)).ok, name


def test_cycle_reported_with_members():
    report = validate(instance_from_dict(fixtures.cyclic_invalid()))
    kinds = [v.kind for v in report.violations]
    assert "cycle" in kinds
    cycle = next(v for v in report.violations if v.kind == "cycle")
    assert set(cycle.members) == {"A", "B", "C"}


def test_cycles_are_reported_in_search_order():
    """Cycles are listed in the order a depth-first search from each
    algorithm, in id order, closes them: y <-> z, reached from a, comes
    before the disjoint b <-> c, though b sorts first; p -> q -> r -> p comes
    last, and d, downstream of z, is in no cycle."""
    data = minimal()
    data["algorithms"] = [{"id": aid, "exec_time": {"edge": 1.0}} for aid in "abcdpqryz"]
    data["edges"] = [list(e) for e in ("ay", "yz", "zy", "zd", "bc", "cb", "pq", "qr", "rp")]
    report = validate(instance_from_dict(data))
    assert report.lines() == [
        "cycle: dependency cycle through y, z",
        "cycle: dependency cycle through b, c",
        "cycle: dependency cycle through p, q, r",
    ]
    assert [v.members for v in report.violations] == [("y", "z"), ("b", "c"), ("p", "q", "r")]


def test_an_acyclic_graph_skips_the_cycle_search(monkeypatch):
    """validate orders the graph by Kahn's algorithm first and searches for
    strongly connected components only when that order leaves an algorithm
    out: never on a DAG, an unknown-algorithm edge included."""
    from allocflow import model

    searched = []
    search = model._strongly_connected
    monkeypatch.setattr(model, "_strongly_connected", lambda adj: searched.append(adj) or search(adj))
    dags = [instance_from_dict(data) for name, data in sorted(fixtures.bundled().items()) if name != "cyclic_invalid"]
    dags += [random_instance(n, GenParams(fog_nodes=2), seed=n) for n in (0, 1, 8, 14)]
    unknown = random_instance(6, seed=2)
    unknown.graph.edges += (("a01", "zz"),)
    for inst in dags + [unknown]:
        validate(inst)
    assert searched == []
    assert [v.kind for v in validate(unknown).violations] == ["unknown-algorithm"]
    assert not validate(instance_from_dict(fixtures.cyclic_invalid())).ok and len(searched) == 1


def test_cycle_report_with_an_acyclic_part_and_an_unknown_edge_is_pinned():
    """Two disjoint cycles, an acyclic part hanging off one of them, a
    self-loop (left over by Kahn's order, but no cycle of two members) and
    an edge to an unknown algorithm: the report lists exactly these lines,
    in this order."""
    data = minimal()
    data["algorithms"] = [{"id": aid, "exec_time": {"edge": 1.0}} for aid in "abcdeghmnsuvwx"]
    data["edges"] = [list(e) for e in ("hg", "gm", "mh", "ms", "sn", "cd", "dc", "ae", "eb", "vw", "wx")]
    inst = instance_from_dict(data)
    inst.graph.edges += (("u", "u"), ("x", "zz"))  # the reader refuses both
    report = validate(inst)
    assert report.lines() == [
        "unknown-algorithm: dependency edge (x, zz) names unknown algorithm zz",
        "cycle: dependency cycle through c, d",
        "cycle: dependency cycle through g, h, m",
    ]


def test_a_long_chain_into_a_cycle_reports_one_cycle():
    """A chain of 5,000 algorithms feeding a 3-cycle: the strongly connected
    search runs 5,003 deep from the chain's head without reaching the
    recursion limit, and closes only the cycle into a report line."""
    chain = [f"a{i:04d}" for i in range(5000)]
    data = minimal()
    data["algorithms"] = [{"id": aid, "exec_time": {"edge": 1.0}} for aid in chain + ["x", "y", "z"]]
    data["edges"] = [list(e) for e in zip(chain, chain[1:] + ["x"])] + [["x", "y"], ["y", "z"], ["z", "x"]]
    report = validate(instance_from_dict(data))
    assert report.lines() == ["cycle: dependency cycle through x, y, z"]


@pytest.mark.parametrize("seed", range(8))
def test_effective_allowed_shares_one_tuple_where_nothing_restricts(seed):
    """Every algorithm without allowed_locations and without unbounded
    growth gets the same tuple, every node in tie-break order; the others
    keep the general rule.  Checked against that rule on instances that mix
    allowed sets (one naming an unknown node), growth that is unbounded
    from horizon 2 on, and horizons 1 and 16."""
    rng = random.Random(seed)
    inst = random_instance(10, GenParams(fog_nodes=2, cloud_nodes=2), seed=seed)
    node_ids = sorted(inst.nodes)
    for aid in sorted(inst.algorithms):
        spec = inst.algorithms[aid]
        if rng.random() < 0.4:
            allowed = frozenset(rng.sample(node_ids + ["zz"], rng.randint(1, 4)))
            spec = replace(spec, allowed_locations=allowed)
        if rng.random() < 0.4:
            spec = replace(spec, memory=replace(spec.memory, growth_per_step=(0, rng.randint(1, 9), 0)))
        inst.algorithms[aid] = spec
    order = sorted(node_ids, key=lambda nid: (("cloud", "fog", "edge").index(inst.nodes[nid].tier.value), nid))
    for horizon in (1, 16):
        inst.options.boundedness_horizon = horizon
        got = effective_allowed(inst)
        shared = set()
        for aid, spec in inst.algorithms.items():
            unbounded = horizon >= 2 and any(spec.memory.growth_per_step)
            allowed = set(order) if spec.allowed_locations is None else set(order) & spec.allowed_locations
            if unbounded:
                allowed = {nid for nid in allowed if inst.nodes[nid].tier is Tier.CLOUD}
            assert got[aid] == tuple(nid for nid in order if nid in allowed), (horizon, aid)
            if spec.allowed_locations is None and not unbounded:
                shared.add(id(got[aid]))
        assert len(shared) == 1


def test_missing_edge_node_reported():
    data = minimal()
    data["nodes"][0]["tier"] = "fog"
    data["algorithms"][0]["exec_time"] = {"fog": 1.0}
    report = validate(instance_from_dict(data))
    assert any(v.kind == "no-edge-node" for v in report.violations)


def test_two_edge_nodes_reported():
    data = minimal()
    data["nodes"].append({"id": "e2", "tier": "edge"})
    data["comm"] = [
        {"from": "e", "to": "e2", "base_seconds": 1.0},
        {"from": "e2", "to": "e", "base_seconds": 1.0},
    ]
    report = validate(instance_from_dict(data))
    assert any(v.kind == "single-robot" for v in report.violations)


def test_missing_exec_time_reported():
    data = minimal()
    data["nodes"].append({"id": "f", "tier": "fog"})
    data["comm"] = [
        {"from": "e", "to": "f", "base_seconds": 1.0},
        {"from": "f", "to": "e", "base_seconds": 1.0},
    ]
    # algorithm "a" has only an edge exec time but f is allowed by default
    report = validate(instance_from_dict(data))
    assert any(v.kind == "missing-exec-time" and v.members == ("a", "f") for v in report.violations)


def test_unreachable_pair_reported():
    data = minimal()
    data["nodes"].append({"id": "f", "tier": "fog"})
    data["algorithms"][0]["exec_time"]["fog"] = 1.0
    data["comm"] = [{"from": "e", "to": "f", "base_seconds": 1.0}]  # no way back
    report = validate(instance_from_dict(data))
    assert any(v.kind == "unreachable-pair" and v.members == ("f", "e") for v in report.violations)


def test_unbounded_growth_off_cloud_reported():
    data = minimal()
    data["algorithms"][0]["memory"]["growth_per_step"] = {"processing": 8}
    report = validate(instance_from_dict(data))
    assert any(v.kind == "no-feasible-location" for v in report.violations)


def _api_built():
    """An instance built in Python, which parse_problem never checked."""
    return random_instance(4, seed=1)


def test_comm_link_to_unknown_node_reported():
    inst = _api_built()
    links = dict(inst.comm.links)
    links[("e", "zz")] = links[("e", "f1")]
    links[("yy", "e")] = links[("f1", "e")]
    inst.comm = CommModel(links)
    assert validate(inst).violations == [
        Violation("unknown-node", "comm link (e, zz) names unknown node zz", ("e", "zz")),
        Violation("unknown-node", "comm link (yy, e) names unknown node yy", ("yy", "e")),
    ]


def test_a_route_through_an_unknown_node_connects_nothing():
    """Reachability walks only links between known nodes.  e's one link
    leads to the unknown zz, and zz's link on to f1, so e reaches no other
    node; f1 reaches e in two links, through c1.  The unreachable pairs
    follow the unknown-node lines, sorted by source, then destination."""
    link = CommLink(1.0)
    tiers = {"e": Tier.EDGE, "f1": Tier.FOG, "c1": Tier.CLOUD}
    inst = ProblemInstance(
        nodes={nid: LocationNode(nid, tier) for nid, tier in tiers.items()},
        comm=CommModel({("e", "zz"): link, ("zz", "f1"): link, ("f1", "c1"): link, ("c1", "e"): link}),
    )
    assert validate(inst).violations == [
        Violation("unknown-node", "comm link (e, zz) names unknown node zz", ("e", "zz")),
        Violation("unknown-node", "comm link (zz, f1) names unknown node zz", ("zz", "f1")),
        Violation("unreachable-pair", "no communication path from c1 to f1", ("c1", "f1")),
        Violation("unreachable-pair", "no communication path from e to c1", ("e", "c1")),
        Violation("unreachable-pair", "no communication path from e to f1", ("e", "f1")),
    ]


def test_comm_links_are_fixed_once_built():
    """Routes are cached at a solve, so links changed afterwards would be
    silently ignored: with e<->c1 links at 0.01 s added after one solve, the
    next solve reported the stale 15.66 s where a fresh parse gives 10.44 s.
    So neither an item assignment into links nor reassigning links is
    accepted; a model built from the edited links routes afresh."""
    inst = random_instance(6, GenParams(), seed=2)
    assert solve_branch_bound(inst).cost.time_seconds == pytest.approx(15.66, abs=0.01)
    fast = CommLink(0.01)
    edited = {**inst.comm.links, ("e", "c1"): fast, ("c1", "e"): fast}
    with pytest.raises(TypeError):
        inst.comm.links[("e", "c1")] = fast
    with pytest.raises(AttributeError):
        inst.comm.links = edited
    assert ("e", "c1") not in inst.comm.links
    inst.comm = CommModel(edited)
    assert copy.deepcopy(inst) == pickle.loads(pickle.dumps(inst)) == inst
    cost = solve_branch_bound(inst).cost
    assert cost == solve_branch_bound(parse_problem(serialize_problem(inst))).cost
    assert cost.time_seconds == pytest.approx(10.44, abs=0.01)


def test_allowed_location_naming_unknown_node_reported():
    inst = _api_built()
    inst.algorithms["a01"] = replace(inst.algorithms["a01"], allowed_locations=frozenset({"zz", "c1"}))
    assert validate(inst).violations == [
        Violation("unknown-node", "algorithm a01 allows unknown node zz", ("a01", "zz"))
    ]
    assert effective_allowed(inst)["a01"] == ("c1",)


def test_memory_naming_unknown_region_reported():
    """The solver prices every region an algorithm names: before this
    check, validate passed this instance and solve_branch_bound raised
    KeyError: 'ghost'."""
    inst = _api_built()
    spec = inst.algorithms["a01"]
    memory = replace(spec.memory, inputs=spec.memory.inputs | {"ghost"}, outputs=spec.memory.outputs | {"zz"})
    inst.algorithms["a01"] = replace(spec, memory=memory)
    assert validate(inst).violations == [
        Violation("unknown-region", "algorithm a01 names unknown region ghost in memory.inputs", ("a01", "ghost")),
        Violation("unknown-region", "algorithm a01 names unknown region zz in memory.outputs", ("a01", "zz")),
    ]


def test_dependency_edge_to_unknown_algorithm_reported():
    inst = _api_built()
    inst.graph.edges += (("a04", "zz"), ("yy", "xx"))
    assert validate(inst).violations == [
        Violation("unknown-algorithm", "dependency edge (a04, zz) names unknown algorithm zz", ("a04", "zz")),
        Violation("unknown-algorithm", "dependency edge (yy, xx) names unknown algorithm xx", ("yy", "xx")),
        Violation("unknown-algorithm", "dependency edge (yy, xx) names unknown algorithm yy", ("yy", "xx")),
    ]


def test_report_lines_format():
    report = validate(instance_from_dict(fixtures.cyclic_invalid()))
    assert all(": " in line for line in report.lines())
    assert not report.ok


# ---------------------------------------------------------------------------
# Unbounded-growth location narrowing


def test_growth_restricts_to_cloud():
    data = minimal()
    data["nodes"] += [{"id": "f", "tier": "fog"}, {"id": "c", "tier": "cloud"}]
    data["algorithms"][0]["exec_time"] = {"edge": 1.0, "fog": 1.0, "cloud": 1.0}
    data["algorithms"][0]["memory"]["growth_per_step"] = {"inputs": 1}
    data["comm"] = [
        {"from": "e", "to": "f", "base_seconds": 1.0},
        {"from": "f", "to": "e", "base_seconds": 1.0},
        {"from": "f", "to": "c", "base_seconds": 1.0},
        {"from": "c", "to": "f", "base_seconds": 1.0},
    ]
    instance = instance_from_dict(data)
    assert effective_allowed(instance)["a"] == ("c",)


def test_unbounded_restrictions_names_growing_components():
    profile = MemoryProfile(growth_per_step=(1, 0, 2))
    assert unbounded_restrictions(profile, 16) == ("inputs", "outputs")
    assert unbounded_restrictions(profile, 1) == ()  # a single step cannot grow


# ---------------------------------------------------------------------------
# Delay specs


def test_folded_normal_standard_mean():
    assert DelaySpec(0.0, 1.0).mean() == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)


def test_folded_normal_degenerate_sigma():
    assert DelaySpec(0.188, 0.0).mean() == 0.188
    assert DelaySpec(-0.4, 0.0).mean() == 0.4


def test_folded_normal_closed_form_value():
    assert DelaySpec(0.188, 0.087).mean() == pytest.approx(0.18894973393641776, abs=1e-15)


@given(mu=st.floats(-3, 3), sigma=st.floats(0.001, 2))
def test_folded_normal_mean_at_least_abs_mu(mu, sigma):
    assert DelaySpec(mu, sigma).mean() >= abs(mu) - 1e-12


# ---------------------------------------------------------------------------
# Communication resolution


def comm_of(instance_dict) -> CommModel:
    return instance_from_dict(instance_dict).comm


def test_same_node_costs_zero(single_sort):
    assert single_sort.comm.resolve("e", "e", 10**9) == 0.0


def test_direct_link_cost(single_sort):
    assert single_sort.comm.resolve("e", "f", 0) == 1.5
    assert single_sort.comm.resolve("e", "c", 0) == 3.0


def test_missing_pair_composes_cheapest_route():
    data = fixtures.sort_tradeoff(1.0)  # declares only e<->f and f<->c
    comm = comm_of(data)
    assert comm.resolve("e", "c", 0) == 2.0  # e->f->c


def test_asymmetric_links_resolve_directionally():
    data = minimal()
    data["nodes"].append({"id": "f", "tier": "fog"})
    data["comm"] = [
        {"from": "e", "to": "f", "base_seconds": 1.0},
        {"from": "f", "to": "e", "base_seconds": 5.0},
    ]
    comm = comm_of(data)
    assert comm.resolve("e", "f", 0) == 1.0
    assert comm.resolve("f", "e", 0) == 5.0


def test_unreachable_destination_raises():
    data = minimal()
    data["nodes"].append({"id": "f", "tier": "fog"})
    data["comm"] = [{"from": "e", "to": "f", "base_seconds": 1.0}]
    comm = comm_of(data)
    with pytest.raises(CommUnreachableError, match="no communication path"):
        comm.resolve("f", "e", 0)


def test_per_byte_cost_rounds_payload_up_to_bytes():
    comm = CommModel(links={("u", "v"): CommLink(base_seconds=1.0, per_byte_seconds=0.5)})
    assert comm.resolve("u", "v", 0) == 1.0
    assert comm.resolve("u", "v", 1) == 1.5  # 1 bit still ships one byte
    assert comm.resolve("u", "v", 16) == 2.0


def test_delay_mean_added_and_override_respected():
    link = CommLink(base_seconds=1.0, delay=DelaySpec(0.0, 1.0))
    comm = CommModel(links={("u", "v"): link})
    expected = 1.0 + DelaySpec(0.0, 1.0).mean()
    assert comm.resolve("u", "v", 0) == pytest.approx(expected)
    # frozen realization replaces the mean
    assert comm.resolve("u", "v", 0, delays={("u", "v"): 0.25}) == 1.25
    # links absent from the dict fall back to their mean
    assert comm.resolve("u", "v", 0, delays={}) == pytest.approx(expected)


def test_route_choice_prefers_cheaper_two_hop():
    comm = CommModel(
        links={
            ("a", "b"): CommLink(10.0),
            ("a", "m"): CommLink(1.0),
            ("m", "b"): CommLink(1.0),
        }
    )
    assert comm.resolve("a", "b", 0) == 2.0


def test_a_per_byte_link_makes_the_route_depend_on_the_payload():
    """The direct link charges per byte, the detour does not: small payloads
    take the direct link, large ones the detour.  Routes are then keyed by
    the true payload bits, not by payload_key's 0."""
    comm = CommModel(
        links={
            ("a", "b"): CommLink(1.0, per_byte_seconds=0.1),
            ("a", "m"): CommLink(0.625),
            ("m", "b"): CommLink(0.625),
        }
    )
    assert comm.payload_key(24) == 24
    assert comm.resolve("a", "b", 8) == 1.1  # one byte: direct, 1.1 < 1.25
    assert comm.resolve("a", "b", 24) == 1.25  # three bytes: 1.3 direct, so the detour
    assert comm.resolve("a", "b", 0) == 1.0


def test_without_per_byte_links_every_payload_shares_one_route():
    comm = CommModel(links={("a", "b"): CommLink(1.0, delay=DelaySpec(0.5, 0.25))})
    assert comm.payload_key(10**6) == 0
    delays = {("a", "b"): 0.75}
    assert [repr(comm.resolve("a", "b", bits, delays)) for bits in (0, 9, 10**6)] == ["1.75"] * 3
    assert list(comm._routes) == [("a", "a", 0), ("a", "b", 0)]


@pytest.mark.parametrize("per_byte", [0.0, 1e-3])
def test_equal_cost_routes_keep_the_lexicographic_tie_break(per_byte):
    """Both detours cost 2.0 s expected, so the lexicographically smaller
    path (via m1) wins.  Only a delay realization on a->m2 tells the routes
    apart.  An unrelated per-byte link switches to true-bit keys and must
    not change the choice."""
    comm = CommModel(
        links={
            ("a", "m2"): CommLink(0.5, delay=DelaySpec(0.5, 0.0)),
            ("m2", "b"): CommLink(1.0),
            ("a", "m1"): CommLink(1.0),
            ("m1", "b"): CommLink(1.0),
            ("x", "y"): CommLink(1.0, per_byte_seconds=per_byte),
        }
    )
    delays = {("a", "m2"): 5.0}
    for bits in (0, 800):
        assert comm.resolve("a", "b", bits, delays) == 2.0


def test_tier_enum_round_trip():
    assert Tier("edge") is Tier.EDGE
    assert {t.value for t in Tier} == {"edge", "fog", "cloud"}
