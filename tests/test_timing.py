"""Time algebra and per-flow response-time accounting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from allocflow import fixtures
from allocflow.model import instance_from_dict
from allocflow.timing import FlowTiming, combine_time, flow_time, overall_time

# dyadic values: sums stay exactly representable, so algebra laws hold with ==
seconds = st.integers(0, 2**20).map(lambda k: k / 1024)


# ---------------------------------------------------------------------------
# combine_time


@given(seconds, seconds, seconds)
def test_serial_is_associative(a, b, c):
    assert combine_time(combine_time(a, b, "serial"), c, "serial") == combine_time(
        a, combine_time(b, c, "serial"), "serial"
    )


@given(seconds)
def test_serial_identity_is_zero(a):
    assert combine_time(a, 0.0, "serial") == a
    assert combine_time(0.0, a, "serial") == a


@given(seconds, seconds)
def test_serial_commutes(a, b):
    assert combine_time(a, b, "serial") == combine_time(b, a, "serial")


@given(seconds, seconds, seconds)
def test_parallel_is_associative(a, b, c):
    assert combine_time(combine_time(a, b, "parallel"), c, "parallel") == combine_time(
        a, combine_time(b, c, "parallel"), "parallel"
    )


@given(seconds)
def test_parallel_is_idempotent(a):
    assert combine_time(a, a, "parallel") == a


@given(seconds, seconds)
def test_parallel_bounds_both_sides(a, b):
    out = combine_time(a, b, "parallel")
    assert out >= a and out >= b
    assert out in (a, b)


def test_unknown_relation_rejected():
    with pytest.raises(ValueError, match="unknown relation"):
        combine_time(1.0, 2.0, "pipelined")


# ---------------------------------------------------------------------------
# response time of one algorithm: the flow that holds only it


def test_response_time_per_tier(single_sort):
    def response_time(at):
        return flow_time(single_sort, ("sort",), {"sort": at}).total

    assert response_time("e") == 5.0
    assert response_time("f") == 1.5 + 5.0 / 1.5 + 1.5
    assert response_time("c") == 7.0


def test_response_time_charges_payload_bytes():
    data = fixtures.single_sort()
    data["regions"] = [{"id": "buf", "size_bits": 16}]
    data["algorithms"][0]["memory"]["inputs"] = ["buf"]
    data["algorithms"][0]["memory"]["outputs"] = ["buf"]
    data["comm"][0]["per_byte_seconds"] = 0.5  # e -> f only
    data["comm"][1]["per_byte_seconds"] = 0.25  # f -> e only
    inst = instance_from_dict(data)
    # the request hop carries the 2 input bytes, the return hop the 2 output bytes
    timing = flow_time(inst, ("sort",), {"sort": "f"})
    assert timing.segments == (
        ("request-hop", 1.5 + 2 * 0.5),
        ("exec", 5.0 / 1.5),
        ("return-hop", 1.5 + 2 * 0.25),
    )
    assert timing.total == (1.5 + 2 * 0.5) + 5.0 / 1.5 + (1.5 + 2 * 0.25)


# ---------------------------------------------------------------------------
# flow_time


def test_flow_time_all_fog_breakdown(dataset_d2):
    placement = {aid: "f" for aid in dataset_d2.algorithms}
    timing = flow_time(dataset_d2, ("data", "stage_a", "stage_c"), placement)
    assert timing.total == 8.0
    assert timing.segments == (
        ("request-hop", 2.0),
        ("exec", 0.0),
        ("inter-hop", 0.0),
        ("exec", 1.0),
        ("inter-hop", 0.0),
        ("exec", 3.0),
        ("return-hop", 2.0),
    )
    assert timing.segment_sum("exec") == 4.0
    assert timing.segment_sum("request-hop") == 2.0


def test_flow_time_mixed_placement_charges_inter_hops(dataset_d2):
    placement = {"data": "e", "stage_a": "f", "stage_b": "f", "stage_c": "c"}
    timing = flow_time(dataset_d2, ("data", "stage_a", "stage_c"), placement)
    # request e->e free, e->f then f->c inter-hops, return c->f->e composed
    assert timing.segment_sum("request-hop") == 0.0
    assert timing.segment_sum("inter-hop") == 4.0
    assert timing.segment_sum("exec") == 2.5
    assert timing.segment_sum("return-hop") == 4.0
    assert timing.total == 10.5


def test_flow_time_without_return_hop(dataset_d2):
    placement = {aid: "f" for aid in dataset_d2.algorithms}
    timing = flow_time(
        dataset_d2, ("data", "stage_a", "stage_c"), placement, include_return_hop=False
    )
    assert timing.total == 6.0
    assert all(kind != "return-hop" for kind, _ in timing.segments)


def test_empty_flow_takes_no_time(dataset_d2):
    timing = flow_time(dataset_d2, (), {})
    assert timing.total == 0.0
    assert timing.segments == ()


def test_flow_total_equals_segment_sums(dataset_d2):
    placement = {"data": "c", "stage_a": "f", "stage_b": "e", "stage_c": "f"}
    timing = flow_time(dataset_d2, ("data", "stage_b"), placement)
    kinds = ("request-hop", "exec", "inter-hop", "return-hop")
    assert timing.total == sum(timing.segment_sum(k) for k in kinds)


# ---------------------------------------------------------------------------
# overall_time


def fake_timings(*totals):
    return [FlowTiming(flow=(), segments=(), total=t) for t in totals]


def test_overall_aggregates():
    timings = fake_timings(3.0, 5.0, 4.0)
    assert overall_time(timings, "max_flow") == 5.0
    assert overall_time(timings, "total_flows") == 12.0
    assert overall_time(timings, "mean_flows") == 4.0


def test_overall_default_is_max(dataset_d2):
    placement = {aid: "f" for aid in dataset_d2.algorithms}
    flows = [("data", "stage_a", "stage_c"), ("data", "stage_b")]
    timings = [flow_time(dataset_d2, f, placement) for f in flows]
    assert overall_time(timings) == max(t.total for t in timings)


def test_overall_empty_is_zero():
    for aggregate in ("max_flow", "total_flows", "mean_flows"):
        assert overall_time([], aggregate) == 0.0


def test_overall_unknown_aggregate_rejected():
    with pytest.raises(ValueError, match="unknown aggregate"):
        overall_time(fake_timings(1.0), "median_flows")
