"""Memory algebra, boundedness, step partitions, and footprint accounting."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from allocflow.lattice import all_flows
from allocflow.memory import (
    MemoryTriple,
    combine_memory,
    default_partition,
    location_memory,
    region_bits,
    robot_memory,
    robot_memory_bits,
    step_partition,
)
from allocflow.model import MemoryProfile, MemoryRegion, unbounded_restrictions
from allocflow.simulate import GenParams, random_instance

MB = 8 * 1024 * 1024

REGIONS = {name: MemoryRegion(name, (i + 1) * 100) for i, name in enumerate("pqrstu")}

region_sets = st.frozensets(st.sampled_from(sorted(REGIONS)))
triples = st.builds(
    MemoryTriple,
    inputs=region_sets,
    processing=st.lists(st.integers(0, 10**6), max_size=4).map(tuple),
    outputs=region_sets,
)


# ---------------------------------------------------------------------------
# combine_memory


def test_parallel_blocks_coexist():
    m1 = MemoryTriple(frozenset({"p"}), (4, 2), frozenset({"q"}))
    m2 = MemoryTriple(frozenset({"q"}), (3,), frozenset({"r"}))
    out = combine_memory(m1, m2, "parallel")
    assert out.inputs == frozenset({"p", "q"})
    assert out.outputs == frozenset({"q", "r"})
    assert out.processing == (2, 3, 4)


def test_serial_reuses_processing_space():
    small = MemoryTriple(processing=(2, 1))
    large = MemoryTriple(processing=(5,))
    assert combine_memory(small, large, "serial").processing == (5,)
    assert combine_memory(large, small, "serial").processing == (5,)


def test_serial_tie_keeps_first_operand():
    m1 = MemoryTriple(processing=(4,))
    m2 = MemoryTriple(processing=(2, 2))
    assert combine_memory(m1, m2, "serial").processing == (4,)
    assert combine_memory(m2, m1, "serial").processing == (2, 2)


def test_unknown_relation_rejected():
    with pytest.raises(ValueError, match="unknown relation"):
        combine_memory(MemoryTriple(), MemoryTriple(), "overlapping")


@given(triples, triples)
def test_parallel_processing_is_additive(m1, m2):
    out = combine_memory(m1, m2, "parallel")
    assert out.processing_bits == m1.processing_bits + m2.processing_bits


@given(triples, triples)
def test_serial_processing_takes_larger_total(m1, m2):
    out = combine_memory(m1, m2, "serial")
    assert out.processing_bits == max(m1.processing_bits, m2.processing_bits)


@given(triples, triples)
def test_combined_regions_are_unions(m1, m2):
    for relation in ("serial", "parallel"):
        out = combine_memory(m1, m2, relation)
        assert out.inputs == m1.inputs | m2.inputs
        assert out.outputs == m1.outputs | m2.outputs


@given(region_sets, region_sets)
def test_region_bits_subadditive(a, b):
    union = region_bits(REGIONS, a | b)
    assert union <= region_bits(REGIONS, a) + region_bits(REGIONS, b)
    if not (a & b):
        assert union == region_bits(REGIONS, a) + region_bits(REGIONS, b)


# ---------------------------------------------------------------------------
# Boundedness: model.unbounded_restrictions decides it, and effective_allowed
# moves every algorithm it flags to the cloud


def profile_with_growth(growth):
    return MemoryProfile(processing_bits=40, growth_per_step=growth)


def test_constant_footprint_is_bounded():
    assert unbounded_restrictions(profile_with_growth((0, 0, 0)), 16) == ()


@pytest.mark.parametrize(
    "growth,component",
    [((8, 0, 0), "inputs"), ((0, 8, 0), "processing"), ((0, 0, 8), "outputs")],
)
def test_growth_is_flagged_with_component(growth, component):
    assert unbounded_restrictions(profile_with_growth(growth), 16) == (component,)


def test_horizon_one_sees_no_growth():
    assert unbounded_restrictions(profile_with_growth((8, 8, 8)), 1) == ()


# ---------------------------------------------------------------------------
# Step partition


def test_dataset_partition_orders_by_space_rank(dataset_d2):
    flows = all_flows(dataset_d2.graph)
    assert step_partition(dataset_d2.graph, flows) == [
        ("data",),
        ("stage_b",),
        ("stage_a",),
        ("stage_c",),
    ]


def test_vision_partition(vision):
    flows = all_flows(vision.graph)
    assert step_partition(vision.graph, flows) == [
        ("A1",),
        ("A2",),
        ("A4",),
        ("A5",),
        ("A3",),
        ("A6",),
        ("A7",),
    ]


def test_partition_requires_covering_flows(dataset_d2):
    with pytest.raises(ValueError, match="missing \\['stage_b'\\]"):
        step_partition(dataset_d2.graph, [("data", "stage_a", "stage_c")])


def test_partition_is_a_partition():
    rng = random.Random(13)
    for seed in range(15):
        inst = random_instance(rng.randint(1, 9), GenParams(), seed=seed)
        steps = step_partition(inst.graph, all_flows(inst.graph))
        flat = [aid for step in steps for aid in step]
        assert sorted(flat) == sorted(inst.algorithms)
        assert len(flat) == len(set(flat))


def test_partition_respects_dependencies():
    rng = random.Random(17)
    for seed in range(15):
        inst = random_instance(rng.randint(2, 9), GenParams(), seed=seed)
        steps = step_partition(inst.graph, all_flows(inst.graph))
        position = {aid: i for i, step in enumerate(steps) for aid in step}
        for u, v in inst.graph.edges:
            assert position[u] < position[v]


# ---------------------------------------------------------------------------
# Location / robot memory


def put_all(instance, node):
    return {aid: node for aid in instance.algorithms}


def test_dataset_all_edge_robot_bytes(dataset_d2):
    # dataset region (500 MB) + processing 300+50+100 MB, outputs already held
    assert robot_memory(dataset_d2, put_all(dataset_d2, "e")) == 996147200.0


def test_dataset_all_fog_robot_bytes(dataset_d2):
    # nothing runs on the robot, but it keeps every algorithm's outputs
    assert robot_memory(dataset_d2, put_all(dataset_d2, "f")) == 524288000.0


def test_dataset_peak_mode_takes_largest_step(dataset_d2):
    assert robot_memory(dataset_d2, put_all(dataset_d2, "e"), mode="peak") == 838860800.0


def test_dataset_fog_location_bytes(dataset_d2):
    placement = put_all(dataset_d2, "f")
    assert location_memory(dataset_d2, placement, "f") == 996147200.0
    assert location_memory(dataset_d2, placement, "c") == 0.0


def test_vision_offload_footprints(vision):
    placement = put_all(vision, "f1")
    assert robot_memory(vision, placement) == 594304.0
    assert location_memory(vision, placement, "f1") == 83990542.0


def test_unknown_mode_rejected(dataset_d2):
    with pytest.raises(ValueError, match="unknown memory mode"):
        location_memory(dataset_d2, put_all(dataset_d2, "e"), "e", mode="rolling")


def test_empty_instance_needs_no_memory():
    inst = random_instance(0, GenParams(), seed=1)
    assert robot_memory_bits(inst, {}) == 0


def test_robot_holds_all_outputs():
    rng = random.Random(23)
    for seed in range(20):
        inst = random_instance(rng.randint(1, 8), GenParams(), seed=seed)
        nodes = sorted(inst.nodes)
        placement = {aid: rng.choice(nodes) for aid in inst.algorithms}
        outputs = frozenset().union(
            *(s.memory.outputs for s in inst.algorithms.values())
        )
        floor_bits = region_bits(inst.regions, outputs)
        assert robot_memory_bits(inst, placement) >= floor_bits


def test_moving_work_off_the_edge_never_costs_memory():
    rng = random.Random(29)
    edge = "e"
    for seed in range(20):
        inst = random_instance(rng.randint(1, 8), GenParams(), seed=seed)
        placement = {aid: rng.choice(sorted(inst.nodes)) for aid in inst.algorithms}
        before = robot_memory_bits(inst, placement)
        on_edge = [aid for aid, nid in placement.items() if nid == edge]
        if not on_edge:
            continue
        moved = dict(placement)
        moved[rng.choice(on_edge)] = rng.choice(
            sorted(n for n in inst.nodes if n != edge)
        )
        assert robot_memory_bits(inst, moved) <= before


def test_default_partition_matches_explicit(dataset_d2):
    explicit = step_partition(dataset_d2.graph, all_flows(dataset_d2.graph))
    assert default_partition(dataset_d2) == explicit
    placement = put_all(dataset_d2, "e")
    assert robot_memory(dataset_d2, placement) == robot_memory(
        dataset_d2, placement, partition=explicit
    )


def test_sum_mode_needs_no_partition():
    rng = random.Random(37)
    for seed in range(25):
        inst = random_instance(rng.randint(1, 10), GenParams(fog_nodes=2), seed=seed)
        explicit = step_partition(inst.graph, all_flows(inst.graph))
        placement = {aid: rng.choice(sorted(inst.nodes)) for aid in inst.algorithms}
        assert robot_memory_bits(inst, placement) == robot_memory_bits(inst, placement, explicit)
        for nid in sorted(inst.nodes):
            assert location_memory(inst, placement, nid) == location_memory(
                inst, placement, nid, explicit
            )
