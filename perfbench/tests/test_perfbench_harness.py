"""Harness arithmetic, pool reproducibility and the runner's output contract.

Run with:  python3 -m pytest perfbench/tests -q
"""

import json
from dataclasses import replace

import pytest

import run
from harness import (
    REFERENCE_CALIBRATION_S,
    ROOT,
    calibrate,
    calibration_loop,
    count_failed,
    covered_ns,
    failed_ratio,
    load_allocflow,
    normalize,
    span_self_and_busy,
    tail_latency,
)
from workloads import WORKLOADS, flow_count


@pytest.fixture(scope="module")
def program():
    return load_allocflow()


def small(name, pool_size, traced_requests=2):
    workload = WORKLOADS[name](name)
    workload.spec = dict(workload.spec, pool_size=pool_size, traced_requests=traced_requests)
    return workload


# -- span arithmetic -----------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(0, 100, [(10, 20), (15, 30), (40, 50)]) == 30
    assert covered_ns(10, 20, [(0, 15), (18, 40)]) == 7
    assert covered_ns(0, 10, [(20, 30)]) == 0


def test_self_time_subtracts_every_child_span():
    # 0: [0, 100) layer 0, children 1 [10, 40) and 2 [50, 60); 3 nests in 1
    parents = [-1, 0, 0, 1]
    starts = [0, 10, 50, 20]
    ends = [100, 40, 60, 30]
    self_t, _ = span_self_and_busy(parents, starts, ends, [0, 1, 1, 2])
    assert self_t == [60, 20, 10, 10]


def test_busy_time_keeps_same_layer_helpers():
    # 1 is a same-layer helper of 0, so its time stays in 0's busy time, but
    # the other-layer span 3 beneath it does not; 2 is another layer.
    parents = [-1, 0, 0, 1]
    starts = [0, 10, 50, 20]
    ends = [100, 40, 60, 30]
    self_t, busy_t = span_self_and_busy(parents, starts, ends, [0, 0, 1, 1])
    assert self_t == [60, 20, 10, 10]
    assert busy_t == [100 - 10 - 10, 30 - 10, 10, 10]


# -- latency and failure arithmetic --------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(v) for v in range(100, 0, -1)]
    value, percentile = tail_latency(samples)
    assert value == 90.0 and percentile == 90.0
    assert sum(1 for s in samples if s > value) == 10

    value, percentile = tail_latency([float(v) for v in range(1, 12)])
    assert value == 1.0 and percentile == pytest.approx(100 / 11)


def test_tail_with_too_few_samples_is_the_maximum():
    assert tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)
    with pytest.raises(ValueError):
        tail_latency([])


def test_failed_counts_each_request_once():
    served = [0, 1, 2, 0, 1, 2]  # pool indices served, in order
    exceptions = {1: "raised", 4: "raised"}  # by request ordinal
    bad_answers = {0: ["wrong"], 1: ["wrong"]}  # by pool index
    # ordinals 0, 3 (index 0), 1, 4 (index 1, also raised): 4 requests
    assert count_failed(served, exceptions, bad_answers) == 4
    assert failed_ratio(6, 4) == pytest.approx(4 / 6)
    assert failed_ratio(6, 0) == 0.0
    with pytest.raises(ValueError):
        failed_ratio(0, 0)
    with pytest.raises(ValueError):
        failed_ratio(3, 4)


# -- instance pools ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pool_is_reproducible_from_the_seed(program, name):
    workload = small(name, pool_size=6)
    first = workload.build_pool(program, 7)
    assert first == workload.build_pool(program, 7)
    other = workload.build_pool(program, 8)
    assert other != first
    # another seed serves the same population in another order
    assert sorted(r.text for r in other) == sorted(r.text for r in first)
    assert [r.index for r in first] == list(range(6))


def test_flow_count_matches_enumeration(program):
    for seed in range(40):
        instance = program.simulate.random_instance(
            5 + seed % 15, program.simulate.GenParams(), seed=seed
        )
        assert flow_count(instance) == len(program.lattice.all_flows(instance.graph))


def test_jitter_pool_respects_the_flow_band(program):
    workload = small("jitter-eval", pool_size=6)
    low, high = workload.gen["flows"]
    for request in workload.build_pool(program, 1):
        instance = program.model.parse_problem(request.text)
        assert low <= flow_count(instance) <= high


# -- runner output ------------------------------------------------------------------


def benchmark_names(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


# -- calibration ---------------------------------------------------------------


def test_normalize_divides_by_the_mean_of_the_bracketing_calibrations():
    assert normalize(2.0, REFERENCE_CALIBRATION_S, REFERENCE_CALIBRATION_S) == 2.0
    assert normalize(2.0, 1 * REFERENCE_CALIBRATION_S, 3 * REFERENCE_CALIBRATION_S) == pytest.approx(1.0)


def test_calibration_is_fixed_work_outside_the_program():
    assert calibration_loop() == calibration_loop()
    assert calibrate() > 0
    code = calibration_loop.__code__
    assert not any("allocflow" in str(name) for name in code.co_names + code.co_consts)


def test_timed_run_reports_every_end_to_end_metric():
    result = run.timed_run(small("solve-small", pool_size=8), seed=3, seconds=0.2)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["attempted"] % 8 == 0, "only whole passes over the pool are served"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == benchmark_names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric_and_repeats_counts(name):
    first = run.traced_run(small(name, pool_size=2), seed=5)
    second = run.traced_run(small(name, pool_size=2), seed=5)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == benchmark_names("per_layer")
    for metric, entry in first["metrics"].items():
        if metric.endswith((".calls", ".failed", ".flows", "explored_nodes", "explored_per_placement")):
            assert second["metrics"][metric] == entry, metric


def test_a_wrong_answer_is_counted(program, monkeypatch):
    workload = small("solve-small", pool_size=2)
    pool = workload.build_pool(program, 1)
    summary = workload.summarize(workload.run(program, pool[0]))
    placement = dict(summary.placement)
    aid = sorted(placement)[0]
    others = [n for n in program.model.effective_allowed(
        program.model.parse_problem(pool[0].text))[aid] if n != placement[aid]]
    placement[aid] = others[0]
    wrong = replace(summary, placement=tuple(sorted(placement.items())))
    assert workload.check(program, pool[0], wrong)


def test_layer_map_names_known_metrics_and_workloads():
    from workloads import SPEC

    per_layer = benchmark_names("per_layer")
    end_to_end = set(benchmark_names("end_to_end")) | {"failed_ratio"}
    for row in SPEC["layer_metrics"]:
        assert set(row["metrics"]) <= set(per_layer)
        assert set(row["should_move"]) <= end_to_end
        assert set(row["workloads"]) <= set(WORKLOADS)


def test_tracer_wraps_every_import_site_and_restores_them():
    from tracer import Tracer

    # loaded afresh: the function-local import in memory.default_partition
    # resolves through sys.modules, which must hold this program's modules
    program = load_allocflow()
    originals = {
        ("optimizer", "all_flows"): program.optimizer.all_flows,
        ("simulate", "evaluate"): program.simulate.evaluate,
        ("baseline", "solve_branch_bound"): program.baseline.solve_branch_bound,
        ("lattice", "all_flows"): program.lattice.all_flows,
    }
    tracer = Tracer(program)
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            assert getattr(getattr(program, module), attr) is not original
        instance = program.simulate.random_instance(6, program.simulate.GenParams(), seed=1)
        program.memory.default_partition(instance)
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(getattr(program, module), attr) is original
    names = [tracer.names[i] for i in tracer.span_name]
    # memory.default_partition reaches lattice.all_flows through a local import
    inner = names.index("lattice.all_flows")
    assert names[tracer.span_parent[inner]] == "memory.default_partition"
