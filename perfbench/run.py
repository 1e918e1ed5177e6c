"""Request-level benchmark of allocflow.

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: the next request is sent only when the
previous one has returned, so nothing queues and wait time is zero by
construction.  Every request starts from serialized instance JSON.

--trace 0 serves whole passes over the workload's instance pool for about
--seconds of serving time and reports the end-to-end metrics.  Times are normalized to a
reference machine speed by calibration runs between requests (see
harness.calibrate).  --trace 1 serves a fixed list of requests twice,
untraced and then traced, and reports the per-layer metrics; its counts repeat
exactly for a given seed.  Either way every answer is checked outside the
timed window, and the last line of standard output is one JSON object with
the result.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

from harness import (
    LAYERS,
    TAIL_BEYOND,
    ProgramMissing,
    calibrate,
    count_failed,
    failed_ratio,
    load_allocflow,
    normalize,
    tail_latency,
)
from tracer import Tracer
from workloads import WORKLOADS

PROCESS_START_CALIBRATION = calibrate()

OUT_DIR = Path(__file__).resolve().parent / "out"

# Set-ups per run; setup_s is their median.
SETUPS = 9

# A calibration sample is taken before a request once this many seconds have
# passed since the last one, so every request of a workload with requests
# longer than this is bracketed by its own pair.
CALIBRATE_EVERY_S = 0.02

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-request figures from the traced run: (function, kind) where busy is the
# span minus time in other layers' spans and self is the span minus all child
# spans.
TRACED_FUNCTIONS = (
    ("model.parse_problem", "busy_ms"),
    ("model.validate", "busy_ms"),
    ("lattice.all_flows", "calls"),
    ("lattice.all_flows", "busy_ms"),
    ("memory.step_partition", "calls"),
    ("memory.step_partition", "busy_ms"),
    ("memory.robot_memory_bits", "busy_ms"),
    ("timing.flow_time", "calls"),
    ("timing.flow_time", "busy_ms"),
    ("optimizer.build_context", "busy_ms"),
    ("optimizer.warm_start", "busy_ms"),
    ("optimizer.solve_branch_bound", "self_ms"),
    ("optimizer.evaluate", "calls"),
    ("optimizer.evaluate", "busy_ms"),
    ("baseline.solve_baseline", "busy_ms"),
    ("simulate.monte_carlo_compare", "self_ms"),
)


def set_up(workload, seed: int, started: float):
    program = load_allocflow()
    pool = workload.build_pool(program, seed)
    workload.run(program, workload.warmup_request(program))
    return program, pool, time.perf_counter() - started


def serve(workload, program, request, summaries, exceptions):
    """Serve one request; returns its latency in seconds, or None if it
    raised.  Appends the answer's summary (None on an exception) and records
    an exception by ordinal."""
    started = time.perf_counter()
    try:
        answer = workload.run(program, request)
    except Exception as exc:  # a failed request is counted, not fatal
        exceptions[len(summaries)] = f"{type(exc).__name__}: {exc}"
        summaries.append(None)
        return None
    latency = time.perf_counter() - started
    summaries.append(workload.summarize(answer))
    return latency


def closed_loop(workload, program, pool, seconds: float):
    """Serve whole passes over the pool, in pool order, so every pass serves
    the whole population once.  Passes stop at the pass end nearest to
    `seconds` of serving time on the reference machine (at least one pass),
    so the number of passes, and with it the rank the tail is read at,
    depends on the program's speed and not on the machine's.

    Returns served pool indices, summaries, exceptions, each completed
    request's latency normalized to the reference machine, its latency as
    measured, and the window length as measured.
    """
    served, summaries, exceptions = [], [], {}
    raw, calibration_index = [], []
    calibrations = [calibrate()]
    calibrated_at = started = time.perf_counter()
    serving = 0.0  # reference seconds, estimated from the latest calibration
    while True:
        pass_started = serving
        for request in pool:
            if time.perf_counter() - calibrated_at >= CALIBRATE_EVERY_S:
                calibrations.append(calibrate())
                calibrated_at = time.perf_counter()
            served.append(request.index)
            latency = serve(workload, program, request, summaries, exceptions)
            if latency is not None:
                raw.append(latency)
                calibration_index.append(len(calibrations) - 1)
                serving += normalize(latency, calibrations[-1], calibrations[-1])
        if serving + (serving - pass_started) / 2 >= seconds:
            break
    elapsed = time.perf_counter() - started
    calibrations.append(calibrate())
    # The first calibration after a request is the next one in the list.
    latencies = [
        normalize(latency, calibrations[j], calibrations[j + 1])
        for latency, j in zip(raw, calibration_index)
    ]
    return served, summaries, exceptions, latencies, raw, elapsed


def check_answers(workload, program, pool, served, summaries, exceptions):
    """Check each pool entry's first answer; a later answer to the same
    entry must equal it.  Returns {pool index: errors}."""
    first = {}
    for ordinal, (index, summary) in enumerate(zip(served, summaries)):
        if summary is None:
            continue
        if index not in first:
            first[index] = summary
        elif summary != first[index]:
            exceptions[ordinal] = "answer differs from an earlier answer to the same request"
    bad = {}
    for position, (index, summary) in enumerate(first.items()):
        checks = [workload.check] + ([workload.check_run] if position == 0 else [])
        for check in checks:
            try:
                errors = check(program, pool[index], summary)
            except Exception as exc:  # a check that raises fails the answer
                errors = [f"check raised {type(exc).__name__}: {exc}"]
            if errors:
                bad.setdefault(index, []).extend(errors)
    return bad


def report_failures(exceptions, bad) -> None:
    for ordinal, message in sorted(exceptions.items())[:5]:
        print(f"request {ordinal}: {message}", file=sys.stderr)
    for index, errors in sorted(bad.items())[:5]:
        print(f"pool entry {index}: {'; '.join(errors)}", file=sys.stderr)


def timed_run(workload, seed: int, seconds: float) -> dict:
    setups = []
    before = PROCESS_START_CALIBRATION
    for i in range(SETUPS):
        program, pool, took = set_up(workload, seed, PROCESS_START if i == 0 else time.perf_counter())
        after = calibrate()
        setups.append(normalize(took, before, after))
        before = after
    served, summaries, exceptions, latencies, raw, elapsed = closed_loop(
        workload, program, pool, seconds
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bad = check_answers(workload, program, pool, served, summaries, exceptions)
    failed = count_failed(served, exceptions, bad)
    report_failures(exceptions, bad)
    if not latencies:
        raise RuntimeError("no request completed")
    tail, percentile = tail_latency(latencies)
    metrics = {
        # one client, nothing queues: throughput is requests per second of
        # serving time, calibration pauses left out
        "throughput_rps": len(latencies) / math.fsum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    raw_tail, _ = tail_latency(raw)
    as_measured = {
        "throughput_rps": len(raw) / math.fsum(raw),
        "latency_p50_ms": statistics.median(raw) * 1e3,
        "latency_tail_ms": raw_tail * 1e3,
    }
    passes = len(served) // len(pool)
    print(f"workload {workload.name}, seed {seed}: closed loop, 1 client, "
          f"{passes} passes over {len(pool)} instances in {elapsed:.1f} s")
    print("times are normalized to the reference machine speed; "
          "the figure in brackets is as measured here")
    for name, value in metrics.items():
        note = ""
        if name in as_measured:
            note = f"  [{as_measured[name]:.6g}]"
        if name == "latency_tail_ms":
            note += f"  (p{percentile:.2f} of {len(latencies)} requests, {TAIL_BEYOND} beyond it)"
        elif name == "setup_s":
            note = f"  (median of {SETUPS} set-ups)"
        print(f"{name}: {value:.6g} {END_TO_END[name]}{note}")
    print(f"failed_ratio: {failed_ratio(len(served), failed):.6g} ratio  ({failed} of {len(served)})")
    return {
        "correct": failed == 0,
        "attempted": len(served),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()},
    }


def traced_run(workload, seed: int) -> dict:
    program, pool, _ = set_up(workload, seed, time.perf_counter())
    count = workload.spec["traced_requests"]
    requests = [pool[i % len(pool)] for i in range(count)]

    solves = []

    def record_solve(args, kwargs, result):
        solves.append((args[0] if args else kwargs["instance"], result.explored_nodes))

    # Each request is served untraced and then traced, back to back, so both
    # passes see the same machine state and their time ratio is the overhead.
    tracer = Tracer(program, on_return={"optimizer.solve_branch_bound": record_solve})
    untraced: list = []
    traced: list = []
    exceptions: dict = {}
    traced_exceptions: dict = {}
    untraced_s = traced_s = 0.0
    for ordinal, request in enumerate(requests):
        started = time.perf_counter()
        serve(workload, program, request, untraced, exceptions)
        untraced_s += time.perf_counter() - started
        tracer.request = ordinal
        tracer.install()
        try:
            started = time.perf_counter()
            serve(workload, program, request, traced, traced_exceptions)
            traced_s += time.perf_counter() - started
        finally:
            tracer.uninstall()
    summaries = untraced + traced
    exceptions.update({count + ordinal: message for ordinal, message in traced_exceptions.items()})

    served = [request.index for request in requests] * 2
    bad = check_answers(workload, program, pool, served, summaries, exceptions)
    failed = count_failed(served, exceptions, bad)
    report_failures(exceptions, bad)

    table = tracer.per_function()
    empty = {"calls": 0, "self_ns": 0, "busy_ns": 0}
    metrics = {}
    for name, kind in TRACED_FUNCTIONS:
        row = table.get(name, empty)
        if kind == "calls":
            metrics[f"{name}.calls"] = (row["calls"] / count, "count")
        else:
            metrics[f"{name}.{kind}"] = (row[kind.replace("_ms", "_ns")] / 1e6 / count, "ms")
    metrics["model.resolve.calls"] = (tracer.resolve_calls / count, "count")
    all_flows = program.lattice.all_flows
    flows = [len(all_flows(program.model.parse_problem(r.text).graph)) for r in requests]
    metrics["lattice.flows"] = (statistics.mean(flows), "count")
    spaces = [
        math.prod(len(nodes) for nodes in program.model.effective_allowed(instance).values())
        for instance, _ in solves
    ]
    metrics["optimizer.explored_nodes"] = (sum(e for _, e in solves) / count, "count")
    metrics["optimizer.explored_per_placement"] = (
        statistics.mean(e / space for (_, e), space in zip(solves, spaces)) if solves else 0.0,
        "ratio",
    )
    for layer_id, layer in enumerate(LAYERS):
        layer_self = sum(row["self_ns"] for name, row in table.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_ms"] = (layer_self / 1e6 / count, "ms")
        metrics[f"{layer}.failed"] = (tracer.failed[layer_id], "count")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")

    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write_spans(spans_path)
    print(f"workload {workload.name}, seed {seed}: {count} requests untraced "
          f"in {untraced_s:.2f} s, then traced in {traced_s:.2f} s; "
          f"{len(tracer.span_name)} spans written to {spans_path.relative_to(OUT_DIR.parent.parent)}")
    print("wait time: 0 by construction (one client, closed loop, nothing queues)")
    print(f"{'function':40s} {'calls/req':>12s} {'busy ms/req':>12s} {'self ms/req':>12s}")
    for name in sorted(table):
        row = table[name]
        print(f"{name:40s} {row['calls'] / count:12.2f} {row['busy_ns'] / 1e6 / count:12.4f} "
              f"{row['self_ns'] / 1e6 / count:12.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(served),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload](args.workload)
    try:
        if args.trace:
            result = traced_run(workload, args.seed)
        else:
            result = timed_run(workload, args.seed, args.seconds)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
