"""Command line front end.

Subcommands: validate, flows, time, memory, solve, pareto, simulate, bench,
examples.  Structured output is JSON with sorted keys, or CSV where a table
is more natural; repeated runs with the same inputs and seed are
byte-identical.

Exit codes: 0 success, 1 invalid or infeasible input, 2 usage error,
3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Dict, List, Optional, Sequence

from .baseline import baseline_overall, solve_baseline
from .lattice import all_flows, count_flows, flow_cap
from .memory import location_memory, robot_memory, step_partition
from .model import (
    NOT_FINITE,
    CapExceededError,
    CommUnreachableError,
    InfeasibleError,
    ProblemFormatError,
    ProblemInstance,
    decode_json,
    parse_problem,
    validate,
)
from .optimizer import Objective, check_placement, scatter, solve_branch_bound, solve_bruteforce
from .simulate import GenParams, monte_carlo_compare, scaling_benchmark
from .timing import flow_time, overall_time
from . import fixtures

OBJECTIVE_NAMES = {
    "distance": "min_distance",
    "time-max": "min_time_max",
    "time-total": "min_time_total",
    "memory": "min_memory",
}

AGGREGATE_NAMES = {"max": "max_flow", "total": "total_flows", "mean": "mean_flows"}


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _cannot_write(out, exc) from exc
    else:
        sys.stdout.write(text)


def _cannot_write(path: str, exc: OSError) -> ProblemFormatError:
    """The one-line error for a failed write, as _read reports a failed read."""
    return ProblemFormatError(f"cannot write {exc.filename or path}: {exc.strerror}")


def _emit_json(obj, out: Optional[str]) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # JSON has no inf or nan: a time or memory sum overflowed
        raise ProblemFormatError(NOT_FINITE) from None
    _emit(text + "\n", out)


def _csv_number(value: float) -> str:
    """A CSV cell for a number: its repr, or ProblemFormatError if it is inf
    or nan, as _emit_json does for JSON."""
    if not math.isfinite(value):
        raise ProblemFormatError(NOT_FINITE)
    return repr(value)


def _emit_csv(rows, out: Optional[str]) -> None:
    """Rows as CSV, floats through _csv_number; an id that holds a comma, a
    quote or a line break is quoted, so it stays in its cell."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    for row in rows:
        writer.writerow([_csv_number(v) if isinstance(v, float) else v for v in row])
    _emit(text.getvalue(), out)


def _read(path: str) -> str:
    """The text of the file at path, read as UTF-8, the encoding of JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc


def _load_valid(path: str) -> ProblemInstance:
    """The instance in the file at path; ProblemFormatError, naming every
    violation, unless validate passes it."""
    instance = parse_problem(_read(path))
    report = validate(instance)
    if not report.ok:
        raise ProblemFormatError("; ".join(report.lines()))
    return instance


def _load_placement(instance: ProblemInstance, path: Optional[str]) -> Dict[str, str]:
    """Placement mapping from a JSON file, everything on the edge if omitted;
    InfeasibleError unless check_placement passes it."""
    if path is None:
        edge = instance.edge_node_id()
        placement = {aid: edge for aid in instance.algorithms}
    else:
        text = _read(path)
        try:
            placement = decode_json(text)
        except ProblemFormatError as exc:
            syntax = exc.__cause__
            if isinstance(syntax, json.JSONDecodeError):  # this file's syntax errors give no detail
                at = f"line {syntax.lineno} column {syntax.colno}"
                raise ProblemFormatError(f"{path}: syntax error at {at}") from syntax
            raise ProblemFormatError(f"{path}: {exc}") from exc
        if not isinstance(placement, dict) or not all(isinstance(x, str) for pair in placement.items() for x in pair):
            raise ProblemFormatError(f"{path}: placement must map algorithm ids to node ids")
    check_placement(instance, placement)
    return placement


def _objective(args) -> Objective:
    return Objective(
        kind=OBJECTIVE_NAMES[args.objective],
        memory_weight=args.wm,
        time_weight=args.wt,
    )


def cmd_validate(args) -> int:
    try:
        instance = parse_problem(_read(args.file))
    except ProblemFormatError as exc:
        print(f"invalid: {_one_line(str(exc))}", file=sys.stderr)
        return 1
    report = validate(instance)
    if report.ok:
        _emit("ok\n", args.out)
        return 0
    _emit("".join(f"{_one_line(line)}\n" for line in report.lines()), args.out)
    return 1


def cmd_flows(args) -> int:
    instance = _load_valid(args.file)
    if args.count_only:
        _emit(f"{count_flows(instance.graph)}\n", args.out)
        return 0
    _emit_csv(all_flows(instance.graph), args.out)
    return 0


def cmd_time(args) -> int:
    instance = _load_valid(args.file)
    placement = _load_placement(instance, args.placement)
    aggregate = AGGREGATE_NAMES[args.aggregate] if args.aggregate else instance.options.time_aggregate
    timings = [flow_time(instance, flow, placement) for flow in all_flows(instance.graph)]
    rows = [("flow", "request_s", "exec_s", "inter_s", "return_s", "total_s")]
    for t in timings:
        seconds = [t.segment_sum(kind) for kind in ("request-hop", "exec", "inter-hop", "return-hop")]
        rows.append([";".join(t.flow), *seconds, t.total])
    overall = _csv_number(overall_time(timings, aggregate))
    rows.append([f"# aggregate={aggregate} overall_seconds={overall}"])
    _emit_csv(rows, args.out)
    return 0


def cmd_memory(args) -> int:
    instance = _load_valid(args.file)
    placement = _load_placement(instance, args.placement)
    mode = "peak" if args.peak else "sum"
    partition = step_partition(instance.graph, all_flows(instance.graph)) if args.peak else None
    rows = [("location", "bytes")]
    for nid in sorted(instance.nodes):
        rows.append((nid, location_memory(instance, placement, nid, partition, mode)))
    rows.append(("robot", robot_memory(instance, placement, partition, mode)))
    _emit_csv(rows, args.out)
    return 0


def cmd_solve(args) -> int:
    instance = _load_valid(args.file)
    if args.method == "baseline":
        result = solve_baseline(instance, oracle=args.oracle)
    elif args.oracle:
        result = solve_bruteforce(instance, _objective(args))
    else:
        result = solve_branch_bound(instance, _objective(args))
    payload = {
        "method": args.method,
        "objective": "end_time" if args.method == "baseline" else OBJECTIVE_NAMES[args.objective],
        "placement": result.placement,
        "memory_bytes": result.cost.memory_bytes,
        "time_seconds": result.cost.time_seconds,
        "distance": result.cost.distance,
        "explored_nodes": result.explored_nodes,
        "per_flow": [{"flow": list(t.flow), "seconds": t.total} for t in result.per_flow],
    }
    if args.method == "baseline":
        payload["overall_with_return_seconds"] = baseline_overall(instance, result.placement)
    _emit_json(payload, args.out)
    return 0


def cmd_pareto(args) -> int:
    instance = _load_valid(args.file)
    points = scatter(instance, _objective(args), max_points=args.max_points)
    rows = [("placement_lex_index", "memory_mb", "time_s", "distance", "on_front")]
    for p in points:
        mb = p.cost.memory_bytes / (1024 * 1024)
        rows.append((p.index, mb, p.cost.time_seconds, p.cost.distance, int(p.on_front)))
    _emit_csv(rows, args.out)
    return 0


def cmd_simulate(args) -> int:
    instance = _load_valid(args.file)
    stats = monte_carlo_compare(
        instance,
        trials=args.trials,
        seed=args.seed,
        resolve_per_trial=args.resolve_per_trial,
        threads=args.threads,
    )
    _emit_json(stats.to_dict(), args.out)
    return 0


def cmd_bench(args) -> int:
    params = GenParams(fog_nodes=args.fog, cloud_nodes=args.cloud)
    result = scaling_benchmark(args.sizes, reps=args.reps, seed=args.seed, params=params)
    rows = [("n", "mean_seconds"), *result.points]
    if result.slope is not None:
        fit = map(_csv_number, (result.slope, result.intercept, result.r_squared))
        rows.append(["# slope={} intercept={} r2={}".format(*fit)])
    _emit_csv(rows, args.out)
    return 0


def cmd_examples(args) -> int:
    try:
        paths = fixtures.write_examples(args.directory)
    except OSError as exc:
        raise _cannot_write(args.directory, exc) from exc
    _emit("".join(f"{p}\n" for p in paths), args.out)
    return 0


def _size_list(raw: str) -> List[int]:
    try:
        sizes = [int(tok) for tok in raw.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be comma-separated integers, got {raw!r}")
    if not sizes or any(n < 1 for n in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive integers")
    return sizes


def _positive(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _non_negative(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_float(raw: str) -> float:
    value = float(raw)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="allocflow",
        description="Allocate interdependent algorithms across edge, fog, and cloud nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, needs_file: bool = True):
        p = sub.add_parser(name, help=help_text, parents=[common])
        if needs_file:
            p.add_argument("file", help="problem instance (JSON)")
        p.set_defaults(func=func)
        return p

    def add_objective(p):
        p.add_argument("--objective", choices=sorted(OBJECTIVE_NAMES), default="distance")
        p.add_argument("--wm", type=_positive_float, help="memory weight (default: instance)")
        p.add_argument("--wt", type=_positive_float, help="time weight (default: instance)")

    add("validate", cmd_validate, "check an instance and report violations")

    p = add("flows", cmd_flows, "execution flows, one per line")
    p.add_argument("--count-only", action="store_true", help="print the flow count only")

    p = add("time", cmd_time, "per-flow timing breakdown of a placement")
    p.add_argument("--placement", metavar="FILE",
                   help="JSON mapping of algorithm to node (default: all on the edge)")
    p.add_argument("--aggregate", choices=sorted(AGGREGATE_NAMES),
                   help="flow aggregation (default: instance option)")

    p = add("memory", cmd_memory, "per-location and robot memory of a placement")
    p.add_argument("--placement", metavar="FILE",
                   help="JSON mapping of algorithm to node (default: all on the edge)")
    p.add_argument("--peak", action="store_true",
                   help="peak concurrent footprint over steps instead of the resident sum")

    p = add("solve", cmd_solve, "find the optimal placement")
    add_objective(p)
    p.add_argument("--method", choices=("bnb", "baseline"), default="bnb",
                   help="bnb: joint memory-time search; baseline: end-time comparator")
    p.add_argument("--oracle", action="store_true", help="exhaustive search instead of pruning")

    p = add("pareto", cmd_pareto, "CSV of every placement's cost with a non-dominated flag")
    add_objective(p)
    p.add_argument("--max-points", type=_positive, default=10**6,
                   help="stratified subsample cap on the enumeration")

    p = add("simulate", cmd_simulate, "Monte-Carlo comparison under sampled link delays")
    p.add_argument("--seed", type=int, default=0, help="seed of the delay draws")
    p.add_argument("--threads", type=_positive, default=1, help="accepted for compatibility; trials run serially")
    p.add_argument("--trials", type=_positive, default=50)
    p.add_argument("--resolve-per-trial", action="store_true",
                   help="re-run both solvers inside every trial")

    p = add("bench", cmd_bench, "solver scaling on random instances", needs_file=False)
    p.add_argument("--seed", type=int, default=0, help="seed of the random instances")
    p.add_argument("--sizes", type=_size_list, default=[4, 6, 8, 10])
    p.add_argument("--reps", type=_positive, default=3)
    p.add_argument("--fog", type=_non_negative, default=1, help="fog nodes per instance")
    p.add_argument("--cloud", type=_non_negative, default=1, help="cloud nodes per instance")

    p = add("examples", cmd_examples, "write the bundled instances", needs_file=False)
    p.add_argument("directory", nargs="?", default="fixtures", help="target directory")

    return parser


def _one_line(text: str) -> str:
    """text with each line break written as a literal \\n, so that a message
    quoting an id that holds one stays on one output line."""
    return "\\n".join(text.splitlines())


def _error(exc: Exception, code: int) -> int:
    """Report exc on one stderr line and return the exit code."""
    print("error:", _one_line(str(exc)), file=sys.stderr)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        flow_cap()  # a malformed cap is a bad command line, checked up front
    except ValueError as exc:
        return _error(exc, 2)
    try:
        return args.func(args)
    except CapExceededError as exc:
        return _error(exc, 3)
    except (ProblemFormatError, InfeasibleError, CommUnreachableError) as exc:
        return _error(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
