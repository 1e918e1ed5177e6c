"""End-to-end subcommand behaviour: output bytes, exit codes, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from allocflow import fixtures
from allocflow.cli import main
from test_model import mutated_fixtures
from test_optimizer import ladder

FOG_TIME = 1.5 + 5.0 / 1.5 + 1.5


def write_instance(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.single_sort())
    rc, out, err = run(capsys, "validate", path)
    assert (rc, out, err) == (0, "ok\n", "")


def test_validate_reports_violations(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.cyclic_invalid())
    rc, out, err = run(capsys, "validate", path)
    assert rc == 1
    assert "cycle:" in out


def test_validate_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    rc, out, err = run(capsys, "validate", str(path))
    assert rc == 1
    assert err.startswith("invalid: syntax error")


def test_validate_an_overlong_integer_literal_is_one_error_line(tmp_path, capsys):
    """json raises a plain ValueError for an integer literal past int's
    digit limit, which ended the CLI with a traceback."""
    path = tmp_path / "long.json"
    path.write_text('{"nodes": 1' + "0" * 5000 + "}")
    rc, out, err = run(capsys, "validate", str(path))
    assert rc == 1
    assert err.startswith("invalid: syntax error") and err.count("\n") == 1


def test_validate_deeply_nested_json_is_one_error_line(tmp_path, capsys):
    """json raises RecursionError past the depth its decoder can recurse
    to, which ended the CLI with a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    rc, out, err = run(capsys, "validate", str(path))
    assert (rc, out, err) == (1, "", "invalid: syntax error: arrays and objects nested too deeply\n")


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_a_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys, command):
    """An instance file is read as UTF-8, not in the locale's encoding;
    bytes that do not decode ended the CLI with a UnicodeDecodeError."""
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    rc, out, err = run(capsys, command, str(path))
    head = "invalid" if command == "validate" else "error"
    assert (rc, out) == (1, "")
    assert err == f"{head}: cannot read {path}: not UTF-8 (invalid start byte at byte 0)\n"


@pytest.mark.parametrize(
    "text, problem",
    [
        ("{nope", "syntax error at line 1 column 2"),
        ('{"data": 1' + "0" * 5000 + "}", "syntax error: Exceeds the limit (4300 digits)"),
        ("[" * 100_000, "syntax error: arrays and objects nested too deeply"),
        (b"\xff\xfe{}", "cannot read"),
    ],
    ids=["syntax", "long-integer", "deep", "not-utf8"],
)
def test_a_placement_file_that_is_not_json_is_one_error_line(tmp_path, capsys, text, problem):
    """The placement loader caught only JSONDecodeError: an overlong integer
    literal (ValueError) and deep nesting (RecursionError) ended the CLI
    with a traceback, as did bytes that are not UTF-8."""
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    placement = tmp_path / "placement.json"
    placement.write_bytes(text if isinstance(text, bytes) else text.encode())
    rc, out, err = run(capsys, "time", path, "--placement", str(placement))
    assert (rc, out) == (1, "")
    assert err.count("\n") == 1
    if problem == "cannot read":
        assert err.startswith(f"error: cannot read {placement}: not UTF-8")
    else:
        assert err.startswith(f"error: {placement}: {problem}")
    if text == "{nope":  # the text this file's syntax errors have always had
        assert err == f"error: {placement}: syntax error at line 1 column 2\n"


def test_validate_writes_out_file(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.single_sort())
    target = tmp_path / "report.txt"
    rc, out, _ = run(capsys, "validate", path, "--out", str(target))
    assert rc == 0
    assert out == ""
    assert target.read_text() == "ok\n"


def test_validate_prints_one_line_per_violation(tmp_path, capsys):
    """A violation naming an id that holds a line break stays on its line."""
    data = fixtures.single_sort()
    data["nodes"].append({"id": "x\ny", "tier": "fog"})  # no link reaches it
    rc, out, _ = run(capsys, "validate", write_instance(tmp_path, data))
    assert rc == 1
    assert out.splitlines() == [
        f"unreachable-pair: no communication path from {pair}"
        for pair in ("c to x\\ny", "e to x\\ny", "f to x\\ny", "x\\ny to c", "x\\ny to e", "x\\ny to f")
    ]


def test_validate_names_a_malformed_id_on_one_line(tmp_path, capsys):
    data = fixtures.single_sort()
    data["algorithms"][0]["id"] = "so\nrt"
    data["algorithms"][0]["space_rank"] = "high"
    rc, out, err = run(capsys, "validate", write_instance(tmp_path, data))
    assert (rc, out) == (1, "")
    assert err == "invalid: algorithm so\\nrt: space_rank must be an integer\n"


def test_oversized_region_is_one_error_line(tmp_path, capsys):
    data = fixtures.single_sort()
    data["regions"] = [{"id": "huge", "size_bits": 10**400}]
    data["algorithms"][0]["memory"]["outputs"] = ["huge"]
    rc, out, err = run(capsys, "solve", write_instance(tmp_path, data))
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and "exceeds 2**53 bits" in err
    assert err.count("\n") == 1


def test_missing_file(tmp_path, capsys):
    rc, _, err = run(capsys, "flows", str(tmp_path / "absent.json"))
    assert rc == 1
    assert err.startswith("error: cannot read")


# ---------------------------------------------------------------------------
# flows


def test_flows_listing(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    rc, out, _ = run(capsys, "flows", path)
    assert rc == 0
    assert out == "data,stage_a,stage_c\ndata,stage_b\n"


def test_flows_count_only(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    rc, out, _ = run(capsys, "flows", path, "--count-only")
    assert (rc, out) == (0, "2\n")


def test_flow_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ALLOCFLOW_FLOW_CAP", "1")
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    rc, _, err = run(capsys, "flows", path)
    assert rc == 3
    assert err.startswith("error: flow explosion")


@pytest.mark.parametrize("command, value", [("flows", "abc"), ("solve", "0")])
def test_malformed_flow_cap_is_one_error_line(tmp_path, capsys, monkeypatch, command, value):
    monkeypatch.setenv("ALLOCFLOW_FLOW_CAP", value)
    rc, out, err = run(capsys, command, write_instance(tmp_path, fixtures.dataset_pipeline(2.0)))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ALLOCFLOW_FLOW_CAP must be")
    assert err.count("\n") == 1


def two_fans():
    """Two components, s -> a, b and t -> x, y: two flows each."""
    data = fixtures.single_sort()
    sort = data["algorithms"][0]
    data["algorithms"] = [{**sort, "id": aid} for aid in ("a", "b", "s", "t", "x", "y")]
    data["edges"] = [["s", "a"], ["s", "b"], ["t", "x"], ["t", "y"]]
    return data


def test_flows_count_only_counts_every_component(tmp_path, capsys):
    path = write_instance(tmp_path, two_fans())
    rc, out, _ = run(capsys, "flows", path)
    assert (rc, out) == (0, "s,a\ns,b\nt,x\nt,y\n")
    rc, count, _ = run(capsys, "flows", path, "--count-only")
    assert (rc, count) == (0, f"{len(out.splitlines())}\n")


@pytest.mark.parametrize("method", ["bnb", "baseline"])
def test_solve_prints_per_flow_so_a_ladder_meets_the_flow_cap(tmp_path, capsys, method):
    """Under max_flow the 2**21-flow ladder solves without enumerating a
    flow, but solve prints per_flow, which does: one error line, exit 3.
    Counting its flows enumerates none."""
    path = write_instance(tmp_path, ladder(21))
    rc, out, err = run(capsys, "solve", path, "--method", method)
    assert (rc, out) == (3, "")
    assert err == "error: flow explosion: 2097152 exceeds cap 1000000\n"
    assert run(capsys, "flows", path, "--count-only") == (0, "2097152\n", "")


def test_flow_cap_bounds_the_pooled_count(tmp_path, capsys, monkeypatch):
    """Each component's two flows fit under the cap; all four do not."""
    monkeypatch.setenv("ALLOCFLOW_FLOW_CAP", "3")
    rc, out, err = run(capsys, "flows", write_instance(tmp_path, two_fans()))
    assert (rc, out) == (3, "")
    assert err.startswith("error: flow explosion")


# ---------------------------------------------------------------------------
# time


def test_time_default_placement_breakdown(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    rc, out, _ = run(capsys, "time", path)
    assert rc == 0
    assert out == (
        "flow,request_s,exec_s,inter_s,return_s,total_s\n"
        "data;stage_a;stage_c,0.0,8.0,0.0,0.0,8.0\n"
        "data;stage_b,0.0,4.0,0.0,0.0,4.0\n"
        "# aggregate=max_flow overall_seconds=8.0\n"
    )


def test_time_with_placement_and_aggregate(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps({aid: "f" for aid in ("data", "stage_a", "stage_b", "stage_c")}))
    rc, out, _ = run(capsys, "time", path, "--placement", str(placement), "--aggregate", "total")
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "data;stage_a;stage_c,2.0,4.0,0.0,2.0,8.0"
    assert lines[2] == "data;stage_b,2.0,2.0,0.0,2.0,6.0"
    assert lines[3] == "# aggregate=total_flows overall_seconds=14.0"


def test_time_rejects_infeasible_placement(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    placement = tmp_path / "short.json"
    placement.write_text(json.dumps({"data": "e"}))
    rc, _, err = run(capsys, "time", path, "--placement", str(placement))
    assert rc == 1
    assert "misses algorithm" in err


@pytest.mark.parametrize("command", ["time", "memory"])
def test_placement_on_a_forbidden_node_is_one_error_line(tmp_path, capsys, command):
    data = fixtures.dataset_pipeline(2.0)
    data["algorithms"][1]["allowed_locations"] = ["c", "f"]
    path = write_instance(tmp_path, data)
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps(dict.fromkeys(("data", "stage_a", "stage_b", "stage_c"), "e")))
    rc, out, err = run(capsys, command, path, "--placement", str(placement))
    assert (rc, out) == (1, "")
    assert err == "error: algorithm stage_a may not run on 'e' (allowed: c, f)\n"


@pytest.mark.parametrize("command", ["time", "memory"])
def test_default_placement_on_a_forbidden_node_is_one_error_line(tmp_path, capsys, command):
    """Without --placement every algorithm runs on the edge, which is
    checked as a placement file is."""
    data = fixtures.dataset_pipeline(2.0)
    data["algorithms"][1]["allowed_locations"] = ["c", "f"]
    rc, out, err = run(capsys, command, write_instance(tmp_path, data))
    assert (rc, out) == (1, "")
    assert err == "error: algorithm stage_a may not run on 'e' (allowed: c, f)\n"


@pytest.mark.parametrize("command", ["time", "memory"])
def test_placement_naming_an_unknown_algorithm_is_one_error_line(tmp_path, capsys, command):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    placement = tmp_path / "placement.json"
    mapping = dict.fromkeys(("data", "stage_a", "stage_b", "stage_c"), "e")
    placement.write_text(json.dumps({**mapping, "stage_x": "nowhere"}))
    rc, out, err = run(capsys, command, path, "--placement", str(placement))
    assert (rc, out) == (1, "")
    assert err == "error: placement names unknown algorithm 'stage_x'\n"


def test_time_rejects_non_mapping_placement(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    placement = tmp_path / "list.json"
    placement.write_text('["e", "f"]')
    rc, _, err = run(capsys, "time", path, "--placement", str(placement))
    assert rc == 1
    assert "placement must map" in err


# ---------------------------------------------------------------------------
# memory


def test_memory_default_placement(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    rc, out, _ = run(capsys, "memory", path)
    assert rc == 0
    assert out == (
        "location,bytes\n"
        "c,0.0\n"
        "e,996147200.0\n"
        "f,0.0\n"
        "robot,996147200.0\n"
    )


def test_memory_peak_mode(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    rc, out, _ = run(capsys, "memory", path, "--peak")
    assert rc == 0
    assert "e,838860800.0\n" in out
    assert out.endswith("robot,838860800.0\n")


# ---------------------------------------------------------------------------
# solve


def solve_json(capsys, *argv):
    rc, out, err = run(capsys, "solve", *argv)
    assert rc == 0, err
    return json.loads(out)


def test_solve_dataset_optimum(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    payload = solve_json(capsys, path)
    assert payload["method"] == "bnb"
    assert payload["objective"] == "min_distance"
    assert payload["placement"] == {aid: "f" for aid in payload["placement"]}
    assert payload["memory_bytes"] == 524288000.0
    assert payload["time_seconds"] == 8.0
    assert payload["distance"] == math.hypot(500.0, 8.0)
    assert payload["explored_nodes"] > 0
    assert [p["seconds"] for p in payload["per_flow"]] == [8.0, 6.0]
    assert payload["per_flow"][0]["flow"] == ["data", "stage_a", "stage_c"]


def test_solve_objective_weights(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    payload = solve_json(capsys, path, "--wm", "2.0", "--wt", "0.5")
    mem_mb = payload["memory_bytes"] / (1024 * 1024)
    assert payload["distance"] == math.hypot(2.0 * mem_mb, 0.5 * payload["time_seconds"])


def test_solve_memory_objective(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    payload = solve_json(capsys, path, "--objective", "memory")
    assert payload["objective"] == "min_memory"
    assert payload["placement"] == {aid: "c" for aid in payload["placement"]}
    assert payload["memory_bytes"] == 524288000.0


def test_solve_oracle_agrees(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    fast = solve_json(capsys, path)
    slow = solve_json(capsys, path, "--oracle")
    for key in ("placement", "memory_bytes", "time_seconds", "distance", "per_flow"):
        assert fast[key] == slow[key]


def test_solve_baseline_method(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.single_sort())
    payload = solve_json(capsys, path, "--method", "baseline")
    assert payload["objective"] == "end_time"
    assert payload["placement"] == {"sort": "c"}
    assert payload["time_seconds"] == 4.0
    assert payload["overall_with_return_seconds"] == 7.0


def test_solve_out_reruns_byte_identical(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", path, "--out", str(first)]) == 0
    assert main(["solve", path, "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    rc, out, _ = run(capsys, "solve", path)
    assert out == first.read_text()


def overflowing_instance():
    """Every flow's time passes the parser's overflow check (4 execs of
    4e307 s fit in a float), but the total over both flows (5 execs)
    overflows to inf, and so does any distance under a time weight of 1e308."""
    data = fixtures.dataset_pipeline(2.0)
    for spec in data["algorithms"]:
        spec["exec_time"] = dict.fromkeys(spec["exec_time"], 4e307)
    data["options"] = {"time_aggregate": "total_flows", "time_weight": 1e308}
    return data


def test_a_flow_whose_time_overflows_is_rejected_at_parse(tmp_path, capsys):
    """Two exec times of 1e308 on one flow used to pass the parser and solve
    to time_seconds=inf; the boundary now rejects them in one line."""
    data = fixtures.dataset_pipeline(2.0)
    for spec in data["algorithms"][:2]:  # data -> stage_a, one flow
        spec["exec_time"] = dict.fromkeys(spec["exec_time"], 1e308)
    path = write_instance(tmp_path, data)
    rc, out, err = run(capsys, "validate", path)
    assert (rc, out) == (1, "")
    assert err.startswith("invalid: time sums overflow") and err.count("\n") == 1
    rc, out, err = run(capsys, "solve", path)
    assert (rc, out) == (1, "")
    assert err.startswith("error: time sums overflow") and err.count("\n") == 1


@pytest.mark.parametrize("method", ["bnb", "baseline"])
def test_solve_non_finite_result_is_one_error_line(tmp_path, capsys, method):
    """JSON cannot carry inf: the CLI reports that instead of printing
    Infinity."""
    target = tmp_path / "result.json"
    path = write_instance(tmp_path, overflowing_instance())
    rc, out, err = run(capsys, "solve", path, "--method", method, "--out", str(target))
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and "not finite" in err
    assert err.count("\n") == 1
    assert not target.exists()


# ---------------------------------------------------------------------------
# pareto


def test_pareto_csv(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.single_sort())
    rc, out, _ = run(capsys, "pareto", path)
    assert rc == 0
    assert out == (
        "placement_lex_index,memory_mb,time_s,distance,on_front\n"
        f"0,0.0,7.0,7.0,0\n"
        f"1,0.0,{FOG_TIME!r},{FOG_TIME!r},0\n"
        f"2,0.0,5.0,5.0,1\n"
    )


def test_pareto_subsample_cap(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    with pytest.warns(UserWarning, match="stratified"):
        rc = main(["pareto", path, "--max-points", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert len(out.splitlines()) == 11  # header + 10 sampled placements


# ---------------------------------------------------------------------------
# simulate


def test_simulate_seeded_runs_are_byte_identical(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0, jitter_sigma=1.0))
    rc, first, _ = run(capsys, "simulate", path, "--trials", "6", "--seed", "3")
    assert rc == 0
    _, second, _ = run(capsys, "simulate", path, "--trials", "6", "--seed", "3")
    assert first == second
    _, pooled, _ = run(capsys, "simulate", path, "--trials", "6", "--seed", "3",
                       "--threads", "4")
    assert pooled == first
    payload = json.loads(first)
    assert payload["trials"] == 6 and payload["seed"] == 3
    assert set(payload) == {"trials", "seed", "win_rate", "ours", "baseline"}


def test_simulate_resolve_per_trial_flag(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0, jitter_sigma=1.0))
    rc, out, _ = run(capsys, "simulate", path, "--trials", "3", "--resolve-per-trial")
    assert rc == 0
    assert json.loads(out)["trials"] == 3


@pytest.mark.parametrize(
    "argv", [("time",), ("pareto",), ("simulate", "--trials", "3")], ids=lambda argv: argv[0]
)
def test_non_finite_result_is_one_error_line(tmp_path, capsys, argv):
    """Without the check, time and pareto printed inf into their CSV with
    exit 0, and simulate died in statistics.stdev with an AttributeError."""
    target = tmp_path / "result.out"
    path = write_instance(tmp_path, overflowing_instance())
    rc, out, err = run(capsys, argv[0], path, *argv[1:], "--out", str(target))
    assert (rc, out) == (1, "")
    assert err == "error: result is not finite: a time or memory sum overflows\n"
    assert not target.exists()


# ---------------------------------------------------------------------------
# bench


def test_bench_csv_shape(capsys):
    rc, out, _ = run(capsys, "bench", "--sizes", "3,5", "--reps", "1", "--seed", "0")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,mean_seconds"
    assert lines[1].startswith("3,") and lines[2].startswith("5,")
    assert lines[3].startswith("# slope=") and " r2=" in lines[3]


def test_bench_with_a_repeated_size_prints_no_fit(capsys):
    """One distinct size determines no line; the fit is left out."""
    rc, out, _ = run(capsys, "bench", "--sizes", "3,3", "--reps", "1", "--seed", "0")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,mean_seconds"
    assert len(lines) == 3 and lines[1] == lines[2] and lines[1].startswith("3,")


@pytest.mark.parametrize(
    "argv",
    [["--sizes", "3,x"], ["--sizes", "0,4"], ["--sizes", "4,-1"], ["--reps", "0"], ["--fog", "-1"], ["--cloud", "-1"]],
)
def test_bench_rejects_bad_arguments(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", *argv])
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--fog", "--cloud"])
def test_bench_takes_node_counts_from_zero(flag, capsys):
    """A topology without fog (or cloud) nodes is supported, so a count of 0
    runs; a negative count is a usage error."""
    rc, out, _ = run(capsys, "bench", "--sizes", "3", "--reps", "1", flag, "0")
    assert rc == 0 and out.startswith("n,mean_seconds\n3,")
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "3", flag, "-1"])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--wm", "--wt"])
@pytest.mark.parametrize("weight", ["0", "-1", "nan"])
def test_solve_rejects_a_weight_that_is_not_positive(flag, weight, tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    with pytest.raises(SystemExit) as exc:
        main(["solve", path, flag, weight])
    assert exc.value.code == 2
    assert f"argument {flag}: must be > 0" in capsys.readouterr().err


def test_solve_out_that_cannot_be_written_is_one_error_line(tmp_path, capsys):
    path = write_instance(tmp_path, fixtures.dataset_pipeline(2.0))
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / "result.json"  # under a regular file
    rc, out, err = run(capsys, "solve", path, "--out", str(target))
    assert (rc, out) == (1, "")
    assert err == f"error: cannot write {target}: Not a directory\n"


# ---------------------------------------------------------------------------
# examples / parser


def test_examples_writes_bundle(tmp_path, capsys):
    target = tmp_path / "fx"
    rc, out, _ = run(capsys, "examples", str(target))
    assert rc == 0
    written = sorted(target.glob("*.json"))
    assert len(written) == 9
    assert [str(p) for p in sorted(written)] == sorted(out.splitlines())
    names = {p.stem for p in written}
    assert {"single_sort", "dataset_d2", "vision_pipeline", "cyclic_invalid"} <= names
    # every bundled example except the cyclic demo must validate cleanly
    for p in written:
        expected = 1 if p.stem == "cyclic_invalid" else 0
        assert main(["validate", str(p)]) == expected
    capsys.readouterr()


@pytest.mark.parametrize("under", ["file", "file/fx"])
def test_examples_directory_that_cannot_be_created_is_one_error_line(under, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    target = tmp_path / under
    rc, out, err = run(capsys, "examples", str(target))
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["conquer"])
    assert exc.value.code == 2


UNREAD_FLAGS = [
    (command, flag)
    for command in ("validate", "flows", "time", "memory", "solve", "pareto", "examples", "bench")
    for flag in ("--seed", "--threads")
    if (command, flag) != ("bench", "--seed")
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_only_simulate_and_bench_take_seed_and_threads(command, flag, tmp_path, capsys):
    """simulate takes --seed and --threads (accepted for compatibility),
    bench takes --seed; no other subcommand reads either, so neither parses
    there: `solve FILE --seed 3` is a usage error."""
    operand = {"examples": [str(tmp_path / "fx")], "bench": []}.get(command, [str(tmp_path / "problem.json")])
    with pytest.raises(SystemExit) as exc:
        main([command, *operand, flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


@pytest.mark.parametrize("data", [{}, {"nodes": [{"id": "e", "tier": "edge"}]}], ids=["empty", "edge-only"])
@pytest.mark.parametrize(
    "argv, method, objective",
    [
        ([], "bnb", "min_distance"),
        (["--oracle"], "bnb", "min_distance"),
        (["--objective", "time-total"], "bnb", "min_time_total"),
        (["--method", "baseline"], "baseline", "end_time"),
    ],
)
def test_solve_without_algorithms_is_pinned(data, argv, method, objective, tmp_path, capsys):
    rc, out, err = run(capsys, "solve", write_instance(tmp_path, data), *argv)
    assert (rc, err) == (0, "")
    expected = {
        "distance": 0.0,
        "explored_nodes": 0,
        "memory_bytes": 0.0,
        "method": method,
        "objective": objective,
        "per_flow": [],
        "placement": {},
        "time_seconds": 0.0,
        **({"overall_with_return_seconds": 0.0} if method == "baseline" else {}),
    }
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# every output parses, or is one error line


@pytest.mark.parametrize("aid", ["so,rt", 'so"rt', "so\nrt"])
@pytest.mark.parametrize("command", ["flows", "time"])
def test_an_id_with_a_separator_stays_in_its_csv_cell(tmp_path, capsys, command, aid):
    """Ids are free text; written unquoted, a comma or a line break in one
    split its CSV row."""
    data = fixtures.single_sort()
    data["algorithms"][0]["id"] = aid
    rc, out, _ = run(capsys, command, write_instance(tmp_path, data))
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ([aid] if command == "flows" else CSV_HEADER["time"])
    if command == "time":
        assert rows[1] == [aid, "0.0", "5.0", "0", "0.0", "5.0"]


def test_an_error_naming_an_id_with_a_line_break_is_one_line(tmp_path, capsys):
    data = fixtures.single_sort()
    data["nodes"].append({"id": "x\ny", "tier": "fog"})  # no link reaches it
    rc, out, err = run(capsys, "solve", write_instance(tmp_path, data))
    assert (rc, out) == (1, "")
    assert err.startswith("error: unreachable-pair: no communication path from c to x\\ny;")
    assert err.count("\n") == 1


FUZZED = [
    ("flows",),
    ("time",),
    ("memory",),
    ("solve",),
    ("pareto",),
    ("simulate", "--trials", "3"),
]

CSV_HEADER = {
    "time": ["flow", "request_s", "exec_s", "inter_s", "return_s", "total_s"],
    "memory": ["location", "bytes"],
    "pareto": ["placement_lex_index", "memory_mb", "time_s", "distance", "on_front"],
}


def check_csv(command, out):
    """Every row has the header's columns, and every number is finite."""
    rows = list(csv.reader(io.StringIO(out)))
    if command == "flows":
        assert all(rows)
        return
    header, *body = rows
    assert header == CSV_HEADER[command]
    if command == "time":
        (comment,) = body.pop()
        assert math.isfinite(float(comment.split("overall_seconds=")[1]))
    for row in body:
        assert len(row) == len(header), row
        numbers = row[1:] if command != "pareto" else row
        assert all(math.isfinite(float(cell)) for cell in numbers), row


@settings(max_examples=100, deadline=None)
@given(mutated_fixtures())
def test_mutated_fixtures_give_output_or_one_error_line(mutated):
    """Each subcommand on a mutated bundled fixture exits 0 with output that
    parses, or exits 1 or 3 with one error line.  pareto prices every
    placement, so it skips vision_pipeline (6**7 of them)."""
    name, doc = mutated
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/problem.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for command, *options in FUZZED:
            if command == "pareto" and name == "vision_pipeline":
                continue
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([command, path, *options])
            out, err = out.getvalue(), err.getvalue()
            if rc == 0:
                assert err == ""
                if command in ("solve", "simulate"):
                    json.loads(out)
                else:
                    check_csv(command, out)
            else:
                assert rc in (1, 3), (command, rc)
                assert out == ""
                assert err.startswith("error: ") and err.count("\n") == 1, (command, err)


# ---------------------------------------------------------------------------
# golden output

GOLDEN = str(Path(__file__).parent / "data" / "random_n12_seed7.json")

# sha256 of stdout per command on GOLDEN (531,441 placements), then per
# command on the small dataset_pipeline fixture for the enumerating ones
GOLDEN_STDOUT = {
    "solve --objective distance": "b1c059a9dd7413ea44a8702f9ffde4a04fced077f7e08c4bd4b7bbbde73aa7a0",
    "solve --objective memory": "719c880b4d6783d6598bdce8f91fd7404559b3ec990a3171c500fad9d2166d63",
    "solve --objective time-max": "19f9331f0d23414a5bae3f958420ba088d7e317bfd1ac1b0c2ed83d2af384d1c",
    "solve --objective time-total": "0e23135dcf2d0196b37522bd9677d15f5390af993b05fd6bfcb7d8455cf2aa08",
    "solve --method baseline": "4738098d1a8e2390e1e708301fb21fca9f18c959b239a3dd6ba3b8a4d5c1a7a1",
    "time --aggregate max": "1a6847b1ef8a1c0ac548ec2fd9198d96b7682587bce6b6a98bb75e494b33e5c8",
    "time --aggregate mean": "35c3677a09956c4e9c9a65a1a2b5eecf27e9e7654310acd095d87438fbc54d5a",
    "time --aggregate total": "47a28fc7cb75ba8c6ff4e97f1f55f30b9627a5966af15a300912cfc73b31b4c1",
    "memory": "37110f23830b0a3b816c44a9cdccf3a8528f53d22d7a5f39a89d2893ef94f28f",
    "memory --peak": "0409781f6d72feee5bbe3adb475fdec63f4f0430d778ea7822b23fdd2dac44e1",
    "flows": "252a0d68e2dad8327578a692e921346286b93756f06e738a82577723135bb234",
    "validate": "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
    "simulate --trials 20 --seed 3": "15bd9cabcb60304ec05e2d92e90053e77630ad77fddb30d20bc537212d71747d",
    "simulate --trials 5 --seed 3 --resolve-per-trial": "d0af8e12d354dbf94f8ec770c76b57b0a1a134509c1931004aa3ad603760b49f",
}
GOLDEN_SMALL_STDOUT = {
    "solve --oracle": "7aca18d6701ac179f0c916a0e06ac1f6e115ca086c39ba2295e629f19daf0223",
    "solve --oracle --objective time-total": "2c8113dfdee0504bf5ed73ed23dc7046a43c699da7e3efba4bf73c1d3da12664",
    "pareto": "1c5f5f49a5fd945f1267c1afa863f33aee49704863e3c975a528e48032b594b7",
    "pareto --wt 2.5": "8e88323f3bed5ec0bb4e7f48f9ef6892cce2d03afb855fb30164fabddff008d8",
    "pareto --max-points 10": "e1b9318f51baf8b77300714eb31bc91a6b77e08994d91eb29186e66c7f95165a",
}


def test_cli_output_is_pinned(tmp_path, capsys):
    """Golden stdout: any change to an answer, a float's accumulation order
    or the output format shows here as a different digest."""

    def digests(path, commands):
        got = {}
        for command in commands:
            name, *flags = command.split()
            rc, out, _ = run(capsys, name, path, *flags)
            assert rc == 0, command
            got[command] = hashlib.sha256(out.encode()).hexdigest()
        return got

    assert digests(GOLDEN, GOLDEN_STDOUT) == GOLDEN_STDOUT
    small = write_instance(tmp_path, fixtures.dataset_pipeline(2.0, jitter_sigma=1.0))
    with pytest.warns(UserWarning, match="stratified"):  # pareto --max-points 10 subsamples
        assert digests(small, GOLDEN_SMALL_STDOUT) == GOLDEN_SMALL_STDOUT
