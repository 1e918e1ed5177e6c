#!/usr/bin/env python3
"""Check that the tests still kill every recorded mutant.

Each mutant is a defect the tests once caught: a file under src/allocflow,
an exact old string that occurs there once, the string that replaces it,
and the narrowest test subset that kills it.  The script copies the repository,
without .git and caches, into a temporary directory (some tests read files
at its root) and first runs every named test there on the unmutated code,
which must pass.  Then, for each mutant, it makes the replacement in the
copy, runs `python -m pytest -x -q` on the mutant's subset, and puts the
file back.  It fails if a mutant's old string no longer occurs exactly once
(the code has moved: update or drop the mutant) or if the subset passes on
a mutant (it survives).  The working tree is never edited.

Run it as `python scripts/mutants.py`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/allocflow
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest arguments, relative to the repository root


MUTANTS = [
    Mutant(
        "lex_lb_last",
        "optimizer.py",
        "self.lex_lb = [ctx.node_rank[ctx.allowed[aid][0]] for aid in ctx.sorted_ids]",
        "self.lex_lb = [ctx.node_rank[ctx.allowed[aid][-1]] for aid in ctx.sorted_ids]",
        ("tests/test_cli.py::test_solve_dataset_optimum",),
    ),
    Mutant(
        "exec_once_per_child",
        "optimizer.py",
        "t += count_in * execs[node]",
        "t += execs[node]",
        ("tests/test_optimizer.py::test_exact_time_ties_do_not_multiply_the_search",),
    ),
    Mutant(
        "sources_in_id_order",
        "optimizer.py",
        "pending = [(iter(self.sources), start, None)]",
        "pending = [(iter(sorted(self.sources)), start, None)]",
        ("tests/test_optimizer.py::test_time_of_equals_the_per_flow_reference",),
    ),
    Mutant(
        "branch_over_every_node",
        "optimizer.py",
        "children = self._price_children(aid, ctx.allowed[aid])",
        "children = self._price_children(aid, tuple(ctx.node_rank))",
        ("tests/test_optimizer.py::test_allowed_locations_pin_placement",),
    ),
    Mutant(
        "hop_row_from_the_edge",
        "optimizer.py",
        "self.hop_row[aid] = self.ctx.out_rows[aid][node]",
        "self.hop_row[aid] = self.ctx.out_rows[aid][self.ctx.edge_id]",
        ("tests/test_acceptance.py::test_criterion_3",),
    ),
    Mutant(
        "bits_keep_their_subclass",
        "model.py",
        "return int(value)  # an int subclass in range reads as a plain int",
        "return value",
        ("tests/test_model.py::test_int_subclass_bit_counts_read_as_plain_ints",),
    ),
    Mutant(
        "leg_regrouped",
        "model.py",
        "[t + fixed + d for t, d in zip(total, columns[hop])]",
        "[t + (fixed + d) for t, d in zip(total, columns[hop])]",
        ("tests/test_optimizer.py::test_time_of_equals_the_per_flow_reference",),
    ),
    Mutant(
        "placement_file_unchecked",
        "cli.py",
        "    check_placement(instance, placement)\n    return placement",
        "    return placement",
        ("tests/test_cli.py::test_time_rejects_infeasible_placement",),
    ),
    Mutant(
        "baseline_column_takes_ours_memory",
        "simulate.py",
        "pair = (ours, ours_bits), (base, base_bits)",
        "pair = (ours, ours_bits), (base, ours_bits)",
        ("tests/test_simulate.py::test_monte_carlo_matches_per_trial_evaluate",),
    ),
    Mutant(
        "comparator_keeps_the_return_hop",
        "baseline.py",
        "_context(replace(priced, include_return_hop=False), _END_TIME)",
        "_context(priced, _END_TIME)",
        ("tests/test_simulate.py::test_monte_carlo_matches_per_trial_evaluate",),
    ),
    Mutant(
        "distance_weights_swapped",
        "optimizer.py",
        "w_m, w_t = _weights(instance, objective)\n    return lambda time_s, mem_bits: math.hypot",
        "w_t, w_m = _weights(instance, objective)\n    return lambda time_s, mem_bits: math.hypot",
        ("tests/test_optimizer.py::test_search_primary_is_primary_value_of_make_cost",),
    ),
    Mutant(
        "start_bound_over_every_node",
        "optimizer.py",
        "steps = [w * (row[z] + execs[z]) for z in allowed[v]]",
        "steps = [w * (row[z] + execs[z]) for z in c.node_rank]",
        ("tests/test_exactness.py::test_a_restriction_that_keeps_the_optimum_returns_it",),
    ),
    Mutant(
        "max_flow_leaf_timed_by_its_bound",
        "optimizer.py",
        "time_s = ctx.time_of(self.assignment, ctx.aggregate)",
        "time_s = self.agg if self.longest else ctx.time_of(self.assignment, ctx.aggregate)",
        ("tests/test_exactness.py::test_a_halved_bound_returns_the_same_answer",),
    ),
]


def pytest(copy: Path, tests: Sequence[str]) -> subprocess.CompletedProcess:
    """python -m pytest -x -q on tests, run in copy against its src/."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def run(copy: Path, mutant: Mutant) -> Optional[str]:
    """None if the mutant is killed, else why it is not; copy is left as found."""
    target = copy / "src" / "allocflow" / mutant.path
    text = target.read_text()
    found = text.count(mutant.old)
    if found != 1:
        return f"its old string occurs {found} times in src/allocflow/{mutant.path}, not once"
    target.write_text(text.replace(mutant.old, mutant.new))
    try:
        done = pytest(copy, mutant.tests)
    finally:
        target.write_text(text)
    if done.returncode == 0:
        return f"it survives {' '.join(mutant.tests)}"
    if done.returncode != 1:  # 1 is a failed test; anything else is a broken run
        return f"pytest exited {done.returncode}:\n{done.stdout}"
    return None


def main() -> int:
    ignored = shutil.ignore_patterns(".git", ".hypothesis", "__pycache__", ".pytest_cache", ".benchmarks")
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignored)
        # a subset that fails on the unmutated code would kill every mutant
        clean = pytest(copy, sorted({test for mutant in MUTANTS for test in mutant.tests}))
        if clean.returncode != 0:
            print(f"the named tests fail on the unmutated code:\n{clean.stdout}")
            return 1
        failures = 0
        for mutant in MUTANTS:
            started = time.perf_counter()
            why = run(copy, mutant)
            seconds = time.perf_counter() - started
            print(f"{mutant.name}: {'killed' if why is None else 'FAILED, ' + why} ({seconds:.1f} s)", flush=True)
            failures += why is not None
    print(f"{failures} of {len(MUTANTS)} mutants not killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
