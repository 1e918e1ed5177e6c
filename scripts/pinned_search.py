#!/usr/bin/env python3
"""Time the benchmark pool's worst robot-pinned branch-and-bound search.

Builds the seed-1 `solve-hard` pool of perfbench/workloads.py, pins algorithm
a05 of the instance at pool position 18 to the robot (its edge node), solves
it, and prints the nodes the search explored (1,150,839), its seconds and
the microseconds per node.  The node count is exact and the same on every
machine; the seconds are wall-clock time and are not, so the per-node cost
of the search shows beside a count that does not drift.

Example:
  python scripts/pinned_search.py
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from harness import load_allocflow  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED, POSITION, PIN = 1, 18, "a05"


def main() -> int:
    program = load_allocflow()
    request = WORKLOADS["solve-hard"]("solve-hard").build_pool(program, SEED)[POSITION]
    instance = program.model.parse_problem(request.text)
    robot = frozenset({instance.edge_node_id()})
    instance.algorithms[PIN] = dataclasses.replace(instance.algorithms[PIN], allowed_locations=robot)
    started = time.perf_counter()
    result = program.optimizer.solve_branch_bound(instance, program.optimizer.Objective(request.objective))
    seconds = time.perf_counter() - started
    print(
        f"seed {SEED} position {POSITION} pin {PIN}: explored_nodes={result.explored_nodes} "
        f"seconds={seconds:.2f} us_per_node={seconds / result.explored_nodes * 1e6:.2f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
