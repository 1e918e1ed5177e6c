"""Prior-work comparator: minimize when the last algorithm *finishes*.

The baseline runs the same exact search but stops each flow's clock at the
last algorithm's node, ignoring the hop that carries the result back to the
robot.  Memory is absent from its objective, but it keeps the solver's
tie-break: among placements with the same end time it takes the one with
lower robot memory, then the lexicographically smallest.  Its true cost to
the robot is that end time plus the forgotten return hop, which
baseline_overall restores at every sink.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .model import ProblemInstance
from .optimizer import AllocationResult, Objective, evaluate, solve_branch_bound, solve_bruteforce
from .timing import Placement

_END_TIME = Objective(kind="min_time_max")


def solve_baseline(
    instance: ProblemInstance,
    delays: Optional[Dict[Tuple[str, str], float]] = None,
    oracle: bool = False,
) -> AllocationResult:
    """Exact end-time optimum; result.cost.time_seconds is the end time."""
    solver = solve_bruteforce if oracle else solve_branch_bound
    return solver(instance, objective=_END_TIME, include_return_hop=False, delays=delays)


def baseline_overall(
    instance: ProblemInstance,
    placement: Placement,
    delays: Optional[Dict[Tuple[str, str], float]] = None,
) -> float:
    """What the baseline's choice actually costs the robot: the largest over
    flows of end time plus return hop, as evaluate prices it under max_flow
    (which checks the placement first, raising InfeasibleError)."""
    return evaluate(instance, placement, _END_TIME, delays).time_seconds
