"""Static allocation of interdependent algorithms across edge, fog, and cloud.

The package models a single robot (the edge node) running a DAG of
algorithms whose stages may be offloaded to fog or cloud nodes.  It scores a
placement by the robot's memory footprint and the response time over all
execution flows, and searches the placement space exactly with branch and
bound.  A prior-art comparator that optimizes finish time (and forgets the
hop that brings results back) and a Monte-Carlo simulation under stochastic
link delays round out the toolkit.
"""

from .baseline import baseline_overall, solve_baseline
from .lattice import (
    DEFAULT_FLOW_CAP,
    FLOW_CAP_ENV,
    all_flows,
    count_flows,
    layer,
)
from .memory import (
    MemoryTriple,
    combine_memory,
    location_memory,
    robot_memory,
    robot_memory_bits,
    step_partition,
)
from .model import (
    AlgorithmSpec,
    CapExceededError,
    CommLink,
    CommModel,
    CommUnreachableError,
    DelaySpec,
    DependencyGraph,
    InfeasibleError,
    LocationNode,
    MemoryProfile,
    MemoryRegion,
    Options,
    ProblemFormatError,
    ProblemInstance,
    Tier,
    effective_allowed,
    instance_from_dict,
    instance_to_dict,
    parse_problem,
    serialize_problem,
    validate,
)
from .optimizer import (
    AllocationResult,
    CostPoint,
    Objective,
    evaluate,
    pareto_front,
    scatter,
    solve_branch_bound,
    solve_bruteforce,
)
from .simulate import (
    ComparisonStats,
    GenParams,
    ScalingResult,
    monte_carlo_compare,
    random_instance,
    scaling_benchmark,
)
from .timing import combine_time, flow_time, overall_time

__version__ = "0.1.0"

__all__ = [
    "AlgorithmSpec",
    "AllocationResult",
    "CapExceededError",
    "CommLink",
    "CommModel",
    "CommUnreachableError",
    "ComparisonStats",
    "CostPoint",
    "DEFAULT_FLOW_CAP",
    "DelaySpec",
    "DependencyGraph",
    "FLOW_CAP_ENV",
    "GenParams",
    "InfeasibleError",
    "LocationNode",
    "MemoryProfile",
    "MemoryRegion",
    "MemoryTriple",
    "Objective",
    "Options",
    "ProblemFormatError",
    "ProblemInstance",
    "ScalingResult",
    "Tier",
    "all_flows",
    "baseline_overall",
    "combine_memory",
    "combine_time",
    "count_flows",
    "effective_allowed",
    "evaluate",
    "flow_time",
    "instance_from_dict",
    "instance_to_dict",
    "layer",
    "location_memory",
    "monte_carlo_compare",
    "overall_time",
    "pareto_front",
    "parse_problem",
    "random_instance",
    "robot_memory",
    "robot_memory_bits",
    "scaling_benchmark",
    "scatter",
    "serialize_problem",
    "solve_baseline",
    "solve_branch_bound",
    "solve_bruteforce",
    "step_partition",
    "validate",
]
