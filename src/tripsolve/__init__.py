"""Solvers for trust-region integer step programs with switching costs.

The problem: given gradient coefficients c, a switching penalty alpha, an
integer budget delta, an admissible value set xi, a current control x and
mesh weights gamma, find the integer step d minimizing

    sum_i c_i d_i + alpha * sum_i |x_{i+1} + d_{i+1} - x_i - d_i|

subject to x_i + d_i in xi for all i and sum_i gamma_i |d_i| <= delta.

The package provides an exact dynamic-programming solver, an A* solver
accelerated by a multiplier-based heuristic, a brute-force oracle, a
trust-region outer loop with two built-in control problems, and a
benchmark harness.
"""

from .instance import (
    InstanceError,
    RadiusCache,
    Solution,
    SolverError,
    SolverStats,
    TripInstance,
    clamp_delta,
    is_feasible,
    objective,
    read_instance,
    validate,
    write_instance,
)
from .topo import solve_topo
from .astar import solve_astar
from .oracle import gen_random, knapsack_reduce, extract_knapsack, solve_bruteforce
from .slip import (
    ControlProblem,
    SlipConfig,
    SlipTrace,
    make_heat_problem,
    make_signal_problem,
    run_slip,
    total_variation,
)

__all__ = [
    "ControlProblem",
    "InstanceError",
    "RadiusCache",
    "SlipConfig",
    "SlipTrace",
    "Solution",
    "SolverError",
    "SolverStats",
    "TripInstance",
    "clamp_delta",
    "extract_knapsack",
    "gen_random",
    "is_feasible",
    "knapsack_reduce",
    "make_heat_problem",
    "make_signal_problem",
    "objective",
    "read_instance",
    "run_slip",
    "solve_astar",
    "solve_bruteforce",
    "solve_topo",
    "total_variation",
    "validate",
    "write_instance",
]
