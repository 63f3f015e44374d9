"""HiGHS (scipy.optimize.milp) as an oracle on subproblems brute force
cannot reach: it stops at n <= 8, and at scale topo and A* otherwise check
only each other, through the validate, reach_windows and edge_terms they
share. The integer program below is built from the instance alone.

Binaries z[i, j] say that interval i takes the value xi_j, with
sum_j z[i, j] = 1; the budget is sum gamma_i |xi_j - x_i| z[i, j] <= delta;
continuous t_i >= +-(v_{i+1} - v_i), with v_i = sum_j xi_j z[i, j], carry
the jumps; the objective is c . (v - x) + alpha * sum t. A z whose value
overspends the budget on its own is bounded to 0.

HiGHS runs under a time limit and its default relative gap, so a solver's
objective is checked against the interval HiGHS proves: at least the MIP
dual bound and at most the incumbent, each up to a tolerance.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from tripsolve.astar import solve_astar
from tripsolve.instance import is_feasible, objective
from tripsolve.oracle import knapsack_reduce
from tripsolve.slip import SlipConfig, make_heat_problem, make_signal_problem, run_slip
from tripsolve.topo import solve_topo

# per instance; HiGHS takes 0.03-0.12 s on each of these
TIME_LIMIT_S = 2.0


def highs_solve(inst):
    """The subproblem's integer program solved by HiGHS: its scipy result
    and the step vector of its incumbent."""
    n, m = inst.n, inst.m
    xi = inst.xi.astype(np.float64)
    shift = inst.xi[None, :] - inst.x[:, None]
    cons = inst.gamma[:, None] * np.abs(shift)  # (n, m) budget use of each z
    # variables: z[i, j] at i * m + j, then t_i at n * m + i
    cost = np.concatenate([(inst.c[:, None] * shift).ravel(), np.full(n - 1, inst.alpha)])
    assign = np.kron(np.eye(n), np.ones(m))
    budget = np.concatenate([cons.ravel(), np.zeros(n - 1)])[None, :]
    # v_{i+1} - v_i as rows over z
    diff = np.kron(np.eye(n - 1, n, 1) - np.eye(n - 1, n), xi)
    ts = np.eye(n - 1)
    jumps = np.block([[-diff, ts], [diff, ts]])  # t_i -+ (v_{i+1} - v_i) >= 0
    res = milp(
        cost,
        integrality=np.concatenate([np.ones(n * m), np.zeros(n - 1)]),
        bounds=Bounds(
            np.zeros(n * m + n - 1),
            np.concatenate([(cons <= inst.delta).ravel(), np.full(n - 1, np.inf)]),
        ),
        constraints=[
            LinearConstraint(np.hstack([assign, np.zeros((n, n - 1))]), 1.0, 1.0),
            LinearConstraint(budget, -np.inf, inst.delta),
            LinearConstraint(jumps, 0.0, np.inf),
        ],
        options={"time_limit": TIME_LIMIT_S},
    )
    assert res.x is not None, res.message
    z = res.x[: n * m].reshape(n, m)
    return res, inst.xi[z.argmax(axis=1)] - inst.x


def slip_steps(problem, alpha, count):
    """count subproblems of radius 2 or more, spread over a topo
    trust-region run from zero."""
    x0 = np.zeros(problem.n, dtype=np.int64)
    trace = run_slip(problem, x0, SlipConfig(alpha=alpha, delta0=8, solver="topo"))
    steps = [step.instance for step in trace.steps if step.instance.delta >= 2]
    return [steps[k] for k in np.linspace(0, len(steps) - 1, count).round().astype(int)]


def knapsacks():
    """Strongly correlated knapsacks of 24 and 32 items, two each, drawn as
    perfbench's knapsack-replay draws them."""
    rng = np.random.default_rng(0)
    out = []
    for items in (24, 24, 32, 32):
        weights = rng.integers(1, 20, size=items)
        values = weights + 5.0 + rng.uniform(0.0, 0.01, size=items)
        capacity = int(weights.sum()) // 3
        out.append(knapsack_reduce(values.tolist(), weights.tolist(), capacity, 1.0).instance)
    return out


CASES = {
    "heat": lambda: slip_steps(make_heat_problem(64), 1e-4, 4),
    "signal": lambda: slip_steps(make_signal_problem(64, 0), 1e-4, 4),
    "knapsack": knapsacks,
}


@pytest.mark.parametrize("case", CASES)
def test_solvers_lie_within_the_highs_bounds(case):
    for inst in CASES[case]():
        assert inst.n > 8  # out of brute force's reach
        res, d = highs_solve(inst)
        assert is_feasible(inst, d)
        tol = 1e-6 * (1.0 + abs(res.fun))
        # the incumbent decoded from z costs at most what HiGHS priced it at
        assert objective(inst, d) <= res.fun + tol
        for solve in (solve_topo, solve_astar):
            sol = solve(inst)
            assert is_feasible(inst, sol.d)
            assert res.mip_dual_bound - tol <= sol.objective <= res.fun + tol
