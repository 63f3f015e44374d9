import itertools

import numpy as np
import pytest

from graph_reference import knapsack_bruteforce
from tripsolve.instance import InstanceError, SolverError, TripInstance, is_feasible, objective, validate
from tripsolve.oracle import (
    extract_knapsack,
    gen_random,
    knapsack_reduce,
    solve_bruteforce,
)
from tripsolve.astar import solve_astar
from tripsolve.topo import solve_topo


def test_zero_budget(derived3):
    inst = validate({**derived3.to_dict(), "delta": 0})
    sol = solve_bruteforce(inst)
    assert np.array_equal(sol.d, np.zeros(3))


def test_derived_instance(derived3):
    sol = solve_bruteforce(derived3)
    assert np.array_equal(sol.d, [1, 0, 1])
    assert sol.objective == pytest.approx(-1.0)


def test_two_by_two_enumeration():
    inst = validate(
        {
            "n": 2,
            "alpha": 1.0,
            "delta": 2,
            "xi": [0, 1],
            "x": [0, 0],
            "gamma": [1, 1],
            "c": [-1.0, -1.0],
        }
    )
    best = min(
        objective(inst, np.array(d))
        for d in itertools.product([0, 1], repeat=2)
        if is_feasible(inst, np.array(d))
    )
    sol = solve_bruteforce(inst)
    assert sol.objective == pytest.approx(best)
    assert np.array_equal(sol.d, [1, 1])  # -2 beats single moves at -1 + alpha


def test_lexicographic_tie_break():
    inst = validate(
        {
            "n": 2,
            "alpha": 0.0,
            "delta": 4,
            "xi": [-1, 0, 1],
            "x": [0, 0],
            "gamma": [1, 1],
            "c": [0.0, 0.0],
        }
    )
    sol = solve_bruteforce(inst)  # all candidates cost 0
    assert np.array_equal(sol.d, [-1, -1])  # smallest in lexicographic order


def test_large_objectives_tie_to_within_a_few_ulps():
    # both steps cost exactly -4e306, but their float sums round an ulp
    # apart: topo and astar pick [2, 0, 1] by their own float sums, which
    # topo and A*'s search loop compare exactly (A*'s relaxed sweep ties
    # costs within its own rounding unit, eps * n * E), the oracle
    # [2, 0, 2] by its own. The answers may differ; each is feasible, and
    # the objectives agree to float precision
    inst = validate(
        {"n": 3, "alpha": 1e306, "delta": 4, "xi": [-2, -1, 0, 1, 2],
         "x": [0, 1, 0], "gamma": [1, 1, 1], "c": [-2e306, 1e306, -1e306]}
    )
    answers = [solve(inst) for solve in (solve_topo, solve_astar, solve_bruteforce)]
    for sol in answers:
        assert is_feasible(inst, sol.d)
        assert sol.objective == objective(inst, sol.d)
        assert sol.objective == pytest.approx(answers[2].objective, rel=1e-15, abs=0.0)
    assert [sol.d.tolist() for sol in answers] == [[2, 0, 1], [2, 0, 1], [2, 0, 2]]


def test_cap_enforced():
    inst = gen_random(8, 4, 3, 0.1, seed=1)
    with pytest.raises(ValueError, match="cap"):
        solve_bruteforce(inst, cap=100)


def test_no_finite_objective_raises_solver_error():
    # every step jumps 10 at alpha 1e308: built directly, as validate
    # rejects it
    inst = TripInstance(
        n=2, c=np.zeros(2), alpha=1e308, delta=0, xi=np.array([0, 10]),
        x=np.array([0, 10]), gamma=np.ones(2, dtype=np.int64),
    )
    with pytest.raises(SolverError, match="below"), np.errstate(over="ignore"):
        solve_bruteforce(inst)


def test_knapsack_single_item():
    red = knapsack_reduce([1.0], [1], 1, 0.5)
    assert red.instance.n == 3 and red.instance.delta == 1
    sol = solve_topo(red.instance)
    assert extract_knapsack(red, sol.d) == [0]


def test_knapsack_two_items():
    red = knapsack_reduce([6.0, 10.0], [1, 2], 2, 0.25)
    sol = solve_topo(red.instance)
    assert extract_knapsack(red, sol.d) == [1]
    value, _ = knapsack_bruteforce([6.0, 10.0], [1, 2], 2)
    assert value == 10.0


def test_knapsack_odd_positions_pinned():
    red = knapsack_reduce([3.0, 4.0, 5.0], [2, 3, 4], 6, 0.5)
    sol = solve_bruteforce(red.instance, cap=1 << 22)
    assert all(sol.d[i] == 0 for i in range(0, red.instance.n, 2))


def test_knapsack_drops_oversized_items():
    red = knapsack_reduce([5.0, 7.0], [10, 1], 2, 0.5)
    assert red.kept_items == (1,)
    sol = solve_topo(red.instance)
    assert extract_knapsack(red, sol.d) == [1]


def test_knapsack_extract_rejects_garbage():
    red = knapsack_reduce([6.0, 10.0], [1, 2], 2, 0.25)
    bad = np.zeros(red.instance.n, dtype=int)
    bad[1] = 7  # neither 0 nor the item weight
    with pytest.raises(ValueError, match="neither"):
        extract_knapsack(red, bad)


@pytest.mark.parametrize("pos", [0, 2])
def test_knapsack_extract_rejects_odd_steps_off_zero(pos):
    # d_1, d_3, ... are the pinned intervals between the items
    red = knapsack_reduce([6.0, 10.0], [1, 2], 2, 0.25)
    bad = np.zeros(red.instance.n, dtype=int)
    bad[pos] = 1
    with pytest.raises(ValueError, match=f"d_{pos + 1} = 1 should be pinned to 0"):
        extract_knapsack(red, bad)


def test_knapsack_extract_rejects_a_selection_over_the_budget():
    # both items fit the budget of 2 alone, not together
    red = knapsack_reduce([6.0, 10.0], [1, 2], 2, 0.25)
    both = np.zeros(red.instance.n, dtype=int)
    both[1], both[3] = 1, 2
    with pytest.raises(ValueError, match="extracted selection exceeds the budget"):
        extract_knapsack(red, both)


def test_knapsack_value_identity():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n_items = int(rng.integers(1, 7))
        weights = [int(w) for w in rng.integers(1, 6, n_items)]
        values = [float(v) for v in rng.uniform(0.5, 9.5, n_items)]
        budget = int(rng.integers(max(weights), sum(weights) + 1))
        red = knapsack_reduce(values, weights, budget, alpha=0.5)
        sol = solve_topo(red.instance)
        selection = extract_knapsack(red, sol.d)
        best_value, _ = knapsack_bruteforce(values, weights, budget)
        got_value = sum(values[i] for i in selection)
        assert got_value == pytest.approx(best_value, rel=1e-6)
        # objective maps to the knapsack value through the cost identity
        offset = 2 * red.alpha * sum(
            int(red.instance.x[2 * k + 1]) for k in range(len(red.kept_items))
        )
        assert offset - sol.objective == pytest.approx(best_value, rel=1e-6)


def test_knapsack_input_validation():
    with pytest.raises(ValueError, match="positive"):
        knapsack_reduce([0.0], [1], 1, 0.5)
    with pytest.raises(ValueError, match="budget"):
        knapsack_reduce([1.0], [1], 0, 0.5)
    with pytest.raises(ValueError, match="alpha"):
        knapsack_reduce([1.0], [1], 1, 0.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf"), 1e308])
def test_knapsack_rejects_alpha_that_is_not_finite_and_positive(alpha):
    # 2 * alpha enters every item's cost: an alpha whose double overflows is
    # named itself, not the cost entries built from it
    with pytest.raises(ValueError) as info:
        knapsack_reduce([1.0, 2.0], [1, 1], 1, alpha)
    assert str(info.value) == (
        f"alpha must be a positive number with 2 * alpha finite, got {alpha!r}"
    )


@pytest.mark.parametrize("weight", [0, -1, 0.5, 1.5, float("nan"), float("inf")])
def test_knapsack_rejects_weights_that_are_not_positive_integers(weight):
    # item 0 alone, or behind an item within the budget: neither is dropped
    for weights, item in (([weight], 0), ([1, weight], 1)):
        with pytest.raises(ValueError, match=f"weight of item {item} must be a positive integer"):
            knapsack_reduce([5.0] * len(weights), weights, 1, 0.5)


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_knapsack_rejects_values_that_are_not_finite_and_positive(value):
    # item 1 within the budget, or heavier than it and dropped: both are named
    for weight in (1, 5):
        with pytest.raises(
            ValueError, match="value of item 1 must be a finite positive number"
        ):
            knapsack_reduce([5.0, value], [1, weight], 2, 0.5)


def test_knapsack_names_the_item_whose_cost_overflows():
    # -value / weight - 2 * alpha passes the float range although value and
    # alpha are finite; item 0 is dropped, so kept item 0 is item 1
    with pytest.raises(ValueError) as info:
        knapsack_reduce([1.0, 1e308, 1e308], [5, 1, 1], 2, 5e307)
    assert str(info.value) == (
        "value of item 1 over its weight plus 2 * alpha overflows float64"
    )


def test_knapsack_weight_zero_is_not_dropped():
    # dropping item 0 would leave the selection [1] of value 1; taking
    # both items is worth 6
    with pytest.raises(ValueError, match="item 0"):
        knapsack_reduce([5.0, 1.0], [0, 1], 1, 0.5)
    # an integral float weight is an integer weight; one above the budget
    # is dropped
    red = knapsack_reduce([5.0, 1.0, 2.0], [1.0, 1, 3], 2, 0.5)
    assert red.kept_items == (0, 1) and red.weights == (1, 1)
    assert extract_knapsack(red, solve_topo(red.instance).d) == [0, 1]


@pytest.mark.parametrize("n, m", [(3, 0), (3, -2), (-1, 3)])
def test_gen_random_rejects_empty_sizes(n, m):
    name, size = ("m", m) if m < 1 else ("n", n)
    with pytest.raises(InstanceError, match=f"{name} = {size} must be a positive integer"):
        gen_random(n, m, 2, 0.5, seed=0)


def test_gen_random_rejects_negative_seed():
    with pytest.raises(InstanceError, match="seed = -1 must be a non-negative integer"):
        gen_random(3, 2, 2, 0.5, seed=-1)


def test_gen_random_deterministic():
    a = gen_random(8, 3, 5, 0.3, seed=42)
    b = gen_random(8, 3, 5, 0.3, seed=42)
    assert np.array_equal(a.xi, b.xi)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.c, b.c)
    assert np.array_equal(a.gamma, b.gamma)
    c = gen_random(8, 3, 5, 0.3, seed=43)
    assert not (np.array_equal(a.c, c.c) and np.array_equal(a.x, c.x))


def test_gen_random_valid():
    inst = gen_random(8, 3, 5, 0.3, seed=0)
    assert inst.n == 8 and inst.m == 3 and inst.delta == 5
    assert np.all(np.isin(inst.x, inst.xi))
    assert np.all(inst.gamma >= 1) and np.all(inst.gamma <= 3)
