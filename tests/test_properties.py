"""Property tests over random instance records.

Derandomized, so every run draws the same examples: valid small instances
agree across topo, A* and brute force, and keep their answers when c and
alpha are scaled by a power of two; objective and resource_use return
the floats of their earlier formulas; a batched relaxed sweep equals the
reference sweep of each multiplier bit for bit on dyadic data, where cost
ties, exact or within the tie tolerance, are common; a record with one field
broken is rejected with InstanceError and nothing else; records just inside
validate's int64 range rule are solved, and records just past it are
rejected.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astar_reference import assert_matches_reference_sweep, sweep_tie
from conftest import halving
from tripsolve.astar import solve_astar
from tripsolve.instance import (
    InstanceError,
    RadiusCache,
    budget_cap,
    clamp_delta,
    is_feasible,
    objective,
    resource_use,
    rounding_bound,
    validate,
)
from tripsolve.lagrange import binary_search, default_epsilon
from tripsolve.oracle import solve_bruteforce
from tripsolve.topo import solve_topo

PROPERTY = settings(derandomize=True, deadline=None, database=None)


@st.composite
def records(draw, max_n: int = 6, max_m: int = 4) -> dict:
    """A valid instance record: n <= max_n, |xi| <= max_m, small integers."""
    n = draw(st.integers(1, max_n))
    xi = sorted(draw(st.sets(st.integers(-6, 6), min_size=1, max_size=max_m)))
    return {
        "n": n,
        "alpha": draw(st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.5])),
        "delta": draw(st.integers(0, 10)),
        "xi": xi,
        "x": draw(st.lists(st.sampled_from(xi), min_size=n, max_size=n)),
        "gamma": draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
        "c": draw(
            st.lists(
                st.integers(-12, 12).map(lambda v: v / 4), min_size=n, max_size=n
            )
        ),
    }


def assert_solvers_agree(inst) -> None:
    topo, astar = solve_topo(inst), solve_astar(inst)
    assert is_feasible(inst, topo.d) and is_feasible(inst, astar.d)
    assert abs(topo.objective - astar.objective) <= 1e-9
    if inst.m**inst.n <= 1 << 12:
        assert abs(topo.objective - solve_bruteforce(inst).objective) <= 1e-9


@settings(PROPERTY, max_examples=300)
@given(records())
def test_topo_astar_and_bruteforce_agree(raw):
    assert_solvers_agree(validate(raw))


@settings(PROPERTY, max_examples=150)
@given(raw=records(), k=st.sampled_from(range(-44, 41)))
def test_answers_scale_with_the_costs(raw, k):
    # c and alpha times 2**k, clear of subnormals and of validate's
    # finiteness rule, scale every float sum exactly: topo and the oracle
    # keep their steps, and every objective is 2**k times the unscaled one.
    # A*, fresh and through one cache over halving radii, reaches it within
    # the rounding at the instance's scale (instance.rounding_bound), and no
    # dual bound lies above it by more
    scale = 2.0**k
    inst = validate(raw)
    scaled = validate({**raw, "c": [v * scale for v in raw["c"]], "alpha": raw["alpha"] * scale})
    solvers = [solve_topo] + [solve_bruteforce] * (inst.m**inst.n <= 1 << 12)
    cache = RadiusCache()
    for delta in halving(inst.delta):
        at, at_scaled = (dataclasses.replace(i, delta=delta) for i in (inst, scaled))
        for solve in solvers:
            sol, unscaled = solve(at_scaled), solve(at)
            assert sol.d.tolist() == unscaled.d.tolist()
            assert sol.objective == scale * unscaled.objective
        optimum, tol = scale * solve_topo(at).objective, rounding_bound(at_scaled)
        for sol in (solve_astar(at_scaled), solve_astar(at_scaled, cache)):
            assert abs(sol.objective - optimum) <= tol
        tables = binary_search(clamp_delta(at_scaled), default_epsilon(clamp_delta(at_scaled)))
        assert tables.dual_bound() <= optimum + tol


@settings(PROPERTY, max_examples=300)
@given(raw=records(max_n=9, max_m=5), data=st.data())
def test_objective_and_resource_use_keep_their_floats(raw, data):
    # any float c and alpha and any int64 step of values in xi: the same
    # floats as the np.diff and .sum() formulas the functions once used
    n = raw["n"]
    raw["c"] = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    raw["alpha"] = data.draw(st.floats(0.0, 1e3))
    inst = validate(raw)
    js = data.draw(st.lists(st.integers(0, inst.m - 1), min_size=n, max_size=n))
    d = inst.xi[js] - inst.x
    jumps = np.abs(np.diff(inst.x + d)).sum()
    expected = float(np.dot(inst.c, d) + inst.alpha * jumps)
    assert repr(objective(inst, d)) == repr(expected)
    assert repr(resource_use(inst, d)) == repr(int(np.dot(inst.gamma, np.abs(d))))


DYADIC = st.integers(-16, 16).map(lambda v: v / 8)


@settings(PROPERTY, max_examples=300)
@given(
    raw=records(max_n=7, max_m=5),
    alpha=st.one_of(DYADIC.map(abs), st.integers(0, 6)),
    lams=st.lists(DYADIC.map(abs), min_size=1, max_size=4),
    nudges=st.lists(st.sampled_from([0, 0, 0, -2, -1, 1, 2]), min_size=7, max_size=7),
)
def test_relaxed_sweep_matches_reference_sweep_on_ties(raw, alpha, lams, nudges):
    # c on a quarter grid and alpha dyadic or some |c_i| (an integer alpha
    # picks one), so that a column's gain in c_i matches its jump exactly;
    # then some c_i move by multiples of half the sweep's tie at the first
    # multiplier (sweep_tie), so that costs tie exactly or nearly, within the
    # tie or just past it
    if isinstance(alpha, int):
        alpha = abs(raw["c"][alpha % raw["n"]])
    unit = 0.5 * sweep_tie(validate({**raw, "alpha": alpha}), lams[0])
    c = [v + k * unit for v, k in zip(raw["c"], nudges)]
    inst = validate({**raw, "alpha": alpha, "c": c})
    for lam in lams:
        assert_matches_reference_sweep(inst, lam)


def _two_values(raw: dict) -> dict:
    """raw with a second value in xi if it has only one."""
    if len(raw["xi"]) >= 2:
        return raw
    return {**raw, "xi": raw["xi"] + [raw["xi"][0] + 1]}


def _past_gamma(raw: dict, at: int, past: bool) -> dict:
    # the smallest gamma_at with cap * m >= 2**62, or one less; xi must
    # hold two values
    n, span, m = raw["n"], raw["xi"][-1] - raw["xi"][0], len(raw["xi"])
    gamma = list(raw["gamma"])
    gamma[at] = -(-(2**62) // (n * span * m)) - (0 if past else 1)
    return {**raw, "gamma": gamma}


def _past_xi(raw: dict, sign: int, past: bool) -> dict:
    # xi moved so that max|xi| + cap is 2**63, or 2**63 - 1
    cap = budget_cap(raw["n"], np.array(raw["xi"]), np.array(raw["gamma"]))
    top = 2**63 - cap - (0 if past else 1)
    if sign > 0:
        offset = top - raw["xi"][-1]
    else:
        offset = -top - raw["xi"][0]
    return {
        **raw,
        "xi": [v + offset for v in raw["xi"]],
        "x": [v + offset for v in raw["x"]],
    }


def _break(raw: dict, kind: str, at: int) -> dict:
    """raw with one field broken in the way kind names."""
    n = raw["n"]
    at_n = at % n
    bad = dict(raw)
    if kind == "c non-finite":
        bad["c"] = list(raw["c"])
        bad["c"][at_n] = [math.nan, math.inf, -math.inf][at % 3]
    elif kind == "alpha non-finite":
        bad["alpha"] = [math.nan, math.inf, -math.inf][at % 3]
    elif kind in ("n", "delta"):
        bad[kind] = raw[kind] + 0.5
    elif kind in ("x", "gamma"):
        bad[kind] = list(raw[kind])
        bad[kind][at_n] = raw[kind][at_n] + 0.5
    elif kind == "xi":
        bad["xi"] = list(raw["xi"])
        bad["xi"][at % len(raw["xi"])] += 0.5
    elif kind == "length":
        name = ["x", "gamma", "c"][at % 3]
        bad[name] = raw[name][:-1] if at % 2 else raw[name] + raw[name][:1]
    elif kind == "x not in xi":
        bad["x"] = list(raw["x"])
        bad["x"][at_n] = raw["xi"][-1] + 1 + at % 3
    elif kind == "xi unsorted":
        bad["xi"] = list(reversed(_two_values(raw)["xi"]))
    elif kind == "xi repeated":
        bad["xi"] = sorted(raw["xi"] + raw["xi"][:1])
    elif kind == "gamma past the range rule":
        bad = _past_gamma(_two_values(raw), at_n, past=True)
    elif kind == "xi past the range rule":
        bad = _past_xi(raw, 1 if at % 2 else -1, past=True)
    return bad


BREAKS = [
    "c non-finite",
    "alpha non-finite",
    "n",
    "delta",
    "x",
    "gamma",
    "xi",
    "length",
    "x not in xi",
    "xi unsorted",
    "xi repeated",
    "gamma past the range rule",
    "xi past the range rule",
]


@pytest.mark.parametrize("kind", BREAKS)
@settings(PROPERTY, max_examples=25)
@given(raw=records(), at=st.integers(0, 11))
def test_one_broken_field_raises_instance_error(kind, raw, at):
    with pytest.raises(InstanceError) as err:
        validate(_break(raw, kind, at))
    if "range rule" in kind:  # xi of 2**63 is not an int64 at all
        assert "budget cap" in str(err.value) or "int64 range" in str(err.value)


@pytest.mark.parametrize("edge", ["gamma", "xi above", "xi below"])
@settings(PROPERTY, max_examples=30)
@given(raw=records(max_n=4, max_m=3), at=st.integers(0, 3))
def test_records_just_inside_the_range_rule_are_solved(edge, raw, at):
    if edge == "gamma":
        raw = _past_gamma(_two_values(raw), at % raw["n"], past=False)
    else:
        raw = _past_xi(raw, 1 if edge == "xi above" else -1, past=False)
    assert_solvers_agree(validate(raw))
