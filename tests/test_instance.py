import json
import math

import numpy as np
import pytest

from conftest import RANGE_RULE_BREAKERS
from tripsolve.instance import (
    _FIELDS,
    InstanceError,
    Solution,
    SolverStats,
    clamp_delta,
    is_feasible,
    objective,
    read_instance,
    resource_use,
    validate,
    write_instance,
)


def base_raw(**overrides):
    raw = {
        "n": 2,
        "alpha": 1.0,
        "delta": 2,
        "xi": [0, 1],
        "x": [0, 0],
        "gamma": [1, 1],
        "c": [0.0, 0.0],
    }
    raw.update(overrides)
    return raw


def test_validate_accepts_basic():
    inst = validate(base_raw())
    assert inst.n == 2 and inst.delta == 2 and inst.m == 2


def test_validate_rejects_x_not_member():
    with pytest.raises(InstanceError, match=r"x_2"):
        validate(base_raw(x=[0, 2]))


def test_validate_membership_below_between_and_above_xi():
    raw = base_raw(n=3, xi=[-2, 0, 5], gamma=[1] * 3, c=[0.0] * 3)
    validate({**raw, "x": [-2, 5, 0]})
    with pytest.raises(InstanceError) as err:
        validate({**raw, "x": [-3, 1, 6]})
    assert all(f"x_{i}" in str(err.value) for i in (1, 2, 3))


def test_validate_rejects_unordered_xi():
    with pytest.raises(InstanceError, match="not strictly ascending"):
        validate(base_raw(xi=[1, 0], x=[0, 0]))


def test_validate_rejects_bad_gamma():
    with pytest.raises(InstanceError, match="gamma_1"):
        validate(base_raw(gamma=[0, 1]))
    with pytest.raises(InstanceError, match="integer"):
        validate(base_raw(gamma=[1.5, 1]))


def test_validate_rejects_negative_delta():
    with pytest.raises(InstanceError, match="delta"):
        validate(base_raw(delta=-1))


def test_validate_rejects_length_mismatch():
    with pytest.raises(InstanceError, match="length"):
        validate(base_raw(c=[0.0]))


def test_validate_collects_all_violations():
    with pytest.raises(InstanceError) as err:
        validate(base_raw(x=[0, 2], delta=-1))
    assert "x_2" in str(err.value) and "delta" in str(err.value)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"alpha": float("nan")}, "alpha"),
        ({"alpha": float("inf")}, "alpha"),
        ({"c": [float("nan"), 0.0]}, "c_1"),
        ({"c": [0.0, float("-inf")]}, "c_2"),
    ],
)
def test_validate_rejects_non_finite_costs(overrides, field):
    with pytest.raises(InstanceError, match=field):
        validate(base_raw(**overrides))


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"n": 2.5}, "n"),
        ({"n": float("nan")}, "n"),
        ({"delta": 2.9}, "delta"),
        ({"x": [0.4, 0]}, "x entries"),
        ({"x": [float("nan"), 0]}, "x entries"),
        ({"xi": [0, 1.5], "x": [0, 0]}, "xi entries"),
    ],
)
def test_validate_rejects_non_integral_values(overrides, field):
    # each of these was silently truncated before: n=2.5 read as 2,
    # delta=2.9 as 2, x_1=0.4 as 0
    with pytest.raises(InstanceError, match=field):
        validate(base_raw(**overrides))


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"x": 0}, "x must be a vector"),
        ({"gamma": 1}, "gamma must be a vector"),
        ({"c": 0.0}, "c must be a vector"),
        ({"xi": 1}, "xi must be a vector"),
        ({"c": None}, "c must be a vector"),
        ({"alpha": None}, "alpha = None"),
        ({"alpha": [1]}, "alpha = \\[1\\]"),
        ({"alpha": "abc"}, "alpha = 'abc'"),
        ({"xi": ["a", "b"]}, "xi must be a vector"),
        ({"c": ["a", 0.0]}, "c must be a vector"),
        ({"x": [[0], [0, 1]]}, "x must be a vector"),
        ({"gamma": [1e20, 1]}, "gamma entries are out of the int64 range"),
        ({"gamma": [10**20, 1]}, "gamma entries are out of the int64 range"),
        ({"bogus": 7, "d": [0, 0]}, "^unknown field\\(s\\): 'bogus', 'd'$"),
        ({"alpha": True}, "alpha = True must be a finite number"),  # a bool is no number
        ({"delta": True}, "delta = True must be a nonnegative integer"),
        ({"alpha": 10**400}, "alpha = 1000+ must be a finite number"),  # an int beyond float
        ({"xi": [], "x": [0, 0]}, "xi must be a nonempty vector"),
    ],
)
def test_validate_rejects_malformed_fields(overrides, message):
    # each of these raised TypeError or a bare ValueError before, and
    # gamma_1 = 1e20 wrapped to -2**63 and was reported as "must be >= 1"
    with pytest.raises(InstanceError, match=message) as err:
        validate(base_raw(**overrides))
    assert ">= 1" not in str(err.value)


@pytest.mark.parametrize("raw", RANGE_RULE_BREAKERS)
def test_validate_applies_the_range_rule(raw):
    with pytest.raises(InstanceError, match="budget cap") as err:
        validate(raw)
    assert "ascending" not in str(err.value)


@pytest.mark.parametrize(
    "xi, gamma, inside",
    [
        ([0, 1], 2**61 - 1, True),  # budget cap * m = 2**62 - 2
        ([0, 1], 2**61, False),  # budget cap * m = 2**62
        ([2**63 - 3, 2**63 - 2], 1, True),  # max|xi| + cap = 2**63 - 1
        ([2**63 - 2, 2**63 - 1], 1, False),
        ([-(2**63) + 2, -(2**63) + 3], 1, True),
        ([-(2**63) + 1, -(2**63) + 2], 1, False),
        ([-(2**63), -(2**63) + 1], 1, False),
    ],
)
def test_range_rule_bounds(xi, gamma, inside):
    raw = {"n": 1, "alpha": 1.0, "delta": 3, "xi": xi, "x": [xi[0]],
           "gamma": [gamma], "c": [-1.0]}
    if inside:
        inst = validate(raw)
        assert clamp_delta(inst).delta == min(3, gamma * (xi[1] - xi[0]))
    else:
        with pytest.raises(InstanceError, match="budget cap"):
            validate(raw)


def test_validate_accepts_integral_floats():
    inst = validate(base_raw(n=2.0, delta=2.0, x=[0.0, 1.0], xi=[0.0, 1.0]))
    assert inst.n == 2 and inst.delta == 2
    assert inst.x.dtype == np.int64 and inst.x.tolist() == [0, 1]


def test_instance_arrays_immutable():
    inst = validate(base_raw())
    with pytest.raises(ValueError):
        inst.x[0] = 1


def test_clamp_delta_small():
    inst = validate(base_raw(delta=100))
    clamped = clamp_delta(inst)
    assert clamped.delta == 2  # (1 - 0) * 1 * 2
    # the same arrays, so a RadiusCache sees the same instance
    for name in ("c", "xi", "x", "gamma"):
        assert getattr(clamped, name) is getattr(inst, name)


def test_clamp_delta_unchanged():
    inst = validate(base_raw(delta=1))
    assert clamp_delta(inst) is inst


def test_clamp_delta_wide_value_set():
    xi = list(range(-2, 24))
    inst = validate(
        base_raw(
            n=512,
            delta=10**6,
            xi=xi,
            x=[0] * 512,
            gamma=[1] * 512,
            c=[0.0] * 512,
        )
    )
    # bound formula evaluated directly: (23 - (-2)) * 1 * 512
    assert clamp_delta(inst).delta == 25 * 512 == 12800


def test_clamp_delta_idempotent(corpus200):
    for inst in corpus200[:50]:
        once = clamp_delta(inst)
        assert clamp_delta(once).delta == once.delta


def test_objective_zero_step():
    inst = validate(base_raw(x=[0, 1], alpha=0.75))
    assert objective(inst, np.zeros(2, dtype=int)) == 0.75


def test_objective_derived_optimum(derived3):
    # brute force over all 2^3 candidates confirms both value and optimality
    best = min(
        objective(derived3, np.array(d))
        for d in np.ndindex(2, 2, 2)
        if np.dot(derived3.gamma, np.abs(d)) <= derived3.delta
    )
    assert objective(derived3, np.array([1, 0, 1])) == pytest.approx(-1.0)
    assert best == pytest.approx(-1.0)


def test_objective_single_move():
    c2 = 0.25
    inst = validate(base_raw(c=[0.0, c2], alpha=1.0))
    assert objective(inst, np.array([0, 1])) == pytest.approx(c2 + 1.0)


def test_objective_length_mismatch(derived3):
    with pytest.raises(InstanceError):
        objective(derived3, np.zeros(2, dtype=int))


def test_is_feasible_cases(two_interval):
    assert is_feasible(two_interval, np.zeros(2, dtype=int))
    assert is_feasible(two_interval, np.array([1, 1]))  # uses the full budget
    tight = validate(base_raw(delta=1))
    assert not is_feasible(tight, np.array([1, 1]))
    assert not is_feasible(two_interval, np.array([2, 0]))  # leaves the set


# each of these used to be truncated or to raise a bare numpy error:
# objective([0.7, 0]) returned the objective of [0, 0], is_feasible
# accepted [0.5, 0] and resource_use([0.9, 0]) returned 0
@pytest.mark.parametrize(
    "entry", [0.7, math.nan, math.inf, "a"], ids=["fraction", "nan", "inf", "text"]
)
def test_step_checks_refuse_non_integer_entries(two_interval, entry):
    d = [entry, 0.0]
    with pytest.raises(InstanceError):
        objective(two_interval, d)
    with pytest.raises(InstanceError):
        resource_use(two_interval, d)
    assert not is_feasible(two_interval, d)


def test_step_checks_take_integral_floats(two_interval):
    for check in (objective, resource_use, is_feasible):
        assert check(two_interval, [1.0, 0.0]) == check(two_interval, np.array([1, 0]))


def test_zero_step_always_feasible(corpus200):
    for inst in corpus200:
        d0 = np.zeros(inst.n, dtype=int)
        assert is_feasible(inst, d0)
        expected = inst.alpha * np.abs(np.diff(inst.x)).sum()
        assert objective(inst, d0) == pytest.approx(expected, abs=1e-12)


def test_objective_translation_invariance(corpus200):
    rng = np.random.default_rng(5)
    for inst in corpus200[:40]:
        shift = int(rng.integers(-7, 8))
        moved = validate(
            {
                "n": inst.n,
                "alpha": inst.alpha,
                "delta": inst.delta,
                "xi": (inst.xi + shift).tolist(),
                "x": (inst.x + shift).tolist(),
                "gamma": inst.gamma.tolist(),
                "c": inst.c.tolist(),
            }
        )
        d = np.array([rng.choice(inst.shifts(i)) for i in range(1, inst.n + 1)])
        assert objective(inst, d) == pytest.approx(objective(moved, d), abs=1e-12)


def test_roundtrip_identity(two_interval):
    text = write_instance(two_interval)
    again = write_instance(read_instance(text))
    assert json.loads(text) == json.loads(again)
    # byte identity up to whitespace
    assert text.replace(" ", "") == again.replace(" ", "")


def test_read_instance_missing_field():
    doc = {"n": 2, "delta": 2, "xi": [0, 1], "x": [0, 0], "gamma": [1, 1], "c": [0, 0]}
    with pytest.raises(InstanceError, match="alpha"):
        read_instance(json.dumps(doc))


def test_read_instance_malformed():
    with pytest.raises(InstanceError, match="malformed"):
        read_instance("{not json")


def test_fig_style_instance_serializes_value_set(two_interval):
    assert json.loads(write_instance(two_interval))["xi"] == [0, 1]


def test_to_dict_writes_the_fields_in_order(derived3):
    record = derived3.to_dict()
    assert tuple(record) == _FIELDS
    for name in ("xi", "x", "gamma", "c"):
        assert record[name] == getattr(derived3, name).tolist()
    assert (record["n"], record["alpha"], record["delta"]) == (3, 0.5, 2)


def test_solution_of_evaluates_the_step(corpus200):
    rng = np.random.default_rng(5)
    for inst in corpus200:
        d = np.array([rng.choice(inst.shifts(i)) for i in range(1, inst.n + 1)])
        sol = Solution.of(inst, d, nodes_expanded=3, wall_seconds=0.5)
        assert sol.d is d
        assert sol.objective == objective(inst, d)
        assert sol.resource == resource_use(inst, d)
        assert sol.stats == SolverStats(nodes_expanded=3, wall_seconds=0.5)


def test_counters_drop_exactly_the_timing_fields():
    counters = {
        "nodes_expanded": 1,
        "nodes_generated": 2,
        "preprocessing_iterations": 3,
    }
    stats = SolverStats(**counters, wall_seconds=0.5)
    assert stats.counters() == counters
    assert list(stats.counters()) == list(counters)
    assert list(stats.to_dict().items()) == [*counters.items(), ("wall_seconds", 0.5)]
