import dataclasses

import numpy as np
import pytest

from tripsolve.graph import reach_windows
from tripsolve.instance import RadiusCache, TripInstance, clamp_delta, validate
from tripsolve.oracle import gen_random


@pytest.fixture
def derived3() -> TripInstance:
    """Three-interval instance whose optimum (1, 0, 1) with cost -1.0 was
    frozen from exhaustive enumeration of all 2^3 step vectors."""
    return validate(
        {
            "n": 3,
            "alpha": 0.5,
            "delta": 2,
            "xi": [0, 1],
            "x": [0, 0, 0],
            "gamma": [1, 1, 1],
            "c": [-1.0, 2.0, -1.0],
        }
    )


@pytest.fixture
def two_interval() -> TripInstance:
    """Two intervals, two values, budget 2: the smallest instance with a
    nontrivial graph."""
    return validate(
        {
            "n": 2,
            "alpha": 1.0,
            "delta": 2,
            "xi": [0, 1],
            "x": [0, 0],
            "gamma": [1, 1],
            "c": [0.5, 0.25],
        }
    )


def _breaker(**fields) -> dict:
    raw = {"n": 2, "alpha": 1.0, "delta": 10, "x": [0, 0]}
    raw.update(fields)
    return raw


# Records whose budget arithmetic overflows int64, each rejected by validate's
# range rule. Before the rule, topo answered d = [-5] with objective 5.0 on
# the first (A* found 0.0: x + delta wrapped in the reach windows), failed in
# numpy's bincount on the second, answered [0, 0] on the third where A*
# refused it, counted 8 edges on the fourth where 6 are affordable (a
# consumption of 2**64 wrapped to 0), and np.diff reported the fifth's xi as
# not strictly ascending.
RANGE_RULE_BREAKERS = [
    _breaker(n=1, delta=5, xi=[2**63 - 10, 2**63 - 5], x=[2**63 - 5],
             gamma=[1], c=[-1.0]),
    _breaker(xi=[0, 3], gamma=[1, 2**62], c=[1.0, -1.0]),
    _breaker(xi=[0, 4], gamma=[2**62, 1], c=[1.0, -1.0]),
    _breaker(xi=[0, 4], gamma=[1, 2**62], c=[1.0, 1.0]),
    _breaker(n=1, xi=[-(2**62 + 2**61), 2**62 + 2**61], x=[2**62 + 2**61],
             gamma=[1], c=[1.0]),
]


def small_corpus(count: int, start_seed: int = 0) -> list[TripInstance]:
    """Reproducible mix of small instances for cross-validation."""
    out = []
    rng = np.random.default_rng(start_seed + 987)
    for k in range(count):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        delta = int(rng.integers(0, 7))
        alpha = float(rng.choice([0.0, 0.1, 0.5, 1.0, 3.0]))
        out.append(gen_random(n, m, delta, alpha, seed=start_seed + k))
    return out


@pytest.fixture(scope="session")
def corpus200() -> list[TripInstance]:
    return small_corpus(200)


def radius_corpus(count: int = 320) -> list[TripInstance]:
    """Random instances (n 1..39, m 1..7) at a largest radius, including
    n = 1, m = 1 and alpha = 0, for solving at halving radii."""
    out = []
    rng = np.random.default_rng(4242)
    for k in range(count):
        n = 1 if k % 40 == 0 else int(rng.integers(1, 40))
        m = 1 if k % 40 == 1 else int(rng.integers(1, 8))
        alpha = 0.0 if k % 40 == 2 else float(rng.choice([0.0, 0.05, 0.3, 1.0]))
        delta0 = int(rng.integers(0, 2 * n + 3))
        out.append(gen_random(n, m, delta0, alpha, seed=7000 + k))
    return out


def equivalence_instances(count: int = 320, seed: int = 1200) -> list[TripInstance]:
    """Random small instances (n 1..12, m 1..5), including n = 1 and m = 1,
    for checks against reference sweeps and the scalar edge weights."""
    rng = np.random.default_rng(seed)
    out = [
        gen_random(1, 3, 2, 0.5, seed=seed),  # n = 1: no inner layer
        gen_random(5, 1, 2, 0.5, seed=seed),  # m = 1: only the zero step
    ]
    for k in range(count - len(out)):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 6))
        delta = int(rng.integers(0, 3 * n + 1))
        alpha = float(rng.choice([0.0, 0.1, 1.0, 3.0]))
        out.append(gen_random(n, m, delta, alpha, seed=seed + 1 + k))
    return out


def halving(delta0: int) -> list[int]:
    """The radii d0, d0 // 2, ..., 1, 0 of a trust-region iteration that
    rejects every step."""
    radii = [delta0]
    while radii[-1] > 0:
        radii.append(radii[-1] // 2)
    return radii


def solution_fields(sol) -> tuple:
    """Everything deterministic a solver reports."""
    st = sol.stats
    return (
        sol.d.tolist(),
        sol.objective,
        sol.resource,
        st.nodes_expanded,
        st.nodes_generated,
        st.preprocessing_iterations,
    )


def assert_cached_radii_match(solve, inst: TripInstance) -> None:
    """Solve inst at halving radii through one RadiusCache; each answer
    must equal a solve without the cache."""
    cache = RadiusCache()
    for delta in halving(inst.delta):
        at = dataclasses.replace(inst, delta=delta)
        assert solution_fields(solve(at, cache=cache)) == solution_fields(solve(at))


def assert_cached_astar_matches(cached, fresh, inst: TripInstance, radius: int) -> None:
    """A* solution fields through a cache built at radius against a solve
    without it: the same step, objective and budget use, and the same
    search counters too where the reach windows, clamped as solve_astar
    clamps, are those of radius. The cache sweeps over the windows of its
    radius, which bound the optimum and keep the heuristic consistent at
    every smaller one."""
    assert cached[:3] == fresh[:3]
    here = reach_windows(clamp_delta(inst))
    there = reach_windows(clamp_delta(dataclasses.replace(inst, delta=radius)))
    if all(np.array_equal(a, b) for a, b in zip(here, there)):
        assert cached == fresh


def assert_cached_astar_radii_match(solve, inst: TripInstance) -> None:
    """Solve inst at halving radii through one RadiusCache with an A*
    solve; each answer must match a solve without the cache as
    assert_cached_astar_matches says."""
    cache = RadiusCache()
    for delta in halving(inst.delta):
        at = dataclasses.replace(inst, delta=delta)
        assert_cached_astar_matches(
            solution_fields(solve(at, cache=cache)),
            solution_fields(solve(at)),
            at,
            inst.delta,
        )
