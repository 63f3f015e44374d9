import numpy as np
import pytest

import tripsolve.slip
from conftest import solution_fields
from tripsolve.astar import solve_astar
from tripsolve.slip import (
    ControlProblem,
    SlipConfig,
    initial_iterate_heat,
    make_heat_problem,
    make_signal_problem,
    read_trace_instances,
    round_to_members,
    run_slip,
    total_variation,
    write_trace,
)
from tripsolve.topo import solve_topo


def test_total_variation_examples():
    assert total_variation(np.array([3, 3, 3])) == 0.0
    assert total_variation(np.array([0, 1, 0])) == 2.0
    assert total_variation(np.array([-2, 23])) == 25.0
    assert total_variation(np.array([7])) == 0.0


def quadratic_problem(n, curvature, linear):
    """F(x) = 0.5 * curvature * |x|^2 + linear . x over xi = {-5..5}."""
    lin = np.asarray(linear, dtype=np.float64)

    def value(x):
        x = np.asarray(x, dtype=np.float64)
        return float(0.5 * curvature * np.dot(x, x) + np.dot(lin, x))

    def grad(x):
        x = np.asarray(x, dtype=np.float64)
        return curvature * x + lin

    return ControlProblem(
        name="quadratic",
        n=n,
        xi=np.arange(-5, 6, dtype=np.int64),
        gamma=np.ones(n, dtype=np.int64),
        smooth_value=value,
        gradient_coeffs=grad,
    )


def test_zero_gradient_terminates_immediately():
    problem = quadratic_problem(6, curvature=0.0, linear=np.zeros(6))
    trace = run_slip(problem, np.zeros(6, dtype=int), SlipConfig(alpha=0.5, delta0=4))
    assert trace.termination == "stationary"
    assert len(trace.steps) == 1
    assert trace.steps[0].predicted == 0.0
    assert np.array_equal(trace.final_x, np.zeros(6))


def test_rejected_step_halves_radius():
    # steep curvature: the linear model overshoots, the first steps reject
    problem = quadratic_problem(4, curvature=50.0, linear=np.full(4, -1.0))
    trace = run_slip(
        problem, np.zeros(4, dtype=int), SlipConfig(alpha=1e-3, delta0=8)
    )
    rejected = [s for s in trace.steps if s.accepted is False]
    assert rejected, "expected at least one rejected step"
    first = trace.steps[0]
    assert first.accepted is False and first.instance.delta == 8
    deltas = [s.instance.delta for s in trace.steps if s.outer == 1]
    assert deltas == [8 // (2**k) for k in range(len(deltas))]
    assert trace.termination == "stationary"
    assert trace.steps[-1].predicted <= 0.0


def test_accepted_steps_monotone():
    problem = quadratic_problem(5, curvature=0.2, linear=np.array([-1.0, 2.0, -3.0, 0.5, -0.2]))
    trace = run_slip(problem, np.zeros(5, dtype=int), SlipConfig(alpha=0.1, delta0=4))
    assert trace.termination == "stationary"
    assert all(a >= b - 1e-12 for a, b in zip(trace.j_values, trace.j_values[1:]))
    for step in trace.steps:
        if step.accepted:
            assert step.actual >= SlipConfig(alpha=0.1, delta0=4).rho * step.predicted


def test_infeasible_start_rejected():
    problem = quadratic_problem(3, curvature=1.0, linear=np.zeros(3))
    with pytest.raises(ValueError, match="x0"):
        run_slip(problem, np.full(3, 99), SlipConfig(alpha=0.1, delta0=2))


def test_config_validation():
    with pytest.raises(ValueError):
        SlipConfig(alpha=0.1, delta0=0)
    with pytest.raises(ValueError):
        SlipConfig(alpha=0.1, delta0=2, rho=1.0)
    with pytest.raises(ValueError):
        SlipConfig(alpha=0.1, delta0=2, solver="bogus")
    with pytest.raises(ValueError):
        SlipConfig(alpha=0.1, delta0=2, solver="hybrid")


def test_emitted_radii_follow_halving():
    problem = quadratic_problem(6, curvature=5.0, linear=np.full(6, -0.8))
    trace = run_slip(problem, np.zeros(6, dtype=int), SlipConfig(alpha=1e-2, delta0=16))
    for step in trace.steps:
        assert step.instance.delta == 16 // (2**step.inner)


def test_heat_problem_reference_value():
    problem = make_heat_problem(64)
    reference = make_heat_problem(64, fine_factor=32)  # 8x finer grid
    v = problem.smooth_value(np.zeros(64))
    v_ref = reference.smooth_value(np.zeros(64))
    assert v > 0
    assert abs(v - v_ref) / abs(v_ref) <= 1e-3


def test_heat_admissible_set():
    problem = make_heat_problem(16)
    assert problem.xi.tolist() == list(range(-2, 24))
    assert np.all(problem.gamma == 1)


def gradient_check(problem, x, step=1e-4, rel=1e-5):
    g = problem.gradient_coeffs(x)
    scale = np.max(np.abs(g))
    for i in range(problem.n):
        e = np.zeros(problem.n)
        e[i] = step
        fd = (problem.smooth_value(x + e) - problem.smooth_value(x - e)) / (2 * step)
        assert abs(fd - g[i]) <= rel * max(abs(g[i]), abs(fd), 1e-10 * scale)


def test_heat_gradient_fidelity():
    problem = make_heat_problem(32)
    x = np.zeros(32)
    x[5:12] = 4
    x[20] = -2
    gradient_check(problem, x)


def test_signal_value_at_zero():
    problem = make_signal_problem(64, seed=1)
    # closed form: 0.5 * integral of (5 sin(4 pi t) + 10)^2 = 0.5 * 112.5
    assert problem.smooth_value(np.zeros(64)) == pytest.approx(56.25, abs=1e-3)


def test_signal_deterministic():
    a = make_signal_problem(32, seed=5)
    b = make_signal_problem(32, seed=5)
    x = np.zeros(32)
    x[10:20] = 3
    assert np.array_equal(a.gradient_coeffs(x), b.gradient_coeffs(x))
    other = make_signal_problem(32, seed=6)
    assert not np.array_equal(a.gradient_coeffs(x), other.gradient_coeffs(x))


def test_signal_gradient_fidelity():
    problem = make_signal_problem(32, seed=2)
    x = np.zeros(32)
    x[4:9] = -3
    gradient_check(problem, x)


def test_signal_requires_divisor():
    with pytest.raises(ValueError, match="divide"):
        make_signal_problem(100, seed=0)


@pytest.mark.parametrize("n", [0, -4])
def test_signal_requires_positive_n(n):
    with pytest.raises(ValueError, match="n must be a positive integer"):
        make_signal_problem(n, seed=0)


def test_signal_slip_run_monotone():
    problem = make_signal_problem(64, seed=3)
    trace = run_slip(
        problem,
        np.zeros(64, dtype=int),
        SlipConfig(alpha=1e-3, delta0=8, solver="topo"),
    )
    assert trace.termination == "stationary"
    assert trace.steps[-1].predicted == 0.0
    assert all(s.predicted > 0.0 for s in trace.steps[:-1])
    assert all(a >= b - 1e-12 for a, b in zip(trace.j_values, trace.j_values[1:]))
    assert len(trace.j_values) > 3  # made actual progress


def test_round_to_members():
    xi = np.array([-2, 0, 3, 7])
    vals = np.array([-5.0, -1.0, 1.4, 1.6, 5.0, 9.0])
    assert round_to_members(vals, xi).tolist() == [-2, -2, 0, 3, 3, 7]


def test_initial_iterate_strategies():
    problem = make_heat_problem(16)
    zero = initial_iterate_heat(problem, "zero")
    assert np.array_equal(zero, np.zeros(16))
    relaxed = initial_iterate_heat(problem, "relax_round")
    assert np.all(np.isin(relaxed, problem.xi))
    mean = initial_iterate_heat(problem, "mean_round")
    assert np.all(np.isin(mean, problem.xi))
    again = initial_iterate_heat(problem, "relax_round")
    assert np.array_equal(relaxed, again)
    with pytest.raises(ValueError):
        initial_iterate_heat(problem, "nope")


def test_mean_of_zero_with_zero_relaxation_is_zero():
    # a flat objective keeps the relaxation at the zero start, so the mean
    # strategy collapses to the zero vector as well
    problem = quadratic_problem(5, curvature=0.0, linear=np.zeros(5))
    assert np.array_equal(initial_iterate_heat(problem, "mean_round"), np.zeros(5))


def test_trace_roundtrip(tmp_path):
    problem = make_signal_problem(32, seed=4)
    config = SlipConfig(alpha=1e-2, delta0=4, solver="topo")
    trace = run_slip(problem, np.zeros(32, dtype=int), config)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, str(path))
    loaded = read_trace_instances(str(path))
    assert len(loaded) == len(trace.steps)
    for (record, inst), step in zip(loaded, trace.steps):
        assert inst.delta == step.instance.delta
        assert np.array_equal(inst.x, step.instance.x)
        assert record["objective"] == step.solution.objective

    # byte-identical rerun
    trace2 = run_slip(problem, np.zeros(32, dtype=int), config)
    path2 = tmp_path / "trace2.jsonl"
    write_trace(trace2, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def _without_cache(solve):
    def call(inst, *args, cache=None, **kwargs):
        return solve(inst, *args, **kwargs)

    return call


@pytest.mark.parametrize(
    "problem, config",
    [
        (make_heat_problem(32), SlipConfig(alpha=1e-4, delta0=16, solver="astar")),
        (make_heat_problem(32), SlipConfig(alpha=1e-4, delta0=16, solver="topo")),
        (
            make_heat_problem(32),
            SlipConfig(alpha=1e-4, delta0=16, solver="hybrid", delta_d=8),
        ),
        (make_signal_problem(64, seed=3), SlipConfig(alpha=1e-3, delta0=8)),
    ],
    ids=["heat-astar", "heat-topo", "heat-hybrid", "signal-topo"],
)
def test_radius_cache_leaves_every_step_unchanged(problem, config, tmp_path, monkeypatch):
    x0 = np.zeros(problem.n, dtype=int)
    trace = run_slip(problem, x0, config)
    assert any(step.inner > 0 for step in trace.steps)  # radii were reused
    for step in trace.steps:
        use_topo = config.solver == "topo" or (
            config.solver == "hybrid" and step.instance.delta < config.delta_d
        )
        fresh = solve_topo(step.instance) if use_topo else solve_astar(step.instance)
        assert solution_fields(step.solution) == solution_fields(fresh)

    # the same run with solvers that drop the cache writes the same trace
    monkeypatch.setattr(tripsolve.slip, "solve_topo", _without_cache(solve_topo))
    monkeypatch.setattr(tripsolve.slip, "solve_astar", _without_cache(solve_astar))
    uncached = run_slip(problem, x0, config)
    write_trace(trace, str(tmp_path / "cached.jsonl"))
    write_trace(uncached, str(tmp_path / "uncached.jsonl"))
    assert (tmp_path / "cached.jsonl").read_bytes() == (
        tmp_path / "uncached.jsonl"
    ).read_bytes()
