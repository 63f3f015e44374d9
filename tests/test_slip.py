import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from scipy.fft import next_fast_len

import tripsolve.instance
import tripsolve.slip
from conftest import assert_cached_astar_matches, solution_fields
from slip_reference import make_heat_problem_reference, make_signal_problem_reference
from tripsolve.astar import solve_astar
from tripsolve.instance import InstanceError, SolverError
from tripsolve.oracle import gen_random
from tripsolve.slip import (
    ControlProblem,
    SlipConfig,
    initial_iterate,
    make_heat_problem,
    make_signal_problem,
    read_trace_instances,
    round_to_members,
    run_slip,
    solve_box_relaxation,
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


@pytest.mark.parametrize(
    "x0", [np.full(3, 0.7), np.full(3, -1.9), ["1", "0", "0"], [True, False, True]]
)
def test_non_integral_start_rejected(x0):
    # a cast to int64 would have truncated these to members of xi
    problem = quadratic_problem(3, curvature=1.0, linear=np.zeros(3))
    with pytest.raises(ValueError, match="x0 must be"):
        run_slip(problem, x0, SlipConfig(alpha=0.1, delta0=2))


def test_integral_float_start_runs_as_its_integers():
    problem = quadratic_problem(3, curvature=1.0, linear=np.array([-2.0, 0.5, 1.0]))
    config = SlipConfig(alpha=0.1, delta0=2)
    floats = run_slip(problem, np.array([1.0, 0.0, -2.0]), config)
    ints = run_slip(problem, np.array([1, 0, -2]), config)
    assert floats.j_values == ints.j_values
    assert floats.final_x.tolist() == ints.final_x.tolist()


@pytest.mark.parametrize(
    "settings, field",
    [
        ({"delta0": 2.5}, "delta0"),
        ({"delta0": 2.0}, "delta0"),
        ({"delta0": True}, "delta0"),
        ({"max_outer": True}, "max_outer"),
        ({"max_outer": 3.5}, "max_outer"),
    ],
)
def test_config_rejects_non_integral_radii(settings, field):
    # delta0 = 2.5 used to reach validate, which blamed a field named delta
    with pytest.raises(ValueError, match=f"^{field} must be a"):
        SlipConfig(**{"alpha": 0.1, "delta0": 2, **settings})


def test_config_validation():
    with pytest.raises(ValueError):
        SlipConfig(alpha=0.1, delta0=0)
    with pytest.raises(ValueError):
        SlipConfig(alpha=0.1, delta0=2, rho=1.0)
    for solver in ("bogus", "hybrid"):
        with pytest.raises(ValueError, match=f"^unknown solver '{solver}'$"):
            SlipConfig(alpha=0.1, delta0=2, solver=solver)
    with pytest.raises(ValueError, match="max_outer"):
        SlipConfig(alpha=0.1, delta0=2, max_outer=-1)
    assert SlipConfig(alpha=0.1, delta0=2, max_outer=0).max_outer == 0


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


def controls(problem, seed):
    """The zero start, an integer control in xi and a float control inside
    the box hull of xi."""
    rng = np.random.default_rng(seed)
    lo, hi = int(problem.xi[0]), int(problem.xi[-1])
    return [
        np.zeros(problem.n, dtype=np.int64),
        rng.integers(lo, hi + 1, problem.n),
        rng.uniform(lo, hi, problem.n),
    ]


def assert_bitwise_equal(problem, reference, seed):
    for x in controls(problem, seed):
        assert np.float64(problem.smooth_value(x)).tobytes() == np.float64(
            reference.smooth_value(x)
        ).tobytes()
        assert problem.gradient_coeffs(x).tobytes() == reference.gradient_coeffs(x).tobytes()


@pytest.mark.parametrize("fine_factor", [4, 32])
@pytest.mark.parametrize("n", [2, 3, 10, 256])
def test_heat_problem_matches_reference_bitwise(n, fine_factor):
    # n = 10 puts the diffusivity jump on no cell's interior, the others cut one
    assert_bitwise_equal(
        make_heat_problem(n, fine_factor), make_heat_problem_reference(n, fine_factor), n
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 8, 128, 256])
def test_signal_problem_matches_reference_bitwise(n, seed):
    assert_bitwise_equal(
        make_signal_problem(n, seed), make_signal_problem_reference(n, seed), n + seed
    )


@pytest.mark.parametrize(
    "n, fine_cells, fft_length", [(8, 1000, 2000), (5, 1215, 2430), (3, 729, 1458)]
)
def test_signal_problem_matches_reference_at_other_fft_lengths(n, fine_cells, fft_length):
    # the stored kernel spectrum must be taken at fftconvolve's own length,
    # which is no power of two on these grids
    assert next_fast_len(2 * fine_cells - 1, True) == fft_length
    assert_bitwise_equal(
        make_signal_problem(n, 1, fine_cells),
        make_signal_problem_reference(n, 1, fine_cells),
        n,
    )


def test_signal_problem_build_stays_small():
    # the kernel used to be integrated in (5, 4096, 200) temporaries, a
    # 131 MB peak; integrated in blocks of lags, the build peaks near 2 MB
    tracemalloc.start()
    try:
        make_signal_problem(256, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


@pytest.mark.parametrize("fine_cells", [0, -8])
def test_signal_requires_positive_fine_cells(fine_cells):
    with pytest.raises(ValueError, match="fine_cells must be a positive integer"):
        make_signal_problem(1, seed=0, fine_cells=fine_cells)


def test_signal_requires_divisor():
    with pytest.raises(ValueError, match="divide"):
        make_signal_problem(100, seed=0)


@pytest.mark.parametrize("n", [0, -4])
def test_signal_requires_positive_n(n):
    with pytest.raises(ValueError, match="n must be a positive integer"):
        make_signal_problem(n, seed=0)


def test_signal_requires_non_negative_seed():
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        make_signal_problem(32, seed=-1)


def test_heat_problem_checks_its_size_before_allocating(monkeypatch):
    # its largest arrays hold 8 quadrature nodes per fine piece, 5.1 MB at
    # n = 20000, over the lowered cap; the check comes before any of them
    monkeypatch.setattr(tripsolve.instance, "TABLE_BYTES_CAP", 1_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(InstanceError, match="heat problem's quadrature table"):
            make_heat_problem(20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


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


@pytest.mark.parametrize(
    "make, solve",
    [
        (lambda: make_heat_problem(32), "solveh_banded"),
        (lambda: make_signal_problem(64, 3), "irfftn"),
    ],
)
def test_run_solves_each_state_once(monkeypatch, make, solve):
    # a value solves the state; the gradient at the iterate whose value the
    # run has just computed reuses that state and adds one adjoint solve.
    # The builder imports the solve, so the patch goes in before it runs
    module = {"solveh_banded": scipy.linalg, "irfftn": scipy.fft}[solve]
    real, calls = getattr(module, solve), []
    monkeypatch.setattr(
        module, solve, lambda *args, **kw: calls.append(1) or real(*args, **kw)
    )
    problem = make()
    trace = run_slip(
        problem, np.zeros(problem.n, dtype=int), SlipConfig(alpha=1e-3, delta0=8)
    )
    values = 1 + sum(s.actual is not None for s in trace.steps)
    gradients = len({s.outer for s in trace.steps})
    assert gradients > 3
    assert len(calls) == values + gradients


def test_round_to_members():
    xi = np.array([-2, 0, 3, 7])
    vals = np.array([-5.0, -1.0, 1.4, 1.6, 5.0, 9.0])
    assert round_to_members(vals, xi).tolist() == [-2, -2, 0, 3, 3, 7]


def test_initial_iterate_strategies():
    problem = make_heat_problem(16)
    zero = initial_iterate(problem, "zero")
    assert np.array_equal(zero, np.zeros(16))
    relaxed = initial_iterate(problem, "relax_round")
    assert np.all(np.isin(relaxed, problem.xi))
    mean = initial_iterate(problem, "mean_round")
    assert np.all(np.isin(mean, problem.xi))
    again = initial_iterate(problem, "relax_round")
    assert np.array_equal(relaxed, again)
    with pytest.raises(ValueError):
        initial_iterate(problem, "nope")


def test_mean_of_zero_with_zero_relaxation_is_zero():
    # a flat objective keeps the relaxation at the zero start, so the mean
    # strategy collapses to the zero vector as well
    problem = quadratic_problem(5, curvature=0.0, linear=np.zeros(5))
    assert np.array_equal(initial_iterate(problem, "mean_round"), np.zeros(5))


def test_box_relaxation_of_a_separable_quadratic():
    # each entry minimizes 0.5 * curvature * x_i^2 + linear_i * x_i over [-5, 5]
    linear = np.array([-3.0, 1.0, 0.0, 40.0, -25.0, 7.5])
    problem = quadratic_problem(6, curvature=2.0, linear=linear)
    relaxed = solve_box_relaxation(problem)
    assert np.allclose(relaxed, np.clip(-linear / 2.0, -5, 5), rtol=0.0, atol=1e-8)


def projected_gradient_residual(problem, x):
    g = problem.gradient_coeffs(x)
    return np.max(np.abs(x - np.clip(x - g, problem.xi[0], problem.xi[-1])))


@pytest.mark.parametrize("n, value", [(16, 0.0972555), (64, 0.0936839)])
def test_heat_box_relaxation_converges(n, value):
    # the start --x0 relax_round rounds is the box optimum, not an iterate
    # stopped short of it (values near 0.155 did so)
    problem = make_heat_problem(n)
    relaxed = solve_box_relaxation(problem)
    assert problem.smooth_value(relaxed) == pytest.approx(value, abs=1e-6)
    assert projected_gradient_residual(problem, relaxed) <= 1e-6


def test_box_relaxation_that_fails_raises_solver_error():
    # a gradient that points uphill leaves the line search no descent
    problem = quadratic_problem(3, curvature=1.0, linear=np.ones(3))
    wrong = replace(problem, gradient_coeffs=lambda x: -problem.gradient_coeffs(x))
    with pytest.raises(SolverError, match="the box relaxation did not converge"):
        solve_box_relaxation(wrong)


@pytest.mark.parametrize(
    "n, fine_factor, message",
    [(1, 4, "n must be at least 2"), (8, 3, "need at least 4 fine intervals")],
)
def test_heat_problem_rejects_too_few_intervals(n, fine_factor, message):
    with pytest.raises(ValueError, match=message):
        make_heat_problem(n, fine_factor=fine_factor)


def test_trace_reader_skips_blank_lines(tmp_path):
    instances = [gen_random(4, 3, 2, 0.5, seed=seed) for seed in (1, 2)]
    records = [json.dumps({"kind": "step", "instance": inst.to_dict()}) for inst in instances]
    path = tmp_path / "trace.jsonl"
    path.write_text(records[0] + "\n\n  \n" + records[1] + "\n\n", encoding="utf-8")
    loaded = read_trace_instances(str(path))
    assert [record for record, _ in loaded] == [json.loads(r) for r in records]
    for (_, inst), want in zip(loaded, instances):
        assert inst.to_dict() == want.to_dict()


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
        (make_signal_problem(64, seed=3), SlipConfig(alpha=1e-3, delta0=8)),
    ],
    ids=["heat-astar", "heat-topo", "signal-topo"],
)
def test_radius_cache_leaves_every_step_unchanged(problem, config, tmp_path, monkeypatch):
    x0 = np.zeros(problem.n, dtype=int)
    trace = run_slip(problem, x0, config)
    assert any(step.inner > 0 for step in trace.steps)  # radii were reused
    # A* sweeps over the reach windows of its iteration's first radius
    first = {step.outer: step.instance.delta for step in trace.steps if step.inner == 0}
    for step in trace.steps:
        if config.solver == "topo":
            fresh = solve_topo(step.instance)
            assert solution_fields(step.solution) == solution_fields(fresh)
        else:
            assert_cached_astar_matches(
                solution_fields(step.solution),
                solution_fields(solve_astar(step.instance)),
                step.instance,
                first[step.outer],
            )

    # the same run with solvers that drop the cache writes the same trace,
    # less A*'s search counters
    monkeypatch.setattr(tripsolve.slip, "solve_topo", _without_cache(solve_topo))
    monkeypatch.setattr(tripsolve.slip, "solve_astar", _without_cache(solve_astar))
    uncached = run_slip(problem, x0, config)
    write_trace(trace, str(tmp_path / "cached.jsonl"))
    write_trace(uncached, str(tmp_path / "uncached.jsonl"))
    if config.solver == "topo":
        assert (tmp_path / "cached.jsonl").read_bytes() == (
            tmp_path / "uncached.jsonl"
        ).read_bytes()
    else:
        assert _without_search_counters(tmp_path / "cached.jsonl") == (
            _without_search_counters(tmp_path / "uncached.jsonl")
        )


def _without_search_counters(path):
    """A trace's records without A*'s search counters."""
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        for key in ("nodes_expanded", "nodes_generated", "preprocessing_iterations"):
            record.get("stats", {}).pop(key, None)
        records.append(record)
    return records
