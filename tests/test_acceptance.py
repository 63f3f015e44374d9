"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figures (run with -s or -v to see them)."""

import math
import time

import numpy as np
import pytest

from astar_reference import (
    heuristic_h,
    relaxed_objective,
    solve_astar_reference,
    window_steps,
)
from tripsolve.astar import solve_astar
from graph_reference import (
    build_explicit,
    knapsack_bruteforce,
    path_to_step,
    path_weight,
    sink_node,
    step_to_path,
)
from tripsolve.instance import objective
from tripsolve.lagrange import binary_search
from tripsolve.oracle import (
    extract_knapsack,
    gen_random,
    knapsack_reduce,
    solve_bruteforce,
)
from tripsolve.slip import SlipConfig, make_heat_problem, make_signal_problem, run_slip
from tripsolve.topo import solve_topo


def random_corpus(count, seed0, max_n=8, max_m=4, max_delta=6, min_n=1,
                  min_m=1, min_delta=0):
    rng = np.random.default_rng(seed0)
    corpus = []
    for k in range(count):
        n = int(rng.integers(min_n, max_n + 1))
        m = int(rng.integers(min_m, max_m + 1))
        delta = int(rng.integers(min_delta, max_delta + 1))
        alpha = float(rng.choice([0.0, 0.1, 0.5, 1.0, 2.0]))
        corpus.append(gen_random(n, m, delta, alpha, seed=seed0 + k))
    return corpus


@pytest.fixture(scope="module")
def corpus1000():
    return random_corpus(1000, seed0=20_000)


@pytest.fixture(scope="module")
def signal_runs():
    """Criterion 9 runs: four signal reconstructions from the zero start."""
    t0 = time.perf_counter()
    runs = []
    for n in (128, 256):
        problem = make_signal_problem(n, seed=0)
        for alpha in (1e-3, 1e-5):
            config = SlipConfig(
                alpha=alpha, delta0=n // 8, rho=0.1, solver="topo"
            )
            trace = run_slip(problem, np.zeros(n, dtype=np.int64), config)
            runs.append((n, alpha, trace))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def heat_run():
    """Supplementary corpus: a heat run at n = 512 (iteration capped; every
    outer iteration contributes one full-radius subproblem)."""
    problem = make_heat_problem(512)
    config = SlipConfig(
        alpha=1e-4, delta0=64, rho=0.1, solver="topo", max_outer=30
    )
    return run_slip(problem, np.zeros(512, dtype=np.int64), config)


def test_criterion_1_oracle_equivalence(corpus1000):
    t0 = time.perf_counter()
    worst = 0.0
    for inst in corpus1000:
        bf = solve_bruteforce(inst)
        tp = solve_topo(inst)
        As = solve_astar(inst)
        worst = max(
            worst, abs(bf.objective - tp.objective), abs(bf.objective - As.objective)
        )
        assert abs(bf.objective - tp.objective) <= 1e-9
        assert abs(bf.objective - As.objective) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"\n[criterion 1] PASS: 1000 instances, max objective gap "
        f"{worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_2_heuristic_consistency():
    corpus = random_corpus(
        100, seed0=30_000, min_n=3, max_n=6, min_m=2, min_delta=2
    )
    worst = math.inf
    edges = 0
    for inst in corpus:
        tables = binary_search(inst, epsilon=1e-6)
        graph = build_explicit(inst)
        assert heuristic_h(inst, tables, sink_node(inst)) == 0.0
        h = [heuristic_h(inst, tables, v) for v in graph.nodes]
        for u, v, w, _ in graph.edges():
            slack = w + h[v] - h[u]
            worst = min(worst, slack)
            assert slack >= -1e-9
            edges += 1
    print(
        f"\n[criterion 2] PASS: {edges} edges swept on 100 graphs, "
        f"worst consistency slack {worst:.2e}"
    )


def dual_on_grid(inst, grid):
    """The Lagrangian dual over the paths through the reach windows, the
    relaxation binary_search maximises, at every multiplier of grid."""
    steps = window_steps(inst)
    cost = steps @ inst.c + inst.alpha * np.abs(
        np.diff(inst.x[None, :] + steps, axis=1)
    ).sum(axis=1)
    res = np.abs(steps) @ inst.gamma
    return (cost[None, :] + grid[:, None] * (res - inst.delta)[None, :]).min(axis=1)


def test_criterion_3_binary_search():
    corpus = random_corpus(100, seed0=40_000, max_n=6)
    eps = 1e-5
    exits = 0
    worst_dist = 0.0
    for inst in corpus:
        tables = binary_search(inst, epsilon=eps)
        upper0 = float(np.max(np.abs(inst.c))) + 2 * inst.alpha
        bound = math.ceil(math.log2(max(upper0 / eps, 1.0))) + 1
        assert tables.iterations <= bound
        if tables.early_exit is not None:
            exits += 1
            bf = solve_bruteforce(inst)
            assert abs(tables.early_exit.objective - bf.objective) <= 1e-9
            assert tables.early_exit.resource <= inst.delta
            continue
        grid = np.arange(0.0, upper0 + 1e-4, 1e-4)
        dual = dual_on_grid(inst, grid)
        maximizers = grid[dual >= dual.max() - 1e-12]
        dist = float(np.min(np.abs(maximizers - tables.lambda_star)))
        worst_dist = max(worst_dist, dist)
        assert dist <= eps + 1e-4 + 1e-9
    print(
        f"\n[criterion 3] PASS: 100 searches within the iteration bound, "
        f"{exits} early exits all optimal, worst multiplier distance "
        f"{worst_dist:.2e}"
    )


def test_criterion_4_zero_step_at_large_multiplier():
    corpus = random_corpus(100, seed0=50_000)
    worst = 0.0
    for inst in corpus:
        lam = float(np.max(np.abs(inst.c))) + 2.0 * inst.alpha
        from tripsolve.lagrange import relaxed_costs_to_sink

        table = relaxed_costs_to_sink(inst, lam)
        relaxed_opt = table.source_cost - lam * inst.delta
        want = relaxed_objective(inst, np.zeros(inst.n, dtype=np.int64), lam)
        worst = max(worst, abs(relaxed_opt - want))
        assert abs(relaxed_opt - want) <= 1e-9
    print(
        f"\n[criterion 4] PASS: zero step relaxed-optimal at max|c|+2*alpha "
        f"on 100 instances, worst gap {worst:.2e}"
    )


def test_criterion_5_knapsack_reduction():
    rng = np.random.default_rng(60_000)
    for _ in range(50):
        n_items = int(rng.integers(1, 7))
        weights = [int(w) for w in rng.integers(1, 7, n_items)]
        values = [float(v) for v in rng.uniform(0.1, 10.0, n_items)]
        budget = int(rng.integers(1, sum(weights) + 2))
        reduction = knapsack_reduce(values, weights, budget, alpha=0.5)
        sol = solve_topo(reduction.instance)
        selection = extract_knapsack(reduction, sol.d)
        best_value, _ = knapsack_bruteforce(values, weights, budget)
        got = sum(values[i] for i in selection)
        assert got == pytest.approx(best_value, rel=1e-9, abs=1e-9)
    print("\n[criterion 5] PASS: 50 knapsack reductions reproduce the optimum")


def test_criterion_6_graph_size_bounds(corpus1000):
    for inst in corpus1000:
        g = build_explicit(inst)
        n, m, delta = inst.n, inst.m, inst.delta
        assert g.n_nodes <= n * (delta + 1) * m + 2
        assert g.n_edges <= m * m * n * (delta + 1) + m + (delta + 1) * m
    print("\n[criterion 6] PASS: explicit builds within the size bounds (1000x)")


def test_criterion_7_path_cost_correspondence(corpus1000):
    rng = np.random.default_rng(70_000)
    worst = 0.0
    for _ in range(1000):
        inst = corpus1000[int(rng.integers(len(corpus1000)))]
        d = np.zeros(inst.n, dtype=np.int64)
        left = inst.delta
        for i in range(1, inst.n + 1):
            options = [
                s
                for s in inst.shifts(i)
                if int(inst.gamma[i - 1]) * abs(int(s)) <= left
            ]
            d[i - 1] = int(rng.choice(options))
            left -= int(inst.gamma[i - 1]) * abs(int(d[i - 1]))
        path = step_to_path(inst, d)
        back = path_to_step(inst, path)
        assert np.array_equal(back, d)
        gap = abs(path_weight(inst, path) - objective(inst, d))
        worst = max(worst, gap)
        assert gap <= 1e-9
    print(
        f"\n[criterion 7] PASS: 1000 path round-trips, worst weight gap "
        f"{worst:.2e}"
    )


def test_criterion_8_gradient_fidelity():
    rng = np.random.default_rng(80_000)
    for make, name in (
        (lambda: make_heat_problem(64), "heat"),
        (lambda: make_signal_problem(64, seed=1), "signal"),
    ):
        problem = make()
        x = rng.choice(problem.xi, size=64).astype(np.float64)
        g = problem.gradient_coeffs(x)
        scale = float(np.max(np.abs(g)))
        step = 1e-4
        for i in range(64):
            e = np.zeros(64)
            e[i] = step
            fd = (
                problem.smooth_value(x + e) - problem.smooth_value(x - e)
            ) / (2 * step)
            assert abs(fd - g[i]) <= 1e-5 * max(abs(g[i]), abs(fd), 1e-10 * scale)
    print("\n[criterion 8] PASS: both problems match central differences at n=64")


def test_criterion_9_slip_behavior(signal_runs):
    runs, elapsed = signal_runs
    assert elapsed < 300.0
    for n, alpha, trace in runs:
        assert trace.termination == "stationary"
        assert trace.steps[-1].predicted <= 0.0
        assert all(
            a >= b - 1e-12 for a, b in zip(trace.j_values, trace.j_values[1:])
        )
        assert len(trace.j_values) > 1
    print(
        f"\n[criterion 9] PASS: 4 signal runs stationary with zero predicted "
        f"reduction, J nonincreasing, {elapsed:.1f}s"
    )


def test_criterion_10_expansion_trend(signal_runs, heat_run):
    runs, _ = signal_runs
    corpus = [
        (n, step.instance)
        for n, _, trace in runs
        for step in trace.steps
    ]
    corpus += [(512, step.instance) for step in heat_run.steps]
    big = [(n, inst) for n, inst in corpus if inst.delta >= n // 8]
    assert big
    strict = 0
    fractions = []
    for n, inst in big:
        tp = solve_topo(inst)
        As = solve_astar(inst)
        assert abs(tp.objective - As.objective) <= 1e-9
        if As.stats.nodes_expanded < tp.stats.nodes_expanded:
            strict += 1
        if inst.delta == n // 8:
            fractions.append(As.stats.nodes_expanded / tp.stats.nodes_expanded)
    share = strict / len(big)
    mean_fraction = float(np.mean(fractions))
    assert share >= 0.95
    assert mean_fraction < 0.5
    print(
        f"\n[criterion 10] PASS: strictly fewer expansions on "
        f"{strict}/{len(big)} big-radius instances, mean expanded fraction "
        f"{mean_fraction:.4f} at the full radius"
    )


def test_criterion_11_pruning_safety(corpus1000, signal_runs, heat_run):
    # solve_astar's prunings are always on; the reference search with both
    # off must reach the same optimum
    runs, _ = signal_runs
    sampled = [s.instance for _, _, t in runs for s in t.steps[::5]]
    sampled += [s.instance for s in heat_run.steps[::5]]
    checked = 0
    for inst in corpus1000 + sampled:
        pruned = solve_astar(inst).objective
        unpruned = solve_astar_reference(inst, edge_pruning=False, upper_bound_pruning=False)
        assert abs(pruned - unpruned.objective) <= 1e-9
        checked += 1
    print(
        f"\n[criterion 11] PASS: the prunings preserve the objective of the "
        f"unpruned reference search on {checked} instances"
    )
