import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import tripsolve.instance
import tripsolve.lagrange
from tripsolve.astar import solve_astar
from tripsolve.graph import (
    NodeRef,
    build_explicit,
    reach_windows,
    sink_node,
)
from astar_reference import assert_matches_reference_sweep, reference_sweep
from conftest import equivalence_instances, halving, radius_corpus
from tripsolve.instance import InstanceError, RadiusCache, objective, validate
from tripsolve.lagrange import (
    COST_TIE_TOL,
    LagrangeTables,
    binary_search,
    extract_path_step,
    heuristic_h,
    heuristic_table,
    relaxed_costs_to_sink,
    relaxed_objective,
)
from tripsolve.oracle import enumerate_steps, gen_random
from tripsolve.slip import make_heat_problem
from tripsolve.topo import solve_topo


def suffix_oracle(inst, lam, layer, value_index):
    """Exhaustive (cost, min budget among tied costs) over all continuations
    from a given (layer, value) class to the sink."""
    shifts = [inst.shifts(i) for i in range(layer + 1, inst.n + 1)]
    best = (math.inf, math.inf)
    prev_value = int(inst.xi[value_index])
    for tail in itertools.product(*shifts) if shifts else [()]:
        cost = 0.0
        res = 0
        prev = prev_value
        for k, shift in enumerate(tail):
            i = layer + 1 + k  # 1-based layer of this step
            value = int(inst.x[i - 1]) + int(shift)
            used = int(inst.gamma[i - 1]) * abs(int(shift))
            cost += inst.c[i - 1] * shift + inst.alpha * abs(value - prev)
            cost += lam * used
            res += used
            prev = value
        if cost < best[0] - COST_TIE_TOL or (
            cost <= best[0] + COST_TIE_TOL and res < best[1]
        ):
            best = (min(cost, best[0]), res)
    return best


def dual_grid(inst, lambdas):
    """Relaxed optimum -lam*delta + min over paths of (cost + lam*budget),
    evaluated for a whole grid of multipliers at once by enumeration."""
    steps = enumerate_steps(inst)
    cost = steps @ inst.c + inst.alpha * np.abs(
        np.diff(inst.x[None, :] + steps, axis=1)
    ).sum(axis=1)
    res = np.abs(steps) @ inst.gamma
    lam = np.asarray(lambdas)
    relaxed = cost[None, :] + lam[:, None] * (res - inst.delta)[None, :]
    return relaxed.min(axis=1)


def small_instances(count, seed=100, max_n=6):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(1, max_n + 1))
        m = int(rng.integers(1, 4))
        delta = int(rng.integers(0, 6))
        alpha = float(rng.choice([0.0, 0.2, 1.0]))
        out.append(gen_random(n, m, delta, alpha, seed=seed + k))
    return out


def test_zeta_last_layer_zero(derived3):
    table = relaxed_costs_to_sink(derived3, [0.7])[0]
    assert np.all(table.cost[-1] == 0.0)
    assert np.all(table.res[-1] == 0)


def test_zeta_zero_costs_zero_penalty():
    inst = validate(
        {
            "n": 4,
            "alpha": 0.0,
            "delta": 3,
            "xi": [0, 1, 2],
            "x": [0, 1, 2, 0],
            "gamma": [1, 1, 1, 1],
            "c": [0.0] * 4,
        }
    )
    table = relaxed_costs_to_sink(inst, [0.9])[0]
    assert np.all(table.cost == 0.0)
    assert np.all(table.res == 0)  # the zero continuation wins the tie


def test_zeta_matches_suffix_enumeration(derived3):
    for lam in (0.0, 0.3, 1.0, 4.0):
        table = relaxed_costs_to_sink(derived3, [lam])[0]
        for layer in range(1, derived3.n + 1):
            for j in range(derived3.m):
                cost, res = suffix_oracle(derived3, lam, layer, j)
                assert table.cost[layer - 1, j] == pytest.approx(cost, abs=1e-9)
                assert table.res[layer - 1, j] == res


def test_zeta_derived_value_at_zero():
    # frozen from the suffix enumeration: continuing after a unit shift on
    # the first interval costs 0.0 at multiplier 0, via the (0, 1) tail
    inst = validate(
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
    assert suffix_oracle(inst, 0.0, 1, 1) == (0.0, 1)
    table = relaxed_costs_to_sink(inst, [0.0])[0]
    assert table.cost[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert table.res[0, 1] == 1


def test_zeta_random_instances():
    for inst in small_instances(25, seed=300):
        for lam in (0.0, 0.5, 2.0):
            table = relaxed_costs_to_sink(inst, [lam])[0]
            for j in range(inst.m):
                cost, res = suffix_oracle(inst, lam, 1, j)
                assert table.cost[0, j] == pytest.approx(cost, abs=1e-9)
                assert table.res[0, j] == res


def test_extracted_path_minimizes_resource_among_ties():
    for inst in small_instances(40, seed=400):
        for lam in (0.0, 0.25, 1.5):
            table = relaxed_costs_to_sink(inst, [lam])[0]
            steps = enumerate_steps(inst)
            cost = steps @ inst.c + inst.alpha * np.abs(
                np.diff(inst.x[None, :] + steps, axis=1)
            ).sum(axis=1)
            res = np.abs(steps) @ inst.gamma
            total = cost + lam * res
            tied = total <= total.min() + COST_TIE_TOL
            want_res = res[tied].min()
            d = extract_path_step(inst, table)
            got_res = int(np.abs(d) @ inst.gamma)
            assert got_res == want_res
            assert table.source_res == want_res


def test_relaxed_objective_basics(derived3):
    d = np.array([1, 0, 1])
    assert relaxed_objective(derived3, d, 0.0) == objective(derived3, d)
    # budget used exactly: the penalty vanishes for every multiplier
    for lam in (0.0, 0.7, 3.0):
        assert relaxed_objective(derived3, d, lam) == pytest.approx(
            objective(derived3, d)
        )


def test_relaxed_zero_step_wins_at_large_multiplier():
    for inst in small_instances(20, seed=500):
        lam = float(np.max(np.abs(inst.c))) + 2.0 * inst.alpha
        steps = enumerate_steps(inst)
        values = [relaxed_objective(inst, d, lam) for d in steps]
        zero = relaxed_objective(inst, np.zeros(inst.n, dtype=int), lam)
        assert zero <= min(values) + 1e-9


def test_binary_search_initial_upper_endpoint():
    inst = validate(
        {
            "n": 2,
            "alpha": 0.5,
            "delta": 1,
            "xi": [0, 1],
            "x": [0, 0],
            "gamma": [1, 1],
            "c": [-3.0, -2.0],
        }
    )
    tables = binary_search(inst, epsilon=1e-6)
    assert max(tables.lambdas) == pytest.approx(3.0 + 2 * 0.5)  # max|c| + 2 alpha


def test_binary_search_zero_cost_early_exit():
    # constant control, zero costs: the zero step is the unconstrained
    # optimum, so the search exits at multiplier 0 with cost alpha * TV(x)
    inst = validate(
        {
            "n": 3,
            "alpha": 0.5,
            "delta": 2,
            "xi": [0, 1],
            "x": [1, 1, 1],
            "gamma": [1, 1, 1],
            "c": [0.0, 0.0, 0.0],
        }
    )
    tables = binary_search(inst, epsilon=1e-6)
    assert tables.early_exit is not None
    assert np.array_equal(tables.early_exit.d, np.zeros(3))
    assert tables.early_exit.objective == pytest.approx(0.0)  # alpha * TV(x)
    assert tables.iterations == 0
    assert tables.lambda_star == 0.0
    assert 0.0 in tables.lambdas

    # zero costs with removable jumps: still exits at multiplier 0, but the
    # extracted optimum flattens the control instead of standing still
    bumpy = validate(
        {
            "n": 3,
            "alpha": 0.5,
            "delta": 2,
            "xi": [0, 1],
            "x": [0, 1, 0],
            "gamma": [1, 1, 1],
            "c": [0.0, 0.0, 0.0],
        }
    )
    tables = binary_search(bumpy, epsilon=1e-6)
    assert tables.early_exit is not None
    assert tables.early_exit.objective == pytest.approx(
        solve_topo(bumpy).objective, abs=1e-12
    )


def test_binary_search_iteration_bound_and_accuracy():
    grid = np.arange(0.0, 1.0, 1.0)  # placeholder, rebuilt per instance
    for inst in small_instances(60, seed=600):
        eps = 1e-5
        tables = binary_search(inst, epsilon=eps)
        upper0 = float(np.max(np.abs(inst.c))) + 2 * inst.alpha
        bound = math.ceil(math.log2(max(upper0 / eps, 1.0))) + 1
        assert tables.iterations <= bound
        if tables.early_exit is not None:
            topo = solve_topo(inst)
            assert tables.early_exit.objective == pytest.approx(
                topo.objective, abs=1e-9
            )
            continue
        grid = np.arange(0.0, upper0 + 1e-4, 1e-4)
        dual = dual_grid(inst, grid)
        best = dual.max()
        maximizers = grid[dual >= best - 1e-12]
        dist = np.min(np.abs(maximizers - tables.lambda_star))
        assert dist <= eps + 1e-4 + 1e-9


def test_binary_search_bracket_invariant():
    # replay the evaluation log and check a certified maximizer stays inside
    for inst in small_instances(30, seed=700):
        eps = 1e-4
        tables = binary_search(inst, epsilon=eps)
        upper0 = float(np.max(np.abs(inst.c))) + 2 * inst.alpha
        grid = np.arange(0.0, upper0 + 1e-4, 1e-4)
        dual = dual_grid(inst, grid)
        certified = grid[np.argmax(dual)]
        lo, hi = 0.0, upper0
        for lam, _, res in tables.log:
            if res > inst.delta:
                lo = lam
            elif res == inst.delta:
                break
            else:
                hi = lam
            assert lo - 1e-9 - 1e-4 <= certified <= hi + 1e-9 + 1e-4
        assert tables.upper_bound >= tables.dual_bound() - 1e-9


def test_dual_lower_bound(corpus200):
    for inst in corpus200[:40]:
        tables = binary_search(inst, epsilon=1e-6)
        topo = solve_topo(inst)
        for table in tables.zeta:
            lower = table.source_cost - table.lam * inst.delta
            assert lower <= topo.objective + 1e-9


def test_lemma_large_multiplier_matches_zero_step():
    for inst in small_instances(40, seed=800):
        lam = float(np.max(np.abs(inst.c))) + 2.0 * inst.alpha
        table = relaxed_costs_to_sink(inst, [lam])[0]
        want = relaxed_objective(inst, np.zeros(inst.n, dtype=int), lam)
        got = table.source_cost - lam * inst.delta
        assert got == pytest.approx(want, abs=1e-9)


def test_heuristic_consistency_exhaustive():
    for inst in small_instances(25, seed=900):
        tables = binary_search(inst, epsilon=1e-6)
        graph = build_explicit(inst)
        h = [heuristic_h(inst, tables, v) for v in graph.nodes]
        assert heuristic_h(inst, tables, sink_node(inst)) == 0.0
        for u, v, w, _ in graph.edges():
            assert w + h[v] - h[u] >= -1e-9


def test_heuristic_table_matches_pointwise(derived3):
    tables = binary_search(derived3, epsilon=1e-3)
    dense = heuristic_table(derived3, tables)
    lo, _ = reach_windows(derived3)
    graph = build_explicit(derived3)
    for node in graph.nodes:
        if 1 <= node.layer <= derived3.n:
            assert dense[
                node.layer - 1, node.value_index - lo[node.layer - 1], node.capacity
            ] == pytest.approx(heuristic_h(derived3, tables, node), abs=1e-12)


def test_windowed_heuristic_table_equals_heuristic_h():
    checked = 0
    for inst in radius_corpus(60):
        tables = binary_search(inst, epsilon=1e-3)
        h = heuristic_table(inst, tables)
        lo, hi = reach_windows(inst)
        assert h.shape == (inst.n, int((hi - lo).max()), inst.delta + 1)
        for layer in range(1, inst.n + 1):
            for j in range(lo[layer - 1], hi[layer - 1]):
                for eta in range(inst.delta + 1):
                    node = NodeRef(layer, j, eta)
                    assert h[layer - 1, j - lo[layer - 1], eta] == heuristic_h(
                        inst, tables, node
                    )
                    checked += 1
    assert checked > 0


def test_early_exit_matches_topo(corpus200):
    exits = 0
    for inst in corpus200:
        tables = binary_search(inst, epsilon=1e-6)
        if tables.early_exit is None:
            continue
        exits += 1
        topo = solve_topo(inst)
        assert tables.early_exit.objective == pytest.approx(
            topo.objective, abs=1e-9
        )
        assert tables.early_exit.resource <= inst.delta
    assert exits > 0  # the corpus must exercise the exit path


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
def test_epsilon_must_be_positive(derived3, epsilon):
    with pytest.raises(ValueError, match="finite and positive"):
        binary_search(derived3, epsilon=epsilon)


def sequential_cutting_plane(inst, epsilon):
    """binary_search's contract, one relaxed_costs_to_sink call per
    evaluated multiplier: (lambdas in evaluation order, tables, log,
    iterations, lambda_star, incumbent step, early-exit step and the
    iteration count each was found at, and whether a cut test stopped the
    search)."""
    lambdas, zeta, log = [], [], []
    state = {"iterations": 0, "upper": math.inf, "incumbent": None}

    def evaluate(lam):
        table = relaxed_costs_to_sink(inst, [lam])[0]
        lambdas.append(table.lam)
        zeta.append(table)
        value = table.source_cost - lam * inst.delta
        log.append((table.lam, value, table.source_res))
        path_cost = table.source_cost - lam * table.source_res
        return extract_path_step(inst, table), (lam, path_cost, table.source_res, value)

    def note_feasible(d):
        if objective(inst, d) < state["upper"]:
            state["upper"] = objective(inst, d)
            state["incumbent"] = (d, state["iterations"])

    def finish(lam_star, optimal, on_cut=False):
        exit_ = None if optimal is None else (optimal, state["iterations"])
        return (lambdas, zeta, log, state["iterations"], lam_star,
                state["incumbent"], exit_, on_cut)

    d0, lo = evaluate(0.0)
    if lo[2] <= inst.delta:
        return finish(0.0, d0)
    upper0 = float(np.max(np.abs(inst.c))) + 2.0 * inst.alpha
    d_up, hi = evaluate(upper0)
    if hi[2] == inst.delta:
        return finish(upper0, d_up)
    note_feasible(d_up)
    while hi[0] - lo[0] >= epsilon:
        best = hi if hi[3] > lo[3] else lo
        cut = (hi[1] - lo[1]) / (lo[2] - hi[2])
        model = lo[1] + cut * (lo[2] - inst.delta)
        if model - best[3] <= epsilon:
            return finish(best[0], None, on_cut=True)
        if not lo[0] < cut < hi[0]:
            cut = 0.5 * (lo[0] + hi[0])
        state["iterations"] += 1
        for second in (False, True):
            lam = 0.5 * (lo[0] + hi[0]) if second else cut
            d, end = evaluate(lam)
            if end[2] == inst.delta:
                return finish(lam, d)
            if end[2] < inst.delta:
                note_feasible(d)
            if model - end[3] <= epsilon:
                return finish(lam, None, on_cut=True)
            if end[2] > inst.delta:
                lo = end
            else:
                hi = end
    best = hi if hi[3] > lo[3] else lo
    return finish(best[0], None)


def assert_tables_equal(a, b):
    assert a.lam == b.lam
    assert np.array_equal(a.cost, b.cost)
    assert np.array_equal(a.res, b.res)
    assert np.array_equal(a.choice, b.choice)
    assert (a.source_cost, a.source_res, a.source_choice) == (
        b.source_cost, b.source_res, b.source_choice
    )


def assert_matches_sequential(inst, eps, tables) -> bool:
    """binary_search's result tables equal sequential_cutting_plane's;
    True when the search exited with a proven optimum."""
    lambdas, zeta, log, iterations, lam_star, incumbent, exit_, _ = (
        sequential_cutting_plane(inst, eps)
    )
    order = np.argsort(lambdas)
    assert tables.lambdas == [lambdas[k] for k in order]
    for got, k in zip(tables.zeta, order):
        assert_tables_equal(got, zeta[k])
    assert tables.log == log
    assert tables.iterations == iterations
    assert tables.lambda_star == lam_star
    for sol, want in ((tables.incumbent, incumbent), (tables.early_exit, exit_)):
        assert (sol is None) == (want is None)
        if want is not None:
            assert np.array_equal(sol.d, want[0])
            assert sol.stats.preprocessing_iterations == want[1]
    return exit_ is not None


def test_binary_search_matches_sequential_cutting_plane():
    exits = searched = 0
    for inst in equivalence_instances():
        for eps in (1e-6, 1e-3, 0.3):
            exited = assert_matches_sequential(inst, eps, binary_search(inst, eps))
            exits += exited
            searched += not exited
    assert exits > 0 and searched > 0  # both ends of the search are covered


def test_cached_searches_match_sequential_cutting_plane():
    for inst in equivalence_instances(80, seed=1500):
        cache = RadiusCache()
        for delta in halving(inst.delta):
            at = dataclasses.replace(inst, delta=delta)
            tables = binary_search(at, 1e-3, cache=cache)
            assert_matches_sequential(at, 1e-3, tables)
            for sol in (tables.incumbent, tables.early_exit):
                if sol is not None:
                    sol.d += 1  # the cache keeps its own copy of every step


def exact_dual_optimum(inst, upper0):
    """The largest value on [0, upper0] of the lower envelope of the path
    lines c_P + lam * (r_P - delta), from enumeration: the envelope is
    evaluated at 0, upper0 and every pairwise intersection of the lines."""
    steps = enumerate_steps(inst)
    cost = steps @ inst.c + inst.alpha * np.abs(
        np.diff(inst.x[None, :] + steps, axis=1)
    ).sum(axis=1)
    slope = np.abs(steps) @ inst.gamma - inst.delta
    cheapest = {}  # only the cheapest line of each slope can be on the envelope
    for a, b in zip(cost.tolist(), slope.tolist()):
        cheapest[b] = min(cheapest.get(b, math.inf), a)
    b = np.array(list(cheapest), dtype=np.float64)
    a = np.array(list(cheapest.values()))
    points = [0.0, upper0]
    for i, j in itertools.combinations(range(len(a)), 2):
        lam = (a[j] - a[i]) / (b[i] - b[j])
        if 0.0 <= lam <= upper0:
            points.append(lam)
    return max(float(np.min(a + lam * b)) for lam in points)


def replayed_widths(inst, tables):
    """Bracket widths before and after each round, replayed from the log,
    with the number of evaluations that moved an end. A round that stops
    the search before both of its evaluations move an end is the last."""
    lo, hi = 0.0, tables.log[1][0]
    rounds = [tables.log[k:k + 2] for k in range(2, len(tables.log), 2)]
    widths = []
    for k, entries in enumerate(rounds):
        before, moved = hi - lo, 0
        for lam, _, res in entries:
            assert lo < lam < hi
            if res > inst.delta:
                lo, moved = lam, moved + 1
            elif res < inst.delta:
                hi, moved = lam, moved + 1
        assert moved == 2 or k == len(rounds) - 1
        widths.append((before, hi - lo, moved))
    return widths


def test_search_reaches_the_exact_dual_optimum():
    on_cut = halvings = 0
    for inst in small_instances(120, seed=1600):
        upper0 = float(np.max(np.abs(inst.c))) + 2.0 * inst.alpha
        optimum = exact_dual_optimum(inst, upper0)
        for eps in (1e-10, 1e-3):
            tables = binary_search(inst, eps)
            *_, lam_star, _, _, stopped_on_cut = sequential_cutting_plane(inst, eps)
            assert tables.lambda_star == lam_star
            assert tables.dual_bound() <= optimum + 1e-9
            if stopped_on_cut:  # the optimum within 1e-9, or within a coarse eps
                assert tables.dual_bound() >= optimum - max(eps, 1e-9)
                on_cut += 1
            if tables.early_exit is not None and len(tables.log) == 1:
                continue  # exit at multiplier 0: no bracket
            widths = replayed_widths(inst, tables)
            assert len(widths) == tables.iterations
            for before, after, moved in widths:
                if moved == 2:
                    assert after <= 0.5 * before + 1e-12 * upper0
                    halvings += 1
    assert on_cut > 0 and halvings > 0


def test_relaxed_sweep_matches_reference_sweep():
    for inst in equivalence_instances(60, seed=1300):
        lams = [0.0, 0.37, 1.0, 2.5]
        batch = relaxed_costs_to_sink(inst, lams)
        for lam, got in zip(lams, batch):
            single = relaxed_costs_to_sink(inst, [lam])[0]
            assert_tables_equal(got, single)
            cost, res, choice, source = reference_sweep(inst, lam)
            assert np.array_equal(single.cost, cost)
            assert np.array_equal(single.res, res)
            assert np.array_equal(single.choice, choice)
            assert (single.source_cost, single.source_res, single.source_choice) == source


def counting_lex_min(monkeypatch) -> list[int]:
    """Count the calls of lagrange._lex_min: one per layer that falls back
    from the dominance test, plus one for the source."""
    calls = [0]
    lex_min = tripsolve.lagrange._lex_min

    def counted(*args):
        calls[0] += 1
        return lex_min(*args)

    monkeypatch.setattr(tripsolve.lagrange, "_lex_min", counted)
    return calls


@pytest.mark.parametrize(
    "gap, dominated",
    [
        (0.0, False),
        (0.5 * COST_TIE_TOL, False),
        (COST_TIE_TOL, False),
        (2.0 * COST_TIE_TOL, True),
        (1.0, True),
    ],
)
def test_dominance_margin_boundary(monkeypatch, gap, dominated):
    # At lam = 0 the last inner layer has g = c_2 * (xi - x_2) = [-c_2, 0]
    # and column 0 beats column 1 by g[1] - g[0] - jump[0, 1] = c_2 - alpha
    # = gap. Up to COST_TIE_TOL the two tie in row 1, whose budget rule
    # then picks column 1, so the layer must fall back to _lex_min there.
    alpha = 0.5
    inst = validate(
        {"n": 2, "alpha": alpha, "delta": 2, "xi": [0, 1], "x": [1, 1],
         "gamma": [1, 1], "c": [0.25, alpha + gap]}
    )
    calls = counting_lex_min(monkeypatch)
    assert_matches_reference_sweep(inst, [0.0])
    assert calls[0] == (1 if dominated else 2)  # the source always calls it
    # lam = 3 makes column 1 dominant; the layer is one decision for both
    calls[0] = 0
    assert_matches_reference_sweep(inst, [3.0])
    assert calls[0] == 1
    calls[0] = 0
    assert_matches_reference_sweep(inst, [0.0, 3.0])
    assert calls[0] == (1 if dominated else 2)


def test_dominance_test_passes_on_heat_layers(monkeypatch):
    problem = make_heat_problem(64)
    x = np.zeros(problem.n, dtype=np.int64)
    inst = validate(
        {"n": problem.n, "alpha": 1e-4, "delta": 8, "xi": problem.xi.tolist(),
         "x": x.tolist(), "gamma": problem.gamma.tolist(),
         "c": problem.gradient_coeffs(x).tolist()}
    )
    upper0 = float(np.max(np.abs(inst.c))) + 2.0 * inst.alpha
    lams = [0.0, 0.01 * upper0, 0.5 * upper0, upper0]
    calls = counting_lex_min(monkeypatch)
    assert_matches_reference_sweep(inst, lams)
    assert calls[0] < inst.n  # without the test: n - 1 layers and the source


@pytest.mark.parametrize(
    "n, xi",
    [
        (2, list(range(300))),  # a layer's (2, 300, 300) totals: 1.44 MB
        (100000, [0]),  # (100000, 2, 1) tables: 1.6 MB each
        (20000, list(range(7))),  # (20000, 2, 7) tables: 2.24 MB each
    ],
)
def test_relaxed_sweep_tables_checked_before_allocation(monkeypatch, n, xi):
    # the (n, K, m) tables are checked before edge_terms allocates its
    # (n, m) terms, the (K, m, m) totals right after its (m, m) jump table
    monkeypatch.setattr(tripsolve.instance, "TABLE_BYTES_CAP", 1_000_000)
    inst = validate(
        {"n": n, "alpha": 1.0, "delta": 10, "xi": xi, "x": [0] * n,
         "gamma": [1] * n, "c": [-1.0] * n}
    )
    tracemalloc.start()
    try:
        with pytest.raises(InstanceError, match="relaxed sweep tables"):
            solve_astar(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
