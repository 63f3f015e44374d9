import dataclasses
import functools
import inspect
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import tripsolve.astar
import tripsolve.instance
import tripsolve.lagrange
from tripsolve.astar import solve_astar
from tripsolve.graph import NodeRef, edge_terms, reach_windows
from graph_reference import build_explicit, enumerate_steps, sink_node
from astar_reference import (
    assert_matches_reference_sweep,
    dense_heuristic_table,
    heuristic_h,
    full_windows,
    lex_min_rows,
    reference_sweep,
    relaxed_objective,
    sweep_tie,
    window_steps,
)
from conftest import equivalence_instances, halving, radius_corpus
from tripsolve.instance import (
    InstanceError,
    RadiusCache,
    TripInstance,
    budget_cap,
    objective,
    validate,
)
from tripsolve.lagrange import (
    LagrangeTables,
    binary_search,
    default_epsilon,
    extract_path_step,
    heuristic_table,
    relaxed_costs_to_sink,
)
from tripsolve.oracle import gen_random, knapsack_reduce
from tripsolve.slip import make_heat_problem
from tripsolve.topo import solve_topo


def window_shifts(inst, i):
    """The shifts of layer i within its reach window: gamma_i |d| <= delta."""
    shifts = inst.shifts(i)
    return shifts[inst.gamma[i - 1] * np.abs(shifts) <= inst.delta]


def suffix_oracle(inst, lam, layer, value_index):
    """Exhaustive (cost, min budget among tied costs) over all continuations
    from a given (layer, value) class to the sink through the reach
    windows, costs within the relaxed sweep's tie (sweep_tie) tying."""
    tie = sweep_tie(inst, lam)
    shifts = [window_shifts(inst, i) for i in range(layer + 1, inst.n + 1)]
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
        if cost < best[0] - tie or (cost <= best[0] + tie and res < best[1]):
            best = (min(cost, best[0]), res)
    return best


def dual_grid(inst, lambdas):
    """Relaxed optimum -lam*delta + min over the paths through the reach
    windows of (cost + lam*budget), evaluated for a whole grid of
    multipliers at once by enumeration."""
    steps = window_steps(inst)
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
    table = relaxed_costs_to_sink(derived3, 0.7)
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
    table = relaxed_costs_to_sink(inst, 0.9)
    assert np.all(table.cost == 0.0)
    assert np.all(table.res == 0)  # the zero continuation wins the tie


def test_zeta_matches_suffix_enumeration(derived3):
    for lam in (0.0, 0.3, 1.0, 4.0):
        table = relaxed_costs_to_sink(derived3, lam)
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
    table = relaxed_costs_to_sink(inst, 0.0)
    assert table.cost[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert table.res[0, 1] == 1


def test_zeta_random_instances():
    for inst in small_instances(25, seed=300):
        lo, hi = reach_windows(inst)
        for lam in (0.0, 0.5, 2.0):
            table = relaxed_costs_to_sink(inst, lam)
            for j in range(lo[0], hi[0]):
                cost, res = suffix_oracle(inst, lam, 1, j)
                assert table.cost[0, j] == pytest.approx(cost, abs=1e-9)
                assert table.res[0, j] == res


def test_extracted_path_minimizes_resource_among_ties():
    for inst in small_instances(40, seed=400):
        for lam in (0.0, 0.25, 1.5):
            table = relaxed_costs_to_sink(inst, lam)
            steps = window_steps(inst)
            cost = steps @ inst.c + inst.alpha * np.abs(
                np.diff(inst.x[None, :] + steps, axis=1)
            ).sum(axis=1)
            res = np.abs(steps) @ inst.gamma
            total = cost + lam * res
            tied = total <= total.min() + sweep_tie(inst, lam)
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
        table = relaxed_costs_to_sink(inst, lam)
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


def kept_table_instances():
    """Two instances whose reach windows narrow at every halving of the
    radius 8, and on which a search at a smaller radius evaluates the
    multipliers of a larger one: the heat problem at n = 16 linearised at
    one of its trust-region iterates, alpha 1e-4, reusing at radius 2 the
    table of radius 4; and a three-item knapsack reduction, reusing at
    radius 4 the table of radius 8."""
    problem = make_heat_problem(16)
    x = [0] * 5 + [-1, -2] + [0] * 9
    heat = validate(
        {"n": 16, "alpha": 1e-4, "delta": 8, "xi": problem.xi.tolist(), "x": x,
         "gamma": problem.gamma.tolist(),
         "c": problem.gradient_coeffs(np.array(x)).tolist()}
    )
    knapsack = knapsack_reduce([6.0, 7.0, 13.0], [1, 2, 8], 8, 1.0).instance
    return [heat, knapsack]


def window_values(inst):
    """The number of nodes in the reach windows of inst."""
    lo, hi = reach_windows(inst)
    return int((hi - lo).sum())


def kept_table(inst, tables, noted):
    """heuristic_table(inst, tables) through the record of tables and
    whether it built the table, told by the identity of the record's kept
    table. Every table it returns is noted in noted by a weak reference, and
    none of the noted tables may be alive when it allocates a table: at most
    one is ever alive. The record keeps the table it returns."""
    record = tables.record
    kept = None if record.htable is None else weakref.ref(record.htable)
    empty = np.empty

    def allocated(*args, **kwargs):
        assert all(ref() is None for ref in noted)
        return empty(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "empty", allocated)
        table = heuristic_table(inst, tables)
    assert record.htable is table
    built = kept is None or kept() is not table
    if built:
        noted.append(weakref.ref(table))
    return table, built


def assert_reads_fresh_entries(inst, tables, table):
    """The entries a search at inst.delta reads from table, the windows of
    inst at capacities 0..inst.delta, are bitwise those of a table built
    afresh from the multipliers of tables over those windows; the rows of
    table start at the windows of its record."""
    start = tables.record.windows[0]
    lo, hi = reach_windows(inst)
    caps = np.arange(inst.delta + 1, dtype=np.float64)
    for l in range(inst.n):
        fresh = np.full((hi[l] - lo[l], inst.delta + 1), -np.inf)
        for t in tables.zeta:
            np.maximum(fresh, t.cost[l, lo[l]:hi[l], None] - t.lam * caps, out=fresh)
        got = table[l, lo[l] - start[l]:hi[l] - start[l], :inst.delta + 1]
        assert got.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("inst", kept_table_instances(), ids=["heat", "knapsack"])
def test_cache_keeps_one_heuristic_table(inst):
    cache, noted, reused = RadiusCache(), [], 0
    for delta in (8, 4, 2):
        at = dataclasses.replace(inst, delta=delta)
        tables = binary_search(at, default_epsilon(at), cache)
        table, built = kept_table(at, tables, noted)
        if not built:  # a table of a larger radius, over wider windows
            assert table.shape[2] - 1 > delta
            wider = dataclasses.replace(at, delta=table.shape[2] - 1)
            assert window_values(wider) > window_values(at)
            reused += 1
        assert_reads_fresh_entries(at, tables, table)
        # the same multipliers at the same radius: no rebuild
        assert kept_table(at, tables, noted) == (table, False)
        del table
    assert reused == 1

    # at radius 2, a table is rebuilt for other multipliers
    assert len(tables.zeta) > 1
    fewer = dataclasses.replace(tables, zeta=tables.zeta[1:])
    assert kept_table(at, fewer, noted)[1]
    assert kept_table(at, tables, noted)[1]
    # above the kept table's radius, with the same multipliers and record
    above = dataclasses.replace(inst, delta=4)
    assert kept_table(above, dataclasses.replace(tables, inst=above), noted)[1]
    # for another instance, which gets a record of its own; fewer would keep
    # the record the cache drops alive, and its table with it
    del fewer
    other = dataclasses.replace(inst, c=-inst.c)
    tables = binary_search(other, default_epsilon(other), cache)
    assert kept_table(other, tables, noted)[1]
    # and for a record rebuilt at a larger radius
    other = dataclasses.replace(at, c=-inst.c)
    tables = binary_search(other, default_epsilon(other), cache)
    larger = dataclasses.replace(other, delta=16)
    tables = binary_search(larger, default_epsilon(larger), cache)
    assert kept_table(larger, tables, noted)[1]
    assert_reads_fresh_entries(larger, tables, tables.record.htable)


@pytest.mark.parametrize("block", ["one row", "uneven", "whole table"])
def test_heuristic_table_is_the_same_in_any_block(monkeypatch, block):
    # heuristic_table fills its capacity rows a block at a time: one row per
    # block, a number of rows that does not divide R + 1, and the whole
    # table in one block all give the entries of a fresh build, padding
    # included, byte for byte
    for inst in kept_table_instances() + knapsack_instances(count=3):
        tables = binary_search(inst, default_epsilon(inst))
        cols = tables.record.windows[2]
        row = inst.n * (inst.m if cols is None else cols.shape[1])
        width = inst.delta + 1
        default = np.ascontiguousarray(heuristic_table(inst, tables))
        rows = next(r for r in range(2, width) if width % r) if block == "uneven" else 1
        size = row * width + 1 if block == "whole table" else row * rows
        monkeypatch.setattr(tripsolve.lagrange, "_HTABLE_BLOCK", size)
        tables.record.htable = None
        table = heuristic_table(inst, tables)
        assert table.shape == default.shape
        assert np.ascontiguousarray(table).tobytes() == default.tobytes()
        assert_reads_fresh_entries(inst, tables, table)
        monkeypatch.undo()


def test_heuristic_table_is_the_maximum_over_its_tables(monkeypatch):
    # tables built by hand from one, two and three swept tables, in every
    # order: every slot, padding included, is the largest cost - lam *
    # capacity over the tables, and the windows' slots are those of the
    # dense table. Blocks of two capacity rows, so that several blocks are
    # written, the last one short. The heat windows all hold 11 of 26
    # values; the knapsack's hold 1 or 2, so its table has padding
    padded = False
    for inst in (heat_instance(), benchmark_knapsack()):
        record = tripsolve.lagrange.Sweeps(inst)
        upper0 = float(np.max(np.abs(inst.c))) + 2.0 * inst.alpha
        swept = [record.table(lam) for lam in (0.0, 0.3 * upper0, upper0)]
        lo, hi, cols, pad = record.windows
        padded |= bool(pad.any())
        monkeypatch.setattr(tripsolve.lagrange, "_HTABLE_BLOCK", 2 * cols.size)
        assert (inst.delta + 1) % 2 == 1
        caps = np.arange(inst.delta + 1, dtype=np.float64)
        layers = np.arange(inst.n)[:, None]
        for k in (1, 2, 3):
            for order in itertools.permutations(swept, k):
                tables = LagrangeTables(inst=inst, record=record, zeta=list(order))
                h = np.ascontiguousarray(heuristic_table(inst, tables))
                want = functools.reduce(
                    np.maximum, [t.cost[layers, cols][:, :, None] - t.lam * caps for t in order]
                )
                assert h.tobytes() == want.tobytes()
                dense = dense_heuristic_table(inst, tables)
                for l in range(inst.n):
                    got = h[l, :hi[l] - lo[l]]
                    assert got.tobytes() == dense[l, lo[l]:hi[l]].tobytes()
    assert padded
    with pytest.raises(ValueError, match="at least one evaluated multiplier"):
        heuristic_table(inst, LagrangeTables(inst=inst, record=record))


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


def sequential_cutting_plane(inst, epsilon, built=None, bisected=None):
    """binary_search's contract, one relaxed_costs_to_sink call per
    evaluated multiplier, over the reach windows of built, the instance a
    cache entry was built for (inst itself without a cache): (lambdas in
    evaluation order, tables, log, iterations, lambda_star, incumbent step,
    early-exit step and the iteration count each was found at, and whether
    a cut test stopped the search). bisected, when given, gets the number
    of each round whose cut fell outside the open bracket, so that the
    round bisects instead."""
    lambdas, zeta, log = [], [], []
    state = {"iterations": 0, "upper": math.inf, "incumbent": None}

    def evaluate(lam):
        table = relaxed_costs_to_sink(built or inst, lam)
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
        state["iterations"] += 1
        if not lo[0] < cut < hi[0]:
            cut = 0.5 * (lo[0] + hi[0])
            if bisected is not None:
                bisected.append(state["iterations"])
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


def assert_matches_sequential(inst, eps, tables, built=None, bisected=None) -> bool:
    """binary_search's result tables equal sequential_cutting_plane's;
    True when the search exited with a proven optimum."""
    lambdas, zeta, log, iterations, lam_star, incumbent, exit_, _ = (
        sequential_cutting_plane(inst, eps, built, bisected)
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
            # the cache sweeps over the windows of the first, largest radius
            assert_matches_sequential(at, 1e-3, tables, built=inst)
            for sol in (tables.incumbent, tables.early_exit):
                if sol is not None:
                    sol.d += 1  # the cache keeps its own copy of every step


def test_the_search_sweeps_only_the_multipliers_it_evaluates(monkeypatch):
    # one multiplier per sweep, as the search evaluates it, and none twice
    # per record, fresh or through a cache over halving radii
    sweep = tripsolve.lagrange.relaxed_costs_to_sink
    calls = []

    def logged(inst, lam, entry=None):
        calls.append((entry, lam))
        return sweep(inst, lam, entry)

    monkeypatch.setattr(tripsolve.lagrange, "relaxed_costs_to_sink", logged)
    for inst in equivalence_instances():
        calls.clear()
        fresh = [binary_search(inst, 1e-3)]
        cache = RadiusCache()
        cached = [
            binary_search(dataclasses.replace(inst, delta=delta), 1e-3, cache)
            for delta in halving(inst.delta)
        ]
        for searches in (fresh, cached):
            record = searches[0].record
            assert all(tables.record is record for tables in searches)
            swept = [lam for entry, lam in calls if entry is record]
            assert len(swept) == len(set(swept))
            logged_lams = {lam for tables in searches for lam, _, _ in tables.log}
            assert set(swept) == set(record.swept) == logged_lams
        assert len(calls) == len(fresh[0].record.swept) + len(cached[0].record.swept)


def test_rounds_bisect_where_the_cut_leaves_the_bracket():
    # at the smallest positive epsilon the bracket narrows until the ends'
    # lines no longer meet strictly inside it, and the round bisects
    rng = np.random.default_rng(2300)
    bisections = 0
    for k in range(300):
        n, m = int(rng.integers(3, 12)), int(rng.integers(2, 6))
        delta = int(rng.integers(1, 2 * n + 1))
        inst = gen_random(n, m, delta, float(rng.choice([0.0, 0.1, 1.0])), seed=2300 + k)
        inst = dataclasses.replace(inst, gamma=np.ones(n, dtype=np.int64))
        bisected = []
        assert_matches_sequential(inst, 5e-324, binary_search(inst, 5e-324), bisected=bisected)
        bisections += len(bisected)
    assert bisections > 0


def exact_dual_optimum(inst, upper0):
    """The largest value on [0, upper0] of the lower envelope of the lines
    c_P + lam * (r_P - delta) of the paths P through the reach windows, from
    enumeration: the envelope is evaluated at 0, upper0 and every pairwise
    intersection of the lines."""
    steps = window_steps(inst)
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
        for lam in (0.0, 0.37, 1.0, 2.5):
            assert_matches_reference_sweep(inst, lam)


def test_lex_min_breaks_cost_ties_by_budget_then_column():
    # small-integer costs tie exactly, and within ties of 0.5 and 1 too; in
    # many rows the smallest tied key sits right of another tied entry of a
    # larger budget, so the budget decides, not the first tied column
    rng = np.random.default_rng(2400)
    m, by_budget = 9, 0
    for _ in range(200):
        rows, w = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        start = int(rng.integers(0, m - w + 1))
        total = rng.integers(0, 3, size=(rows, w)).astype(np.float64)
        budget = rng.integers(0, 4, size=w)
        key = budget * m + np.arange(start, start + w)
        for tie in (0.0, 0.5, 1.0):
            cost, got_budget, col = tripsolve.lagrange._lex_min(total, key, m, start, tie)
            idx, want_cost, want_budget = lex_min_rows(total, budget, tie)
            assert np.array_equal(col, idx + start)
            assert cost.tobytes() == want_cost.tobytes()
            assert np.array_equal(got_budget, want_budget)
            first_tied = (total <= total.min(axis=1, keepdims=True) + tie).argmax(axis=1)
            by_budget += int(np.count_nonzero(idx > first_tied))
    assert by_budget > 0


def benchmark_knapsack():
    """A 48-item strongly correlated knapsack reduction, drawn as the
    knapsack-replay benchmark draws its largest: windows of 1-2 of its 97
    values."""
    rng = np.random.default_rng(0)
    weights = rng.integers(1, 20, size=48)
    values = weights + 5.0 + rng.uniform(0.0, 0.01, size=48)
    capacity = int(weights.sum()) // 3
    return knapsack_reduce(values.tolist(), weights.tolist(), capacity, 1.0).instance


def test_relaxed_sweep_matches_reference_sweep_at_benchmark_scale():
    # the heat instance with full windows and with its own, and a knapsack
    # of the benchmark's largest size, at both ends of the multiplier
    # search, half way, and at every multiplier the search evaluates; with
    # full windows the search exits at lam = 0, on the others it runs rounds
    heat = heat_instance()
    at_cap = dataclasses.replace(heat, delta=budget_cap(heat.n, heat.xi, heat.gamma))
    evaluated = []
    for inst in (at_cap, heat, benchmark_knapsack()):
        upper0 = float(np.max(np.abs(inst.c))) + 2.0 * inst.alpha
        lams = binary_search(inst, default_epsilon(inst)).lambdas
        evaluated.append(len(lams))
        for lam in [0.0, upper0 / 2, upper0] + lams:
            assert_matches_reference_sweep(inst, lam)
    assert evaluated[0] == 1 and min(evaluated[1:]) > 2


def knapsack_instances(count=8, seed=1700):
    """Strongly correlated knapsack reductions, 3-10 items: the windows
    hold 1-2 of their 2 * items + 1 values."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        weights = rng.integers(1, 20, size=int(rng.integers(3, 11)))
        values = weights + 5.0 + rng.uniform(0.0, 0.01, size=weights.size)
        capacity = int(weights.sum()) // 3
        out.append(
            knapsack_reduce(values.tolist(), weights.tolist(), capacity, 1.0).instance
        )
    return out


def test_windowed_dual_lies_between_full_dual_and_optimum():
    knapsacks = knapsack_instances()
    for k, inst in enumerate(equivalence_instances(120, seed=1800) + knapsacks):
        tables = binary_search(inst, 1e-6)
        full = max(
            reference_sweep(inst, t.lam, full_windows(inst))[3][0] - t.lam * inst.delta
            for t in tables.zeta
        )
        bound = tables.dual_bound()
        assert bound >= full - 1e-9
        assert bound <= solve_topo(inst).objective + 1e-9
        if k >= 120:  # a knapsack: the windows make the bound far tighter
            assert bound > full + 1.0


def test_full_windows_sweep_the_whole_graph():
    # at budget_cap every window holds every value: the tables are bitwise
    # those of the sweep over the whole graph
    heat = make_heat_problem(64)
    x = np.zeros(heat.n, dtype=np.int64)
    at_cap = [
        validate(
            {"n": heat.n, "alpha": 1e-4, "delta": budget_cap(heat.n, heat.xi, heat.gamma),
             "xi": heat.xi.tolist(), "x": x.tolist(), "gamma": heat.gamma.tolist(),
             "c": heat.gradient_coeffs(x).tolist()}
        )
    ]
    for inst in equivalence_instances(60, seed=1900):
        at_cap.append(
            dataclasses.replace(inst, delta=budget_cap(inst.n, inst.xi, inst.gamma))
        )
    for inst in at_cap:
        lo, hi = reach_windows(inst)
        assert (lo == 0).all() and (hi == inst.m).all()
        for lam in (0.0, 0.37, 1.0, 2.5):
            got = relaxed_costs_to_sink(inst, lam)
            cost, res, choice, source = reference_sweep(inst, lam, full_windows(inst))
            assert got.cost.tobytes() == cost.tobytes()
            assert np.array_equal(got.res, res)
            assert np.array_equal(got.choice, choice)
            assert (got.source_cost, got.source_res, got.source_choice) == source


def test_entries_outside_the_windows_have_no_path():
    outside_seen = 0
    for inst in equivalence_instances(80, seed=2000) + knapsack_instances():
        lo, hi = reach_windows(inst)
        cols = np.arange(inst.m)[None, :]
        outside = (cols < lo[:, None]) | (cols >= hi[:, None])
        outside_seen += int(outside.sum())
        for table in binary_search(inst, 1e-6).zeta:
            assert np.all(table.cost[outside] == np.inf)
            assert np.all(table.choice[outside] == -1)
            assert np.all(np.isfinite(table.cost[~outside]))
    assert outside_seen > 0


def test_sweeps_record_computes_its_terms_once(monkeypatch):
    # the edge terms and the windows depend on the instance alone: a Sweeps
    # record's first sweep computes them and its later sweeps reuse them
    calls = {"edge_terms": 0, "reach_windows": 0, "relaxed_costs_to_sink": 0}
    for name in calls:
        fn = getattr(tripsolve.lagrange, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(tripsolve.lagrange, name, counted)
    knapsacks = knapsack_instances()
    searched = [binary_search(inst, 1e-6) for inst in knapsacks]
    assert calls["edge_terms"] == calls["reach_windows"] == len(knapsacks)
    assert calls["relaxed_costs_to_sink"] > 2 * len(knapsacks)
    monkeypatch.undo()
    for inst, tables in zip(knapsacks, searched):
        for table in tables.zeta:
            fresh = relaxed_costs_to_sink(inst, table.lam)
            assert table.cost.tobytes() == fresh.cost.tobytes()
            assert np.array_equal(table.res, fresh.res)
            assert np.array_equal(table.choice, fresh.choice)


# the private functions of lagrange a sweep may call outside the layer steps
SWEEP_SETUP = {"_window_tables", "_bulk_pass", "_winners", "_pick", "_jump_rows"}


def swept_layer_kinds(inst, lam) -> dict[str, int]:
    """Sweep lam on inst, check the table against reference_sweep bit for
    bit, and count the sweep's layer steps by kind: decided in bulk (before
    the loop) and _lex_min (its calls less the source's). A layer step is one
    of these two: the sweep calls no other private function of lagrange."""
    calls = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in vars(tripsolve.lagrange).copy().items():
            if name.startswith("_") and inspect.isfunction(fn):

                def counted(*args, fn=fn, name=name):
                    calls[name] = calls.get(name, 0) + 1
                    return fn(*args)

                mp.setattr(tripsolve.lagrange, name, counted)
        assert_matches_reference_sweep(inst, lam)
    assert set(calls) <= SWEEP_SETUP | {"_lex_min"}
    lex_min = calls["_lex_min"] - 1
    return {"bulk": inst.n - 1 - lex_min, "lex_min": lex_min}


def one_kind(kind: str) -> dict[str, int]:
    """The layer kinds of a sweep with one inner layer step, of this kind."""
    return {name: int(name == kind) for name in ("bulk", "lex_min")}


@pytest.mark.parametrize(
    "gap, dominated",
    [
        (0.0, False),
        (5e-13, False),
        (1e-12, False),
        (2e-12, True),
        (1.0, True),
    ],
)
def test_dominance_margin_boundary(gap, dominated):
    # At lam = 0 the last inner layer has g = c_2 * (xi - x_2) = [-c_2, 0]
    # and column 0 beats column 1 by g[1] - g[0] - jump[0, 1] = c_2 - alpha
    # = gap. c_1 sets the sweep's tie at lam = 0: E = max|linear| + max
    # jump = 4095.5 + 0.5, so eps * n * E = 2**-39, about 1.8e-12. Up to the
    # tie the two tie in row 1, whose budget rule then picks column 1; above
    # it column 0 wins both rows. A gap above jump[0, 1] = alpha lets the
    # bulk pass decide the layer, and every smaller one leaves it to
    # _lex_min.
    alpha = 0.5
    inst = validate(
        {"n": 2, "alpha": alpha, "delta": 2, "xi": [0, 1], "x": [1, 1],
         "gamma": [1, 1], "c": [4095.5, alpha + gap]}
    )
    assert sweep_tie(inst, 0.0) == 2.0**-39
    kind = one_kind("bulk" if gap > alpha else "lex_min")
    assert swept_layer_kinds(inst, 0.0) == kind
    assert relaxed_costs_to_sink(inst, 0.0).choice[0].tolist() == [0, int(not dominated)]
    # at lam = 3 column 1 beats column 0 by 3 - c_2 > 2 * jump: decided in
    # bulk
    assert swept_layer_kinds(inst, 3.0) == one_kind("bulk")


@pytest.mark.parametrize("gap, bulk", [(2e-12, False), (3e-12, True)])
def test_predecessor_free_test_boundary(gap, bulk):
    # At lam = 0 the layer's own prices are h = c_2 * (xi - x_2) = [-c_2, 0]
    # and column 0 beats column 1 by c_2 = 2 * jump[0, 1] + gap. The bulk
    # pass decides the layer only when gap exceeds 2 * margin, 34 ties at
    # the multiplier. c_1 sets E = max|linear| + max jump + lam * max|cons|
    # to 160 at lam = 0 and 163 at lam = 3, so 2 * margin is
    # 34 * eps * n * E, 2.42e-12 or 2.46e-12: 2e-12 is just under it and
    # 3e-12 just over. Below it the layer takes _lex_min, whose rows both
    # pick column 0.
    alpha = 0.5
    inst = validate(
        {"n": 2, "alpha": alpha, "delta": 2, "xi": [0, 1], "x": [1, 1],
         "gamma": [1, 1], "c": [159.5, 2.0 * alpha + gap]}
    )
    for lam in (0.0, 3.0):
        assert (gap > 34.0 * sweep_tie(inst, lam)) == bulk
    kind = one_kind("bulk" if bulk else "lex_min")
    assert swept_layer_kinds(inst, 0.0) == kind
    assert relaxed_costs_to_sink(inst, 0.0).choice[0].tolist() == [0, 0]
    assert swept_layer_kinds(inst, 3.0) == one_kind("bulk")


@pytest.mark.parametrize(
    "c3, kinds",
    [
        (1.5, {"bulk": 1, "lex_min": 1}),
        (0.05, {"bulk": 0, "lex_min": 2}),
        (1.0, {"bulk": 1, "lex_min": 1}),
    ],
)
def test_wrong_chain_guess_falls_back(monkeypatch, c3, kinds):
    # xi = [0, 1, 2], x = 0, alpha = 1: at lam = 0 each step's prices are
    # h = c * [0, 1, 2]. The step into layer 1 (h = 0.05 * [0, 1, 2]) fails
    # the predecessor-free test and passes the chain test against the cone
    # at column 0, the cheapest of the step into layer 2. That step takes
    # _lex_min. With c_3 = 1.5 every one of its rows picks column 0, its
    # rows are that cone, and the guess stands. With c_3 = 0.05 each of its
    # rows picks its own column: no cone, so the guess must fall back. A cone
    # assumed there would give value 2 of layer 0 the cost 2 instead of 0.2.
    # With c_3 = alpha = 1 the rows at lam = 0 tie exactly, row 1
    # between columns 0 and 1 and row 2 among all three, and only the
    # budget rule picks column 0 in each: the step is still that column's
    # cone, and the guess stands. Layers are the rows of the tables, 0 to
    # n - 1.
    inst = validate(
        {"n": 3, "alpha": 1.0, "delta": 6, "xi": [0, 1, 2], "x": [0, 0, 0],
         "gamma": [1, 1, 1], "c": [0.05, 0.05, c3]}
    )
    decisions = []
    bulk_pass = tripsolve.lagrange._bulk_pass

    def recorded(*args):
        out = bulk_pass(*args)
        decisions.append(out[:2])
        return out

    monkeypatch.setattr(tripsolve.lagrange, "_bulk_pass", recorded)
    for lam in (0.0, 0.01):
        decisions.clear()
        assert swept_layer_kinds(inst, lam) == kinds
        # decided on the guess: column 0 at layer 2
        assert decisions == [([True, False], [0, None])]


def run_walk(inst, lam, bulk) -> tuple[int, set[str]]:
    """The layer steps of a sweep of lam on inst as relaxed_costs_to_sink's
    run rule takes them, from its bulk pass's output bulk and the choices of
    reference_sweep: a decided step starts a run when it has no chain guess
    or its guess is the winner of the step above it, a _lex_min step whose
    rows all pick one column, and the run goes down to the step bulk gives
    as its lowest. Returns the number of _lex_min steps and the boundaries
    met: a run of more than one step from the sink row ("sink"); a run
    right after a _lex_min cone, on a guess of that cone's winner ("cone,
    guessed") or without a guess ("cone, free"); a decided step whose guess
    that cone does not match ("cone, wrong guess"); and a run that ends
    above a decided step ("run, wrong guess")."""
    decided, guess, _, _, _, low = bulk
    lo, hi = reach_windows(inst)
    choice = reference_sweep(inst, lam)[2]
    met, lex_min, cone, i = set(), 0, None, inst.n - 1
    while i > 0:
        l = i - 1
        if decided[l] and (guess[l] is None or cone == guess[l]):
            if l == inst.n - 2 and low[l] < l:
                met.add("sink")
            if cone is not None:
                met.add("cone, free" if guess[l] is None else "cone, guessed")
            if low[l] > 0 and decided[low[l] - 1]:
                met.add("run, wrong guess")
            cone, i = None, low[l]
            continue
        if decided[l] and cone is not None:
            met.add("cone, wrong guess")
        picks = choice[l, lo[l]:hi[l]]
        cone = int(picks[0]) if (picks == picks[0]).all() else None
        lex_min, i = lex_min + 1, l
    return lex_min, met


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("windows", ["full", "cols"])
def test_runs_of_decided_steps_match_reference_sweep(monkeypatch, windows, k):
    # Random instances, x and c drawn per layer, whose decided steps form
    # runs of every kind, swept at k multipliers one by one: each table is
    # checked bitwise against reference_sweep, and the sweep takes _lex_min
    # exactly where the run rule says. A _lex_min cone whose winners are not the guess of the
    # step below needs a row of its window that is no head of the step
    # above: full windows never give one.
    bulk_pass = tripsolve.lagrange._bulk_pass
    recorded = []

    def recording(*args):
        recorded.append(bulk_pass(*args))
        return recorded[-1]

    monkeypatch.setattr(tripsolve.lagrange, "_bulk_pass", recording)
    rng = np.random.default_rng(2200 + k)
    met, swept = set(), 0
    while swept < 60:
        n, m = int(rng.integers(4, 16)), int(rng.integers(3, 8))
        delta = 2 * m if windows == "full" else int(rng.integers(1, m - 1))
        inst = validate(
            {"n": n, "alpha": 1.0, "delta": delta, "xi": list(range(m)),
             "x": rng.integers(0, m, size=n).tolist(), "gamma": [1] * n,
             "c": (rng.choice([0.3, 1.0, 2.0, 4.0]) * rng.uniform(-1, 1, size=n)).tolist()}
        )
        lo, hi = reach_windows(inst)
        if bool((lo == 0).all() and (hi == m).all()) != (windows == "full"):
            continue  # narrow radii can still reach every value
        swept += 1
        for lam in [0.0, 0.2, 0.5][:k]:
            recorded.clear()
            kinds = swept_layer_kinds(inst, lam)
            lex_min, seen = run_walk(inst, lam, recorded[0])
            assert kinds["lex_min"] == lex_min
            met |= seen
    wrong = {"cone, wrong guess"} if windows == "cols" else set()
    assert met == {"sink", "cone, guessed", "cone, free"} | wrong


@pytest.mark.parametrize("xi, delta", [(range(-2, 3), 16), (range(-4, 5), 2)], ids=["full", "cols"])
def test_a_wrong_guess_inside_a_run_ends_it(monkeypatch, xi, delta):
    # x = 0 and alpha = 1; the windows hold the values -2..2. At small lam
    # the step into layer 3 (prices c_4 * xi = -3 xi) passes the
    # predecessor-free test at xi = 2, and the step into layer 2 (-0.5 xi)
    # passes the chain test against that cone, with the same winner: the
    # run from the sink row holds both. The step into layer 1 (0.5 xi)
    # fails both tests, since against that cone its rows keep their own
    # columns. A winner the chain test decides with slack 1 is the step's
    # cheapest price, and the step below a single-row step has one head and
    # no guess, so the guess of a step below a decided one is that step's
    # winner; here the predecessor-free test's winners of the undecided
    # steps, the guesses, are moved to xi = -2. The step into layer 1 then
    # passes the chain test against the wrong cone, and the run must end
    # above it: it takes _lex_min, and every table is the reference's.
    inst = validate(
        {"n": 4, "alpha": 1.0, "delta": delta, "xi": list(xi), "x": [0] * 4,
         "gamma": [1] * 4, "c": [0.25, 0.5, -0.5, -3.0]}
    )
    left, right = list(xi).index(-2), list(xi).index(2)
    decisions = []
    bulk_pass, winners = tripsolve.lagrange._bulk_pass, tripsolve.lagrange._winners

    def recorded(*args):
        out = bulk_pass(*args)
        decisions.append(out[:2])
        return out

    def misguided(h, jump, cols, slack, margin):
        s, decided = winners(h, jump, cols, slack, margin)
        if np.ndim(slack) == 0:  # the predecessor-free test
            s = np.where(decided, s, left if cols is None else cols[:, 0])
        return s, decided

    monkeypatch.setattr(tripsolve.lagrange, "_bulk_pass", recorded)
    for lam in (0.0, 0.01, 0.02):
        decisions.clear()
        assert swept_layer_kinds(inst, lam) == {"bulk": 2, "lex_min": 1}
        assert decisions == [([False, True, True], [right, right, None])]
        with monkeypatch.context() as mp:
            mp.setattr(tripsolve.lagrange, "_winners", misguided)
            decisions.clear()
            assert swept_layer_kinds(inst, lam) == {"bulk": 2, "lex_min": 1}
        assert decisions == [([True, True, True], [left, right, None])]


@pytest.mark.parametrize(
    "x, c, picked",
    [
        # heads (costs, budgets): column 0 (-tie / 2, 2), column 1 (0, 0),
        # column 2 (1, 2): the budget picks column 1
        ([0, 0, 0], [1023.0, 1.5 * 2.0**-42, 0.5], 1),
        # columns 1 and 2 cost 0.75 + tie / 2 and 0.75, both with budget 1,
        # column 0 1.75: the index picks column 1
        ([0, 1, 0], [1023.0, -0.75 - 1.5 * 2.0**-42, 0.25], 1),
    ],
)
def test_single_row_ties_go_to_budget_then_index(x, c, picked):
    # gamma_1 = 10 > delta leaves layer 0 (table row 0) the one value
    # xi = 0 (index 1), so the step into layer 1 has one row; its heads tie
    # within the sweep's tie, so no margin test decides it and _lex_min's
    # tie rule picks the column. c_1 moves no path through that one value,
    # and sets the tie at lam = 0: E = max|linear| + max jump = 1023 + 1, so
    # eps * n * E = 3 * 2**-42, about 6.8e-13
    inst = validate(
        {"n": 3, "alpha": 0.5, "delta": 9, "xi": [-1, 0, 1], "x": x,
         "gamma": [10, 1, 1], "c": c}
    )
    assert sweep_tie(inst, 0.0) == 3 * 2.0**-42
    assert reach_windows(inst)[1][0] - reach_windows(inst)[0][0] == 1
    assert swept_layer_kinds(inst, 0.0) == {"bulk": 0, "lex_min": 2}
    assert relaxed_costs_to_sink(inst, 0.0).choice[0, 1] == picked
    swept_layer_kinds(inst, 1.0)


def test_wide_single_rows_fall_back_when_the_chain_guess_fails(monkeypatch):
    # gamma_1 = 10 > delta leaves layer 0 one value, and the step into
    # layer 1 reads 19 heads from one row. With |c_2|, |c_3| and lam at most
    # 0.02, far below alpha, the bulk pass decides that single row against
    # the cone of the next step's cheapest columns. But each row of the step
    # into layer 2 keeps its own column, so that step is no cone: the guess
    # fails and the single row takes _lex_min, however many heads it has
    xi = list(range(-10, 11))
    decisions = []
    bulk_pass = tripsolve.lagrange._bulk_pass

    def recorded(*args):
        out = bulk_pass(*args)
        decisions.append(out[:2])
        return out

    monkeypatch.setattr(tripsolve.lagrange, "_bulk_pass", recorded)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        c = [float(rng.uniform(-1.0, 1.0)), *rng.uniform(-0.02, 0.02, size=2).tolist()]
        inst = validate(
            {"n": 3, "alpha": 0.25, "delta": 9, "xi": xi, "x": [0, 0, 0],
             "gamma": [10, 1, 1], "c": c}
        )
        lo, hi = reach_windows(inst)
        assert hi[0] - lo[0] == 1 and hi[1] - lo[1] == 19
        for lam in (0.0, 0.01, 0.02):
            decisions.clear()
            assert swept_layer_kinds(inst, lam) == {"bulk": 0, "lex_min": 2}
            [(decided, guess)] = decisions
            assert decided == [True, False] and guess[0] is not None


@pytest.mark.parametrize(
    "gap, bulk, picked",
    [
        (0.0, False, 0),
        (5e-13, False, 0),
        (1e-12, False, 0),
        (2e-12, False, 1),
        (1.0, True, 1),
    ],
)
def test_single_row_chain_test_boundary(gap, bulk, picked):
    # x_1 = 1 with gamma_1 = 10 > delta leaves layer 0 the one value index
    # j0 = 1, so the step into layer 1 has one row. The step into layer 2
    # (h = c_3 * xi = [0, -5]) passes the predecessor-free test with winner
    # t = 1. The single row's own prices h = c_2 * xi = [0, 1 - gap] fail
    # it, but against the cone at t its totals are f = h + jump[t] +
    # jump[j0] = [1, 1 - gap] plus a constant: column 1 wins by gap. c_1
    # moves no path through j0, and sets the sweep's tie at lam = 0:
    # E = max|linear| + max jump = 2047.5 + 0.5, so eps * n * E = 3 * 2**-41,
    # about 1.4e-12. The bulk pass decides the row only when gap exceeds
    # 2 * margin, 34 ties; below it the row takes _lex_min, which picks
    # column 0, the smaller budget, while the two tie within the tie
    alpha = 0.5
    inst = validate(
        {"n": 3, "alpha": alpha, "delta": 2, "xi": [0, 1], "x": [1, 0, 0],
         "gamma": [10, 1, 1], "c": [2047.5, 2.0 * alpha - gap, -5.0]}
    )
    assert sweep_tie(inst, 0.0) == 3 * 2.0**-41
    assert reach_windows(inst)[1][0] - reach_windows(inst)[0][0] == 1
    kind = {"bulk": 1 + bulk, "lex_min": int(not bulk)}
    assert swept_layer_kinds(inst, 0.0) == kind
    assert relaxed_costs_to_sink(inst, 0.0).choice[0, 1] == picked
    # at lam = 3 the row's own prices decide it
    assert swept_layer_kinds(inst, 3.0) == {"bulk": 2, "lex_min": 0}


def heat_instance():
    """The heat problem at n = 64 linearised at zero, alpha 1e-4, delta 8:
    its reach windows hold up to 11 of the m = 26 values."""
    problem = make_heat_problem(64)
    x = np.zeros(problem.n, dtype=np.int64)
    return validate(
        {"n": problem.n, "alpha": 1e-4, "delta": 8, "xi": problem.xi.tolist(),
         "x": x.tolist(), "gamma": problem.gamma.tolist(),
         "c": problem.gradient_coeffs(x).tolist()}
    )


def test_dominance_test_passes_on_heat_layers():
    inst = heat_instance()
    upper0 = float(np.max(np.abs(inst.c))) + 2.0 * inst.alpha
    for lam in (0.0, 0.01 * upper0, 0.5 * upper0, upper0):
        kinds = swept_layer_kinds(inst, lam)
        # without the tests: n - 1 layer steps through _lex_min
        assert kinds["lex_min"] < inst.n - 1
        assert kinds["bulk"] > kinds["lex_min"]


def test_dominated_and_lex_min_layers_alternate_on_narrow_windows(monkeypatch):
    # knapsack windows hold 1 or 2 values, so most layer steps have one row.
    # The bulk pass decides nearly all of them, each multiplier's one budget
    # passing to the next step, and the cone steps' rows are written after
    # the loop; the few it leaves take _lex_min inside the same sweeps. At
    # the multipliers the searches evaluate
    searched = [(inst, binary_search(inst, 1e-6).lambdas) for inst in knapsack_instances()]
    lex_min_rows = []  # the rows of each _lex_min call, the source's last
    lex_min = tripsolve.lagrange._lex_min

    def recorded(total, *args):
        lex_min_rows.append(total.shape[1])
        return lex_min(total, *args)

    monkeypatch.setattr(tripsolve.lagrange, "_lex_min", recorded)
    single = single_lex_min = mixed = 0
    for inst, lams in searched:
        lo, hi = reach_windows(inst)
        for lam in lams:
            lex_min_rows.clear()
            kinds = swept_layer_kinds(inst, lam)
            single += int(np.count_nonzero(hi[:-1] - lo[:-1] == 1))
            single_lex_min += lex_min_rows[:-1].count(1)
            mixed += kinds["bulk"] > 0 and kinds["lex_min"] > 0
    # the single rows are decided in bulk, bar a few near ties
    assert single > 0 and 20 * single_lex_min <= single
    assert mixed > 0  # both kinds, inside one sweep


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_overflowing_costs_skip_the_bulk_pass(monkeypatch, seed):
    # |c| of 1e300-1e306 makes 2 * n * E overflow: the sweep turns the
    # dominance tests off and skips the bulk pass, and every layer step
    # takes _lex_min, which matches reference_sweep
    rng = np.random.default_rng(seed)
    n = 16
    c = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(300, 306, size=n)
    c[0] = 1e306
    x = rng.integers(-3, 4, size=n)
    x[0] = -3
    # built directly: validate rejects costs this large, whose objectives
    # can overflow
    inst = TripInstance(
        n=n, c=c, alpha=1e300, delta=20, xi=np.arange(-5, 6), x=x,
        gamma=np.ones(n, dtype=np.int64),
    )
    cons, linear, jump = edge_terms(inst)
    assert not math.isfinite(2.0 * n * (float(np.abs(linear).max()) + float(jump.max())))
    entered = {"_bulk_pass": 0}
    for name in entered:
        monkeypatch.setattr(
            tripsolve.lagrange, name, lambda *args, name=name: entered.__setitem__(name, 1)
        )
    for lam in (0.0, 1e300, 1e306):
        assert swept_layer_kinds(inst, lam) == {"bulk": 0, "lex_min": n - 1}
    assert entered == {"_bulk_pass": 0}


def test_batch_tables_are_contiguous_and_give_the_same_steps(monkeypatch):
    expanded = 0
    for inst in knapsack_instances() + equivalence_instances(40, seed=2100):
        for lam in (0.0, 0.37, 1.0, 2.5):
            table = relaxed_costs_to_sink(inst, lam)
            for a in (table.cost, table.res, table.choice):
                assert a.shape == (inst.n, inst.m) and a.flags.c_contiguous
            copied = dataclasses.replace(
                table, cost=table.cost.copy(), res=table.res.copy(),
                choice=table.choice.copy(),
            )
            assert np.array_equal(
                extract_path_step(inst, table), extract_path_step(inst, copied)
            )
        with_table = solve_astar(inst)
        with monkeypatch.context() as mp:  # the heuristic per push
            mp.setattr(tripsolve.astar, "HEURISTIC_TABLE_CAP", 0)
            per_push = solve_astar(inst)
        assert np.array_equal(per_push.d, with_table.d)
        assert per_push.stats.nodes_expanded == with_table.stats.nodes_expanded
        expanded += per_push.stats.nodes_expanded
    assert expanded > 0


@pytest.mark.parametrize(
    "n, xi",
    [
        (2, list(range(400))),  # (2, 400) tables fit; a (400, 400) jump table: 1.28 MB
        (150000, [0]),  # (150000, 1) tables: 1.2 MB each
        (20000, list(range(7))),  # (20000, 7) tables: 1.12 MB each
    ],
)
def test_relaxed_sweep_tables_checked_before_allocation(monkeypatch, n, xi):
    # the (n, m) tables are checked before edge_terms allocates its (n, m)
    # terms. A layer's totals are at most (m, m), the size of the jump
    # table, which edge_terms checks before it builds one: a wide instance
    # whose tables fit is refused there
    monkeypatch.setattr(tripsolve.instance, "TABLE_BYTES_CAP", 1_000_000)
    inst = validate(
        {"n": n, "alpha": 1.0, "delta": 10, "xi": xi, "x": [0] * n,
         "gamma": [1] * n, "c": [-1.0] * n}
    )
    what = "relaxed sweep tables" if n * len(xi) * 8 > 1_000_000 else "edge term tables"
    tracemalloc.start()
    try:
        with pytest.raises(InstanceError, match=what):
            relaxed_costs_to_sink(inst, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "what, size", [("relaxed sweep window index tables", lambda n, width: n * width * 8)]
)
def test_relaxed_sweep_bulk_arrays_checked_before_allocation(monkeypatch, what, size):
    # the window index tables of a Sweeps record, (n, W) with W the widest
    # window, are checked at their size: a failing check leaves a new
    # record without windows and stops the sweep before its bulk pass,
    # whose arrays are (n, W) too. Full windows need no index tables, and
    # their bulk arrays are (n, m), the size of the tables
    check = tripsolve.lagrange.check_table_bytes
    bulk_pass = tripsolve.lagrange._bulk_pass
    checked, entered = [], []

    def failing(name, nbytes):
        check(name, nbytes)
        if name == what:
            checked.append(nbytes)
            raise InstanceError(f"the {name} needs {nbytes} bytes")

    def recorded(*args):
        entered.append(1)
        return bulk_pass(*args)

    monkeypatch.setattr(tripsolve.lagrange, "check_table_bytes", failing)
    monkeypatch.setattr(tripsolve.lagrange, "_bulk_pass", recorded)
    heat = heat_instance()
    at_cap = dataclasses.replace(heat, delta=budget_cap(heat.n, heat.xi, heat.gamma))
    kinds = set()
    for inst in knapsack_instances(count=2) + [heat, at_cap]:
        lo, hi = reach_windows(inst)
        full = bool((lo == 0).all() and (hi == inst.m).all())
        kinds.add(full)
        entry = tripsolve.lagrange.Sweeps(inst)
        checked.clear()
        entered.clear()
        if full:
            relaxed_costs_to_sink(inst, 0.5, entry)
            assert checked == [] and entry.windows[2] is None and entered == [1]
            continue
        with pytest.raises(InstanceError, match=what):
            relaxed_costs_to_sink(inst, 0.5, entry)
        assert checked == [size(inst.n, int((hi - lo).max()))]
        assert entered == []
        assert entry.windows is None
    assert kinds == {False, True}
