import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (
    assert_cached_radii_match,
    halving,
    radius_corpus,
    solution_fields,
)
import tripsolve.instance
import tripsolve.topo
from graph_reference import build_explicit
from tripsolve.instance import (
    TABLE_BYTES_CAP,
    InstanceError,
    RadiusCache,
    Solution,
    TripInstance,
    clamp_delta,
    objective,
    resource_use,
    validate,
)
from tripsolve.graph import reach_windows
from tripsolve.oracle import gen_random, knapsack_reduce, solve_bruteforce
from tripsolve.slip import make_signal_problem
from tripsolve.topo import TopoTables, solve_topo


def test_derived_optimum(derived3):
    sol = solve_topo(derived3)
    assert np.array_equal(sol.d, [1, 0, 1])
    assert sol.objective == pytest.approx(-1.0, abs=1e-12)
    assert sol.resource == 2


def test_zero_budget_forces_zero_step():
    inst = validate(
        {
            "n": 4,
            "alpha": 0.7,
            "delta": 0,
            "xi": [0, 1, 5],
            "x": [0, 5, 1, 0],
            "gamma": [1, 2, 1, 1],
            "c": [-3.0, 2.0, -1.0, 4.0],
        }
    )
    sol = solve_topo(inst)
    assert np.array_equal(sol.d, np.zeros(4))
    assert sol.objective == pytest.approx(0.7 * (5 + 4 + 1))


def test_inactive_budget_and_no_penalty_separates():
    inst = gen_random(7, 4, 0, 0.0, seed=3)
    wide = validate(
        {
            "n": inst.n,
            "alpha": 0.0,
            "delta": 10**6,
            "xi": inst.xi.tolist(),
            "x": inst.x.tolist(),
            "gamma": inst.gamma.tolist(),
            "c": inst.c.tolist(),
        }
    )
    sol = solve_topo(wide)
    for i in range(1, wide.n + 1):
        shifts = wide.shifts(i)
        best = shifts[np.argmin(wide.c[i - 1] * shifts)]
        assert wide.c[i - 1] * sol.d[i - 1] == pytest.approx(
            wide.c[i - 1] * best
        )


def test_matches_bruteforce_exhaustively(corpus200):
    for inst in corpus200:
        if inst.m**inst.n > 2**16:
            continue
        bf = solve_bruteforce(inst)
        sol = solve_topo(inst)
        assert sol.objective == pytest.approx(bf.objective, abs=1e-9)
        assert sol.resource <= inst.delta


def test_visit_counters_match_explicit_graph(corpus200):
    for inst in corpus200[:60]:
        g = build_explicit(inst)
        sol = solve_topo(inst)
        assert sol.stats.nodes_expanded == g.n_nodes
        assert sol.stats.nodes_generated == g.n_edges


def test_deterministic(corpus200):
    for inst in corpus200[:20]:
        a = solve_topo(inst)
        b = solve_topo(inst)
        assert np.array_equal(a.d, b.d)


def test_minimal_resource_among_optima():
    # both moves and no moves cost the same here; the zero step must win
    inst = validate(
        {
            "n": 2,
            "alpha": 1.0,
            "delta": 2,
            "xi": [0, 1],
            "x": [0, 0],
            "gamma": [1, 1],
            "c": [-2.0, 0.0],
        }
    )
    # candidates: (0,0) cost 0; (1,1) cost -2 + 0 jumps + ... = -2; unique
    sol = solve_topo(inst)
    assert sol.objective == pytest.approx(-2.0)
    flat = validate(
        {
            "n": 2,
            "alpha": 0.0,
            "delta": 2,
            "xi": [0, 1],
            "x": [0, 0],
            "gamma": [1, 1],
            "c": [0.0, 0.0],
        }
    )
    tie = solve_topo(flat)  # every step costs 0: prefer no budget use
    assert tie.resource == 0
    assert np.array_equal(tie.d, [0, 0])


def _timed(n, delta, seed):
    inst = gen_random(n, 5, delta, 0.4, seed)
    t0 = time.perf_counter()
    solve_topo(inst)
    return time.perf_counter() - t0


def test_runtime_scales_about_linearly_in_graph_size():
    small = min(_timed(128, 16, s) for s in range(3))
    big = min(_timed(256, 32, s) for s in range(3))
    # 4x the node count; allow a generous factor-of-2 tolerance on top
    assert big <= 8.5 * small + 0.05


def test_cached_radii_match_fresh_solves():
    for inst in radius_corpus():
        assert_cached_radii_match(solve_topo, inst)


def test_cached_radii_with_int16_predecessors():
    inst = gen_random(6, 130, 40, 0.3, seed=11)  # m > 127: int16 pred
    assert inst.gamma.max() > 1
    assert TopoTables.build(inst).pred.dtype == np.int16
    assert_cached_radii_match(solve_topo, inst)
    assert_matches_dense(inst)


def test_cached_radii_above_the_clamp_cap():
    inst = gen_random(5, 3, 10**6, 0.3, seed=12)
    assert clamp_delta(inst).delta < inst.delta // 2
    assert_cached_radii_match(solve_topo, inst)


def test_tables_refuse_a_larger_radius():
    inst = gen_random(5, 3, 4, 0.3, seed=13)
    tables = TopoTables.build(inst)
    with pytest.raises(ValueError):
        tables.solution(dataclasses.replace(inst, delta=5))


def test_cache_rebuilds_for_changed_instances():
    inst = gen_random(12, 5, 10, 0.2, seed=14)
    rng = np.random.default_rng(14)
    others = [
        dataclasses.replace(inst, c=-inst.c),
        dataclasses.replace(inst, x=rng.choice(inst.xi, size=inst.n)),
        dataclasses.replace(inst, delta=2 * inst.delta),
    ]
    for other in others:
        cache = RadiusCache()
        solve_topo(inst, cache=cache)
        cached = solution_fields(solve_topo(other, cache=cache))
        assert cached == solution_fields(solve_topo(other))
        assert cached != solution_fields(solve_topo(inst))


@dataclasses.dataclass(frozen=True)
class DenseTables:
    """The arrays of TopoTables, made by the dense reference DP, and
    reached (n, m, delta + 1), the mask of each layer's reachable states."""

    delta: int
    pred: np.ndarray
    last_cost: np.ndarray
    finite: np.ndarray
    succ: np.ndarray
    reached: np.ndarray


def dense_tables(inst: TripInstance) -> DenseTables:
    """The DP over every value index of every layer, without reach windows,
    as a reference: pred as argmin leaves it, 0 at some unreachable
    states."""
    n, m, width = inst.n, inst.m, inst.delta + 1
    pred_dtype = np.int8 if m <= np.iinfo(np.int8).max else np.int16
    pred = np.full((n, m, width), -1, dtype=pred_dtype)
    reached = np.zeros((n, m, width), dtype=bool)
    succ = np.zeros((n - 1, width), dtype=pred_dtype)
    capacities = np.arange(width)

    shifts = inst.shifts(1)
    cons = inst.gamma[0] * np.abs(shifts)
    cost = np.full((m, width), np.inf)
    reachable = cons <= inst.delta
    cost[reachable, (inst.delta - cons)[reachable]] = inst.c[0] * shifts[reachable]
    reached[0] = np.isfinite(cost)

    for head in range(2, n + 1):
        shifts_v = inst.shifts(head)
        cons_v = inst.gamma[head - 1] * np.abs(shifts_v)
        jump = np.abs(
            int(inst.x[head - 1]) - int(inst.x[head - 2])
            + shifts_v[None, :]
            - shifts[:, None]
        )
        weight = inst.c[head - 1] * shifts_v[None, :] + inst.alpha * jump
        stacked = cost[None, :, :] + weight.T[:, :, None]
        best_prev = stacked.argmin(axis=1)
        arrived = stacked.min(axis=1)
        succ[head - 2] = np.searchsorted(np.sort(cons_v), capacities, side="right")

        new_cost = np.full((m, width), np.inf)
        for j in range(m):
            used = int(cons_v[j])
            if used >= width:
                continue
            span = width - used
            new_cost[j, :span] = arrived[j, used:]
            pred[head - 1, j, :span] = best_prev[j, used:]
        cost = new_cost
        shifts = shifts_v
        reached[head - 1] = np.isfinite(cost)

    finite = reached.sum(axis=1).astype(pred_dtype)
    return DenseTables(inst.delta, pred, cost, finite, succ, reached)


def dense_solution(ref: DenseTables, inst: TripInstance) -> Solution:
    """The answer at inst.delta <= ref.delta by the rule of solve_topo,
    applied with its own code: among the cheapest layer-n states of
    capacity at least s = ref.delta - inst.delta the largest capacity, then
    the smallest value index, and the predecessors walked back from there."""
    s = ref.delta - inst.delta
    cost = ref.last_cost[:, s:]
    ties = np.argwhere(cost == cost.min())
    order = np.lexsort((ties[:, 0], -ties[:, 1]))  # max capacity, then min index
    j, eta = (int(v) for v in ties[order[0]])
    eta += s
    js = [j]
    for layer in range(inst.n, 1, -1):  # from layer `layer` back to layer - 1
        used = int(inst.gamma[layer - 1] * abs(inst.shifts(layer)[j]))
        j = int(ref.pred[layer - 1, j, eta])
        eta += used
        js.append(j)
    d = inst.xi[js[::-1]] - inst.x
    finite = ref.finite[:, s:].astype(np.int64)
    nodes = int(ref.reached[:, :, s:].sum()) + 2
    edges = int(
        finite[0].sum()
        + (finite[:-1] * ref.succ[:, : inst.delta + 1]).sum()
        + finite[-1].sum()
    )
    return Solution.of(inst, d, nodes_expanded=nodes, nodes_generated=edges)


def assert_matches_dense(inst: TripInstance) -> None:
    """The windowed tables of inst equal the dense reference: bitwise costs,
    pred at every reachable state and -1 elsewhere, and the reference's
    solution at every radius, whose visit counters check each offset's
    state and edge counts."""
    inst = clamp_delta(inst)
    got = TopoTables.build(inst)
    ref = dense_tables(inst)
    assert got.last_cost.tobytes() == ref.last_cost.tobytes()
    assert got.pred.dtype == ref.pred.dtype
    assert np.array_equal(got.pred[ref.reached], ref.pred[ref.reached])
    assert np.all(got.pred[~ref.reached] == -1)
    for delta in range(inst.delta + 1):
        at = dataclasses.replace(inst, delta=delta)
        assert solution_fields(got.solution(at)) == solution_fields(
            dense_solution(ref, at)
        )


def test_windowed_tables_match_dense_dp():
    for inst in radius_corpus():
        assert_matches_dense(inst)


def test_windowed_tables_with_free_and_costly_layers():
    for seed in range(40):
        inst = gen_random(9, 6, 2 + seed % 7, 0.3, seed=300 + seed)
        rng = np.random.default_rng(seed)
        free = inst.gamma * (rng.random(inst.n) < 0.4)  # gamma_i = 0: full window
        costly = inst.gamma * 50  # window of the one value x_i
        for gamma in (free, costly, np.where(free > 0, costly, 0)):
            assert_matches_dense(dataclasses.replace(inst, gamma=gamma))


def test_windowed_tables_on_signal_subproblems():
    # the default path: m = 11 values, radii up to 32, from the zero start
    # and from a control with jumps, so windows are clipped on both sides
    problem = make_signal_problem(64, seed=0)
    rng = np.random.default_rng(0)
    for x in (np.zeros(64, dtype=np.int64), rng.integers(-5, 6, 64)):
        record = {
            "n": 64, "alpha": 1e-3, "xi": problem.xi.tolist(), "x": x.tolist(),
            "gamma": problem.gamma.tolist(), "c": problem.gradient_coeffs(x).tolist(),
        }
        for delta in range(1, 33):
            assert_matches_dense(validate({**record, "delta": delta}))


def test_terminal_rule_on_exact_ties_at_every_radius():
    # half-integer edge weights: many paths tie exactly, so the answer
    # rests on the tie rule; every radius, not only halving ones
    rng = np.random.default_rng(28)
    for k in range(1000):
        n, m = int(rng.integers(1, 10)), int(rng.integers(1, 6))
        inst = gen_random(n, m, int(rng.integers(0, 4 * n + 1)), 1.0, seed=9000 + k)
        inst = clamp_delta(dataclasses.replace(
            inst,
            alpha=float(rng.choice([0.5, 1.0, 2.0])),
            gamma=rng.integers(1, 3, size=n),
            c=rng.integers(-2, 3, size=n).astype(float),
        ))
        tables, ref = TopoTables.build(inst), dense_tables(inst)
        for delta in range(inst.delta + 1):
            at = dataclasses.replace(inst, delta=delta)
            assert solution_fields(tables.solution(at)) == solution_fields(
                dense_solution(ref, at)
            )


def test_windowed_tables_on_exact_ties():
    # integer costs and half-integer penalties: many tails tie exactly, so
    # each predecessor rests on the first-tail rule; narrow and wide windows,
    # x at the ends of xi, radius 0, and m > 127 for int16 predecessors
    # (at small radii: the reference's sums are m x m x (delta + 2))
    rng = np.random.default_rng(33)
    for _ in range(200):
        m = int(rng.choice([1, 2, 3, 6, 11, 130]))
        n = int(rng.integers(1, 4 if m > 127 else 12))
        xi = np.sort(rng.choice(np.arange(-3 * m, 3 * m), m, replace=False))
        ends = xi[[0, -1]]
        x = np.where(rng.random(n) < 0.5, rng.choice(ends, n), rng.choice(xi, n))
        span = 8 if m > 127 else int(xi[-1] - xi[0])
        delta = int(rng.choice([0, 1, rng.integers(0, 2 * span + 2)]))
        inst = validate(
            {"n": n, "alpha": float(rng.choice([0.0, 0.5, 1.0])), "delta": delta,
             "xi": xi.tolist(), "x": x.tolist(),
             "gamma": rng.integers(1, 4, size=n).tolist(),
             "c": rng.integers(-2, 3, size=n).astype(float).tolist()}
        )
        assert_matches_dense(inst)


def test_windowed_tables_around_the_block_length():
    # layers 1..n-1 run in blocks of `layers` full windows; n - 1 of 0,
    # `layers` - 1, `layers`, `layers` + 1 and 2 `layers` + 1; windows of
    # 2 or 3 values at moving positions share padded blocks
    m, delta = 5, 20
    layers = tripsolve.topo._BLOCK_BYTES // ((delta + 2) * 8) // (m * m + 2 * m)
    rng = np.random.default_rng(34)
    for n in (1, layers, layers + 1, layers + 2, 2 * layers + 2):
        x = rng.integers(0, m, size=n)
        full = {"n": n, "alpha": 0.5, "delta": delta, "xi": list(range(m)),
                "x": x.tolist(), "gamma": [1] * n,
                "c": rng.integers(-2, 3, size=n).astype(float).tolist()}
        inst = validate(full)
        lo, hi = (w.tolist() for w in reach_windows(inst))
        sizes = [b - a for a, b in zip(lo, hi)]
        blocks, _ = tripsolve.topo._blocks(lo, sizes, delta + 1, m)
        assert [j - i for i, j, _, _ in blocks] == [layers] * ((n - 1) // layers) + (
            [(n - 1) % layers] if (n - 1) % layers else []
        )
        assert_matches_dense(inst)
        assert_matches_dense(validate({**full, "gamma": [delta] * n}))


def test_visit_counts_in_small_chunks(monkeypatch):
    # a byte budget of 512: the counts fold in a few layers at a time, and
    # each fold takes its consumptions a few at a time
    monkeypatch.setattr(tripsolve.topo, "_BLOCK_BYTES", 512)
    for seed in range(20):
        inst = gen_random(12, 6, 3 + seed, 0.3, seed=400 + seed)
        assert_matches_dense(inst)
        assert_matches_dense(dataclasses.replace(inst, gamma=inst.gamma * 0 + 1))


def _knapsacks(items: int, draws: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        weights = rng.integers(1, 20, size=items)
        values = weights + 5.0 + rng.uniform(0.0, 0.01, size=items)
        capacity = max(int(weights.max()), int(weights.sum()) // 3)  # keeps every item
        yield knapsack_reduce(values.tolist(), weights.tolist(), capacity, 1.0).instance


def test_windowed_tables_on_knapsack_reductions():
    for items in (3, 8, 16):
        for inst in _knapsacks(items, 4, seed=items):
            assert_matches_dense(inst)


def assert_cached_answers_exact(inst: TripInstance) -> None:
    """Solve inst at halving radii through one RadiusCache: each answer's
    objective and budget use are bitwise those objective and resource_use
    give its step, and the step is the dense reference's."""
    ref = dense_tables(clamp_delta(inst))
    cache = RadiusCache()
    for delta in halving(inst.delta):
        at = dataclasses.replace(inst, delta=delta)
        sol = solve_topo(at, cache=cache)
        assert sol.objective.hex() == objective(at, sol.d).hex()
        assert sol.resource == resource_use(at, sol.d)
        assert sol.d.tolist() == dense_solution(ref, clamp_delta(at)).d.tolist()


def test_cached_answers_report_their_steps_objective_and_budget_use():
    # the walk reads the budget use off the terminal state, delta - eta at
    # every offset s, and the consumptions of the layers it passes from
    # the window lists the build keeps
    for inst in radius_corpus():
        assert_cached_answers_exact(inst)
    assert_cached_answers_exact(gen_random(6, 130, 40, 0.3, seed=11))  # int16
    for items in (3, 8, 16):
        for inst in _knapsacks(items, 2, seed=60 + items):
            assert_cached_answers_exact(inst)
    # requests above budget_cap, the first building at the cap, the next
    # ones served by the kept tables
    above = gen_random(5, 3, 10**6, 0.3, seed=12)
    assert halving(above.delta)[3] > clamp_delta(above).delta
    assert_cached_answers_exact(above)


def test_cached_answer_allocates_linear_memory():
    # one answer from kept tables allocates its step and what objective
    # takes, O(n): no copy of a table such as pred, n * m * (delta + 1)
    # bytes
    n = 1000
    inst = gen_random(n, 5, 40, 0.3, seed=15)
    cache = RadiusCache()
    solve_topo(inst, cache=cache)
    at = dataclasses.replace(inst, delta=20)
    assert cache.kept("topo", at).pred.nbytes > 64 * n + 8192
    tracemalloc.start()
    try:
        solve_topo(at, cache=cache)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * n + 8192


def test_knapsack_reductions_match_bruteforce():
    for items in (1, 2, 3):  # n = m = 2 * items + 1
        for inst in _knapsacks(items, 4 if items < 3 else 2, seed=50 + items):
            bf = solve_bruteforce(inst)
            sol = solve_topo(inst)
            assert sol.objective == pytest.approx(bf.objective, abs=1e-9)
            assert sol.resource <= inst.delta


def test_pred_is_minus_one_at_unreachable_states():
    inst = gen_random(6, 5, 3, 0.3, seed=2)
    tables = TopoTables.build(inst)
    assert not dense_tables(inst).reached[2, :, 1:3].any()  # no layer-3 state there
    assert np.all(tables.pred[2, 3, 1:3] == -1)


def test_oversized_tables_rejected_before_allocation():
    # clamp_delta keeps this radius: no step vector can use all of it
    inst = validate(
        {
            "n": 200,
            "alpha": 0.5,
            "delta": 10**8,
            "xi": [0, 10**6],
            "x": [0] * 200,
            "gamma": [1] * 200,
            "c": [-1.0] * 200,
        }
    )
    assert clamp_delta(inst).delta == inst.delta
    assert inst.n * inst.m * (inst.delta + 1) > TABLE_BYTES_CAP
    tracemalloc.start()
    try:
        with pytest.raises(InstanceError, match="predecessor table"):
            solve_topo(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "n, xi, delta, cap",
    [
        # a 60 x 60 x 60 sum in the layer sweep
        pytest.param(2, list(range(60)), 59, 1_000_000, id="2-xi0-59"),
        # the (m, delta + 1) last-layer costs
        pytest.param(1, [0, 10**5], 10**5, 1_000_000, id="1-xi1-100000"),
        # a block of 6 layers with 11 x 11 x 34 sums takes 197 kB, one 33 kB
        pytest.param(40, list(range(11)), 32, 100_000, id="block-of-layers"),
    ],
)
def test_float_tables_rejected_before_allocation(monkeypatch, n, xi, delta, cap):
    # predecessor tables of 7.2 kB, 200 kB and 15 kB, float tables of 1.7
    # MB, 1.6 MB and 197 kB
    monkeypatch.setattr(tripsolve.instance, "TABLE_BYTES_CAP", cap)
    inst = validate(
        {"n": n, "alpha": 0.5, "delta": delta, "xi": xi, "x": [0] * n,
         "gamma": [1] * n, "c": [-1.0] * n}
    )
    assert clamp_delta(inst).delta == inst.delta
    tracemalloc.start()
    try:
        with pytest.raises(InstanceError, match="layer cost table"):
            solve_topo(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cap


def test_counts_take_no_int64_temporaries():
    # binary controls: pred takes 2 bytes per (layer, capacity), an int64
    # temporary per (layer, capacity) takes 8; the build used to peak at
    # 20.3 MB and the counter sums of solution at 16.1 MB
    n = 1000
    inst = validate(
        {"n": n, "alpha": 1.0, "delta": n, "xi": [0, 1], "x": [0] * n,
         "gamma": [1] * n, "c": [-1.0] * n}
    )
    tracemalloc.start()
    try:
        tables = TopoTables.build(inst)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sol = tables.solution(inst)
        _, solution_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = tables.pred.nbytes + tables.last_cost.nbytes
    assert kept < 4_100_000
    assert build_peak < kept + 1_000_000
    assert solution_peak - kept < 1_000_000
    # 2i states in layer i, with both out-edges affordable below layer n
    assert sol.stats.nodes_expanded == n * (n + 1) + 2
    assert sol.stats.nodes_generated == 2 + 2 * n * (n - 1) + 2 * n


def test_signal_build_peak_stays_small():
    # the default path's shape: n 256, m 11, delta 32, whose layers share
    # blocks of at most _BLOCK_BYTES
    problem = make_signal_problem(256, seed=0)
    x = np.zeros(256, dtype=np.int64)
    inst = validate(
        {"n": 256, "alpha": 1e-3, "delta": 32, "xi": problem.xi.tolist(),
         "x": x.tolist(), "gamma": problem.gamma.tolist(),
         "c": problem.gradient_coeffs(x).tolist()}
    )
    tracemalloc.start()
    try:
        tables = TopoTables.build(inst)
        _, build_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = tables.pred.nbytes + tables.last_cost.nbytes
    assert build_peak < kept + 1_000_000


def test_successor_counts_rejected_before_allocation(monkeypatch):
    # xi = [0] clamps the radius to 0: a 100 kB predecessor table and
    # 0.8 MB edge-term tables, but the tail layers, consumptions and keys
    # of the (n - 1) * m affordable heads, int64 each, take 2.4 MB; the
    # build used to go on to a 14.1 MB peak, and now stops with the edge
    # terms and reach windows allocated
    monkeypatch.setattr(tripsolve.instance, "TABLE_BYTES_CAP", 1_000_000)
    n = 100000
    inst = validate(
        {"n": n, "alpha": 1.0, "delta": 10, "xi": [0], "x": [0] * n,
         "gamma": [1] * n, "c": [-1.0] * n}
    )
    tracemalloc.start()
    try:
        with pytest.raises(InstanceError, match="successor count table"):
            solve_topo(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000
