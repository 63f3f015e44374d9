"""Reference solvers for the tests: the A* search loop solve_astar ran
before its successor rows and windowed heuristic table, with the closed set
and the zero step's upper bound it has since left out, the heuristic of one
node, and a relaxed sweep over the reach windows with the tie rule spelled
out, which relaxed_costs_to_sink must reproduce bit for bit; over full
windows it is the sweep over the whole graph.

Each expansion finds its successors with numpy calls over all m value
indices of the head layer (consumption within the capacity, dominated edges
masked out unless edge_pruning is off), reads the heuristic from a dense
(n, m, delta + 1) table or, over the table cap, from the stacked cost
tables, and pushes the survivors in ascending value index. Like
solve_astar it ends at the first layer-n label it expands, where the
heuristic is 0. With both prunings on, solve_astar must reproduce its
expansions, f values and counters exactly.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Callable, Optional

import numpy as np

from tripsolve import astar
from graph_reference import enumerate_steps
from tripsolve.graph import NodeRef, edge_terms, reach_windows
from tripsolve.instance import (
    RadiusCache,
    Solution,
    SolverStats,
    TripInstance,
    clamp_delta,
    cost_bound,
    objective,
    resource_use,
)
from tripsolve.lagrange import (
    LagrangeTables,
    binary_search,
    relaxed_costs_to_sink,
)


def sweep_tie(inst: TripInstance, lam: float) -> float:
    """The relaxed sweep's tie at the multiplier lam, written out from the
    edge terms: eps * n * E, where E = max|linear| + max jump + |lam| *
    max|cons| bounds the terms of one edge. Costs within it of a row's
    minimum tie."""
    cons, linear, jump = edge_terms(inst)
    edge = float(np.abs(linear).max()) + float(jump.max()) + abs(lam) * float(np.abs(cons).max())
    return float(np.finfo(np.float64).eps) * inst.n * edge


def dominated_masks(inst: TripInstance) -> list[np.ndarray]:
    """masks[i - 1][j, j'] flags prunable edges from layer i to i + 1,
    i = 1..n-1."""
    masks = []
    for i in range(1, inst.n):
        du = inst.shifts(i)[:, None]
        dv = inst.shifts(i + 1)[None, :]
        base = int(inst.x[i]) - int(inst.x[i - 1]) - du
        lhs = inst.c[i] * dv + inst.alpha * (np.abs(base + dv) - np.abs(base))
        masks.append((lhs > inst.alpha * np.abs(dv)) & (dv != 0))
    return masks


def heuristic_h(inst: TripInstance, tables: LagrangeTables, node: NodeRef) -> float:
    """Consistent cost-to-go estimate: the best lower bound over all
    evaluated multipliers, -lam * capacity + cost-to-sink."""
    if node.layer == inst.n + 1:
        return 0.0
    if node.layer == 0:
        return max(
            t.source_cost - t.lam * node.capacity for t in tables.zeta
        )
    return max(
        t.cost[node.layer - 1, node.value_index] - t.lam * node.capacity
        for t in tables.zeta
    )


def dense_heuristic_table(inst: TripInstance, tables: LagrangeTables) -> np.ndarray:
    """H[layer - 1, value_index, capacity] for the inner layers 1..n."""
    n, m, width = inst.n, inst.m, inst.delta + 1
    caps = np.arange(width, dtype=np.float64)
    h = np.full((n, m, width), -np.inf)
    for t in tables.zeta:
        np.maximum(h, t.cost[:, :, None] - t.lam * caps[None, None, :], out=h)
    return h


def solve_astar_reference(
    inst: TripInstance,
    cache: Optional[RadiusCache] = None,
    *,
    edge_pruning: bool = True,
    upper_bound_pruning: bool = True,
    expansion_listener: Optional[Callable[[NodeRef, float], None]] = None,
) -> Solution:
    """solve_astar's search, whose two prunings can be turned off one by
    one: edge_pruning masks the dominated edges (dominated_masks),
    upper_bound_pruning drops labels whose f exceeds the incumbent by more
    than solve_astar's margin. With both off it drops only the labels whose
    state already has a path as cheap."""
    t0 = time.perf_counter()
    inst = clamp_delta(inst)
    # looked up where solve_astar looks it up, so a test's tolerance holds here
    tables = binary_search(inst, astar.default_epsilon(inst), cache)
    prep = tables.iterations
    if tables.early_exit is not None:
        sol = tables.early_exit
        sol.stats = SolverStats(
            preprocessing_iterations=prep,
            wall_seconds=time.perf_counter() - t0,
        )
        return sol

    n, m, width = inst.n, inst.m, inst.delta + 1
    zero = np.zeros(n, dtype=np.int64)
    upper = min(tables.upper_bound, objective(inst, zero))
    # the rounding of f and of the objective, and the most the tables' ties
    # add to a heuristic over n layers
    margin = 8 * (n + 1) * math.ulp(cost_bound(inst))
    margin += n * sweep_tie(inst, max(t.lam for t in tables.zeta))

    cons_all, linear, jump = edge_terms(inst)
    weights_all = [linear[:1]] + [linear[i] + jump for i in range(1, n)]
    dom = dominated_masks(inst) if edge_pruning else None

    lam_arr = np.array([t.lam for t in tables.zeta])
    zcost = np.stack([t.cost for t in tables.zeta])  # (L, n, m)
    h_dense: Optional[np.ndarray] = None
    if n * m * width <= astar.HEURISTIC_TABLE_CAP:
        h_dense = dense_heuristic_table(inst, tables)

    def h_row(head: int, etas: np.ndarray, cols: np.ndarray) -> np.ndarray:
        if h_dense is not None:
            return h_dense[head - 1, cols, etas]
        sub = zcost[:, head - 1, cols]  # (L, k)
        return (sub - lam_arr[:, None] * etas[None, :]).max(axis=0)

    def pack(layer: int, j: int, eta: int) -> int:
        return (layer * m + j) * width + eta

    src = pack(0, 0, inst.delta)
    g_of: dict[int, float] = {src: 0.0}
    parent: dict[int, int] = {}
    closed: set[int] = set()
    heap: list[tuple[float, int, int, int, int, float]] = []
    h_src = max(t.source_cost - t.lam * inst.delta for t in tables.zeta)
    heapq.heappush(heap, (h_src, -inst.delta, 0, 0, src, 0.0))
    expanded = 0
    generated = 1

    goal = None
    while heap:
        f, neg_eta, neg_layer, j, packed, g = heapq.heappop(heap)
        if packed in closed or g > g_of.get(packed, np.inf):
            continue
        closed.add(packed)
        expanded += 1
        layer, eta = -neg_layer, -neg_eta
        if expansion_listener is not None:
            expansion_listener(NodeRef(layer, j, eta), f)
        if layer == n:
            assert heuristic_h(inst, tables, NodeRef(layer, j, eta)) == 0.0
            goal = packed
            break

        head = layer + 1
        cons = cons_all[layer]
        weights = weights_all[layer][j]
        ok = cons <= eta
        if dom is not None and layer >= 1:
            ok = ok & ~dom[layer - 1][j]
        cand = np.flatnonzero(ok)
        if cand.size == 0:
            continue
        new_eta = eta - cons[cand]
        new_g = g + weights[cand]
        h_vals = h_row(head, new_eta, cand)
        for k in range(cand.size):
            j2 = int(cand[k])
            eta2 = int(new_eta[k])
            g2 = float(new_g[k])
            p2 = pack(head, j2, eta2)
            if g2 >= g_of.get(p2, np.inf):
                continue
            if upper_bound_pruning and g2 + h_vals[k] > upper + margin:
                continue
            g_of[p2] = g2
            parent[p2] = packed
            heapq.heappush(
                heap, (g2 + h_vals[k], -eta2, -head, j2, p2, g2)
            )
            generated += 1

    if goal is None:
        raise AssertionError("search exhausted without reaching the last layer")

    d = np.zeros(n, dtype=np.int64)
    at = goal
    while at != src:
        layer = at // (m * width)
        j = at // width % m
        d[layer - 1] = int(inst.xi[j] - inst.x[layer - 1])
        at = parent[at]

    return Solution(
        d=d,
        objective=objective(inst, d),
        resource=resource_use(inst, d),
        stats=SolverStats(
            nodes_expanded=expanded,
            nodes_generated=generated,
            preprocessing_iterations=prep,
            wall_seconds=time.perf_counter() - t0,
        ),
    )


def relaxed_objective(inst: TripInstance, d: np.ndarray, lam: float) -> float:
    """Step cost plus lam times the budget overshoot (negative when under)."""
    d = np.asarray(d, dtype=np.int64)
    overshoot = int(np.dot(inst.gamma, np.abs(d))) - inst.delta
    return objective(inst, d) + lam * overshoot


def window_steps(inst: TripInstance) -> np.ndarray:
    """enumerate_steps(inst) less every step with an entry outside its reach
    window, gamma_i * |d_i| > delta: the paths the windowed relaxation
    prices."""
    steps = enumerate_steps(inst)
    return steps[(inst.gamma * np.abs(steps) <= inst.delta).all(axis=1)]


def full_windows(inst):
    """(lo, hi) windows that hold every value index of every layer: the
    relaxation over the whole graph."""
    return np.zeros(inst.n, dtype=np.int64), np.full(inst.n, inst.m, dtype=np.int64)


def lex_min_rows(total, res_row, tie):
    """The tie rule spelled out, per row of total (rows, w): the cheapest
    cost within tie of the row minimum, then the smallest budget of
    res_row (w,), then the smallest index. Returns (index, cost, budget),
    each (rows,)."""
    cmin = total.min(axis=1, keepdims=True)
    tied = total <= cmin + tie
    res_masked = np.where(tied, res_row[None, :], np.iinfo(np.int64).max)
    rmin = res_masked.min(axis=1)
    idx = (tied & (res_masked == rmin[:, None])).argmax(axis=1)
    return idx, total[np.arange(total.shape[0]), idx], rmin


def reference_sweep(inst, lam, windows=None):
    """One relaxed backward sweep over the reach windows (lo, hi), those of
    inst by default, layer by layer, with the tie rule spelled out: cheapest
    cost within sweep_tie(inst, lam), then smallest budget, then smallest
    index. A node outside its window gets cost +inf, budget 0 and choice -1;
    with full_windows(inst) the sweep covers the whole graph. Returns (cost,
    res, choice, source triple)."""
    n, m = inst.n, inst.m
    tie = sweep_tie(inst, lam)
    lo, hi = reach_windows(inst) if windows is None else windows
    outside = (np.arange(m)[None, :] < lo[:, None]) | (np.arange(m)[None, :] >= hi[:, None])
    cost = np.where(outside, np.inf, 0.0)
    res = np.zeros((n, m), dtype=np.int64)
    choice = np.full((n, m), -1, dtype=np.int64)
    shifts_head = inst.shifts(n)
    for i in range(n - 1, 0, -1):
        shifts_tail = inst.shifts(i)
        cons_head = inst.gamma[i] * np.abs(shifts_head)
        jump = np.abs(
            int(inst.x[i]) - int(inst.x[i - 1])
            + shifts_head[None, :]
            - shifts_tail[:, None]
        )
        g = inst.c[i] * shifts_head + lam * cons_head + cost[i]
        total = g[None, :] + inst.alpha * jump
        choice[i - 1], cost[i - 1], res[i - 1] = lex_min_rows(
            total, cons_head + res[i], tie
        )
        gone = outside[i - 1]  # no path from a node outside its window
        cost[i - 1, gone], res[i - 1, gone], choice[i - 1, gone] = np.inf, 0, -1
        shifts_head = shifts_tail
    shifts1 = inst.shifts(1)
    cons1 = inst.gamma[0] * np.abs(shifts1)
    total_s = (inst.c[0] * shifts1 + lam * cons1 + cost[0])[None, :]
    idx, cost_s, res_s = lex_min_rows(total_s, cons1 + res[0], tie)
    return cost, res, choice, (float(cost_s[0]), int(res_s[0]), int(idx[0]))


def assert_matches_reference_sweep(inst, lam) -> None:
    """relaxed_costs_to_sink(inst, lam) equals reference_sweep(inst, lam)
    bit for bit."""
    got = relaxed_costs_to_sink(inst, lam)
    cost, res, choice, source = reference_sweep(inst, lam)
    assert got.cost.tobytes() == cost.tobytes()
    assert np.array_equal(got.res, res)
    assert np.array_equal(got.choice, choice)
    assert (got.source_cost, got.source_res, got.source_choice) == source
