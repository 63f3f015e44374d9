"""Reference solvers for the tests: the A* search loop solve_astar ran
before its successor rows and windowed heuristic table, and a relaxed sweep
with the tie rule spelled out, which relaxed_costs_to_sink must reproduce
bit for bit.

Each expansion finds its successors with numpy calls over all m value
indices of the head layer (consumption within the capacity, dominated edges
masked out), reads the heuristic from a dense (n, m, delta + 1) table or,
over the table cap, from the stacked cost tables, and pushes the survivors
in ascending value index. solve_astar must reproduce its expansions, f
values and counters exactly.
"""

from __future__ import annotations

import heapq
import time
from typing import Optional

import numpy as np

from tripsolve import astar
from tripsolve.astar import PRUNE_TOL, AstarOptions
from tripsolve.graph import NodeRef, edge_terms
from tripsolve.instance import (
    RadiusCache,
    Solution,
    SolverStats,
    TripInstance,
    clamp_delta,
    objective,
    resource_use,
)
from tripsolve.lagrange import (
    COST_TIE_TOL,
    LagrangeTables,
    binary_search,
    default_epsilon,
    relaxed_costs_to_sink,
)


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
    epsilon: Optional[float] = None,
    options: Optional[AstarOptions] = None,
    cache: Optional[RadiusCache] = None,
) -> Solution:
    t0 = time.perf_counter()
    opts = options or AstarOptions()
    inst = clamp_delta(inst)
    if epsilon is None:
        epsilon = default_epsilon(inst)
    tables = binary_search(inst, epsilon, cache)
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

    cons_all, linear, jump = edge_terms(inst)
    weights_all = [linear[:1]] + [linear[i] + jump for i in range(1, n)]
    dom = dominated_masks(inst) if opts.edge_pruning else None

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
    snk = pack(n + 1, 0, 0)
    g_of: dict[int, float] = {src: 0.0}
    parent: dict[int, int] = {}
    closed: set[int] = set()
    heap: list[tuple[float, int, int, int, int, float]] = []
    h_src = max(t.source_cost - t.lam * inst.delta for t in tables.zeta)
    heapq.heappush(heap, (h_src, -inst.delta, 0, 0, src, 0.0))
    expanded = 0
    generated = 1

    best_goal_g = np.inf
    while heap:
        f, neg_eta, neg_layer, j, packed, g = heapq.heappop(heap)
        if packed in closed or g > g_of.get(packed, np.inf):
            continue
        closed.add(packed)
        expanded += 1
        layer, eta = -neg_layer, -neg_eta
        if opts.expansion_listener is not None:
            opts.expansion_listener(NodeRef(layer, j, eta), f)
        if packed == snk:
            best_goal_g = g
            break

        if layer == n:
            if g < g_of.get(snk, np.inf):
                g_of[snk] = g
                parent[snk] = packed
                heapq.heappush(heap, (g, 0, -(n + 1), 0, snk, g))
                generated += 1
            continue

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
            if (
                opts.upper_bound_pruning
                and g2 + h_vals[k] > upper + PRUNE_TOL
            ):
                continue
            g_of[p2] = g2
            parent[p2] = packed
            heapq.heappush(
                heap, (g2 + h_vals[k], -eta2, -head, j2, p2, g2)
            )
            generated += 1

    if not np.isfinite(best_goal_g):
        raise AssertionError("search exhausted without reaching the sink")

    d = np.zeros(n, dtype=np.int64)
    at = parent[snk]
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


def reference_sweep(inst, lam):
    """One relaxed backward sweep, layer by layer, with the tie rule spelled
    out: cheapest cost within COST_TIE_TOL, then smallest budget, then
    smallest index. Returns (cost, res, choice, source triple)."""
    n, m = inst.n, inst.m
    cost = np.zeros((n, m))
    res = np.zeros((n, m), dtype=np.int64)
    choice = np.full((n, m), -1, dtype=np.int64)

    def lex_min_rows(total, res_row):
        cmin = total.min(axis=1, keepdims=True)
        tied = total <= cmin + COST_TIE_TOL
        res_masked = np.where(tied, res_row[None, :], np.iinfo(np.int64).max)
        rmin = res_masked.min(axis=1)
        idx = (tied & (res_masked == rmin[:, None])).argmax(axis=1)
        return idx, total[np.arange(total.shape[0]), idx], rmin

    shifts_head = inst.shifts(n)
    for i in range(n - 1, 0, -1):
        shifts_tail = inst.shifts(i)
        cons_head = inst.gamma[i] * np.abs(shifts_head)
        jump = np.abs(
            int(inst.x[i]) - int(inst.x[i - 1])
            + shifts_head[None, :]
            - shifts_tail[:, None]
        )
        weight = inst.c[i] * shifts_head[None, :] + inst.alpha * jump
        total = weight + lam * cons_head[None, :] + cost[i][None, :]
        choice[i - 1], cost[i - 1], res[i - 1] = lex_min_rows(
            total, cons_head + res[i]
        )
        shifts_head = shifts_tail
    shifts1 = inst.shifts(1)
    cons1 = inst.gamma[0] * np.abs(shifts1)
    total_s = (inst.c[0] * shifts1 + lam * cons1 + cost[0])[None, :]
    idx, cost_s, res_s = lex_min_rows(total_s, cons1 + res[0])
    return cost, res, choice, (float(cost_s[0]), int(res_s[0]), int(idx[0]))


def assert_matches_reference_sweep(inst, lams) -> None:
    """relaxed_costs_to_sink(inst, lams) equals reference_sweep of every
    multiplier bit for bit."""
    for lam, got in zip(lams, relaxed_costs_to_sink(inst, lams)):
        cost, res, choice, source = reference_sweep(inst, lam)
        assert got.cost.tobytes() == cost.tobytes()
        assert np.array_equal(got.res, res)
        assert np.array_equal(got.choice, choice)
        assert (got.source_cost, got.source_res, got.source_choice) == source
