"""A* search on the implicit layered graph.

The search runs with the multiplier-relaxation heuristic, which is
consistent, so every node is expanded at most once and the first path into
the sink is optimal. Three independent prunings cut the search space:

* dominated edges: a nonzero step whose immediate cost exceeds the zero
  step's cost by more than the worst-case saving on the following jump can
  never lie on an optimal path;
* upper-bound pruning: labels whose optimistic total exceeds the best known
  feasible cost are dropped;
* optional label dominance: a label is dropped when some already expanded
  label of the same (layer, value) class has at least the capacity and at
  most the cost.

States are packed integers in a hash map; the graph is never materialized.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .graph import NodeRef
from .instance import (
    RadiusCache,
    Solution,
    SolverStats,
    TripInstance,
    clamp_delta,
    objective,
    resource_use,
)
from .lagrange import binary_search, default_epsilon, heuristic_table

PRUNE_TOL = 1e-9


@dataclass
class AstarOptions:
    edge_pruning: bool = True
    upper_bound_pruning: bool = True
    node_dominance: bool = False
    heuristic_table_cap: int = 40_000_000
    expansion_listener: Optional[Callable[[NodeRef, float], None]] = None


def edge_dominated(
    inst: TripInstance, layer: int, delta_u: int, delta_v: int
) -> bool:
    """True when the edge from a layer node with shift delta_u to a
    layer + 1 node with shift delta_v cannot lie on an optimal path.

    Compares the edge against rerouting through the zero step: if the cost
    surplus exceeds the largest possible saving alpha * |delta_v| on the
    following jump, the reroute is strictly better. Never true for
    delta_v = 0.
    """
    if not 1 <= layer <= inst.n - 1:
        raise ValueError(f"layer = {layer} out of range 1..{inst.n - 1}")
    if delta_v == 0:
        return False
    base = int(inst.x[layer]) - int(inst.x[layer - 1]) - delta_u
    lhs = (
        inst.c[layer] * delta_v
        + inst.alpha * abs(base + delta_v)
        - inst.alpha * abs(base)
    )
    return bool(lhs > inst.alpha * abs(delta_v))


def _dominated_masks(inst: TripInstance) -> list[np.ndarray]:
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


def solve_astar(
    inst: TripInstance,
    epsilon: Optional[float] = None,
    options: Optional[AstarOptions] = None,
    cache: Optional[RadiusCache] = None,
) -> Solution:
    """Globally optimal step vector by preprocessed A* search.

    The multiplier bisection runs first; when it proves an optimum on its
    own (budget met exactly, or the unconstrained optimum already feasible)
    no search happens at all. Otherwise A* runs from source to sink with
    f = path cost + heuristic; ties prefer larger remaining capacity, then
    the deeper layer, then the smaller value index.

    With a cache, the bisection's sweeps and the dominated-edge masks, which
    do not depend on the radius, are kept there for later calls on the same
    instance. Without one, the bisection's tables off its path are freed
    before the search.
    """
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

    # weights_all[layer][j] and cons_all[layer]: edges out of (layer, j)
    weights_all, cons_all = tables.weights, tables.cons
    dom = None
    if opts.edge_pruning and cache is None:
        dom = _dominated_masks(inst)
    elif opts.edge_pruning:
        dom = cache.entry("dominated", inst, lambda: _dominated_masks(inst))

    lam_arr = np.array([t.lam for t in tables.zeta])
    zcost = np.stack([t.cost for t in tables.zeta])  # (L, n, m)
    h_dense: Optional[np.ndarray] = None
    if n * m * width <= opts.heuristic_table_cap:
        h_dense = heuristic_table(inst, tables)

    def h_row(head: int, etas: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Heuristic values for prospective labels in layer `head`."""
        if h_dense is not None:
            return h_dense[head - 1, cols, etas]
        sub = zcost[:, head - 1, cols]  # (L, k)
        return (sub - lam_arr[:, None] * etas[None, :]).max(axis=0)

    # packed state: (layer * m + value_index) * width + capacity
    def pack(layer: int, j: int, eta: int) -> int:
        return (layer * m + j) * width + eta

    src = pack(0, 0, inst.delta)
    snk = pack(n + 1, 0, 0)
    g_of: dict[int, float] = {src: 0.0}
    parent: dict[int, int] = {}
    closed: set[int] = set()
    expanded_classes: dict[int, list[tuple[int, float]]] = {}
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
        if opts.node_dominance and 1 <= layer <= n:
            expanded_classes.setdefault(layer * m + j, []).append((eta, g))

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
            if opts.node_dominance:
                entries = expanded_classes.get(head * m + j2)
                if entries is not None and any(
                    e_eta >= eta2 and e_g <= g2 for e_eta, e_g in entries
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
