"""A* search on the implicit layered graph.

The search runs with the multiplier-relaxation heuristic, which is
consistent, so every node is expanded at most once and the first path into
the sink is optimal. The relaxation covers only the reach windows
(lagrange), which makes its bound tight on knapsack reductions: on the 24
seed-0 knapsacks of the benchmark the search expands 21810 states, 8.5% of
the states topo visits. Two independent prunings cut the search space:

* dominated edges: a nonzero step whose immediate cost exceeds the zero
  step's cost by more than the worst-case saving on the following jump can
  never lie on an optimal path;
* upper-bound pruning: labels whose optimistic total exceeds the best known
  feasible cost are dropped.

States are packed integers in a hash map; the graph is never materialized.
Two structures keep the work per expansion small, and both only leave out
what the search could never read, so every expansion, f value and counter
is that of a search over all m value indices:

* successor rows: a (layer, value index) class builds the list of its
  out-edges on its first expansion, as Python (consumption, head value
  index, weight) triples sorted by (consumption, value index), with the
  dominated edges left out. The heads are those of the next layer's reach
  window (graph.reach_windows), the only ones whose edges consume at most
  the radius. A label with capacity eta follows the prefix of the row with
  consumption <= eta, exactly the heads the budget admits. The rows do not
  depend on the capacity, so a RadiusCache keeps them for every radius up
  to the one they were built at. The pushes of one expansion reach
  distinct states and every heap entry is a distinct tuple, so pushing the
  heads in this order instead of by value index pops the same sequence.
* windowed heuristic table: lagrange.heuristic_table fills the heuristic
  over the reach windows only, (n, widest window, delta + 1), with the
  floats of the dense table; a label's head always lies in its layer's
  window, since its edge consumed at most the radius. Above
  HEURISTIC_TABLE_CAP entries no table is built, and each push takes the
  maximum of cost - lam * capacity from the multipliers' (n, m) cost
  tables in place; max is exact, so the floats are those the table would
  hold.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .graph import NodeRef, edge_terms, reach_windows
from .instance import (
    TABLE_BYTES_CAP,
    RadiusCache,
    Solution,
    SolverError,
    TripInstance,
    clamp_delta,
    objective,
)
from .lagrange import binary_search, default_epsilon, heuristic_table

PRUNE_TOL = 1e-9
# largest heuristic table, in float64 entries, built before the search; above
# it the heuristic is evaluated per push from the multiplier cost tables
HEURISTIC_TABLE_CAP = TABLE_BYTES_CAP // 8


@dataclass
class AstarOptions:
    edge_pruning: bool = True
    upper_bound_pruning: bool = True
    expansion_listener: Optional[Callable[[NodeRef, float], None]] = None


def edge_dominated(
    inst: TripInstance, layer: int, delta_u: int, delta_v: np.ndarray
) -> np.ndarray:
    """Mask over delta_v: True where the edge from a layer node with shift
    delta_u to a layer + 1 node with shift delta_v cannot lie on an optimal
    path.

    Compares each edge against rerouting through the zero step: if the cost
    surplus exceeds the largest possible saving alpha * |delta_v| on the
    following jump, the reroute is strictly better. Never true for
    delta_v = 0.
    """
    if not 1 <= layer <= inst.n - 1:
        raise ValueError(f"layer = {layer} out of range 1..{inst.n - 1}")
    dv = np.asarray(delta_v)
    base = int(inst.x[layer]) - int(inst.x[layer - 1]) - delta_u
    # alpha factored out of the two jump terms
    lhs = inst.c[layer] * dv + inst.alpha * (np.abs(base + dv) - np.abs(base))
    return (lhs > inst.alpha * np.abs(dv)) & (dv != 0)


@dataclass
class SuccessorRows:
    """The out-edges of the (layer, value index) classes a search expands,
    built on first use.

    rows[layer * m + j] lists (consumption, value index, weight) of the
    edges from value index j of layer 0..n-1 into the reach window of layer
    + 1 at the radius of inst, sorted by (consumption, value index), less
    the dominated edges when pruned is set. Weights and consumptions come
    from graph.edge_terms: linear[layer, j'] + jump[j, j'], and linear[0, j']
    from the source.
    """

    inst: TripInstance
    pruned: bool
    rows: dict[int, list[tuple[int, int, float]]] = field(default_factory=dict)
    lo: list[int] = field(init=False)
    hi: list[int] = field(init=False)
    cons: np.ndarray = field(init=False)
    linear: np.ndarray = field(init=False)
    jump: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.lo, self.hi = (w.tolist() for w in reach_windows(self.inst))
        self.cons, self.linear, self.jump = edge_terms(self.inst)

    def build(self, layer: int, j: int) -> list[tuple[int, int, float]]:
        """Build, keep and return the row of value index j in layer."""
        inst = self.inst
        a, b = self.lo[layer], self.hi[layer]
        heads = np.arange(a, b)
        if self.pruned and layer >= 1:
            du = inst.xi[j] - inst.x[layer - 1]
            dv = inst.xi[a:b] - inst.x[layer]
            heads = heads[~edge_dominated(inst, layer, du, dv)]
        weights = self.linear[layer, heads]
        if layer >= 1:
            weights = weights + self.jump[j, heads]
        row = sorted(
            zip(self.cons[layer, heads].tolist(), heads.tolist(), weights.tolist())
        )
        self.rows[layer * inst.m + j] = row
        return row


def solve_astar(
    inst: TripInstance,
    epsilon: Optional[float] = None,
    options: Optional[AstarOptions] = None,
    cache: Optional[RadiusCache] = None,
) -> Solution:
    """Globally optimal step vector by preprocessed A* search.

    The multiplier search runs first: lagrange.binary_search, a safeguarded
    cutting-plane method on the Lagrangian dual (Kelley 1960; Handler &
    Zang 1980) that sweeps three multipliers per round and stops when a
    bracket end or the cut reaches the model value of the dual within
    epsilon. When it proves an optimum on its own (budget met exactly, or
    the unconstrained optimum already feasible) no search happens at all.
    Otherwise A* runs from source to sink with f = path cost + heuristic;
    ties prefer larger remaining capacity, then the deeper layer, then the
    smaller value index. preprocessing_iterations counts the rounds of the
    multiplier search.

    With a cache, the multiplier search's sweeps and the successor rows are
    kept there for later calls on the same instance at radii up to the one
    they were built at; rows built with and without edge pruning are
    separate entries. Both cover the reach windows of that radius, which
    hold those of every smaller one, so the heuristic stays consistent and
    the answer optimal. Where the windows at the radius of a call are
    narrower, its multiplier search may evaluate other multipliers than a
    solve without the cache, and nodes_expanded, nodes_generated and
    preprocessing_iterations may differ. Without a cache, the search keeps
    only the evaluated tables; the K tables of one sweep are views of one
    block of arrays, so a table swept but not evaluated is freed before the
    search only when no table of its sweep was evaluated.

    Raises SolverError when the search exhausts without reaching the sink,
    which a consistent heuristic and a feasible zero step rule out.
    """
    t0 = time.perf_counter()
    opts = options or AstarOptions()
    inst = clamp_delta(inst)
    if epsilon is None:
        epsilon = default_epsilon(inst)
    tables = binary_search(inst, epsilon, cache)
    if tables.early_exit is not None:
        sol = tables.early_exit
        sol.stats.wall_seconds = time.perf_counter() - t0
        return sol

    n, m, width = inst.n, inst.m, inst.delta + 1
    zero = np.zeros(n, dtype=np.int64)
    upper = min(tables.upper_bound, objective(inst, zero))
    bound = upper + PRUNE_TOL

    # a throwaway cache made only now, once binary_search's own is gone
    name = f"successor rows, edge pruning {opts.edge_pruning}"
    succ = (cache or RadiusCache()).entry(
        name, inst, lambda: SuccessorRows(inst, opts.edge_pruning)
    )
    rows = succ.rows

    lo, hi = reach_windows(inst)
    window_start = lo.tolist()  # heuristic table row of value index j: j - lo
    h_table: Optional[np.ndarray] = None
    # the table pays: per label, knapsack solves take 1.25-1.35x as long
    if n * int((hi - lo).max()) * width <= HEURISTIC_TABLE_CAP:
        h_table = heuristic_table(inst, tables)
    else:  # the heuristic per label
        zeta = [(t.cost.item, t.lam) for t in tables.zeta]

    # packed state: (layer * m + value_index) * width + capacity
    src = inst.delta
    snk = (n + 1) * m * width
    inf = math.inf
    g_of: dict[int, float] = {src: 0.0}
    parent: dict[int, int] = {}
    closed: set[int] = set()
    heap: list[tuple[float, int, int, int, int, float]] = []
    heapq.heappush(heap, (tables.dual_bound(), -inst.delta, 0, 0, src, 0.0))
    heappush, heappop = heapq.heappush, heapq.heappop
    listener = opts.expansion_listener
    ub_pruning = opts.upper_bound_pruning
    expanded = 0
    generated = 1

    best_goal_g = inf
    while heap:
        f, neg_eta, neg_layer, j, packed, g = heappop(heap)
        if packed in closed or g > g_of.get(packed, inf):
            continue
        closed.add(packed)
        expanded += 1
        layer, eta = -neg_layer, -neg_eta
        if listener is not None:
            listener(NodeRef(layer, j, eta), f)
        if packed == snk:
            best_goal_g = g
            break

        if layer == n:
            if g < g_of.get(snk, inf):
                g_of[snk] = g
                parent[snk] = packed
                heappush(heap, (g, 0, -(n + 1), 0, snk, g))
                generated += 1
            continue

        row = rows.get(packed // width)  # key layer * m + j
        if row is None:
            row = succ.build(layer, j)
        head = layer + 1
        at_head = head * m
        if h_table is not None:
            h_head, first = h_table[layer], window_start[layer]
        for used, j2, w in row:
            if used > eta:
                break
            eta2 = eta - used
            g2 = g + w
            p2 = (at_head + j2) * width + eta2
            if g2 >= g_of.get(p2, inf):
                continue
            if h_table is not None:
                f2 = g2 + h_head.item(j2 - first, eta2)
            else:
                f2 = g2 + max(cost(layer, j2) - lam * eta2 for cost, lam in zeta)
            if ub_pruning and f2 > bound:
                continue
            g_of[p2] = g2
            parent[p2] = packed
            heappush(heap, (f2, -eta2, -head, j2, p2, g2))
            generated += 1

    if best_goal_g == inf:
        raise SolverError("search exhausted without reaching the sink")

    js = []  # value indices of layers n..1
    at = parent[snk]
    while at != src:
        js.append(at // width % m)
        at = parent[at]
    d = inst.xi[js[::-1]] - inst.x

    return Solution.of(
        inst,
        d,
        nodes_expanded=expanded,
        nodes_generated=generated,
        preprocessing_iterations=tables.iterations,
        wall_seconds=time.perf_counter() - t0,
    )
