"""A* search on the implicit layered graph.

The search runs with the multiplier-relaxation heuristic, which is
consistent and 0 at the last layer, so every node is expanded at most once
and the first last-layer label expanded ends an optimal path. The
relaxation covers only the reach windows (lagrange), which makes its bound
tight on knapsack reductions, whose windows hold 1-2 values, so the search
there expands a small share of the states topo visits. Two independent
prunings, both always on, cut the search space:

* dominated edges: an edge whose weight exceeds that of the edge into the
  head layer's zero step by more than the jump between the two heads can
  never lie on an optimal path, since the reroute through the zero step
  uses no budget and, by the triangle inequality, saves more than its next
  jump can cost (successor_row);
* upper-bound pruning: labels whose optimistic total exceeds the best known
  feasible cost by more than the rounding of both (instance.rounding_bound)
  and the most the relaxed tables' ties add to a heuristic
  (instance.cost_bound) are dropped.

States are packed integers in a hash map; the graph is never materialized.
Two structures keep the work per expansion small, and both only leave out
what the search could never read, so every expansion, f value and counter
is that of a search over all m value indices. Both read the instance's edge
terms and reach windows (graph.edge_terms, graph.reach_windows) from the
multiplier search's Sweeps record (lagrange), which derives them once, at
the record's radius R >= delta; lagrange.Sweeps says why the record, the
rows and the table it keeps serve delta:

* successor rows: a (layer, value index) class builds the list of its
  out-edges on its first expansion, as Python (consumption, head value
  index, weight) triples sorted by (consumption, value index), with the
  dominated edges left out, over the next layer's window. A label with
  capacity eta follows the prefix of the row with consumption <= eta,
  exactly the heads the budget admits. The record keeps the rows, and
  the heads of every layer in that order with their edge terms, so a row
  is gathered in order and never sorted (Sweeps.successor_terms). The
  pushes of one expansion reach distinct states and every heap entry is a
  distinct tuple, so pushing the heads in this order instead of by value
  index pops the same sequence.
* windowed heuristic table: lagrange.heuristic_table fills the heuristic
  over the record's windows only, (n, widest window, table radius + 1),
  with the floats of the dense table; a label's head always lies in its
  layer's window, since its edge consumed at most the radius. Above
  HEURISTIC_TABLE_CAP entries no table is built, and each push takes the
  maximum of cost - lam * capacity from the multipliers' (n, m) cost
  tables in place; max is exact, so the floats are those the table would
  hold.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Callable, Optional

import numpy as np

from .graph import NodeRef
from .instance import (
    TABLE_BYTES_CAP,
    RadiusCache,
    Solution,
    SolverError,
    TripInstance,
    clamp_delta,
    rounding_bound,
)
from .lagrange import Sweeps, binary_search, default_epsilon, heuristic_table

# largest heuristic table, in float64 entries, built before the search; above
# it the heuristic is evaluated per push from the multiplier cost tables
HEURISTIC_TABLE_CAP = TABLE_BYTES_CAP // 8


def successor_row(record: Sweeps, layer: int, j: int) -> list[tuple[int, int, float]]:
    """The out-edges of value index j of layer 0..n-1, as (consumption,
    head value index, weight) triples sorted by (consumption, value index).

    The heads are the reach window of layer + 1 held by record, the Sweeps
    record of the searched instance at a radius at least its delta, in the
    order record.successor_terms keeps with their terms; the keys are
    distinct, so the row needs no sort. Weights and consumptions are the
    record's graph.edge_terms: linear[layer, j'] + jump[j, j'], and
    linear[0, j'] from the source. An edge from layer >= 1 into j' is left
    out where its weight exceeds that of the edge into the head layer's
    zero step z plus jump[z, j']: rerouting through z consumes no budget,
    and by the triangle inequality the reroute's next jump, jump[z, k],
    costs at most jump[z, j'] + jump[j', k], so the reroute is strictly
    cheaper on every path and the edge lies on no optimal one. z itself is
    never left out. Where the two sides tie exactly, their float sums may
    round either way; an edge left out then has a reroute that costs no
    more, so an optimum is kept.
    """
    heads, cons, linear, jump_z, z = record.successor_terms()[layer]
    if layer == 0:
        weights = linear
    else:
        _, linear_all, jump = record.terms
        weights = linear + jump[j, heads]
        keep = weights <= linear_all[layer, z] + jump[j, z] + jump_z
        heads, cons, weights = heads[keep], cons[keep], weights[keep]
    return list(zip(cons.tolist(), heads.tolist(), weights.tolist()))


def solve_astar(
    inst: TripInstance,
    cache: Optional[RadiusCache] = None,
    *,
    expansion_listener: Optional[Callable[[NodeRef, float], None]] = None,
) -> Solution:
    """Globally optimal step vector by preprocessed A* search.

    The multiplier search runs first: lagrange.binary_search, a safeguarded
    cutting-plane method on the Lagrangian dual (Kelley 1960; Handler &
    Zang 1980) that sweeps each multiplier as it evaluates it, at most two
    per round, and stops when a bracket end or the cut reaches the model
    value of the dual within lagrange.default_epsilon(inst), 1e-6 * (1 +
    max|c|); the search is exact at any tolerance, which only moves the
    multipliers it evaluates. When it
    proves an optimum on its own (budget met exactly, or the unconstrained
    optimum already feasible) no search happens at all. Otherwise A* runs
    from the source with f = path cost + heuristic; ties prefer larger
    remaining capacity, then the deeper layer, then the smaller value index.
    The heuristic is 0 at layer n, so the first layer-n label expanded ends
    an optimal path and the search. preprocessing_iterations counts the
    rounds of the multiplier search.

    The multiplier search's Sweeps record (tables.record) holds the
    instance's edge terms and reach windows, which the successor rows, the
    heuristic table and the search read; without a cache the multiplier
    search makes a record of its own. With a cache the record may come from
    a call at a larger radius, and lagrange.Sweeps says why the answer is
    still an optimum though nodes_expanded, nodes_generated and
    preprocessing_iterations may differ from a fresh solve's. During the
    search the record keeps alive every table swept, each one a multiplier
    some search evaluated, with the relaxed paths' steps, the edge terms
    and the windows.

    expansion_listener, when given, is called with the node and f of every
    expansion, in order.

    Raises SolverError when the search exhausts without reaching the last
    layer, which a consistent heuristic and a feasible zero step rule out.
    """
    t0 = time.perf_counter()
    inst = clamp_delta(inst)
    tables = binary_search(inst, default_epsilon(inst), cache)
    if tables.early_exit is not None:
        sol = tables.early_exit
        sol.stats.wall_seconds = time.perf_counter() - t0
        return sol

    n, m, width = inst.n, inst.m, inst.delta + 1
    record = tables.record
    # the incumbent is at worst the zero step, recorded at the upper end; the
    # margin covers the rounding of f and of its objective, and the
    # heuristic's excess: a table entry exceeds the exact cost-to-sink by at
    # most n of its sweep's ties, the largest at the largest multiplier
    # (instance.cost_bound)
    bound = tables.upper_bound + rounding_bound(inst)
    bound += n * record.tie(max(tables.lambdas))
    rows = record.rows  # key layer * m + j

    window_start, _, cols, _ = record.windows
    h_table: Optional[np.ndarray] = None
    # the table pays: a read per label is cheaper than a maximum over the
    # multipliers
    if n * (m if cols is None else cols.shape[1]) * width <= HEURISTIC_TABLE_CAP:
        h_table = heuristic_table(inst, tables)  # row of value index j: j - window_start
    else:  # the heuristic per label
        zeta = [(t.cost.item, t.lam) for t in tables.zeta]

    # packed state: (layer * m + value_index) * width + capacity
    src = inst.delta
    inf = math.inf
    g_of: dict[int, float] = {src: 0.0}
    parent: dict[int, int] = {}
    heap = [(tables.dual_bound(), -inst.delta, 0, 0, src, 0.0)]  # a heap of one
    heappush, heappop = heapq.heappush, heapq.heappop
    expanded = 0
    generated = 1

    while heap:
        f, neg_eta, neg_layer, j, packed, g = heappop(heap)
        if g > g_of[packed]:  # a label its state has since bettered
            continue
        expanded += 1
        layer, eta = -neg_layer, -neg_eta
        if expansion_listener is not None:
            expansion_listener(NodeRef(layer, j, eta), f)
        if layer == n:  # the heuristic is 0 here, so f = g is the optimum
            break

        row = rows.get(packed // width)
        if row is None:
            row = rows[packed // width] = successor_row(record, layer, j)
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
            if f2 > bound:
                continue
            g_of[p2] = g2
            parent[p2] = packed
            heappush(heap, (f2, -eta2, -head, j2, p2, g2))
            generated += 1
    else:
        raise SolverError("search exhausted without reaching the last layer")

    js = []  # value indices of layers n..1
    at = packed
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
