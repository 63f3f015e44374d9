"""Multiplier relaxation of the budget constraint.

Moving the budget constraint into the objective at price lam turns the
problem into an unconstrained shortest path on the quotient graph with edge
weights increased by lam times the edge consumption. The relaxed optimum
lower-bounds the constrained one for every lam >= 0, and the cost-to-sink
tables of the relaxed graphs combine into a consistent A* heuristic.

The Lagrangian dual L(lam), the relaxed optimum less lam * delta, is
concave and piecewise linear: the relaxed path of a multiplier, with cost c
and budget use r, gives the supporting line c + lam * (r - delta). A
safeguarded cutting-plane search (Kelley, J. SIAM 1960; for this dual,
Handler & Zang, Networks 1980) locates a near-optimal multiplier: paths
that overuse the budget raise the lower end of a bracket, paths within
budget lower its upper end and double as feasible incumbents, and a path
hitting the budget exactly proves its own optimality, ending the search
outright. Each round intersects the lines of the two ends at a cut, whose
model value bounds the dual from above. The search stops when an end or
the cut reaches that bound, and every round also evaluates the midpoint of
the bracket left, so the bracket halves at least as fast as in a bisection.

Each relaxed graph is evaluated by a backward sweep over the layers.
`relaxed_costs_to_sink` evaluates several multipliers in one pass, forming
the edge weights from the terms of graph.edge_terms, and a round sweeps its
cut together with the midpoints on either side of it, one of which is the
midpoint it evaluates next. On the 24 seed-0 knapsack reductions of the
benchmark this takes 102 sweeps, where a bisection down to epsilon took 288.
A layer's rows minimise over the same column costs plus an L1 jump, so a
column that wins by more than its jump to every other column wins every row
(the triangle inequality, as in the L1 distance transform of Felzenszwalb &
Huttenlocher, Theory of Computing 2012). A sweep tests this on each layer
with a handful of numpy operations on (K, m) arrays and, when it holds for
every multiplier, fills the layer from that column; only the other layers
build the (K, m, m) totals and take the lexicographic minimum of each row.
At the multipliers the benchmark's searches evaluate, 94% of the layers of
its heat sweeps pass, and 61% of its knapsack ones. Each numpy operation is
small at these m, so per layer the sweep is bound by interpreter overhead,
not arithmetic.

A relaxed sweep does not read the radius delta: it enters only when the
search compares a path's budget use with it. A RadiusCache therefore keeps
every swept table of an instance with its relaxed path's step once read
(the Sweeps record), and a sweep evaluates only multipliers not swept
before. The cache spares sweeps and nothing else: the tables read from it
are the floats a new sweep would compute, the search evaluates the
multipliers a search without the cache evaluates, and only those tables
enter the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graph import NodeRef, edge_terms, reach_windows
from .instance import (
    RadiusCache,
    Solution,
    SolverError,
    TripInstance,
    check_table_bytes,
    objective,
)

# Cost comparisons treat differences below this as ties so that the
# smallest-budget path among equal-cost paths is selected reproducibly.
COST_TIE_TOL = 1e-12
# tie key of an entry outside the cost ties, above every real key
_NO_KEY = np.iinfo(np.int64).max


@dataclass(frozen=True)
class ZetaTable:
    """Cost-to-sink data of one relaxed quotient graph.

    cost[i - 1, j] is the cheapest relaxed cost from the layer-i node with
    value index j to the sink; res holds the smallest budget use among those
    cheapest paths and choice the successor index realizing the pair.
    source_* carry the same data for the source node.
    """

    lam: float
    cost: np.ndarray  # (n, m) float
    res: np.ndarray  # (n, m) int
    choice: np.ndarray  # (n, m) int, -1 in the last layer
    source_cost: float
    source_res: int
    source_choice: int


@dataclass
class LagrangeTables:
    """Everything the multiplier search produced: evaluated multipliers with
    their cost-to-sink tables, the best feasible incumbent, and, when a
    relaxed path met the budget exactly, the proven optimum."""

    inst: TripInstance
    zeta: list[ZetaTable] = field(default_factory=list)
    upper_bound: float = math.inf
    incumbent: Optional[Solution] = None
    early_exit: Optional[Solution] = None
    lambda_star: float = 0.0
    iterations: int = 0  # rounds, endpoint evaluations excluded
    log: list[tuple[float, float, int]] = field(default_factory=list)

    @property
    def lambdas(self) -> list[float]:
        """The evaluated multipliers, in the order of zeta."""
        return [t.lam for t in self.zeta]

    def dual_bound(self) -> float:
        """Best lower bound on the constrained optimum over all multipliers."""
        return max(
            t.source_cost - t.lam * self.inst.delta for t in self.zeta
        )


@dataclass
class Sweeps:
    """The radius-free work of the multiplier searches of one instance:
    every relaxed table swept so far, by its exact multiplier, and the
    relaxed path's step of each table whose path a search used."""

    swept: dict[float, ZetaTable] = field(default_factory=dict)
    steps: dict[float, np.ndarray] = field(default_factory=dict)

    def sweep(self, inst: TripInstance, lams: list[float]) -> None:
        """Sweep every multiplier of lams not swept yet."""
        new = [lam for lam in lams if lam not in self.swept]
        if new:
            self.swept.update(zip(new, relaxed_costs_to_sink(inst, new)))

    def step(self, inst: TripInstance, lam: float) -> np.ndarray:
        """The relaxed path's step of the table swept at lam."""
        d = self.steps.get(lam)
        if d is None:
            d = self.steps[lam] = extract_path_step(inst, self.swept[lam])
        return d


def _lex_min(
    total: np.ndarray, key: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row minimum over the last axis of total (K, rows, m) in the order
    (cost, budget, column): costs within COST_TIE_TOL of the row minimum tie,
    and among them the smallest key = budget * m + column wins.

    key: (K, m), shared by all rows of one multiplier; offsets: (K, rows),
    the flat index of each row's first entry.
    Returns (cost, budget, column), each (K, rows).
    """
    m = total.shape[-1]
    tied = total <= np.minimum.reduce(total, axis=-1)[..., None] + COST_TIE_TOL
    best = np.minimum.reduce(np.where(tied, key[:, None, :], _NO_KEY), axis=-1)
    col = best % m
    return total.reshape(-1)[offsets + col], best // m, col


def relaxed_costs_to_sink(inst: TripInstance, lams) -> list[ZetaTable]:
    """Backward sweeps over the quotient graph with weights increased by
    lam times the edge consumption, for every lam in lams at once.

    The one sweep function. Keep its name: perfbench's tracer counts the
    sweeps by patching lagrange.relaxed_costs_to_sink, which Sweeps calls.

    Table k is bitwise the table of a sweep for lams[k] alone: each entry is
    computed as ((linear + jump) + lam * consumption) + cost-to-sink, in that
    order, with the terms of graph.edge_terms. Raises InstanceError first
    when the (n, K, m) tables or a layer's (K, m, m) totals would exceed
    TABLE_BYTES_CAP: the former before edge_terms allocates its (n, m)
    terms, the latter once edge_terms has checked its (m, m) jump table.

    Dominated layers. Row j of layer i minimises, over the columns j',
    total[j, j'] = g[j'] + jump[j, j'], where g = (linear + lam * cons) +
    cost-to-sink is the same for every row. Let s be the column of the
    smallest g. If every other column j' has g[j'] > g[s] + jump[s, j'] +
    margin, the triangle inequality jump[j, j'] >= jump[j, s] - jump[s, j']
    gives total[j, j'] > total[j, s] + margin in every row j: s is the only
    entry within COST_TIE_TOL of the row minimum, and the (cost, budget,
    column) rule picks it. Such a layer is filled from column s directly,
    each entry the float expression above, and skips the (K, m, m) totals
    and _lex_min. The test is one decision per layer: column s passes its
    own comparison, so K passing entries mean that no other column passes
    for any multiplier; otherwise the layer runs _lex_min for all of them.
    jump[s] is read as a row, which equals the column jump[:, s] bit for
    bit since |fl(a - b)| = |fl(b - a)|.

    The margin is COST_TIE_TOL + 16 * eps * n * E, where E = max|linear| +
    max jump + max|lam * cons| bounds the terms of one edge, so that a
    cost-to-sink entry is at most (n - 1) * E in size and each sum above at
    most B = n * E, up to factors 1 + O(n * eps). With u = eps / 2, the unit
    roundoff: a total is within 3uB of its exact sum and g within 2uB; the
    jump table is alpha * |X_j' - X_j|, X the floats of xi, to a relative
    2u, and the triangle inequality holds exactly for those X; the test's
    two additions err by at most 2u(B + margin), and the tie test's
    row minimum plus COST_TIE_TOL by u(B + COST_TIE_TOL). The test can only
    pass when the g spread, at most 2B, exceeds COST_TIE_TOL, and then these
    errors stay below 32uB = 16 * eps * n * E: the computed totals of every
    row differ from the one at s by more than COST_TIE_TOL, so the tables
    are bitwise those of _lex_min. When 2 * n * E is not finite (overflowing
    inputs), a g could be too, and every layer takes _lex_min.
    """
    n, m = inst.n, inst.m
    lam = np.asarray(lams, dtype=np.float64)
    k = lam.size
    check_table_bytes("relaxed sweep tables", n * k * m * 8)
    cons, linear, jump = edge_terms(inst)
    check_table_bytes("relaxed sweep tables", k * m * m * 8)
    lam_cons = lam[None, :, None] * cons[:, None, :]  # (n, K, m)
    key_cons = cons * m + np.arange(m)  # (budget * m + column) per edge
    cost = np.zeros((n, k, m))
    res = np.zeros((n, k, m), dtype=np.int64)
    choice = np.full((n, k, m), -1, dtype=np.int64)
    offsets = np.arange(0, k * m * m, m).reshape(k, m)
    scale = n * (
        float(np.abs(linear).max())
        + float(jump.max())
        + float(np.abs(lam_cons).max(initial=0.0))
    )
    dominance = math.isfinite(2.0 * scale)
    margin = COST_TIE_TOL + 16.0 * np.finfo(np.float64).eps * scale
    lin_lam = linear[:, None, :] + lam_cons  # (n, K, m): g before its cost-to-sink
    first = np.arange(0, k * m, m)  # flat index of each multiplier's row
    # last layer: only the zero-weight, zero-consumption sink edge
    for i in range(n - 1, 0, -1):
        if dominance:
            g = lin_lam[i] + cost[i]
            s = g.argmin(axis=1)
            at = first + s
            jump_s = jump.take(s, axis=0)  # (K, m): jump[s_q, j] in row j
            bound = jump_s + g.take(at)[:, None]
            bound += margin
            if np.count_nonzero(g <= bound) == k:
                # fill the rows from column s, as total[:, :, s]
                row = cost[i - 1]
                np.add(linear[i].take(s)[:, None], jump_s, out=row)
                row += lam_cons[i].take(at)[:, None]
                row += cost[i].take(at)[:, None]
                res[i - 1] = (cons[i].take(s) + res[i].take(at))[:, None]
                choice[i - 1] = s[:, None]
                continue
        total = (linear[i] + jump) + lam_cons[i][:, None, :]
        total += cost[i][:, None, :]
        cost[i - 1], res[i - 1], choice[i - 1] = _lex_min(
            total, key_cons[i] + res[i] * m, offsets
        )
    total = linear[:1] + lam_cons[0][:, None, :]
    total += cost[0][:, None, :]
    cost_s, res_s, choice_s = _lex_min(
        total, key_cons[0] + res[0] * m, first[:, None]
    )
    return [
        ZetaTable(
            lam=float(lam[q]),
            cost=np.ascontiguousarray(cost[:, q]),
            res=np.ascontiguousarray(res[:, q]),
            choice=np.ascontiguousarray(choice[:, q]),
            source_cost=float(cost_s[q, 0]),
            source_res=int(res_s[q, 0]),
            source_choice=int(choice_s[q, 0]),
        )
        for q in range(k)
    ]


def extract_path_step(inst: TripInstance, table: ZetaTable) -> np.ndarray:
    """Step vector of the relaxed shortest path encoded in a table's
    successor choices."""
    item, m = table.choice.item, inst.m
    js = [table.source_choice]
    for first in range(0, (inst.n - 1) * m, m):  # flat index of a row's start
        js.append(item(first + js[-1]))
    return inst.xi[js] - inst.x


def relaxed_objective(inst: TripInstance, d: np.ndarray, lam: float) -> float:
    """Step cost plus lam times the budget overshoot (negative when under)."""
    d = np.asarray(d, dtype=np.int64)
    overshoot = int(np.dot(inst.gamma, np.abs(d))) - inst.delta
    return objective(inst, d) + lam * overshoot


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless epsilon is a finite positive tolerance: a NaN
    would stop the search before its first round."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")


def binary_search(
    inst: TripInstance, epsilon: float, cache: Optional[RadiusCache] = None
) -> LagrangeTables:
    """Safeguarded cutting-plane search for a multiplier within epsilon of
    an optimal one.

    The multiplier 0 is evaluated first: if its cheapest path (smallest
    budget use among cost ties) already fits the budget it is optimal and
    the search exits. The initial upper endpoint max|c| + 2*alpha is
    evaluated next; there the zero step is relaxed-optimal, which seeds the
    feasible incumbent. Every later evaluation keeps the dual maximisers
    bracketed: budget overshoot raises the lower end, slack lowers the
    upper end and updates the incumbent, an exact budget hit is returned as
    the proven optimum.

    Each round cuts the two ends' path lines c + lam * (r - delta) at their
    intersection `cut`, whose model value bounds the dual from above. If
    the better end's dual value is within epsilon of the model value, that
    end is returned without a sweep. Otherwise one sweep evaluates cut (the
    bracket's midpoint if cut is not strictly inside it) and the midpoints
    on either side of it. The round evaluates cut, moves an end to it,
    evaluates the midpoint of the bracket left and moves an end again, so
    it at least halves the bracket; an evaluation whose dual value is
    within epsilon of the model value ends the search at its multiplier.
    Path slopes r - delta are integers, so a multiplier within epsilon of
    the dual optimum in value is within epsilon of a maximiser.

    With a cache, the swept tables are kept there, and multipliers swept by
    an earlier search of the same instance are not swept again; the result
    is the one a search without the cache returns.
    """
    check_epsilon(epsilon)
    sweeps = (cache or RadiusCache()).entry("sweeps", inst, Sweeps)
    tables = LagrangeTables(inst=inst)
    upper0 = float(np.max(np.abs(inst.c))) + 2.0 * inst.alpha

    def evaluate(lam: float) -> ZetaTable:
        table = sweeps.swept[lam]
        tables.zeta.append(table)
        tables.log.append((table.lam, dual(table), table.source_res))
        return table

    def dual(table: ZetaTable) -> float:
        return table.source_cost - table.lam * inst.delta

    def path_cost(table: ZetaTable) -> float:
        return table.source_cost - table.lam * table.source_res

    def best_end() -> ZetaTable:
        return hi if dual(hi) > dual(lo) else lo

    def path_solution(table: ZetaTable) -> Solution:
        d = sweeps.step(inst, table.lam).copy()  # the record keeps its own
        return Solution.of(inst, d, preprocessing_iterations=tables.iterations)

    def note_feasible(table: ZetaTable) -> None:
        value = objective(inst, sweeps.step(inst, table.lam))
        if value < tables.upper_bound:
            tables.upper_bound = value
            tables.incumbent = path_solution(table)

    def finish(table: ZetaTable, proven: bool = False) -> LagrangeTables:
        tables.lambda_star = table.lam
        if proven:  # the relaxed path is optimal
            tables.early_exit = path_solution(table)
        tables.zeta.sort(key=lambda t: t.lam)
        return tables

    sweeps.sweep(inst, [0.0, upper0])
    lo = evaluate(0.0)
    if lo.source_res <= inst.delta:
        # the unconstrained optimum fits the budget: done
        return finish(lo, proven=True)

    hi = evaluate(upper0)
    if hi.source_res > inst.delta:  # cannot happen: the zero step is optimal here
        raise SolverError("relaxed path at the upper endpoint overuses budget")
    if hi.source_res == inst.delta:
        return finish(hi, proven=True)
    note_feasible(hi)

    while hi.lam - lo.lam >= epsilon:
        # the ends' path lines meet at cut, where they bound the dual
        c_lo = path_cost(lo)
        cut = (path_cost(hi) - c_lo) / (lo.source_res - hi.source_res)
        model = c_lo + cut * (lo.source_res - inst.delta)
        best = best_end()
        if model - dual(best) <= epsilon:
            return finish(best)
        if not lo.lam < cut < hi.lam:  # rounding: bisect instead
            cut = 0.5 * (lo.lam + hi.lam)
        sweeps.sweep(inst, [cut, 0.5 * (lo.lam + cut), 0.5 * (cut + hi.lam)])
        tables.iterations += 1
        lam = cut
        for _ in range(2):  # cut, then the midpoint of the bracket left
            table = evaluate(lam)
            if table.source_res == inst.delta:
                return finish(table, proven=True)
            if table.source_res < inst.delta:
                note_feasible(table)
            if model - dual(table) <= epsilon:
                return finish(table)
            if table.source_res > inst.delta:
                lo = table
            else:
                hi = table
            lam = 0.5 * (lo.lam + hi.lam)
    return finish(best_end())


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


def heuristic_table(
    inst: TripInstance, tables: LagrangeTables
) -> np.ndarray:
    """Heuristic lookup over the reach windows of the inner layers 1..n:
    H[layer - 1, j - lo[layer - 1], capacity] = heuristic_h of the node
    (layer, j, capacity) for every j in the layer's window lo..hi - 1, with
    (lo, hi) = graph.reach_windows(inst).

    The table has shape (n, wmax, delta + 1), wmax the widest window; the
    slots past a narrower window are padding that belongs to no node. No
    node outside the windows is reachable, so a search never reads them.
    Each entry is cost - lam * capacity, maximised over the tables in the
    order of tables.zeta, the floats heuristic_h computes.
    """
    lo, hi = reach_windows(inst)
    width = inst.delta + 1
    wmax = int((hi - lo).max())
    # padding slots repeat value index m - 1, so every gather stays in range
    cols = np.minimum(lo[:, None] + np.arange(wmax), inst.m - 1)
    layers = np.arange(inst.n)[:, None]
    caps = np.arange(width, dtype=np.float64)
    h = np.full((inst.n, wmax, width), -np.inf)
    for t in tables.zeta:
        np.maximum(
            h, t.cost[layers, cols][:, :, None] - t.lam * caps[None, None, :], out=h
        )
    return h


def default_epsilon(inst: TripInstance) -> float:
    """Preprocessing tolerance scaled to the cost magnitude."""
    return 1e-6 * (1.0 + float(np.max(np.abs(inst.c))))
