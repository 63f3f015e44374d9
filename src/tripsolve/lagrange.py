"""Multiplier relaxation of the budget constraint.

Moving the budget constraint into the objective at price lam turns the
problem into an unconstrained shortest path on the quotient graph with edge
weights increased by lam times the edge consumption. The relaxed optimum
lower-bounds the constrained one for every lam >= 0, and the cost-to-sink
tables of the relaxed graphs combine into a consistent A* heuristic.

The relaxation covers only the reach windows (graph.reach_windows), the
nodes that solve_topo and the search visit too. A value index outside its
layer's window overspends the budget on its own, so every feasible path
avoids it: the relaxation is the Lagrangian dual of the equivalent program
that keeps the per-interval constraints gamma_i * |d_i| <= delta and prices
only their sum. Its optimum still bounds the constrained one from below,
and at every multiplier it is at least the optimum relaxed over all nodes.
Knapsack reductions show the difference: their windows hold 1-2 of
2 * items + 1 values, and on the 24 seed-0 knapsacks of the benchmark the
median gap between the optimum and the dual bound is 2.1 instead of
455 over all nodes.

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
benchmark this takes 144 sweeps.
A layer prices its heads once, g = (linear + lam * consumption) +
cost-to-sink, and every total of the layer is g[j'] + jump[j, j']. Its rows
thus minimise over the same priced columns plus an L1 jump, so a column
that wins by more than its jump to every other column wins every row (the
triangle inequality, as in the L1 distance transform of Felzenszwalb &
Huttenlocher, Theory of Computing 2012), and the layer's rows are the cone
jump[s] + g[s] of that column s. A cost-to-sink row is a minimum of such
cones, so it changes by at most jump[j, j'] between j and j': it is
alpha-Lipschitz in xi. A column whose own price linear + lam * consumption
beats every other by more than twice its jump therefore wins whatever row
arrives from the sink side. Before visiting the layers, a sweep applies
that test to all of them in one whole-array pass, and retries the others
against the cone of the next layer's cheapest columns; a layer whose
tails' window holds one value has one row, and its retry compares that
row's totals directly. A layer step is of one of two kinds. The layers
the pass decides carry each multiplier's cone (winner, g at it, budget)
as Python scalars, with the additions of a per-layer sweep in their order,
and their rows are written after the last layer. The other layers take the
lexicographic minimum of each row, the one place the tie rule is applied;
where every row of one picks the same column, its rows are that column's
cone, which a retry can stand on. At the multipliers the benchmark's
seed-0 searches evaluate, the pass decides 35676 of the 38250 heat layer
steps and the other 2574 take the minimum; it decides 10555 of the 10576
knapsack steps and the other 21 take the minimum. Every table is bitwise
the one the per-layer sweep gives.

A relaxed sweep reads the radius delta only through the windows; delta
enters otherwise only when the search compares a path's budget use with
it. A RadiusCache therefore keeps every swept table of an instance with its
relaxed path's step once read (the Sweeps record), swept over the windows
of the radius the record was built at, and a sweep evaluates only
multipliers not swept before. The windows at a smaller radius lie inside
those, so the tables still bound the optimum there and the heuristic stays
consistent on every edge the search generates. Where the windows are
narrower than at the record's radius, the multipliers the search evaluates,
the heuristic and the search counters may differ from those of a solve
without the cache; the answer is an optimum all the same. A solve without a
cache makes a record for itself alone. The record is the one place an
instance's edge terms and windows are derived: its sweeps, A*'s successor
rows and its heuristic table all read them from there. It also keeps the
last heuristic table built from its tables, laid out over its windows,
which a search at a radius up to the table's own that evaluates the same
multipliers reads again (heuristic_table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graph import edge_terms, reach_windows
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
    value index j to the sink through the reach windows; res holds the
    smallest budget use among those cheapest paths and choice the successor
    index realizing the pair. A node outside its layer's window has no path:
    cost +inf and choice -1. source_* carry the same data for the source
    node.
    """

    lam: float
    cost: np.ndarray  # (n, m) float
    res: np.ndarray  # (n, m) int
    choice: np.ndarray  # (n, m) int, -1 in the last layer and outside windows
    source_cost: float
    source_res: int
    source_choice: int


@dataclass
class LagrangeTables:
    """Everything the multiplier search produced: evaluated multipliers with
    their cost-to-sink tables, the best feasible incumbent, and, when a
    relaxed path met the budget exactly, the proven optimum. record is the
    Sweeps record the tables were read from: the cache's entry, or one made
    for this search alone without a cache."""

    inst: TripInstance
    record: Sweeps
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
    """The multiplier searches' work on one instance at every radius up to
    that of inst, the instance it was built for: every relaxed table swept
    so far over the reach windows of inst, by its exact multiplier, and the
    relaxed path's step of each table whose path a search used.

    The windows at a smaller radius lie inside those of inst, so a table
    swept over the windows of inst bounds the optimum at that radius too,
    and its heuristic stays consistent on every edge a search there
    generates. The record also keeps the inputs of relaxed_costs_to_sink
    that depend on inst alone, which its first sweep computes and which A*'s
    successor rows and heuristic table read too, and one heuristic table:
    the last one heuristic_table built from its tables, htable, with the
    multipliers of those tables in the order of LagrangeTables.zeta,
    htable_lams. The table covers the record's windows at capacities up to
    its own radius, htable.shape[2] - 1, at most that of inst; a search at a
    radius up to that one which evaluates the same multipliers reads it
    again."""

    inst: TripInstance
    swept: dict[float, ZetaTable] = field(default_factory=dict)
    steps: dict[float, np.ndarray] = field(default_factory=dict)
    # graph.edge_terms, and the reach windows as lists with their index
    # tables (relaxed_costs_to_sink), set by the first sweep once its table
    # checks pass
    terms: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    windows: Optional[
        tuple[list[int], list[int], Optional[np.ndarray], Optional[np.ndarray]]
    ] = None
    htable: Optional[np.ndarray] = None
    htable_lams: tuple[float, ...] = ()

    def sweep(self, lams: list[float]) -> None:
        """Sweep every multiplier of lams not swept yet."""
        new = [lam for lam in lams if lam not in self.swept]
        if new:
            self.swept.update(zip(new, relaxed_costs_to_sink(self.inst, new, self)))

    def step(self, lam: float) -> np.ndarray:
        """The relaxed path's step of the table swept at lam."""
        d = self.steps.get(lam)
        if d is None:
            d = self.steps[lam] = extract_path_step(self.inst, self.swept[lam])
        return d


def _lex_min(
    total: np.ndarray, key: np.ndarray, m: int, start: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row minimum over the last axis of total (K, rows, w), the value
    indices start..start + w - 1, in the order (cost, budget, column): costs
    within COST_TIE_TOL of the row minimum tie, and among them the smallest
    key = budget * m + column wins.

    key: (K, w), shared by all rows of one multiplier.
    Returns (cost, budget, column), each (K, rows).
    """
    k, rows, w = total.shape
    tied = total <= np.minimum.reduce(total, axis=-1)[..., None] + COST_TIE_TOL
    best = np.minimum.reduce(np.where(tied, key[:, None, :], _NO_KEY), axis=-1)
    col = best % m
    offsets = np.arange(0, k * rows * w, w).reshape(k, rows)  # each row's start
    return total.reshape(-1)[offsets + (col - start)], best // m, col


def _pick(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """a[l, ..., idx[l, ..., w]] along the last axis of a C-contiguous a, in
    one flat take: idx has the leading axes of a, then its own."""
    start = np.arange(0, a.size, a.shape[-1]).reshape(a.shape[:-1])
    start = start.reshape(start.shape + (1,) * (idx.ndim - start.ndim))
    return a.reshape(-1).take(start + idx)


def _jump_rows(jump: np.ndarray, s: np.ndarray, cols: Optional[np.ndarray]) -> np.ndarray:
    """jump[s[l, q], cols[l, w]], shape (L, K, W); the rows jump[s[l, q]],
    (L, K, m), when cols is None (full windows)."""
    if cols is None:
        return jump.take(s, axis=0)
    return jump[s[:, :, None], cols[:, None, :]]


def _winners(
    h: np.ndarray,
    jump: np.ndarray,
    cols: Optional[np.ndarray],
    slack: float | np.ndarray,
    margin: float,
) -> tuple[np.ndarray, np.ndarray]:
    """For prices h (L, K, W) over the windows cols, +inf in their padding,
    the column s of the smallest price of every step and multiplier, and
    whether, for every multiplier of a step, each other column j' has
    h[j'] > h[s] + slack * jump[s, j'] + 2 * margin. slack is a number or
    an (L, 1, 1) array, one per step."""
    slot = h.argmin(axis=2)
    s = slot if cols is None else _pick(cols, slot)
    bound = _jump_rows(jump, s, cols)
    bound *= slack
    bound += (_pick(h, slot) + 2.0 * margin)[:, :, None]
    # column s itself is one entry at or below the bound per multiplier
    return s, np.count_nonzero((h <= bound).reshape(len(h), -1), axis=1) == h.shape[1]


def _bulk_pass(lin_lam, cons, jump, windows, margin):
    """The predecessor-free and chain tests of relaxed_costs_to_sink on the
    steps into layers 1..n - 1 at once, over the windows (lo, hi, cols, pad)
    of _window_tables. The chain test of a single-row step compares its one
    row's totals (slack 0), that of any other step g with slack 1. Returns
    lists over l = i - 1: whether the step into layer i is decided, the
    winners at layer i + 1 its chain test assumed (None when it passed
    without them), its winners, and lin_lam and cons at them."""
    lo, hi, cols, pad = windows
    heads = None if cols is None else cols[1:]
    if heads is None:
        h = lin_lam[1:]
    else:
        h = _pick(lin_lam[1:], heads[:, None, :])
        np.copyto(h, np.inf, where=pad[1:, None, :])
    s, decided = _winners(h, jump, heads, 2.0, margin)
    guess = [None] * len(h)
    retry = np.flatnonzero(~decided[:-1])  # no step lies beyond the last one
    if retry.size:
        t = s[retry + 1]
        at = None if heads is None else heads[retry]
        f = h[retry] + _jump_rows(jump, t, at)
        # a single-row step's tails' window is the one value j0: f + jump[j0]
        j0 = np.array(lo)[retry]
        single = np.array(hi)[retry] - j0 == 1
        f[single] += _jump_rows(jump, j0[single, None], None if at is None else at[single])
        s[retry], decided[retry] = _winners(
            f, jump, at, np.where(single, 0.0, 1.0)[:, None, None], margin
        )
        for l, winners in zip(retry.tolist(), t.tolist()):
            guess[l] = winners
    return (
        decided.tolist(),
        guess,
        s.tolist(),
        _pick(lin_lam[1:], s).tolist(),
        _pick(cons[1:], s).tolist(),
    )


def _window_tables(inst: TripInstance):
    """The reach windows as lists lo and hi and, unless every window is
    full, their index table cols (n, W), W the widest window, whose slot w
    holds value index lo[i] + w clipped to m - 1, and pad (n, W), true in
    the slots past the window: the padding repeats value index m - 1, so
    every gather stays in range. The sweep and heuristic_table both read
    this layout. Raises InstanceError first when cols would exceed
    TABLE_BYTES_CAP."""
    lo, hi = reach_windows(inst)
    # full windows skip the gathers, which takes 10-36% off a heat sweep
    if (lo == 0).all() and (hi == inst.m).all():
        cols = pad = None
    else:
        width = int((hi - lo).max())
        check_table_bytes("relaxed sweep window index tables", inst.n * width * 8)
        slots = np.arange(width)
        cols = np.minimum(lo[:, None] + slots, inst.m - 1)
        pad = slots >= (hi - lo)[:, None]
    return lo.tolist(), hi.tolist(), cols, pad


def relaxed_costs_to_sink(
    inst: TripInstance, lams, entry: Optional[Sweeps] = None
) -> list[ZetaTable]:
    """Backward sweeps over the reach windows of the quotient graph, with
    weights increased by lam times the edge consumption, for every lam in
    lams at once.

    The one sweep function. Keep its name: perfbench's tracer counts the
    sweeps by patching lagrange.relaxed_costs_to_sink, which Sweeps calls.

    Only the nodes in the reach windows at inst.delta (graph.reach_windows)
    are swept. Any other node overspends the budget on its own, and its
    entries mean "no path": cost +inf and choice -1, which no sweep reads
    but as +inf. Every feasible path stays inside the windows, so the
    relaxed optimum still bounds the constrained one from below, and it is
    at least the relaxed optimum over all nodes.

    Every entry is computed as g[j'] + jump[j, j'], where g = (linear +
    lam * consumption) + cost-to-sink, in that order, with the terms of
    graph.edge_terms; table k is bitwise the table of a sweep for lams[k]
    alone. The sweep fills (K, n, m) arrays, and each table's cost, res and
    choice are C-contiguous views of its multiplier's block: the K tables of
    one sweep share those three arrays. Raises InstanceError first when the
    (K, n, m) tables or a layer's (K, m, m) totals would exceed
    TABLE_BYTES_CAP: the former before edge_terms allocates its (n, m)
    terms, the latter once edge_terms has checked its (m, m) jump table.
    The windows' (n, W) index tables, W the widest window, and the bulk
    pass's (n, K, W) arrays are checked before they are built too. entry,
    the Sweeps record that calls the sweep, keeps those terms and the
    windows with their index tables from its first sweep for the later
    ones; without it they are computed afresh.

    Cones. Row j of the step from layer i - 1 to layer i, the rows of the
    arrays, minimises over the heads' columns j' total[j, j'] = g[j'] +
    jump[j, j'], where g is the same for every row, and +inf outside the
    window. A step whose rows all pick the same column s by the (cost,
    budget, column) rule is the cone jump[s] + g[s] of s: its rows are
    total[:, s] bit for bit (jump[s] read as a row equals the column
    jump[:, s] since |fl(a - b)| = |fl(b - a)|, and float addition
    commutes), with one budget, cons[i, s] plus the budget at s, and one
    choice, s. A step whose tails' window holds one value j0 has one row,
    and is a cone.

    Two margin tests find cone steps before any row is computed. If a
    column s has g[j'] > g[s] + jump[s, j'] + margin for every other column
    j', the triangle inequality jump[j, j'] >= jump[j, s] - jump[s, j']
    gives total[j, j'] > total[j, s] + margin in every row j: s is the only
    entry within COST_TIE_TOL of the row minimum, and the rule picks it in
    every row. Let h = linear + lam * consumption, so g = h + c with c the
    cost-to-sink row of the heads. Every computed row c is alpha-Lipschitz:
    |c[j] - c[j']| <= jump[j, j'] + COST_TIE_TOL, up to rounding, since it
    is the sink's zeros or a row minimum, within COST_TIE_TOL, over cones
    that each change by at most jump[j, j'].
    - The predecessor-free test: s is the argmin of h over the heads'
      window, and every other column has h[j'] > h[s] + 2 * jump[s, j'] +
      2 * margin. Whatever row arrives, c takes back at most jump[s, j'] +
      COST_TIE_TOL of that, so g[j'] > g[s] + jump[s, j'] + margin.
    - The chain test: against the cone at t, the argmin of h of the step
      into layer i + 1, f = h + jump[t] and every other column has
      f[j'] > f[s] + jump[s, j'] + 2 * margin. If that step is a cone with
      winners t, c is jump[t] plus a constant, and g = f plus that constant
      up to rounding, so the condition above holds. A single-row step
      needs no triangle inequality: its one row's totals are g + jump[j0],
      which is f + jump[j0] plus that constant up to rounding, so it takes
      f = h + jump[t] + jump[j0] with slack 0, f[j'] > f[s] + 2 * margin,
      and then total[j0, j'] > total[j0, s] + margin.
    One whole-array pass applies both to every step before the loop, each
    for all K multipliers of a step at once; a chain-tested step is taken
    in the loop only when the step into layer i + 1 turned out a cone with
    winners t for every multiplier. A layer step is then of one of two
    kinds. A step the pass decides updates each multiplier's cone (s, g[s],
    budget) as Python floats and ints, with the additions of the per-layer
    path in the same order; its rows are written after the loop in a few
    whole-array writes. Every other step, an undecided one or one whose
    chain guess failed, takes _lex_min over the (K, w_i, w_{i+1}) totals of
    the two windows, built with one broadcast addition, w_i the number of
    values in the window of layer i, and is a cone when its rows pick one
    column per multiplier. _lex_min is the only code that resolves a tie.
    The bulk arrays are the (n, K, m) rows when every window is full, and
    are restricted to the windows, (n, K, W), when one is not.

    The margin is COST_TIE_TOL + 16 * eps * n * E, where E = max|linear| +
    max jump + max|lam * cons| bounds the terms of one edge, so that each
    finite g or total is at most B = n * E in size, up to factors
    1 + O(n * eps). With u = eps / 2, the unit roundoff: a total errs by at
    most uB; the jump table is alpha * |X_j' - X_j|, X the floats of xi, to
    a relative 2u, and the triangle inequality holds exactly for those X;
    the tie test's row minimum plus COST_TIE_TOL errs by u(B +
    COST_TIE_TOL). A test can only pass when the spread of the finite g, at
    most 2B, exceeds COST_TIE_TOL, and then these errors stay below
    32uB = 16 * eps * n * E, so the computed totals of every row differ
    from the one at s by more than COST_TIE_TOL and the tables are bitwise
    those of _lex_min. Each test's second margin holds the COST_TIE_TOL of
    the Lipschitz bound and its own few roundings of size uB. When
    2 * n * E is not finite (overflowing inputs), a g could be too: no test
    runs, and every step takes _lex_min.
    """
    n, m = inst.n, inst.m
    lam = np.asarray(lams, dtype=np.float64)
    k = lam.size
    if entry is None:
        entry = Sweeps(inst)
    check_table_bytes("relaxed sweep tables", n * k * m * 8)
    if entry.terms is None:
        entry.terms = edge_terms(inst)
    cons, linear, jump = entry.terms
    check_table_bytes("relaxed sweep tables", k * m * m * 8)
    if entry.windows is None:
        entry.windows = _window_tables(inst)
    lo, hi, cols, pad = entry.windows  # the window of layer i + 1 is lo[i]..hi[i] - 1
    lam_cons = lam[None, :, None] * cons[:, None, :]  # (n, K, m)
    key_cons = cons * m + np.arange(m)  # (budget * m + column) per edge
    cost = np.full((k, n, m), np.inf)
    cost[:, n - 1, lo[n - 1]:hi[n - 1]] = 0.0  # the zero-weight sink edge
    res = np.zeros((k, n, m), dtype=np.int64)
    choice = np.full((k, n, m), -1, dtype=np.int64)
    scale = n * (
        float(np.abs(linear).max())
        + float(jump.max())
        + float(np.abs(lam_cons).max(initial=0.0))
    )
    dominance = math.isfinite(2.0 * scale)
    margin = COST_TIE_TOL + 16.0 * np.finfo(np.float64).eps * scale
    lin_lam = linear[:, None, :] + lam_cons  # (n, K, m): g before its cost-to-sink
    first = np.arange(0, k * m, m)  # flat index of each multiplier's row
    decided = [False] * (n - 1)
    if dominance and n > 1:
        width = m if cols is None else cols.shape[1]
        check_table_bytes("relaxed sweep bulk arrays", n * k * width * 8)
        decided, guess, win, lin_win, cons_win = _bulk_pass(
            lin_lam, cons, jump, entry.windows, margin
        )
    # the cone steps, written after the loop: the tails' layer of each and,
    # per multiplier, its winner, g at it and budget
    rows, cone_s, cone_g, cone_b = [], [], [], []
    # the step into layer i + 1 as a cone, (winners, g at them, budgets),
    # each a list over the multipliers; None when not known to be one
    cone = None
    for i in range(n - 1, 0, -1):
        l = i - 1  # the tails' layer
        a, b = lo[i], hi[i]  # the heads' window
        if decided[l] and (guess[l] is None or (cone is not None and cone[0] == guess[l])):
            s = win[l]
            if cone is None:
                c = [cost.item(q, i, j) for q, j in enumerate(s)]
                heads = [res.item(q, i, j) for q, j in enumerate(s)]
            else:
                c = [jump.item(x, y) + z for x, y, z in zip(cone[0], s, cone[1])]
                heads = cone[2]
            cone = (
                s,
                [x + y for x, y in zip(lin_win[l], c)],
                [x + y for x, y in zip(cons_win[l], heads)],
            )
            rows.append(l)
            cone_s += cone[0]
            cone_g += cone[1]
            cone_b += cone[2]
        else:
            if rows and rows[-1] == i:  # the heads' row is a cone not yet written
                cost[:, i, a:b] = jump[cone[0], a:b] + np.array(cone[1])[:, None]
                res[:, i, a:b] = np.array(cone[2])[:, None]
            g = lin_lam[i] + cost[:, i]
            tail = slice(lo[l], hi[l])
            cost[:, l, tail], res[:, l, tail], choice[:, l, tail] = _lex_min(
                g[:, None, a:b] + jump[tail, a:b], key_cons[i, a:b] + res[:, i, a:b] * m, m, a
            )
            cone = None
            s = choice[:, l, lo[l]]
            # rows that all pick s are its cone: the next step's chain guess may stand
            if dominance and (choice[:, l, tail] == s[:, None]).all():
                cone = (s.tolist(), g.take(first + s).tolist(), res[:, l, lo[l]].tolist())
    if rows:
        r = np.array(rows)
        s = np.array(cone_s, dtype=np.int64).reshape(r.size, k).T  # (K, cone steps)
        gs = np.array(cone_g, dtype=np.float64).reshape(r.size, k).T
        budget = np.array(cone_b, dtype=np.int64).reshape(r.size, k).T
        if cols is None:
            cost[:, r] = jump.take(s, axis=0) + gs[:, :, None]
            res[:, r] = budget[:, :, None]
            choice[:, r] = s[:, :, None]
        else:
            step, slot = np.nonzero(~pad[r])  # every window entry of the rows
            r, j = r[step], cols[r[step], slot]
            s = s[:, step]
            cost[:, r, j] = jump[s, j] + gs[:, step]
            res[:, r, j] = budget[:, step]
            choice[:, r, j] = s
    a, b = lo[0], hi[0]
    cost_s, res_s, choice_s = _lex_min(
        (lin_lam[0, :, a:b] + cost[:, 0, a:b])[:, None],
        key_cons[0, a:b] + res[:, 0, a:b] * m,
        m,
        a,
    )
    return [
        ZetaTable(
            lam=float(lam[q]),
            cost=cost[q],
            res=res[q],
            choice=choice[q],
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

    With a cache, the swept tables are kept there, swept over the reach
    windows of the radius the cache entry was built at, and multipliers
    swept by an earlier search of the same instance are not swept again.
    At that radius the result is the one a search without the cache
    returns; at a smaller one whose windows are narrower it may evaluate
    other multipliers, whose tables bound the optimum all the same. Without
    a cache the search makes a record of its own. Either way the result's
    record holds every swept table with the instance's edge terms and
    windows.
    """
    check_epsilon(epsilon)
    sweeps = (cache or RadiusCache()).entry("sweeps", inst, lambda: Sweeps(inst))
    tables = LagrangeTables(inst=inst, record=sweeps)
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
        d = sweeps.step(table.lam).copy()  # the record keeps its own
        return Solution.of(inst, d, preprocessing_iterations=tables.iterations)

    def note_feasible(table: ZetaTable) -> None:
        value = objective(inst, sweeps.step(table.lam))
        if value < tables.upper_bound:
            tables.upper_bound = value
            tables.incumbent = path_solution(table)

    def finish(table: ZetaTable, proven: bool = False) -> LagrangeTables:
        tables.lambda_star = table.lam
        if proven:  # the relaxed path is optimal
            tables.early_exit = path_solution(table)
        tables.zeta.sort(key=lambda t: t.lam)
        return tables

    sweeps.sweep([0.0, upper0])
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
        sweeps.sweep([cut, 0.5 * (lo.lam + cut), 0.5 * (cut + hi.lam)])
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


def heuristic_table(
    inst: TripInstance, tables: LagrangeTables
) -> np.ndarray:
    """Heuristic lookup over the reach windows of tables.record, those of
    its radius, for the inner layers 1..n: H[layer - 1, j - lo[layer - 1],
    capacity] is the consistent cost-to-go estimate of the node (layer, j,
    capacity), the best lower bound cost[layer - 1, j] - lam * capacity over
    the evaluated multipliers, for every j in the layer's window lo..hi - 1
    of the record and every capacity up to the table's radius.

    The table has shape (n, wmax, R + 1), R >= inst.delta its radius and
    wmax the record's widest window, in the padded layout of the record's
    windows (_window_tables); the slots past a narrower window are padding
    that belongs to no node, and may read +inf where they gather a node
    outside the windows. No node outside the windows is reachable, so a
    search never reads them. Each entry is cost - lam * capacity, maximised
    over the tables of tables.zeta, which were swept over the same windows.

    The record's kept table is returned, not a copy, when it was built from
    exactly the multipliers of tables.zeta at a radius R >= inst.delta: each
    multiplier maps to one table of the record, every entry is the same
    float, and max is exact, so the entries a search at inst.delta reads,
    capacities 0..inst.delta, are bitwise those of a fresh build. Otherwise
    the kept table is dropped first, so that at most one is alive, and the
    one built at R = inst.delta is kept. On the seed-0 heat slip run of the
    benchmark 53 of 81 builds are served so, by re-solves at radii 16 down
    to 1; knapsack replays solve without a cache, each with a record of its
    own.
    """
    record = tables.record
    lams = tuple(t.lam for t in tables.zeta)
    if (
        record.htable is not None
        and record.htable_lams == lams
        and record.htable.shape[2] > inst.delta
    ):
        return record.htable
    record.htable = None
    cols = record.windows[2]
    wmax = inst.m if cols is None else cols.shape[1]
    width = inst.delta + 1
    layers = np.arange(inst.n)[:, None]
    caps = np.arange(width, dtype=np.float64)
    h = np.full((inst.n, wmax, width), -np.inf)
    for t in tables.zeta:
        cost = t.cost if cols is None else t.cost[layers, cols]
        np.maximum(h, cost[:, :, None] - t.lam * caps[None, None, :], out=h)
    record.htable, record.htable_lams = h, lams
    return h


def default_epsilon(inst: TripInstance) -> float:
    """Preprocessing tolerance scaled to the cost magnitude."""
    return 1e-6 * (1.0 + float(np.max(np.abs(inst.c))))
