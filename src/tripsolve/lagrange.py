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
2 * items + 1 values, so the bound over the windows is far tighter than
the one over all nodes.

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

Each relaxed graph is evaluated by a backward sweep over the layers, one
multiplier per sweep, forming the edge weights from the terms of
graph.edge_terms; the search sweeps each multiplier when it evaluates it,
so no sweep prices a multiplier the search never reads.
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
the pass decides form runs, each taken in a few whole-array operations:
one accumulation gives the cone (winner, g at it, budget) at every layer
of the run, and their rows are written after the last layer. An
accumulation adds strictly in sequence and float addition commutes, so
each g is the float a per-layer sweep gives. The other layers take the
lexicographic minimum of each row, the one place the tie rule is applied;
where every row of one picks the same column, its rows are that column's
cone, which a retry can stand on. Every table is bitwise the one the
per-layer sweep gives.

The Sweeps record is the one place an instance's edge terms and windows
are derived, and it keeps every swept table, A*'s successor rows with the
head order they are read from, and the last heuristic table; a solve
without a RadiusCache makes a record for itself alone. In a RadiusCache
the record serves every radius up to the one it was built at, and Sweeps
says why.
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

# tie key of an entry outside the cost ties, above every real key
_NO_KEY = np.iinfo(np.int64).max
# entries of heuristic_table's temporary block of capacity rows
_HTABLE_BLOCK = 16384


@dataclass(frozen=True)
class ZetaTable:
    """Cost-to-sink data of one relaxed quotient graph.

    cost[i - 1, j] is the cheapest relaxed cost from the layer-i node with
    value index j to the sink through the reach windows, up to the sweep's
    ties (Sweeps.tie); res holds the smallest budget use among the paths
    that tie with the cheapest and choice the successor index realizing the
    pair. A node outside its layer's window has no path: cost +inf and
    choice -1. source_* carry the same data for the source node.
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
        """Best lower bound on the constrained optimum over all multipliers,
        up to rounding and the sweeps' ties (Sweeps.tie)."""
        return max(
            t.source_cost - t.lam * self.inst.delta for t in self.zeta
        )


@dataclass
class Sweeps:
    """The multiplier searches' work on one instance at every radius up to
    R, that of inst, the instance it was built for: every relaxed table
    swept so far over the reach windows of inst, by its exact multiplier,
    and the relaxed path's step of each table whose path a search used. It
    also keeps the inputs of relaxed_costs_to_sink that depend on inst
    alone, terms and windows, which its first sweep computes and which A*'s
    successor rows and heuristic table read too, with key_cons, which the
    sweeps alone read, and spread and cons_max, which give the sweeps' ties
    (tie) that A*'s pruning reads too; A*'s successor rows themselves,
    rows[layer * m + j], each built on the first expansion of its class
    (astar.successor_row) from the heads in row order and their terms,
    which successor_terms derives once; and one heuristic table, htable, the
    last one heuristic_table built from its tables, with the multipliers of
    those tables in the order of LagrangeTables.zeta, htable_lams.
    Everything here goes with the record when a RadiusCache replaces it.

    Why the record serves a search at a radius delta <= R (RadiusCache
    gives the general contract): a relaxed sweep reads the radius only
    through the windows, and the windows at delta lie inside those at R.
    So a table swept at R bounds the optimum at delta too, and its
    heuristic stays consistent on every edge a search at delta generates;
    a search sweeps only the multipliers the record has not swept yet. A
    successor row holds the heads of the next layer's window at R, which
    holds every head whose edge consumes at most delta, and a label follows
    only the prefix of the row its capacity pays for, so the rows serve
    every delta <= R. The heuristic table covers the windows at R and the
    capacities up to its own radius, htable.shape[2] - 1, at most R; a
    search at a radius up to that one which evaluates exactly htable_lams
    reads it again, since each multiplier maps to one table of the record,
    every entry is the same float and max is exact, so the entries at
    capacities 0..delta are bitwise those of a fresh build. Where the
    windows at delta are narrower than at R, the multipliers a search
    evaluates, and with them its heuristic and search counters, may differ
    from those of a solve without the cache; the answer is an optimum all
    the same."""

    inst: TripInstance
    swept: dict[float, ZetaTable] = field(default_factory=dict)
    steps: dict[float, np.ndarray] = field(default_factory=dict)
    # graph.edge_terms, and the reach windows as lists with their index
    # tables (relaxed_costs_to_sink), set by the first sweep once its table
    # checks pass; with the terms, the sweep's tie keys of the edges, cons
    # as float64, the floats lam * cons casts it to, and the multiplier-free
    # parts of its ties, max|linear| + max jump and max|cons|
    terms: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    key_cons: Optional[np.ndarray] = None
    float_cons: Optional[np.ndarray] = None
    spread: float = 0.0
    cons_max: float = 0.0
    windows: Optional[
        tuple[list[int], list[int], Optional[np.ndarray], Optional[np.ndarray]]
    ] = None
    # the window ends lo and hi of windows as int arrays, for the bulk pass
    ends: Optional[tuple[np.ndarray, np.ndarray]] = None
    htable: Optional[np.ndarray] = None
    htable_lams: tuple[float, ...] = ()
    rows: dict[int, list[tuple[int, int, float]]] = field(default_factory=dict)
    # successor_terms, derived on its first call
    row_terms: Optional[list[tuple[np.ndarray, ...]]] = None

    def table(self, lam: float) -> ZetaTable:
        """The table swept at lam, swept on first use."""
        table = self.swept.get(lam)
        if table is None:
            table = self.swept[lam] = relaxed_costs_to_sink(self.inst, lam, self)
        return table

    def step(self, lam: float) -> np.ndarray:
        """The relaxed path's step of the table swept at lam."""
        d = self.steps.get(lam)
        if d is None:
            d = self.steps[lam] = extract_path_step(self.inst, self.swept[lam])
        return d

    def successor_terms(self) -> list[tuple[np.ndarray, ...]]:
        """What A*'s successor rows read, per layer 0..n - 1: the heads, the
        window of layer + 1, in (consumption, value index) order, then cons,
        linear and jump[z] at those heads, and z, the value index of layer
        + 1's zero step. One argsort of key_cons over the windows, whose
        padding sorts last, gives every order; derived on the first call,
        once the first sweep has set the terms and windows."""
        if self.row_terms is None:
            cons, linear, jump = self.terms
            lo, hi, cols, pad = self.windows
            if cols is None:
                order = self.key_cons.argsort(axis=1)
            else:
                keys = np.take_along_axis(self.key_cons, cols, axis=1)
                keys[pad] = _NO_KEY
                order = np.take_along_axis(cols, keys.argsort(axis=1), axis=1)
            zero = np.searchsorted(self.inst.xi, self.inst.x)
            # views of four (n, W) arrays: 4n arrays of their own raised
            # knapsack-replay's peak RSS by 0.4 MB
            layers = np.arange(len(order))[:, None]
            terms = order, cons[layers, order], linear[layers, order], jump[zero[:, None], order]
            self.row_terms = [
                tuple(t[i, :b - a] for t in terms) + (z,)
                for i, (a, b, z) in enumerate(zip(lo, hi, zero.tolist()))
            ]
        return self.row_terms

    def tie(self, lam: float) -> float:
        """The sweep's tie at the multiplier lam: eps * n * E, where E =
        spread + |lam| * cons_max bounds the terms of one edge, so that every
        sum of the sweep is at most n * E in size and two of equal value
        round at most that far apart. Read once the first sweep has set
        spread and cons_max."""
        return math.ulp(1.0) * self.inst.n * (self.spread + abs(lam) * self.cons_max)


def _lex_min(
    total: np.ndarray, key: np.ndarray, m: int, start: int, tie: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row minimum over the columns of total (rows, w), the value
    indices start..start + w - 1, in the order (cost, budget, column): costs
    within tie of the row minimum tie, and among them the smallest
    key = budget * m + column wins. The keys are distinct per column, so
    one argmin over the tied keys picks it.

    key: (w,), shared by all rows; tie: the multiplier's tie (Sweeps.tie).
    Returns (cost, budget, column), each (rows,).
    """
    tied = total <= np.minimum.reduce(total, axis=1)[:, None] + tie
    slot = np.where(tied, key, _NO_KEY).argmin(axis=1)
    first = np.arange(0, total.size, total.shape[1])  # each row's start
    return total.reshape(-1).take(first + slot), key.take(slot) // m, slot + start


def _pick(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """a[l, idx[l]], or a[l, idx[l, w]] when idx is 2-D, for a C-contiguous
    2-D a, in one flat take."""
    start = np.arange(0, a.size, a.shape[1])
    return a.reshape(-1).take(start.reshape((-1,) + (1,) * (idx.ndim - 1)) + idx)


def _jump_rows(jump: np.ndarray, s: np.ndarray, cols: Optional[np.ndarray]) -> np.ndarray:
    """jump[s[l], cols[l, w]], shape (L, W); the rows jump[s[l]], (L, m),
    when cols is None (full windows)."""
    if cols is None:
        return jump.take(s, axis=0)
    return jump[s[:, None], cols]


def _winners(
    h: np.ndarray,
    jump: np.ndarray,
    cols: Optional[np.ndarray],
    slack: float | np.ndarray,
    margin: float,
) -> tuple[np.ndarray, np.ndarray]:
    """For prices h (L, W) over the windows cols, +inf in their padding, the
    column s of the smallest price of every step, and whether each other
    column j' has h[j'] > h[s] + slack * jump[s, j'] + 2 * margin. slack is
    a number or an (L, 1) array, one per step."""
    slot = h.argmin(axis=1)
    s = slot if cols is None else _pick(cols, slot)
    bound = _jump_rows(jump, s, cols)
    bound *= slack
    bound += (_pick(h, slot) + 2.0 * margin)[:, None]
    # column s itself is the one entry at or below the bound
    return s, np.count_nonzero(h <= bound, axis=1) == 1


def _bulk_pass(lin_lam, cons, jump, windows, ends, margin):
    """The predecessor-free and chain tests of relaxed_costs_to_sink on the
    steps into layers 1..n - 1 at once, over the windows (lo, hi, cols, pad)
    of _window_tables, whose ends lo and hi are also the int arrays ends.
    The chain test of a single-row step compares its one row's totals
    (slack 0), that of any other step g with slack 1. Returns, over
    l = i - 1: whether the step into layer i is decided and the winner at
    layer i + 1 its chain test assumed (None when it passed without it), as
    lists; its winners, and lin_lam and cons at them, as (n - 1,) arrays;
    and low, a list: the lowest step of the run of decided steps that starts
    at step l, each step below l continuing it when it is decided and its
    guess, if any, is the bulk winner of the step above it."""
    cols, pad = windows[2:]
    heads = None if cols is None else cols[1:]
    if heads is None:
        h = lin_lam[1:]
    else:
        h = _pick(lin_lam[1:], heads)
        np.copyto(h, np.inf, where=pad[1:])
    s, decided = _winners(h, jump, heads, 2.0, margin)
    guess = [None] * len(h)
    follows = decided  # whether step l continues a run that holds step l + 1
    retry = np.flatnonzero(~decided[:-1])  # no step lies beyond the last one
    if retry.size:
        t = s[retry + 1]
        at = None if heads is None else heads[retry]
        f = h[retry] + _jump_rows(jump, t, at)
        # a single-row step's tails' window is the one value j0: f + jump[j0]
        lo, hi = ends
        j0 = lo[retry]
        single = hi[retry] - j0 == 1
        f[single] += _jump_rows(jump, j0[single], None if at is None else at[single])
        s[retry], decided[retry] = _winners(
            f, jump, at, np.where(single, 0.0, 1.0)[:, None], margin
        )
        for l, winner in zip(retry.tolist(), t.tolist()):
            guess[l] = winner
        follows = decided.copy()
        follows[retry] &= t == s[retry + 1]
    # a step that does not follow bounds the runs above it from below
    low = np.maximum.accumulate(np.where(follows, 0, np.arange(1, len(h) + 1)))
    return (
        decided.tolist(),
        guess,
        s,
        _pick(lin_lam[1:], s),
        _pick(cons[1:], s),
        [0] + low[:-1].tolist(),
    )


def _window_tables(inst: TripInstance):
    """The reach windows as lists lo and hi and, unless every window is
    full, their index table cols (n, W), W the widest window, whose slot w
    holds value index lo[i] + w clipped to m - 1, and pad (n, W), true in
    the slots past the window: the padding repeats value index m - 1, so
    every gather stays in range; then lo and hi as int arrays. The sweep and
    heuristic_table both read this layout. Raises InstanceError first when
    cols would exceed TABLE_BYTES_CAP."""
    lo, hi = reach_windows(inst)
    # full windows skip the gathers
    if (lo == 0).all() and (hi == inst.m).all():
        cols = pad = None
    else:
        width = int((hi - lo).max())
        check_table_bytes("relaxed sweep window index tables", inst.n * width * 8)
        slots = np.arange(width)
        cols = np.minimum(lo[:, None] + slots, inst.m - 1)
        pad = slots >= (hi - lo)[:, None]
    return (lo.tolist(), hi.tolist(), cols, pad), (lo, hi)


def relaxed_costs_to_sink(
    inst: TripInstance, lam: float, entry: Optional[Sweeps] = None
) -> ZetaTable:
    """Backward sweep over the reach windows of the quotient graph, with
    weights increased by lam times the edge consumption.

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
    graph.edge_terms. Raises InstanceError first when the (n, m) tables
    would exceed TABLE_BYTES_CAP, before edge_terms allocates its (n, m)
    terms and checks its (m, m) jump table, which is as large as a layer's
    totals can be. The windows' (n, W) index tables, W the widest window,
    are checked before they are built too; the bulk pass's arrays are (n, W)
    too, or (n, m) over full windows, the size of the tables. entry, the
    Sweeps record that calls the sweep, keeps those terms and the windows
    with their index tables from its first sweep for the later ones;
    without it they are computed afresh.

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
    entry within the tie of the row minimum, and the rule picks it in every
    row. Let h = linear + lam * consumption, so g = h + c with c the
    cost-to-sink row of the heads. Every computed row c is alpha-Lipschitz:
    |c[j] - c[j']| <= jump[j, j'] + tie, up to rounding, since it is the
    sink's zeros or a row minimum, within the tie, over cones that each
    change by at most jump[j, j'].
    - The predecessor-free test: s is the argmin of h over the heads'
      window, and every other column has h[j'] > h[s] + 2 * jump[s, j'] +
      2 * margin. Whatever row arrives, c takes back at most jump[s, j'] +
      tie of that, so g[j'] > g[s] + jump[s, j'] + margin.
    - The chain test: against the cone at t, the argmin of h of the step
      into layer i + 1, f = h + jump[t] and every other column has
      f[j'] > f[s] + jump[s, j'] + 2 * margin. If that step is a cone with
      winner t, c is jump[t] plus a constant, and g = f plus that constant
      up to rounding, so the condition above holds. A single-row step
      needs no triangle inequality: its one row's totals are g + jump[j0],
      which is f + jump[j0] plus that constant up to rounding, so it takes
      f = h + jump[t] + jump[j0] with slack 0, f[j'] > f[s] + 2 * margin,
      and then total[j0, j'] > total[j0, s] + margin.
    One whole-array pass applies both to every step before the loop; a
    chain-tested step is taken in the loop only when the step into layer
    i + 1 turned out a cone with winner t. A layer step is then of one of
    two kinds.
    - Decided steps come in runs. Inside a run the cone that the next
      step's guess is tested against is the bulk winner of the step above
      it, so whether a step continues a run is known before the loop, and
      the loop only decides whether a run starts: on the sink row, or
      below a _lex_min step, whose cone the guess must match. A run costs
      a fixed handful of whole-array operations. Its winners s give the
      jumps between them, jump[s[l + 1], s[l]], and one add.accumulate
      down the sequence (the heads' cost-to-sink at the first winner,
      lin_win, jump, lin_win, ...) gives g at every winner; a cumulative
      sum gives the budgets. accumulate adds strictly in sequence and
      float addition commutes, so each g is (g_above + jump) + lin, the
      float lin + (jump + g_above) of a per-layer sweep; the first term,
      read off the heads' row, is 0 on the sink row and g_above + jump on
      a _lex_min row, the same float. The rows are written after the loop
      in a few whole-array writes.
    - Every other step, an undecided one or one whose chain guess failed,
      takes _lex_min over the (w_i, w_{i+1}) totals of the two windows,
      built with one broadcast addition, w_i the number of values in the
      window of layer i, and is a cone when its rows pick one column.
      _lex_min is the only code that resolves a tie.
    The bulk arrays are the (n, m) rows when every window is full, and are
    restricted to the windows, (n, W), when one is not.

    Ties. E = max|linear| + max jump + |lam| * max|cons| bounds the terms
    of one edge, so that each finite g or total is at most B = n * E in
    size, up to factors 1 + O(n * eps). With u = eps / 2, the unit
    roundoff, a total errs by at most uB, and two totals of equal value
    round at most 2uB = eps * n * E apart: that is the sweep's tie
    (Sweeps.tie). So costs equal in exact arithmetic tie at every scale of
    c and alpha, an entry exceeds the exact minimum of its row by at most
    the tie plus rounding, and a table entry exceeds the exact cost-to-sink
    by at most n ties plus rounding.

    The margin is the tie plus 16 * eps * n * E. The jump table is
    alpha * |X_j' - X_j|, X the floats of xi, to a relative 2u, and the
    triangle inequality holds exactly for those X; the tie test's row
    minimum plus the tie errs by at most u(B + 2uB). These errors stay
    below 32uB = 16 * eps * n * E, so the computed totals of every row
    differ from the one at s by more than the tie and the tables are
    bitwise those of _lex_min. Each test's second margin holds the tie of
    the Lipschitz bound and its own few roundings of size uB. When
    2 * n * E is not finite (overflowing inputs), a g could be too: no test
    runs, and every step takes _lex_min.
    """
    n, m = inst.n, inst.m
    lam = float(lam)
    if entry is None:
        entry = Sweeps(inst)
    check_table_bytes("relaxed sweep tables", n * m * 8)
    if entry.terms is None:
        cons, linear, jump = edge_terms(inst)
        entry.key_cons = cons * m + np.arange(m)  # (budget * m + column) per edge
        entry.float_cons = cons.astype(np.float64)
        entry.spread = float(np.abs(linear).max()) + float(jump.max())
        entry.cons_max = float(np.abs(cons).max())
        entry.terms = cons, linear, jump
    cons, linear, jump = entry.terms
    key_cons = entry.key_cons
    if entry.windows is None:
        entry.windows, entry.ends = _window_tables(inst)
    lo, hi, cols, pad = entry.windows  # the window of layer i + 1 is lo[i]..hi[i] - 1
    cost = np.full((n, m), np.inf)
    cost[n - 1, lo[n - 1]:hi[n - 1]] = 0.0  # the zero-weight sink edge
    res = np.zeros((n, m), dtype=np.int64)
    choice = np.full((n, m), -1, dtype=np.int64)
    # |lam| * max|cons| is the float max|lam * cons|: rounding is monotone
    tie = entry.tie(lam)
    dominance = math.isfinite(2.0 * tie / math.ulp(1.0))  # 2 * n * E, eps = ulp(1)
    margin = 17.0 * tie  # the tie plus 16 * eps * n * E
    lin_lam = lam * entry.float_cons  # g before its cost-to-sink
    lin_lam += linear
    decided = [False] * (n - 1)
    if dominance and n > 1:
        decided, guess, win, lin_win, cons_win, low = _bulk_pass(
            lin_lam, cons, jump, entry.windows, entry.ends, margin
        )
    # the cone steps, written after the loop: the tails' layer of each, its
    # winner, g at it and budget, one array per run
    rows, cone_s, cone_g, cone_b = [], [], [], []
    # the winner of the step into layer i + 1 when _lex_min found its rows
    # a cone; None otherwise
    cone = None
    i = n - 1
    while i > 0:
        l = i - 1  # the tails' layer
        a, b = lo[i], hi[i]  # the heads' window
        if decided[l] and (guess[l] is None or cone == guess[l]):
            # the run of steps l down to r, each a cone on the one above
            r = low[l]
            s = win[r:i][::-1]  # step l first
            # g at each winner: the cost-to-sink at the first, read off the
            # heads' row, then lin_win and the jump to the next, in turn
            seq = np.empty(2 * (i - r))
            seq[0] = cost[i, s[0]]
            seq[1::2] = lin_win[r:i][::-1]
            seq[2::2] = jump[s[:-1], s[1:]]
            rows.append(np.arange(l, r - 1, -1))
            cone_s.append(s)
            cone_g.append(np.add.accumulate(seq)[1::2])
            cone_b.append(res[i, s[0]] + np.cumsum(cons_win[r:i][::-1]))
            cone = None
            i = r
            continue
        if rows and rows[-1][-1] == i:  # the heads' row is a cone not yet written
            cost[i, a:b] = jump[cone_s[-1][-1], a:b] + cone_g[-1][-1]
            res[i, a:b] = cone_b[-1][-1]
        tail = slice(lo[l], hi[l])
        best = _lex_min(
            (lin_lam[i, a:b] + cost[i, a:b]) + jump[tail, a:b],
            key_cons[i, a:b] + res[i, a:b] * m, m, a, tie,
        )
        cost[l, tail], res[l, tail], choice[l, tail] = best
        s = best[2]
        # rows that all pick one column are its cone: the next step's chain
        # guess may stand
        cone = int(s[0]) if dominance and (s == s[0]).all() else None
        i = l
    if rows:
        r = np.concatenate(rows)
        s = np.concatenate(cone_s)
        gs = np.concatenate(cone_g)
        budget = np.concatenate(cone_b)
        if cols is None:
            cost[r] = jump.take(s, axis=0) + gs[:, None]
            res[r] = budget[:, None]
            choice[r] = s[:, None]
        else:
            step, slot = np.nonzero(~pad[r])  # every window entry of the rows
            r, j = r[step], cols[r[step], slot]
            s = s[step]
            cost[r, j] = jump[s, j] + gs[step]
            res[r, j] = budget[step]
            choice[r, j] = s
    a, b = lo[0], hi[0]
    cost_s, res_s, choice_s = _lex_min(
        (lin_lam[0, a:b] + cost[0, a:b])[None], key_cons[0, a:b] + res[0, a:b] * m, m, a, tie
    )
    return ZetaTable(
        lam=lam,
        cost=cost,
        res=res,
        choice=choice,
        source_cost=float(cost_s[0]),
        source_res=int(res_s[0]),
        source_choice=int(choice_s[0]),
    )


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
    end is returned without a sweep. Otherwise the round evaluates cut (the
    bracket's midpoint if cut is not strictly inside it), moves an end to
    it, evaluates the midpoint of the bracket left and moves an end again,
    so it at least halves the bracket; an evaluation whose dual value is
    within epsilon of the model value ends the search at its multiplier.
    Path slopes r - delta are integers, so a multiplier within epsilon of
    the dual optimum in value is within epsilon of a maximiser.

    Every evaluation reads its multiplier's table from the record
    (Sweeps.table), which sweeps it on first use: a search sweeps only the
    multipliers it reads, one per sweep. The result's record holds every
    swept table with the instance's edge terms and windows: the cache's
    "sweeps" entry, which may have been built at a larger radius (Sweeps
    says why it serves this one), or, without a cache, a record of the
    search's own.
    """
    check_epsilon(epsilon)
    sweeps = (cache or RadiusCache()).entry("sweeps", inst, lambda: Sweeps(inst))
    tables = LagrangeTables(inst=inst, record=sweeps)
    upper0 = float(np.max(np.abs(inst.c))) + 2.0 * inst.alpha

    def evaluate(lam: float) -> ZetaTable:
        table = sweeps.table(lam)
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
    A search that reaches the table has evaluated at least two multipliers;
    an empty tables.zeta raises ValueError.

    The table is a view of a capacity-major (R + 1, n, wmax) array, so that
    each multiplier's subtraction and maximum run over whole (n, wmax)
    capacity rows, not along the short capacity axis. The first table's
    prices are written straight into it, and each later table's are
    maximised into it; max(-inf, x) is x, so every entry is the float a
    maximum from a -inf fill gives. The window costs of a table are
    gathered once, and one block holds the rows being priced, as many as
    _HTABLE_BLOCK entries hold and at least one: the temporaries are one
    gathered copy and one block.

    The record's kept table is returned, not a copy, when it was built from
    exactly the multipliers of tables.zeta at a radius R >= inst.delta
    (Sweeps says why its entries are those of a fresh build). Otherwise the
    kept table is dropped first, so that at most one is alive, and the one
    built at R = inst.delta is kept.
    """
    if not tables.zeta:
        raise ValueError("a heuristic table needs at least one evaluated multiplier")
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
    n, wmax, width = inst.n, (inst.m if cols is None else cols.shape[1]), inst.delta + 1
    layers = np.arange(n)[:, None]
    caps = np.arange(width, dtype=np.float64)
    h = np.empty((width, n, wmax))
    rows = max(1, _HTABLE_BLOCK // (n * wmax))
    block = np.empty((min(rows, width), n, wmax))
    for k, t in enumerate(tables.zeta):
        cost = t.cost if cols is None else t.cost[layers, cols]
        priced = t.lam * caps
        for c in range(0, width, rows):
            out = h[c:c + rows]
            tmp = block[:len(out)] if k else out  # the first table's prices go in whole
            np.subtract(cost, priced[c:c + rows, None, None], out=tmp)
            if k:
                np.maximum(out, tmp, out=out)
    h = np.moveaxis(h, 0, 2)
    record.htable, record.htable_lams = h, lams
    return h


def default_epsilon(inst: TripInstance) -> float:
    """Preprocessing tolerance scaled to the cost magnitude."""
    return 1e-6 * (1.0 + float(np.max(np.abs(inst.c))))
