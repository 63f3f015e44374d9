"""Exact solver by dynamic programming in layer order.

Processes every reachable (layer, value, remaining budget) state exactly
once. Each layer i is restricted to its reach window: the value indices j
with gamma_i * |xi_j - x_i| <= delta. The window is a contiguous index range,
since xi is strictly ascending and x_i is one of its values, and it is
exact: a value index outside it overspends the budget on its own, while one
inside it is reached by the path that steps there and nowhere else. The
states outside the windows are therefore unreachable, and leaving them out
changes no float and no tie. A layer costs delta * w_i * w_{i-1} for windows
of w_i and w_{i-1} value indices, so the running time is proportional to
delta * sum_i w_i * w_{i-1}, at most n * delta * |xi|^2 when every window
is full. The cost tables roll layer by layer; only the predecessor choices,
the last layer's costs, two per-layer counts and what the answer at each
radius reads of them are kept, in a TopoTables record, so the optimal step
can be reconstructed. A layer's arrival costs and predecessor choices move
to the capacities they leave with one gather each, not one copy per value:
the rolling cost table carries a pad column of inf (predecessor -1), and
each state whose consumption would take it past delta reads that column.
The gathered indices are rows of one strided view of a small fixed array;
selecting a layer's rows is an advanced index, so it copies them into a
(w_i, delta + 2) index table, the size of the cost table it gathers into.

One set of tables answers every radius up to the one it was built at
(TopoTables says why), so a trust-region run that halves its radius after a
rejected step passes a RadiusCache and builds the tables once per instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .graph import edge_terms, reach_windows
from .instance import (
    RadiusCache,
    Solution,
    TripInstance,
    check_table_bytes,
    clamp_delta,
)

_INF = np.inf


@dataclass(frozen=True)
class TopoTables:
    """The layer-ordered dynamic program of one instance at radius delta.

    pred[i - 1, j, eta] is the value index in layer i - 1 of the best
    predecessor of the layer-i state (value index j, remaining capacity eta),
    -1 where the state is unreachable or i = 1. last_cost[j, eta] is the cost
    of the layer-n state. finite[i - 1, eta] counts the reachable layer-i
    states with capacity eta; succ[i - 1, t] counts the value indices of
    layer i + 1 whose edges consume at most t, i = 1..n-1. The counts are at
    most m and share pred's dtype. build raises InstanceError, before it
    allocates anything, when pred or the largest float table of the sweep
    would take more than instance.TABLE_BYTES_CAP bytes, and before the
    succ counts when their largest temporary would.

    The tables answer every radius up to delta (solution). The states of
    radius delta - s are exactly the states of radius delta whose remaining
    capacity eta is at least s, shifted down by s: a path's capacity only
    falls, so no state with eta >= s is reached through one below s, and
    each of them carries the same cost and the same predecessor choice, the
    same floats compared in the same order. The answer at radius delta - s
    is therefore read from the capacity columns s.. of the tables, and its
    visit counters from the per-layer counts of finite states by capacity
    and of out-edges by consumption.

    build reads off what depends on s alone, one entry per offset s.
    terminal[s] is the layer-n state (value index, capacity) where the
    answer at radius delta - s ends. It is the tie rule of every topo
    answer: the minimum cost, compared exactly, then the largest remaining
    capacity (the smallest budget use), then the smallest value index.
    nodes[s] counts the finite states of capacity at least s, and ends[s]
    those of the first and the last layer, whose source and sink edges the
    edge count adds.
    """

    delta: int
    pred: np.ndarray  # (n, m, delta + 1)
    last_cost: np.ndarray  # (m, delta + 1) float
    finite: np.ndarray  # (n, delta + 1)
    succ: np.ndarray  # (n - 1, delta + 1)
    terminal: list[tuple[int, int]]  # delta + 1 entries
    nodes: list[int]
    ends: list[int]

    @classmethod
    def build(cls, inst: TripInstance) -> "TopoTables":
        n, m, width = inst.n, inst.m, inst.delta + 1
        pred_dtype = np.int8 if m <= np.iinfo(np.int8).max else np.int16
        check_table_bytes(
            "predecessor table", n * m * width * np.dtype(pred_dtype).itemsize
        )
        lo, hi = (w.tolist() for w in reach_windows(inst))
        sizes = [b - a for a, b in zip(lo, hi)]
        # the last layer's costs, the index rows below or one layer's
        # (w_i, w_{i-1}) sums, each width + 1 wide with its pad column
        rows = max([m, 2 * max(sizes)] + [u * v for u, v in zip(sizes, sizes[1:])])
        check_table_bytes("layer cost table", rows * (width + 1) * 8)
        pred = np.full((n, m, width), -1, dtype=pred_dtype)
        finite = np.zeros((n, width), dtype=pred_dtype)
        cons, linear, jump = edge_terms(inst)
        # succ[i-1, t] counts layer i+1's consumptions <= t: k from the k-th
        # smallest; ends is the largest of the temporaries
        check_table_bytes("successor count table", (n - 1) * (m + 2) * 8)
        ends = np.full((n - 1, m + 2), width)
        ends[:, 0] = 0
        np.minimum(np.sort(cons[1:], axis=1), width, out=ends[:, 1:-1])
        counts = np.arange(m + 1, dtype=pred_dtype)[None, :].repeat(n - 1, axis=0)
        succ = counts.repeat((ends[:, 1:] - ends[:, :-1]).ravel()).reshape(n - 1, width)

        # A layer-i state (j, eta) is reached at capacity eta + cons[i, j] of
        # its arrival table, or from the inf pad column width when that
        # exceeds delta. The flat positions of window row r are therefore
        # min(cons[i, j] + eta, width) + r * (width + 1), eta = 0..width:
        # the window of the row-r copy of min(arange(span), width) that
        # starts at cons[i, j], shifted[start[i, j]].
        span = 2 * (width + 1)
        window_row = np.arange(max(sizes))[:, None]
        shifted = sliding_window_view(
            (np.minimum(np.arange(span), width) + (width + 1) * window_row).ravel(),
            width + 1,
        )
        start = np.arange(m) - np.array(lo)[:, None]
        start *= span
        start += cons

        # cost[j - lo_i, eta]: cost of the layer-i state (j, eta), j in the
        # window, and an inf pad column at eta = width
        a, b = lo[0], hi[0]
        cost = np.full((b - a, width + 1), _INF)
        cost[np.arange(b - a), inst.delta - cons[0, a:b]] = linear[0, a:b]
        finite[0] = np.add.reduce(np.isfinite(cost), axis=0)[:width]

        # ufunc reductions rather than the .min and .sum methods, whose
        # Python wrappers cost a measurable share of a small layer
        for i in range(1, n):  # head layer i + 1, tail window a..b-1
            pa, pb, a, b = a, b, lo[i], hi[i]
            weight = linear[i, a:b] + jump[pa:pb, a:b]
            # stacked[j', j, eta] = cost of reaching (i, pa + j, eta) + edge to a + j'
            stacked = cost[None, :, :] + weight.T[:, :, None]
            arrived = np.minimum.reduce(stacked, axis=1)
            best_prev = stacked.argmin(axis=1)  # smallest value index on ties
            best_prev += pa
            best_prev[arrived == _INF] = -1  # the pad column too

            index = shifted[start[i, a:b]]
            cost = arrived.take(index)
            pred[i, a:b] = best_prev.take(index)[:, :width]
            finite[i] = np.add.reduce(np.isfinite(cost), axis=0)[:width]

        last_cost = np.full((m, width), _INF)
        last_cost[a:b] = cost[:, :width]
        per_radius = _per_radius(last_cost, finite)
        return cls(inst.delta, pred, last_cost, finite, succ, *per_radius)

    def solution(self, inst: TripInstance) -> Solution:
        """The optimum of inst, which must be the tables' instance at a
        clamped radius of at most delta, ending at its terminal state."""
        s = self.delta - inst.delta
        if s < 0:
            raise ValueError(f"radius {inst.delta} above the tables' {self.delta}")
        j, eta = self.terminal[s]
        pred = self.pred.item
        xi, x, gamma = inst.xi.tolist(), inst.x.tolist(), inst.gamma.tolist()
        js = [j]  # value indices of layers n..1
        for i in range(inst.n - 1, 0, -1):  # from layer i + 1 back to layer i
            # the predecessor, and the capacity one layer back
            j, eta = pred(i, j, eta), eta + gamma[i] * abs(xi[j] - x[i])
            js.append(j)
        d = inst.xi.take(js[::-1]) - inst.x
        # edges between layers; sums of small ints accumulate in int64
        inner = np.einsum(
            "ij,ij->", self.finite[:-1, s:], self.succ[:, : inst.delta + 1],
            dtype=np.int64,
        )
        return Solution.of(
            inst,
            d,
            nodes_expanded=self.nodes[s] + 2,  # plus source and sink
            nodes_generated=self.ends[s] + int(inner),
        )


def _per_radius(last_cost: np.ndarray, finite: np.ndarray) -> tuple[list, list, list]:
    """terminal, nodes and ends of TopoTables, one entry per offset s."""
    # scanned from the largest capacity down, a column takes the terminal
    # only when strictly cheaper; argmin picks its smallest value index
    cheapest = np.minimum.reduce(last_cost, axis=0).tolist()
    first = last_cost.argmin(axis=0).tolist()
    terminal, best = [], _INF
    for eta in range(len(cheapest) - 1, -1, -1):
        if cheapest[eta] < best:
            best, end = cheapest[eta], (first[eta], eta)
        terminal.append(end)
    terminal.reverse()
    # suffix sums over capacity of the per-capacity counts, in int64
    nodes = np.add.reduce(finite, axis=0, dtype=np.int64)
    ends = np.add(finite[0], finite[-1], dtype=np.int64)
    return (
        terminal,
        nodes[::-1].cumsum()[::-1].tolist(),
        ends[::-1].cumsum()[::-1].tolist(),
    )


def solve_topo(inst: TripInstance, cache: Optional[RadiusCache] = None) -> Solution:
    """Globally optimal step vector by layer-ordered dynamic programming.

    The answer ends at the terminal state whose tie rule TopoTables states,
    and predecessor ties prefer the smaller value index, so the result is
    deterministic.

    With a cache, the tables are kept there and a later call for the same
    instance at a radius no larger reads its answer from them.
    """
    t0 = time.perf_counter()
    inst = clamp_delta(inst)
    if cache is None:
        cache = RadiusCache()
    tables = cache.entry("topo", inst, lambda: TopoTables.build(inst))
    sol = tables.solution(inst)
    sol.stats.wall_seconds = time.perf_counter() - t0
    return sol
