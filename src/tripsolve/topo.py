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
the last layer's costs and what the answer at each radius reads are kept,
in a TopoTables record, so the optimal step can be reconstructed.

A layer is taken with one sum and one minimum: the totals of every (tail,
head, capacity) triple, tails first, and their minimum over the tails. Its
arrival costs move to the capacities they leave with one gather, not one
copy per value: the rolling cost table carries a pad column of inf, and
each state whose consumption would take it past delta reads that column.
The gathered indices are rows of one strided view of a small fixed array.
The predecessor of a state is the first tail whose total equals the
minimum, which is argmin's rule, found without argmin: the minimum is one
of the totals, exactly, so the first tail that equals it is the first
occurrence of the smallest total. Tail t of u carries the code u - t, and
the largest code among the equal tails is the first one.

The predecessor choices, their offset to value indices, the -1 of
unreached states and the per-capacity counts are taken once per block of
layers, not once per layer. Small layers whose windows differ at most
twofold share a block, their rows widened to its largest window, while the
block's sums, minima and gather indices fit in a fixed byte budget; a
widened row lies outside its reach window, so it only ever reads the pad
column and stays unreached. A layer too large for the budget is a block of
its own.

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
# the bytes of a block of small layers' sums, minima and gather indices;
# the layers of a block share the per-call overhead of their predecessor
# choices, offsets, -1 marks and counts
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class TopoTables:
    """The layer-ordered dynamic program of one instance at radius delta.

    pred[i - 1, j, eta] is the value index in layer i - 1 of the best
    predecessor of the layer-i state (value index j, remaining capacity eta),
    -1 where the state is unreachable or i = 1. last_cost[j, eta] is the cost
    of the layer-n state. build raises InstanceError, before it allocates
    anything, when pred or the largest float table of the sweep, the sums
    of one block of layers, would take more than instance.TABLE_BYTES_CAP
    bytes, and before the visit counts when the tables of the affordable
    heads they start from would.

    build takes each layer with one sum and one minimum (the module says
    how) and each block of layers' predecessors at once: for every state,
    the largest code u - t among the tails t whose total equals the
    minimum. That is the first such tail, the one argmin returns, since the
    minimum is itself one of the totals; a state whose minimum is inf gets
    -1, as does every state outside the windows.

    The tables answer every radius up to delta (solution). The states of
    radius delta - s are exactly the states of radius delta whose remaining
    capacity eta is at least s, shifted down by s: a path's capacity only
    falls, so no state with eta >= s is reached through one below s, and
    each of them carries the same cost and the same predecessor choice, the
    same floats compared in the same order. The answer at radius delta - s
    is therefore read from the capacity columns s.. of the tables, and its
    visit counters from the counts of reached states by capacity and of
    out-edges by consumption.

    build reads off what depends on s alone, one entry per offset s, so an
    answer is the predecessor walk and list reads. terminal[s] is the
    layer-n state (value index, capacity) where the answer at radius
    delta - s ends. It is the tie rule of every topo answer: the minimum
    cost, compared exactly, then the largest remaining capacity (the
    smallest budget use), then the smallest value index. expanded[s] and
    generated[s] are the answer's nodes_expanded, the reached states of
    capacity at least s plus source and sink, and nodes_generated, the
    edges between them (_Counts sums both).
    """

    delta: int
    pred: np.ndarray  # (n, m, delta + 1)
    last_cost: np.ndarray  # (m, delta + 1) float
    terminal: list[tuple[int, int]]  # delta + 1 entries
    expanded: list[int]
    generated: list[int]

    @classmethod
    def build(cls, inst: TripInstance) -> "TopoTables":
        n, m, width = inst.n, inst.m, inst.delta + 1
        pred_dtype = np.int8 if m <= np.iinfo(np.int8).max else np.int16
        check_table_bytes(
            "predecessor table", n * m * width * np.dtype(pred_dtype).itemsize
        )
        lo, hi = (w.tolist() for w in reach_windows(inst))
        sizes = [b - a for a, b in zip(lo, hi)]
        blocks, row0 = _blocks(lo, sizes, width, m)
        # the last layer's costs, the index rows below or one block's
        # (layers, tails, heads) sums, each width + 1 wide with its pad column
        rows = max([m, 2 * max(sizes)] + [(j - i) * u * v for i, j, u, v in blocks])
        check_table_bytes("layer cost table", rows * (width + 1) * 8)
        pred = np.full((n, m, width), -1, dtype=pred_dtype)
        cons, linear, jump = edge_terms(inst)
        longest = max((j - i for i, j, _, _ in blocks), default=1)
        counts = _Counts(cons, width, pred_dtype, longest)

        # A layer-i state (j, eta) is reached at capacity eta + cons[i, j] of
        # its arrival table, or from the inf pad column width when that
        # exceeds delta. The flat positions of its row r = j - row0[i] are
        # therefore min(cons[i, j] + eta, width) + r * (width + 1), eta =
        # 0..width: the window of the row-r copy of min(arange(span), width)
        # that starts at min(cons[i, j], width), shifted[start[i, j]]; a row
        # outside the reach window reads the pad column only.
        span = 2 * (width + 1)
        window_row = np.arange(max(sizes))[:, None]
        shifted = sliding_window_view(
            (np.minimum(np.arange(span), width) + (width + 1) * window_row).ravel(),
            width + 1,
        )
        start = np.arange(m) - np.array(row0)[:, None]
        start *= span
        start += np.minimum(cons, width)
        # codes[m - u:] is u, u - 1, ..., 1: tail row t of u has code u - t
        codes = np.arange(m, 0, -1, dtype=pred_dtype)[:, None, None]

        # cost[j - at, eta]: cost of the layer-i state (j, eta), for the value
        # indices j = at.. of the layer's rows, and an inf pad column at
        # eta = width; a row outside the reach window is inf
        at, a, b = lo[0], lo[0], hi[0]
        cost = np.full((b - a, width + 1), _INF)
        cost[np.arange(b - a), inst.delta - cons[0, a:b]] = linear[0, a:b]
        finite = counts.rows(0, 1)
        finite[0] = np.add.reduce(np.isfinite(cost), axis=0)[:width]

        # ufunc reductions rather than the .min method, whose Python wrapper
        # costs a measurable share of a small layer
        for i, j, u, v in blocks:  # head layers i + 1..j
            top = min(lo[i - 1], m - u)  # the first tail row
            if at != top or len(cost) != u:  # lay the tail rows out afresh
                a, b = lo[i - 1], hi[i - 1]
                moved = np.full((u, width + 1), _INF)
                moved[a - top : b - top] = cost[a - at : b - at]
                cost = moved
            a = row0[i]  # the first head row
            if j - i == 1 or top == a and row0[i:j].count(a) == j - i:
                # every layer of the block has the same tail and head rows
                layer_heads = slice(i, j), slice(a, a + v)
                tail_heads = slice(top, top + u), slice(a, a + v)
            else:
                heads = np.array(row0[i:j])[:, None] + np.arange(v)
                tails = np.array([top] + row0[i : j - 1])[:, None]
                layer_heads = np.arange(i, j)[:, None], heads
                tail_heads = (tails + np.arange(u))[:, :, None], heads[:, None, :]
                top = tails.astype(pred_dtype)[:, :, None]  # per layer
            weights = linear[layer_heads][:, None, :] + jump[tail_heads]
            index = shifted[start[layer_heads]]
            # stacked[k, t, h, eta] = cost of reaching tail row t of layer
            # i + k at capacity eta, plus the edge to its head row h
            stacked = np.empty((j - i, u, v, width + 1))
            arrived = np.empty((j - i, v, width + 1))
            for k in range(j - i):
                np.add(cost[:, None, :], weights[k, :, :, None], out=stacked[k])
                np.minimum.reduce(stacked[k], axis=0, out=arrived[k])
                cost = arrived[k].take(index[k])
            at = row0[j - 1]
            # the first tail whose total equals the minimum is argmin's
            # choice: the largest code among them, u - t for tail row t, the
            # value index top + t
            hits = stacked == arrived[:, None]
            first = np.maximum.reduce(hits * codes[m - u :], axis=1)
            np.subtract(top + u, first, out=first)
            first[arrived == _INF] = -1  # the pad column too
            if j - i > 1:
                index += (np.arange(j - i) * first[0].size)[:, None, None]
            got = first.take(index)[..., :width]
            pred[layer_heads] = got
            np.add.reduce(got >= 0, axis=1, dtype=pred_dtype, out=counts.rows(i, j))

        last_cost = np.full((m, width), _INF)
        last_cost[lo[-1] : hi[-1]] = cost[lo[-1] - at : hi[-1] - at, :width]
        return cls(inst.delta, pred, last_cost, _terminals(last_cost), *counts.sums())

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
        return Solution.of(
            inst, d, nodes_expanded=self.expanded[s], nodes_generated=self.generated[s]
        )


def _blocks(
    lo: list[int], sizes: list[int], width: int, m: int
) -> tuple[list[tuple[int, int, int, int]], list[int]]:
    """Layers 1..n-1 in blocks (i, j, u, v) of head layers i + 1..j, whose
    sums take u tail rows and v head rows, and row0[i], the value index of
    layer i's first row. A layer alone takes its reach windows. Small layers
    whose windows differ at most twofold share a block, their rows widened
    to the largest window, while the block's sums, minima and gather indices
    fit in _BLOCK_BYTES."""
    rows = _BLOCK_BYTES // ((width + 1) * 8)  # of sums, minima and indices
    blocks, row0, i, n = [], lo[:1], 1, len(sizes)
    while i < n:
        u, v = sizes[i - 1], sizes[i]
        w = max(u, v)
        stop = min(n, i + rows // (w * w + 2 * w))
        j = i + 1
        if 2 * min(u, v) >= w:
            while j < stop and w <= 2 * sizes[j] <= 2 * w:
                j += 1
        if j > i + 1:
            u = v = w
        blocks.append((i, j, u, v))
        row0 += [min(a, m - v) for a in lo[i:j]]
        i = j
    return blocks, row0


def _terminals(last_cost: np.ndarray) -> list[tuple[int, int]]:
    """terminal of TopoTables, one entry per offset s."""
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
    return terminal


class _Counts:
    """The visit counters of the answer at every offset s, summed from
    finite[t, eta], the number of reached states of layer t + 1 with
    remaining capacity eta, a chunk of layers at a time: no (n, delta + 1)
    table outlives its chunk.

    The build writes finite[i:j] into rows(i, j), layers in order. The
    answer at offset s counts the states of capacity at least s, the source
    edges into layer 1 and the sink edges out of layer n, and the inner
    edges: an edge from a layer-(t + 1) state of capacity eta to a head of
    layer t + 2 that consumes c is taken when eta >= s + c. Summed over
    the heads and capacities, that is sum_{d >= s} h[d], with
    h[d] = sum_t sum_c N[t, c] * finite[t, c + d], where N[t, c] counts the
    heads of layer t + 2 that consume exactly c, and c runs over the
    distinct consumptions below delta + 1 (the heads' reach windows).
    Each chunk adds its share of h with one product over those
    consumptions, exact in float64 since every count stays below 2**53,
    and one gather of its skewed diagonals.
    """

    def __init__(self, cons: np.ndarray, width: int, dtype: type, block: int):
        n, m = cons.shape
        self.n, self.width = n, width
        # the affordable heads' tail layers t, consumptions and their keys
        # t * C + rank of the consumption, int64 each
        check_table_bytes("successor count tables", (n - 1) * m * 24)
        affordable = cons[1:] < width
        used = cons[1:][affordable]
        seen = np.bincount(used, minlength=width)
        self.used = np.flatnonzero(seen)  # the distinct consumptions, ascending
        rank = np.cumsum(seen > 0)
        rank -= 1
        self.flat = np.repeat(np.arange(n - 1), np.add.reduce(affordable, axis=1))
        self.flat *= len(self.used)
        self.flat += rank[used]  # ascending, as the tails are
        # finite[t - base] for the layers t of the current chunk; a block
        # of layers always fits
        rows = max(block, _BLOCK_BYTES // (8 * width))
        self.finite = np.empty((min(n, rows), width), dtype=dtype)
        self.base = 0
        self.states = np.zeros(width, dtype=np.int64)
        self.ends = np.zeros(width, dtype=np.int64)
        self.h = np.zeros(width)

    def rows(self, i: int, j: int) -> np.ndarray:
        """finite[i:j], to be written: rows base..i - 1 are folded into
        the sums first when j - base rows would overflow the chunk."""
        if j - self.base > len(self.finite):
            self._fold(i)
        return self.finite[i - self.base : j - self.base]

    def _fold(self, stop: int) -> None:
        """Add finite[base:stop] to the sums and start the chunk at stop."""
        a, width, finite = self.base, self.width, self.finite[: stop - self.base]
        self.base = stop
        self.states += np.add.reduce(finite, axis=0, dtype=np.int64)
        if a == 0:
            self.ends += finite[0]
        if stop == self.n:
            self.ends += finite[-1]
        k, count = min(stop, self.n - 1) - a, len(self.used)  # tail layers
        if k <= 0 or count == 0:
            return
        lo, hi = np.searchsorted(self.flat, (a * count, (a + k) * count)).tolist()
        per = np.bincount(self.flat[lo:hi] - a * count, minlength=k * count)
        heads = per.reshape(k, count).T.astype(np.float64)  # N[t, c], transposed
        tails = finite[:k].astype(np.float64)
        step = max(1, _BLOCK_BYTES // (8 * (width + 1)))  # consumptions at once
        for r in range(0, count, step):
            # prod[c, e] = sum_t N[t, c] * finite[t, e], and a zero column
            # at e = width for the diagonals past delta
            used = self.used[r : r + step]
            prod = np.zeros((len(used), width + 1))
            np.matmul(heads[r : r + step], tails, out=prod[:, :width])
            at = np.minimum(used[:, None] + np.arange(width), width)
            at += (width + 1) * np.arange(len(used))[:, None]
            self.h += np.add.reduce(prod.take(at), axis=0)

    def sums(self) -> tuple[list[int], list[int]]:
        """expanded and generated of TopoTables, after the last chunk."""
        self._fold(self.n)
        # suffix sums over capacity; h's are exact integers in float64
        nodes = self.states[::-1].cumsum()[::-1]
        inner = self.h[::-1].cumsum()[::-1].astype(np.int64)
        inner += self.ends[::-1].cumsum()[::-1]
        nodes += 2  # the source and the sink
        return nodes.tolist(), inner.tolist()


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
