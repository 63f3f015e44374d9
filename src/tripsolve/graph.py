"""Layered step graph underlying the solvers.

Every feasible step vector corresponds to one source-to-sink path through a
layered DAG whose nodes are (layer, value index, remaining budget) triplets;
the path weight equals the step cost. A budget-free quotient of the graph
identifies nodes that differ only in remaining budget; it carries a budget
consumption on each edge instead.

Graphs are implicit: the full node set can reach n * (delta + 1) * |xi|
states, far too many to materialize. The solvers read the edge weights as
whole arrays from `edge_terms`, the one definition of the weight, and
restrict every layer to its `reach_windows`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import TripInstance, check_table_bytes


@dataclass(frozen=True)
class NodeRef:
    """A node of the layered graph.

    layer 0 is the source, layer n + 1 the sink; both use value_index 0.
    capacity is the budget left after consuming the path prefix.
    """

    layer: int
    value_index: int
    capacity: int


def edge_terms(inst: TripInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of every edge weight and consumption, for the vectorised
    solvers: (cons, linear, jump).

    linear[i, j] = c_{i+1} * shift_j and cons[i, j] = gamma_{i+1} * |shift_j|,
    with shift_j = xi_j - x_{i+1}, shape (n, m); jump[j, j'] =
    alpha * |xi_j' - xi_j|, shape (m, m). The edge into value index j' of
    layer i + 1 weighs linear[i, j'] + jump[j, j'] from value index j of
    layer i >= 1, and linear[0, j'] from the source; an edge into the sink
    weighs zero. The jump integers |x_{i+1} - x_i + shift_j' - shift_j| are
    |xi_j' - xi_j|.
    Raises InstanceError first when a table would exceed TABLE_BYTES_CAP.
    """
    check_table_bytes("edge term tables", max(inst.n, inst.m) * inst.m * 8)
    shifts = inst.xi[None, :] - inst.x[:, None]
    cons = inst.gamma[:, None] * np.abs(shifts)
    linear = inst.c[:, None] * shifts
    # the exact int64 differences are cast into one (m, m) float buffer as
    # they are computed, so the table takes no (m, m) temporary
    jump = np.empty((inst.m, inst.m))
    np.subtract(inst.xi[None, :], inst.xi[:, None], out=jump)
    np.abs(jump, out=jump)
    jump *= inst.alpha
    return cons, linear, jump


def reach_windows(inst: TripInstance) -> tuple[np.ndarray, np.ndarray]:
    """The reach window of every layer, (lo, hi), each of shape (n,).

    Value index j of layer i is reachable within the budget iff
    gamma_i * |xi_j - x_i| <= delta, which holds exactly for the contiguous
    range lo[i - 1] <= j < hi[i - 1]: xi is strictly ascending and holds
    x_i. An index outside it overspends the budget on its own; one inside it
    is reached by the path that steps there and nowhere else. gamma_i = 0,
    which validate rejects but a hand-built instance can hold, gets the full
    range.
    """
    full = int(inst.xi[-1] - inst.xi[0])  # no |xi_j - x_i| is larger
    reach = np.where(inst.gamma > 0, inst.delta // np.maximum(inst.gamma, 1), full)
    lo = np.searchsorted(inst.xi, inst.x - reach, side="left")
    hi = np.searchsorted(inst.xi, inst.x + reach, side="right")
    return lo, hi
