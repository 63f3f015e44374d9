"""The explicit layered graph the tests check the solvers against.

Every feasible step vector is one source-to-sink path through a layered DAG
whose nodes are (layer, value index, remaining budget) triplets, and the
path weight is the step cost. Here the graph is spelled out node by node
with a scalar edge weight: `successors` generates the out-edges of one node,
`build_explicit` materializes every reachable node of a small instance, and
the path converters map between paths and step vectors. The solvers read
the vectorised `tripsolve.graph.edge_terms` instead, so these definitions
are an independent reference for them, as are `enumerate_steps` and
`knapsack_bruteforce` for the brute-force oracle and the knapsack
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from tripsolve.graph import NodeRef
from tripsolve.instance import TripInstance


def source_node(inst: TripInstance) -> NodeRef:
    return NodeRef(0, 0, inst.delta)


def sink_node(inst: TripInstance) -> NodeRef:
    return NodeRef(inst.n + 1, 0, 0)


def edge_weight(
    inst: TripInstance, layer_u: int, delta_u: int, delta_v: int
) -> float:
    """Weight of the edge from a layer_u node with shift delta_u to a
    layer_u + 1 node with shift delta_v.

    Source edges (layer_u = 0) carry no jump term; sink edges (layer_u = n)
    have weight zero.
    """
    if layer_u < 0 or layer_u > inst.n:
        raise ValueError(f"layer_u = {layer_u} out of range 0..{inst.n}")
    if layer_u == inst.n:
        return 0.0
    head = layer_u + 1
    linear = inst.c[head - 1] * delta_v
    if layer_u == 0:
        return float(linear)
    jump = abs(int(inst.x[head - 1]) - int(inst.x[layer_u - 1]) + delta_v - delta_u)
    return float(linear + inst.alpha * jump)


def _shift_of(inst: TripInstance, node: NodeRef) -> int:
    if node.layer == 0 or node.layer == inst.n + 1:
        return 0
    return int(inst.xi[node.value_index] - inst.x[node.layer - 1])


def successors(
    inst: TripInstance, node: NodeRef
) -> Iterator[tuple[NodeRef, float, int]]:
    """Out-edges of a node: (head node, weight, budget consumption) triples.

    Only successors with nonnegative remaining budget are generated; a
    last-layer node has the single zero-weight sink edge.
    """
    if node.layer > inst.n:
        return
    if node.layer == inst.n:
        yield sink_node(inst), 0.0, 0
        return
    head = node.layer + 1
    delta_u = _shift_of(inst, node)
    shifts = inst.shifts(head)
    cons = inst.gamma[head - 1] * np.abs(shifts)
    for j, delta_v in enumerate(shifts):
        used = int(cons[j])
        left = node.capacity - used
        if left < 0:
            continue
        w = edge_weight(inst, node.layer, delta_u, int(delta_v))
        yield NodeRef(head, j, left), w, used


@dataclass
class ExplicitGraph:
    """Materialized reachable subgraph: node list plus adjacency lists of
    (head index, weight, consumption) triples. Node 0 is the source, the
    last node is the sink."""

    nodes: list[NodeRef]
    adjacency: list[list[tuple[int, float, int]]]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return sum(len(out) for out in self.adjacency)

    def edges(self) -> Iterator[tuple[int, int, float, int]]:
        for u, out in enumerate(self.adjacency):
            for v, w, r in out:
                yield u, v, w, r


def build_explicit(inst: TripInstance, cap: int = 2_000_000) -> ExplicitGraph:
    """Materialize every node reachable from the source.

    Raises ValueError when the node-count bound n * (delta + 1) * |xi| + 2
    exceeds `cap`.
    """
    bound = inst.n * (inst.delta + 1) * inst.m + 2
    if bound > cap:
        raise ValueError(
            f"explicit build bound {bound} exceeds cap {cap}; "
            "raise the cap or use the implicit interface"
        )
    src = source_node(inst)
    nodes: list[NodeRef] = [src]
    index: dict[NodeRef, int] = {src: 0}
    adjacency: list[list[tuple[int, float, int]]] = [[]]
    frontier = [src]
    while frontier:
        next_frontier: list[NodeRef] = []
        for node in frontier:
            out = adjacency[index[node]]
            for head, w, r in successors(inst, node):
                at = index.get(head)
                if at is None:
                    at = len(nodes)
                    index[head] = at
                    nodes.append(head)
                    adjacency.append([])
                    if head.layer <= inst.n:
                        next_frontier.append(head)
                out.append((at, w, r))
        frontier = next_frontier
    return ExplicitGraph(nodes=nodes, adjacency=adjacency)


def path_to_step(inst: TripInstance, path: Sequence[NodeRef]) -> np.ndarray:
    """Convert a source-to-sink path into its step vector.

    Verifies the path structure: consecutive layers, existing edges (the
    budget recursion) and the source/sink endpoints.
    """
    if len(path) != inst.n + 2:
        raise ValueError(f"path has {len(path)} nodes, expected {inst.n + 2}")
    if path[0] != source_node(inst):
        raise ValueError(f"path does not start at the source: {path[0]}")
    if path[-1] != sink_node(inst):
        raise ValueError(f"path does not end at the sink: {path[-1]}")
    d = np.zeros(inst.n, dtype=np.int64)
    capacity = inst.delta
    for i in range(1, inst.n + 1):
        node = path[i]
        if node.layer != i:
            raise ValueError(f"node {i} of the path sits in layer {node.layer}")
        if not 0 <= node.value_index < inst.m:
            raise ValueError(f"value_index {node.value_index} out of range")
        shift = int(inst.xi[node.value_index] - inst.x[i - 1])
        capacity -= int(inst.gamma[i - 1]) * abs(shift)
        if capacity < 0:
            raise ValueError(f"path exhausts the budget at layer {i}")
        if node.capacity != capacity:
            raise ValueError(
                f"broken path: layer {i} capacity {node.capacity}, "
                f"expected {capacity}"
            )
        d[i - 1] = shift
    return d


def path_weight(inst: TripInstance, path: Sequence[NodeRef]) -> float:
    """Sum of edge weights along a path (edges validated implicitly)."""
    total = 0.0
    for u, v in zip(path, path[1:]):
        total += edge_weight(inst, u.layer, _shift_of(inst, u), _shift_of(inst, v))
    return total


def step_to_path(inst: TripInstance, d: np.ndarray) -> list[NodeRef]:
    """Inverse of path_to_step for a feasible step vector."""
    d = np.asarray(d, dtype=np.int64)
    path = [source_node(inst)]
    capacity = inst.delta
    for i in range(1, inst.n + 1):
        value = int(inst.x[i - 1] + d[i - 1])
        j = int(np.searchsorted(inst.xi, value))
        if j >= inst.m or inst.xi[j] != value:
            raise ValueError(f"d_{i} = {d[i - 1]} leaves the admissible set")
        capacity -= int(inst.gamma[i - 1]) * abs(int(d[i - 1]))
        if capacity < 0:
            raise ValueError("step vector exceeds the budget")
        path.append(NodeRef(i, j, capacity))
    path.append(sink_node(inst))
    return path


def enumerate_steps(inst: TripInstance) -> np.ndarray:
    """All step vectors with x + d in the admissible set, one per row, in
    lexicographic order (feasibility w.r.t. the budget NOT filtered)."""
    shifts = [inst.shifts(i) for i in range(1, inst.n + 1)]
    grids = np.meshgrid(*shifts, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, inst.n)


def knapsack_bruteforce(
    values: Sequence[float], weights: Sequence[int], budget: int
) -> tuple[float, list[int]]:
    """Subset-enumeration knapsack optimum: (best value, selected indices)."""
    n = len(values)
    best_value = 0.0
    best_sel: list[int] = []
    for mask in range(1 << n):
        sel = [i for i in range(n) if mask >> i & 1]
        if sum(weights[i] for i in sel) > budget:
            continue
        val = sum(values[i] for i in sel)
        if val > best_value:
            best_value = val
            best_sel = sel
    return best_value, best_sel
