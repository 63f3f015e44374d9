import tracemalloc

import numpy as np
import pytest

import tripsolve.instance
from tripsolve.astar import solve_astar
from tripsolve.graph import NodeRef, edge_terms, reach_windows
from conftest import equivalence_instances
from graph_reference import (
    build_explicit,
    edge_weight,
    path_to_step,
    path_weight,
    sink_node,
    source_node,
    step_to_path,
    successors,
)
from tripsolve.instance import InstanceError, objective, validate
from tripsolve.oracle import gen_random
from tripsolve.topo import solve_topo


def feasible_prefixes(inst):
    """Independent enumeration of reachable states: all (layer, shift,
    remaining budget) triplets visited by feasible prefixes."""
    states = {(0, 0, inst.delta)}
    frontier = [(0, inst.delta)]
    edges = 0
    for i in range(1, inst.n + 1):
        nxt = {}
        for _, eta in frontier:
            for j, shift in enumerate(inst.shifts(i)):
                used = int(inst.gamma[i - 1]) * abs(int(shift))
                if used <= eta:
                    edges += 1
                    nxt[(j, eta - used)] = None
        frontier = list(nxt)
        states |= {(i, j, eta) for j, eta in nxt}
    edges += len(frontier)  # sink edges
    states.add((inst.n + 1, 0, 0))
    return states, edges


def test_edge_weights_two_interval(two_interval):
    # source edges carry only the linear term
    assert edge_weight(two_interval, 0, 0, 0) == 0.0
    assert edge_weight(two_interval, 0, 0, 1) == pytest.approx(two_interval.c[0])
    # move in layer 2 pays the coefficient plus one jump
    assert edge_weight(two_interval, 1, 0, 1) == pytest.approx(
        two_interval.c[1] + two_interval.alpha
    )
    # sink edges are free
    assert edge_weight(two_interval, 2, 1, 0) == 0.0


def test_edge_weights_from_shifted_node(two_interval):
    # leaving a shifted node: dropping back to zero pays one jump, staying
    # shifted pays only the coefficient
    assert edge_weight(two_interval, 1, 1, 0) == pytest.approx(two_interval.alpha)
    assert edge_weight(two_interval, 1, 1, 1) == pytest.approx(two_interval.c[1])


def test_edge_weight_no_jump_same_shift():
    inst = validate(
        {
            "n": 2,
            "alpha": 2.0,
            "delta": 4,
            "xi": [0, 3],
            "x": [3, 3],
            "gamma": [1, 1],
            "c": [0.0, 1.5],
        }
    )
    assert edge_weight(inst, 1, -3, -3) == pytest.approx(1.5 * -3)


def test_source_successors(two_interval):
    out = list(successors(two_interval, source_node(two_interval)))
    assert [(v.layer, v.value_index, v.capacity) for v, _, _ in out] == [
        (1, 0, 2),
        (1, 1, 1),
    ]
    assert [w for _, w, _ in out] == [0.0, pytest.approx(two_interval.c[0])]
    assert [r for _, _, r in out] == [0, 1]


def test_successors_of_inner_node(two_interval):
    out = list(successors(two_interval, NodeRef(1, 1, 1)))
    heads = {(v.layer, v.value_index, v.capacity) for v, _, _ in out}
    assert heads == {(2, 0, 1), (2, 1, 0)}
    by_head = {v.value_index: w for v, w, _ in out}
    # weights follow the edge formula: a jump back to zero pays alpha, the
    # repeated shift pays only the coefficient
    assert by_head[0] == pytest.approx(two_interval.alpha)
    assert by_head[1] == pytest.approx(two_interval.c[1])


def test_zero_capacity_only_zero_shift(two_interval):
    out = list(successors(two_interval, NodeRef(1, 1, 0)))
    assert len(out) == 1
    head, w, used = out[0]
    assert (head.value_index, used) == (0, 0)


def test_last_layer_single_sink_edge(two_interval):
    out = list(successors(two_interval, NodeRef(2, 0, 1)))
    assert out == [(sink_node(two_interval), 0.0, 0)]


def test_build_explicit_two_interval_bound(two_interval):
    g = build_explicit(two_interval)
    assert g.n_nodes <= 2 * 3 * 2 + 2 == 14


def test_build_explicit_zero_budget():
    inst = validate(
        {
            "n": 5,
            "alpha": 1.0,
            "delta": 0,
            "xi": [0, 1],
            "x": [0, 1, 0, 1, 0],
            "gamma": [1] * 5,
            "c": [0.0] * 5,
        }
    )
    g = build_explicit(inst)
    assert g.n_nodes == 5 + 2


def test_build_explicit_matches_prefix_enumeration():
    inst = validate(
        {
            "n": 3,
            "alpha": 1.0,
            "delta": 2,
            "xi": [0, 1],
            "x": [0, 0, 0],
            "gamma": [1, 1, 1],
            "c": [0.5, -0.5, 0.25],
        }
    )
    g = build_explicit(inst)
    states, edges = feasible_prefixes(inst)
    got = {(v.layer, v.value_index, v.capacity) for v in g.nodes}
    assert got == states
    assert g.n_edges == edges


def test_build_explicit_size_bounds_random():
    rng = np.random.default_rng(11)
    for k in range(60):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, 5))
        delta = int(rng.integers(0, 11))
        inst = gen_random(n, m, delta, 0.5, seed=k)
        g = build_explicit(inst)
        assert g.n_nodes <= n * (delta + 1) * m + 2
        assert g.n_edges <= m * m * n * (delta + 1) + m + (delta + 1) * m


def test_build_explicit_cap():
    inst = gen_random(8, 4, 6, 0.5, seed=0)
    with pytest.raises(ValueError, match="cap"):
        build_explicit(inst, cap=10)


def test_explicit_edges_topological_and_capacity(corpus200):
    for inst in corpus200[:30]:
        g = build_explicit(inst)
        for u, v, _, used in g.edges():
            assert g.nodes[v].layer == g.nodes[u].layer + 1
            assert g.nodes[v].capacity >= 0
            if 1 <= g.nodes[v].layer <= inst.n:
                assert g.nodes[v].capacity == g.nodes[u].capacity - used


def test_path_to_step_zero_path():
    inst = validate(
        {
            "n": 3,
            "alpha": 0.5,
            "delta": 3,
            "xi": [0, 2],
            "x": [0, 2, 0],
            "gamma": [1, 1, 1],
            "c": [0.0, 0.0, 0.0],
        }
    )
    path = step_to_path(inst, np.zeros(3, dtype=int))
    d = path_to_step(inst, path)
    assert np.array_equal(d, np.zeros(3))
    assert path_weight(inst, path) == pytest.approx(0.5 * 4)  # alpha * TV(x)


def test_path_weight_matches_objective(two_interval):
    path = [
        source_node(two_interval),
        NodeRef(1, 1, 1),
        NodeRef(2, 0, 1),
        sink_node(two_interval),
    ]
    d = path_to_step(two_interval, path)
    assert np.array_equal(d, [1, 0])
    assert path_weight(two_interval, path) == pytest.approx(
        objective(two_interval, d)
    )


def test_path_to_step_rejects_broken_paths(two_interval):
    good = step_to_path(two_interval, np.array([1, 0]))
    bad = list(good)
    bad[2] = NodeRef(2, 0, 0)  # wrong capacity
    with pytest.raises(ValueError, match="broken|capacity"):
        path_to_step(two_interval, bad)
    with pytest.raises(ValueError, match="nodes"):
        path_to_step(two_interval, good[:-1])


def random_feasible_step(inst, rng):
    d = np.zeros(inst.n, dtype=np.int64)
    left = inst.delta
    for i in range(1, inst.n + 1):
        options = [
            s
            for s in inst.shifts(i)
            if int(inst.gamma[i - 1]) * abs(int(s)) <= left
        ]
        d[i - 1] = int(rng.choice(options))
        left -= int(inst.gamma[i - 1]) * abs(int(d[i - 1]))
    return d


def test_random_path_roundtrips(corpus200):
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 1000:
        inst = corpus200[int(rng.integers(len(corpus200)))]
        d = random_feasible_step(inst, rng)
        path = step_to_path(inst, d)
        back = path_to_step(inst, path)
        assert np.array_equal(back, d)
        assert abs(path_weight(inst, path) - objective(inst, d)) <= 1e-9
        checked += 1


def test_reach_windows_hold_exactly_the_affordable_values(corpus200):
    for inst in corpus200:
        lo, hi = reach_windows(inst)
        for i in range(1, inst.n + 1):
            affordable = inst.gamma[i - 1] * np.abs(inst.shifts(i)) <= inst.delta
            assert np.flatnonzero(affordable).tolist() == list(range(lo[i - 1], hi[i - 1]))


@pytest.mark.parametrize(
    "n, m, solvers",
    [
        (1, 400, (edge_terms, solve_topo, solve_astar)),  # (m, m) jump: 1.28 MB
        (20000, 7, (edge_terms, solve_topo)),  # (n, m) tables: 1.12 MB each
    ],
)
def test_edge_terms_checked_before_allocation(monkeypatch, n, m, solvers):
    # the tables a solver checks before calling edge_terms stay below the
    # lowered cap: topo's predecessor table and layer costs, and for m = 400
    # A*'s (n, K, m) relaxed sweep tables (at n = 20000 these are rejected
    # first, see test_relaxed_sweep_tables_checked_before_allocation)
    monkeypatch.setattr(tripsolve.instance, "TABLE_BYTES_CAP", 1_000_000)
    inst = validate(
        {"n": n, "alpha": 1.0, "delta": 0, "xi": list(range(m)), "x": [0] * n,
         "gamma": [1] * n, "c": [1.0] * n}
    )
    for solve in solvers:
        tracemalloc.start()
        try:
            with pytest.raises(InstanceError, match="edge term tables"):
                solve(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def test_edge_terms_match_edge_weight():
    for inst in equivalence_instances(40, seed=1400):
        cons, linear, jump = edge_terms(inst)
        assert cons.shape == linear.shape == (inst.n, inst.m)
        assert jump.shape == (inst.m, inst.m)
        for i in range(inst.n):
            tail = inst.shifts(i) if i else np.zeros(1, dtype=np.int64)
            for j, delta_u in enumerate(tail):
                for j2, delta_v in enumerate(inst.shifts(i + 1)):
                    weight = linear[i, j2] + jump[j, j2] if i else linear[0, j2]
                    assert weight == edge_weight(inst, i, int(delta_u), int(delta_v))
                    assert cons[i, j2] == inst.gamma[i] * abs(int(delta_v))
