import contextlib
import dataclasses
import functools
import sys
from collections import Counter

import numpy as np
import pytest

from astar_reference import dominated_masks, solve_astar_reference
from conftest import (
    assert_cached_astar_matches,
    assert_cached_astar_radii_match,
    halving,
    radius_corpus,
    solution_fields,
)
import tripsolve.instance
from tripsolve import astar
from tripsolve.astar import AstarOptions, edge_dominated, solve_astar
from tripsolve.instance import RadiusCache, clamp_delta, validate
from tripsolve.oracle import gen_random, knapsack_reduce
from tripsolve.topo import solve_topo

# AstarOptions fields, and "table_cap" for astar.HEURISTIC_TABLE_CAP
OPTION_VARIANTS = [
    {},
    {"edge_pruning": False},
    {"upper_bound_pruning": False},
    {"edge_pruning": False, "upper_bound_pruning": False},
    {"edge_pruning": False, "upper_bound_pruning": False, "table_cap": 0},
    {"table_cap": 0},  # the on-the-fly heuristic
]


@contextlib.contextmanager
def variant_options(variant, listener=None):
    """The AstarOptions of an OPTION_VARIANTS entry, with its table cap in
    force inside the block."""
    fields = dict(variant)
    with pytest.MonkeyPatch.context() as mp:
        if "table_cap" in fields:
            mp.setattr(astar, "HEURISTIC_TABLE_CAP", fields.pop("table_cap"))
        yield AstarOptions(**fields, expansion_listener=listener)


def test_derived_instance(derived3):
    sol = solve_astar(derived3)
    assert np.array_equal(sol.d, [1, 0, 1])
    assert sol.objective == pytest.approx(-1.0, abs=1e-12)


def test_zero_budget():
    inst = validate(
        {
            "n": 4,
            "alpha": 0.3,
            "delta": 0,
            "xi": [0, 2],
            "x": [0, 2, 0, 2],
            "gamma": [1, 1, 1, 1],
            "c": [-1.0, 1.0, -1.0, 1.0],
        }
    )
    sol = solve_astar(inst)
    assert np.array_equal(sol.d, np.zeros(4))
    assert sol.stats.nodes_expanded == 0  # settled during preprocessing


def test_constant_control_zero_costs_early_exit():
    inst = validate(
        {
            "n": 3,
            "alpha": 0.5,
            "delta": 2,
            "xi": [0, 1],
            "x": [0, 0, 0],
            "gamma": [1, 1, 1],
            "c": [0.0, 0.0, 0.0],
        }
    )
    sol = solve_astar(inst)
    assert sol.stats.nodes_expanded == 0
    assert sol.objective == pytest.approx(0.0)


def test_matches_topo_on_corpus(corpus200):
    for inst in corpus200:
        a = solve_astar(inst)
        t = solve_topo(inst)
        assert abs(a.objective - t.objective) <= 1e-9
        assert a.stats.nodes_expanded <= t.stats.nodes_expanded


def test_no_node_expanded_twice(corpus200):
    for inst in corpus200[:40]:
        seen = Counter()
        opts = AstarOptions(expansion_listener=lambda node, f: seen.update([node]))
        solve_astar(inst, options=opts)
        if seen:
            assert seen.most_common(1)[0][1] == 1


def test_edge_dominated_examples():
    alpha = 0.8
    base = {
        "n": 3,
        "alpha": alpha,
        "delta": 3,
        "xi": [0, 1],
        "x": [0, 0, 0],
        "gamma": [1, 1, 1],
    }
    # cost 3*alpha for the move: surplus 4*alpha > alpha, pruned
    expensive = validate({**base, "c": [0.0, 3 * alpha, 0.0]})
    assert edge_dominated(expensive, 1, 0, 1)
    # cost -3*alpha: surplus -2*alpha <= alpha, kept
    cheap = validate({**base, "c": [0.0, -3 * alpha, 0.0]})
    assert not edge_dominated(cheap, 1, 0, 1)
    # the zero step is never pruned
    assert not edge_dominated(expensive, 1, 1, 0)


def test_edge_dominated_layer_range(derived3):
    with pytest.raises(ValueError):
        edge_dominated(derived3, 0, 0, 1)
    with pytest.raises(ValueError):
        edge_dominated(derived3, derived3.n, 0, 1)


def test_edge_dominated_matches_reference_masks():
    # one head array per call, as SuccessorRows.build makes it, and one head
    # per call must both give the reference masks bit for bit
    for inst in [*radius_corpus(), *_knapsack_instances()]:
        for i, mask in enumerate(dominated_masks(inst), start=1):
            heads = inst.shifts(i + 1)
            for j, du in enumerate(inst.shifts(i)):
                assert np.array_equal(edge_dominated(inst, i, du, heads), mask[j])
                scalar = [bool(edge_dominated(inst, i, int(du), int(dv))) for dv in heads]
                assert scalar == mask[j].tolist()


@pytest.mark.parametrize("options", OPTION_VARIANTS[1:])
def test_pruning_toggles_preserve_objective(options, corpus200):
    for inst in corpus200[:60]:
        base = solve_astar(inst)
        with variant_options(options) as opts:
            toggled = solve_astar(inst, options=opts)
        assert abs(base.objective - toggled.objective) <= 1e-9


def test_equal_f_prefers_larger_capacity():
    # both first-layer labels enter the queue with f = -1 when the source
    # expands; the capacity-1 label must pop first
    from astar_reference import heuristic_h
    from tripsolve.graph import NodeRef
    from tripsolve.lagrange import binary_search

    inst = validate(
        {
            "n": 2,
            "alpha": 0.0,
            "delta": 1,
            "xi": [0, 1],
            "x": [0, 0],
            "gamma": [1, 1],
            "c": [-1.0, -1.0],
        }
    )
    tables = binary_search(inst, epsilon=3.0)  # evaluates only 0 and max|c|
    assert tables.early_exit is None
    f_stay = 0.0 + heuristic_h(inst, tables, NodeRef(1, 0, 1))
    f_move = -1.0 + heuristic_h(inst, tables, NodeRef(1, 1, 0))
    assert f_stay == pytest.approx(f_move)  # genuine tie, crafted

    order = []
    opts = AstarOptions(
        expansion_listener=lambda node, f: order.append((node, f))
    )
    sol = solve_astar(inst, epsilon=3.0, options=opts)
    assert sol.objective == pytest.approx(-1.0)
    assert order[0][0].layer == 0
    first = order[1][0]
    assert (first.layer, first.capacity) == (1, 1)  # larger capacity wins


def test_preprocessing_counter_reported():
    inst = gen_random(8, 3, 4, 0.4, seed=9)
    sol = solve_astar(inst, epsilon=1e-6)
    topo = solve_topo(inst)
    assert abs(sol.objective - topo.objective) <= 1e-9
    if sol.stats.nodes_expanded > 0:
        assert sol.stats.preprocessing_iterations > 0


def test_per_label_heuristic_reads_the_cost_tables_in_place(monkeypatch):
    # with no heuristic table the search reads the multiplier search's
    # (n, m) cost tables themselves, here 7 of 32 kB each, 224 kB in all:
    # no copy of them is made, so a cap that each one fits is enough
    monkeypatch.setattr(tripsolve.instance, "TABLE_BYTES_CAP", 100_000)
    monkeypatch.setattr(astar, "HEURISTIC_TABLE_CAP", 0)
    monkeypatch.setattr(np, "stack", lambda *a, **k: pytest.fail("stack allocated"))
    inst = gen_random(400, 10, 6, 0.3, seed=0)
    sol = solve_astar(inst)
    assert sol.stats.nodes_expanded > 0
    assert abs(sol.objective - solve_topo(inst).objective) <= 1e-9


def test_cached_radii_match_fresh_solves():
    # the default tolerance, and coarser ones that end the bisection sooner
    epsilons = (None, 1e-3, 0.3)
    for k, inst in enumerate(radius_corpus()):
        solve = functools.partial(solve_astar, epsilon=epsilons[k % 3])
        assert_cached_astar_radii_match(solve, inst)


def test_cached_radii_with_many_values():
    inst = gen_random(6, 130, 40, 0.3, seed=11)
    assert inst.gamma.max() > 1
    assert_cached_astar_radii_match(solve_astar, inst)


def test_cached_radii_above_the_clamp_cap():
    inst = gen_random(5, 3, 10**6, 0.3, seed=12)
    assert clamp_delta(inst).delta < inst.delta // 2
    assert_cached_astar_radii_match(solve_astar, inst)


def test_cache_rebuilds_for_changed_instances():
    inst = gen_random(12, 5, 10, 0.2, seed=14)
    rng = np.random.default_rng(14)
    others = [
        dataclasses.replace(inst, c=-inst.c),
        dataclasses.replace(inst, x=rng.choice(inst.xi, size=inst.n)),
        dataclasses.replace(inst, delta=2 * inst.delta),
    ]
    for other in others:
        cache = RadiusCache()
        solve_astar(inst, cache=cache)
        cached = solution_fields(solve_astar(other, cache=cache))
        assert cached == solution_fields(solve_astar(other))


def _knapsack_instances():
    rng = np.random.default_rng(77)
    for items in (3, 8, 16, 24):
        weights = rng.integers(1, 20, size=items)
        values = weights + 5.0 + rng.uniform(0.0, 0.01, size=items)
        capacity = int(weights.sum()) // 3
        yield knapsack_reduce(values.tolist(), weights.tolist(), capacity, 1.0).instance


def test_searched_solve_derives_terms_and_windows_once(monkeypatch):
    # the multiplier search's record derives the edge terms and the reach
    # windows; the successor rows, the heuristic table and the search read
    # them there
    inst = list(_knapsack_instances())[-1]  # 24 items
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for key, module in list(sys.modules.items()):
        if key == "tripsolve" or key.startswith("tripsolve."):
            for name in ("edge_terms", "reach_windows"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    sol = solve_astar(inst)
    assert sol.stats.nodes_expanded > 0
    assert calls == {"edge_terms": 1, "reach_windows": 1}


def _assert_search_matches_reference(inst, variant, cache):
    """Solve inst at cached halving radii with solve_astar and with the
    reference loop: same expansions with the same f, same answer."""
    for delta in halving(inst.delta):
        at = dataclasses.replace(inst, delta=delta)
        seen, expected = [], []
        with variant_options(variant, lambda node, f: seen.append((node, f))) as opts:
            sol = solve_astar(at, options=opts, cache=cache)
        with variant_options(variant, lambda node, f: expected.append((node, f))) as opts:
            ref = solve_astar_reference(at, options=opts, cache=cache)
        assert seen == expected
        assert solution_fields(sol) == solution_fields(ref)


def test_search_matches_reference_loop_on_corpus():
    # each instance runs under one variant, every variant on 1/6 of the corpus
    for k, inst in enumerate(radius_corpus()):
        variant = OPTION_VARIANTS[k % len(OPTION_VARIANTS)]
        _assert_search_matches_reference(inst, variant, RadiusCache())


@pytest.mark.parametrize("variant", OPTION_VARIANTS)
def test_search_matches_reference_loop_on_knapsacks(variant):
    for inst in _knapsack_instances():
        _assert_search_matches_reference(inst, variant, RadiusCache())


def test_cache_mixes_edge_pruning_off_and_on():
    on, off = AstarOptions(), AstarOptions(edge_pruning=False)
    differ = 0
    for inst in radius_corpus(30):
        cache = RadiusCache()
        for delta in halving(inst.delta):
            at = dataclasses.replace(inst, delta=delta)
            fresh = [solution_fields(solve_astar(at, options=o)) for o in (off, on)]
            cached = [solution_fields(solve_astar(at, options=o, cache=cache)) for o in (off, on)]
            for got, want in zip(cached, fresh):
                assert_cached_astar_matches(got, want, at, inst.delta)
            differ += fresh[0][4] != fresh[1][4]  # generated counts
    assert differ > 0  # pruning changes the search somewhere in the corpus
