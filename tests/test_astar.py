import contextlib
import dataclasses
import gc
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from astar_reference import dominated_masks, solve_astar_reference
from conftest import (
    assert_cached_astar_radii_match,
    halving,
    radius_corpus,
    solution_fields,
)
import tripsolve.instance
from tripsolve import astar
from tripsolve.astar import solve_astar, successor_row
from tripsolve.graph import edge_terms
from tripsolve.instance import RadiusCache, clamp_delta, validate
from tripsolve.lagrange import Sweeps
from tripsolve.oracle import gen_random, knapsack_reduce
from tripsolve.topo import solve_topo

# search variants: "edge_pruning" and "upper_bound_pruning" turn a pruning
# off in the reference search (solve_astar always prunes), "table_cap" sets
# astar.HEURISTIC_TABLE_CAP
OPTION_VARIANTS = [
    {},
    {"edge_pruning": False},
    {"upper_bound_pruning": False},
    {"edge_pruning": False, "upper_bound_pruning": False},
    {"edge_pruning": False, "upper_bound_pruning": False, "table_cap": 0},
    {"table_cap": 0},  # the on-the-fly heuristic
]


def variant_prunings(variant):
    """The solve_astar_reference pruning arguments of an OPTION_VARIANTS
    entry."""
    return {k: v for k, v in variant.items() if k != "table_cap"}


@contextlib.contextmanager
def variant_cap(variant):
    """The table cap of an OPTION_VARIANTS entry in force inside the
    block."""
    with pytest.MonkeyPatch.context() as mp:
        if "table_cap" in variant:
            mp.setattr(astar, "HEURISTIC_TABLE_CAP", variant["table_cap"])
        yield


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
        solve_astar(inst, expansion_listener=lambda node, f: seen.update([node]))
        if seen:
            assert seen.most_common(1)[0][1] == 1


def _record(inst):
    """The Sweeps record of inst, with its edge terms and reach windows."""
    record = Sweeps(inst)
    record.table(0.0)
    return record


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
    heads = [head for _, head, _ in successor_row(_record(expensive), 1, 0)]
    assert heads == [0]
    # cost -3*alpha: surplus -2*alpha <= alpha, kept
    cheap = validate({**base, "c": [0.0, -3 * alpha, 0.0]})
    heads = [head for _, head, _ in successor_row(_record(cheap), 1, 0)]
    assert sorted(heads) == [0, 1]
    # the zero step is never pruned
    heads = [head for _, head, _ in successor_row(_record(expensive), 1, 1)]
    assert heads == [0]


def _sorted_row(inst, layer, j, heads):
    """The row successor_row should give for these heads: (consumption,
    head, weight) from graph.edge_terms, sorted."""
    cons, linear, jump = edge_terms(inst)
    weights = linear[layer, heads] + (jump[j, heads] if layer >= 1 else 0.0)
    return sorted(zip(cons[layer, heads].tolist(), heads.tolist(), weights.tolist()))


def test_edge_dominated_matches_reference_masks():
    # the rows keep exactly the heads of the reach windows that the
    # reference masks leave, with their edge terms, sorted; the source's
    # row is the whole window of layer 1
    for inst in [*radius_corpus(), *_knapsack_instances()]:
        record = _record(inst)
        lo, hi, _, _ = record.windows
        assert successor_row(record, 0, 0) == _sorted_row(inst, 0, 0, np.arange(lo[0], hi[0]))
        for i, mask in enumerate(dominated_masks(inst), start=1):
            a, b = lo[i], hi[i]
            for j in range(inst.m):
                want = np.flatnonzero(~mask[j, a:b]) + a
                assert successor_row(record, i, j) == _sorted_row(inst, i, j, want)


@pytest.mark.parametrize("options", OPTION_VARIANTS[1:])
def test_pruning_toggles_preserve_objective(options, corpus200):
    # the reference search with a pruning off reaches solve_astar's optimum
    for inst in corpus200[:60]:
        with variant_cap(options):
            base = solve_astar(inst)
            toggled = solve_astar_reference(inst, **variant_prunings(options))
        assert abs(base.objective - toggled.objective) <= 1e-9


def test_equal_f_prefers_larger_capacity(monkeypatch):
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
    # a tolerance of 3 evaluates only 0 and max|c|
    monkeypatch.setattr(astar, "default_epsilon", lambda inst: 3.0)
    tables = binary_search(inst, epsilon=3.0)
    assert tables.early_exit is None
    f_stay = 0.0 + heuristic_h(inst, tables, NodeRef(1, 0, 1))
    f_move = -1.0 + heuristic_h(inst, tables, NodeRef(1, 1, 0))
    assert f_stay == pytest.approx(f_move)  # genuine tie, crafted

    order = []
    sol = solve_astar(inst, expansion_listener=lambda node, f: order.append((node, f)))
    assert sol.objective == pytest.approx(-1.0)
    assert order[0][0].layer == 0
    first = order[1][0]
    assert (first.layer, first.capacity) == (1, 1)  # larger capacity wins


def test_preprocessing_counter_reported(monkeypatch):
    monkeypatch.setattr(astar, "default_epsilon", lambda inst: 1e-6)
    inst = gen_random(8, 3, 4, 0.4, seed=9)
    sol = solve_astar(inst)
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
    epsilons = (astar.default_epsilon, lambda inst: 1e-3, lambda inst: 0.3)
    for k, inst in enumerate(radius_corpus()):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(astar, "default_epsilon", epsilons[k % 3])
            assert_cached_astar_radii_match(solve_astar, inst)


def test_cached_radii_with_many_values():
    inst = gen_random(6, 130, 40, 0.3, seed=11)
    assert inst.gamma.max() > 1
    assert_cached_astar_radii_match(solve_astar, inst)


def test_cached_radii_above_the_clamp_cap():
    inst = gen_random(5, 3, 10**6, 0.3, seed=12)
    assert clamp_delta(inst).delta < inst.delta // 2
    assert_cached_astar_radii_match(solve_astar, inst)


def test_costs_below_any_absolute_tie_are_solved():
    # costs near 1e-13: an absolute tie of 1e-12 tied every relaxed path,
    # and A* returned the smallest-budget one, d = [0, 0] (objective 0) and
    # the knapsack's empty selection (1.6e-12), as proven optima
    inst = validate(
        {"n": 2, "alpha": 5e-13, "delta": 2, "xi": [0, 1, 3], "x": [0, 0],
         "gamma": [1, 2], "c": [-5.35669373161111e-13, 3.615950549094847e-13]}
    )
    assert solve_astar(inst).d.tolist() == [1, 0]
    knapsack = knapsack_reduce([2.1e-13, 1.06e-13], [4, 2], 3, 2e-13).instance
    assert solve_astar(knapsack).d.tolist() == solve_topo(knapsack).d.tolist() == [0, 2, 0]


def test_cached_radius_at_large_costs_is_solved():
    # costs near 1e5: at the upper endpoint max|c| + 2 * alpha the zero step
    # ties with other relaxed paths in exact arithmetic, and an absolute tie
    # of 1e-12, below one ulp there, let one of them win by rounding: the
    # cached solve at delta 4 raised "relaxed path at the upper endpoint
    # overuses budget"
    inst = validate(
        {"n": 12, "alpha": 1638.4, "delta": 17, "xi": [-5, -4, 0, 4, 9],
         "x": [9, 0, 9, -5, 4, -4, 9, -4, 4, 4, 9, -5],
         "gamma": [2, 2, 1, 3, 2, 2, 1, 1, 3, 3, 1, 3],
         "c": [22454.039705514733, 70449.96942864236, 11691.736778804132,
               -11022.446144568363, -5849.491983532509, 21836.264113427493,
               22481.059129919493, -11336.183137055374, -48806.27823703419,
               -32741.341191663378, 75966.79771654896, -2130.557127183708]}
    )
    cache = RadiusCache()
    for delta in (17, 4):
        at = dataclasses.replace(inst, delta=delta)
        assert solve_astar(at, cache).objective == solve_topo(at).objective


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


def test_topo_and_astar_share_one_cache():
    # each solver keeps its own entry of one RadiusCache: the first solves
    # at the radius R, the second at r < R, then the first at r from its
    # entry at R
    names = {solve_topo: "topo", solve_astar: "sweeps"}
    shared = 0
    for inst in radius_corpus(80):
        small = dataclasses.replace(inst, delta=inst.delta // 2)
        # the solvers key their entries by the clamped radius
        radius, r = clamp_delta(inst).delta, clamp_delta(small).delta
        if r == radius:
            continue
        shared += 1
        for first, second in ((solve_astar, solve_topo), (solve_topo, solve_astar)):
            cache = RadiusCache()
            first(inst, cache=cache)
            kept = cache.entries[names[first]]
            answers = {second: second(small, cache=cache)}
            answers[first] = first(small, cache=cache)
            assert cache.entries[names[first]] is kept
            assert {name: entry[0] for name, entry in cache.entries.items()} == {
                names[first]: radius, names[second]: r
            }
            assert solution_fields(answers[solve_topo]) == solution_fields(solve_topo(small))
            assert answers[solve_astar].objective == solve_astar(small).objective
    assert shared > 40


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
    reference loop: same expansions with the same f, same answer. Where the
    variant turns a pruning off in the reference loop, the same objective."""
    prunings = variant_prunings(variant)
    for delta in halving(inst.delta):
        at = dataclasses.replace(inst, delta=delta)
        seen, expected = [], []
        with variant_cap(variant):
            sol = solve_astar(
                at, cache, expansion_listener=lambda node, f: seen.append((node, f))
            )
            ref = solve_astar_reference(
                at,
                cache,
                **prunings,
                expansion_listener=lambda node, f: expected.append((node, f)),
            )
        if prunings:
            assert abs(sol.objective - ref.objective) <= 1e-9
        else:
            assert seen == expected
            assert solution_fields(sol) == solution_fields(ref)


def test_search_matches_reference_loop_on_corpus():
    # each instance runs under one pruned variant, each on half the corpus
    pruned = [v for v in OPTION_VARIANTS if not variant_prunings(v)]
    for k, inst in enumerate(radius_corpus()):
        _assert_search_matches_reference(inst, pruned[k % len(pruned)], RadiusCache())


@pytest.mark.parametrize("variant", OPTION_VARIANTS)
def test_search_matches_reference_loop_on_knapsacks(variant):
    for inst in _knapsack_instances():
        _assert_search_matches_reference(inst, variant, RadiusCache())


def test_prunings_cut_labels_somewhere():
    # the search with neither pruning generates more labels on some instance
    cut = 0
    for inst in radius_corpus(30):
        unpruned = solve_astar_reference(inst, edge_pruning=False, upper_bound_pruning=False)
        cut += unpruned.stats.nodes_generated > solve_astar(inst).stats.nodes_generated
    assert cut > 0


def test_replaced_record_takes_its_rows_with_it():
    # the successor rows live in the Sweeps record they were built from, so a
    # record that a solve at a larger radius replaces is freed with its rows
    inst = list(_knapsack_instances())[-1]  # 24 items
    cache = RadiusCache()
    half = dataclasses.replace(inst, delta=inst.delta // 2)
    sol = solve_astar(half, cache=cache)
    assert sol.stats.nodes_expanded > 0
    first = weakref.ref(cache.entries["sweeps"][1])
    assert first().rows
    solve_astar(inst, cache=cache)
    gc.collect()
    assert first() is None


def _scaled_instances(count, scale):
    """Random small instances with c and alpha multiplied by scale."""
    rng = np.random.default_rng(5)
    for seed in range(count):
        n, m = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        delta = int(rng.integers(0, 3 * n + 1))
        alpha = float(rng.choice([0.1, 0.5, 1.0, 3.0]))
        raw = gen_random(n, m, delta, alpha, seed=seed).to_dict()
        raw["c"] = [value * scale for value in raw["c"]]
        yield validate({**raw, "alpha": alpha * scale})


def test_upper_bound_pruning_keeps_the_optimum_of_large_costs():
    # an absolute margin of 1e-9 is below one ulp of costs near 1e7: the
    # rounding of f or of the incumbent's objective pruned every optimal
    # label, and the search ran dry
    reproducer = validate(
        {
            "n": 4,
            "alpha": 1e6,
            "delta": 3,
            "xi": [-10, -9, 1, 2, 9],
            "x": [-10, -9, 9, 1],
            "gamma": [3, 1, 1, 1],
            "c": [541952.2204102933, -316595.4511658161,
                  -322389.11615896015, 97167.31867045719],
        }
    )
    corpus = [reproducer]
    for scale in (1e6, 1e9, 1e12, 1e16, 1e100, 1e300):
        corpus.extend(_scaled_instances(200, scale))
    for inst in corpus:
        want = solve_topo(inst).objective
        assert solve_astar(inst).objective == pytest.approx(want, rel=1e-9, abs=1e-9)
    assert solve_topo(reproducer).d.tolist() == [0, 0, 0, 1]
