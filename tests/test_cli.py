import argparse
import contextlib
import csv
import dataclasses
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RANGE_RULE_BREAKERS
import tripsolve.astar
import tripsolve.instance
import tripsolve.lagrange
from tripsolve.cli import build_parser, main
from tripsolve.instance import budget_cap, is_feasible, read_instance
from tripsolve.slip import initial_iterate_heat, make_heat_problem


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def instance_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run_cli(
        capsys,
        "gen-random", "--n", "6", "--m", "3", "--delta", "4",
        "--alpha", "0.3", "--seed", "7", "--out", str(path),
    )
    assert code == 0
    return path


def test_solve_topo_and_astar_agree(instance_file, capsys):
    code, out, _ = run_cli(capsys, "solve", str(instance_file), "--solver", "topo")
    assert code == 0
    topo = json.loads(out)
    code, out, _ = run_cli(capsys, "solve", str(instance_file), "--solver", "astar")
    assert code == 0
    astar = json.loads(out)
    assert topo["objective"] == pytest.approx(astar["objective"], abs=1e-9)
    assert topo["resource"] <= 4
    assert set(topo) == {"d", "objective", "resource", "stats"}


def test_solve_oracle(instance_file, capsys):
    code, out, _ = run_cli(capsys, "solve", str(instance_file), "--solver", "oracle")
    assert code == 0
    assert np.isfinite(json.loads(out)["objective"])


@pytest.mark.parametrize(
    "flags", [["--no-edge-pruning"], ["--no-upper-bound-pruning"]]
)
def test_solve_astar_flags_keep_the_objective(instance_file, capsys, flags):
    _, out, _ = run_cli(capsys, "solve", str(instance_file), "--solver", "astar")
    default = json.loads(out)
    assert default["stats"]["nodes_expanded"] > 0  # the search runs
    code, out, _ = run_cli(
        capsys, "solve", str(instance_file), "--solver", "astar", *flags
    )
    assert code == 0
    objective = json.loads(out)["objective"]
    assert objective == pytest.approx(default["objective"], abs=1e-12)


def test_solve_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run_cli(capsys, "solve", str(bad))
    assert code != 0
    assert "error" in err


def test_solve_validation_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "alpha": 1.0, "delta": 2, "xi": [1, 0],
                               "x": [0, 0], "gamma": [1, 1], "c": [0, 0]}))
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code != 0
    assert "ascending" in err


@pytest.mark.parametrize("alpha, c", [("NaN", "[0.0, 0.0]"), ("1.0", "[NaN, 0.0]")])
def test_solve_non_finite_input_exits_2(tmp_path, capsys, alpha, c):
    # json.loads accepts the bare token NaN
    bad = tmp_path / "nan.json"
    bad.write_text(f'{{"n": 2, "alpha": {alpha}, "delta": 2, "xi": [0, 1], '
                   f'"x": [0, 0], "gamma": [1, 1], "c": {c}}}')
    for solver in ("topo", "astar"):
        code, out, err = run_cli(capsys, "solve", str(bad), "--solver", solver)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err


def test_solve_unknown_field_exits_2(instance_file, capsys):
    raw = json.loads(instance_file.read_text())
    instance_file.write_text(json.dumps({**raw, "bogus": 7}))
    code, out, err = run_cli(capsys, "solve", str(instance_file))
    assert code == 2 and out == ""
    assert err == "error: unknown field(s): 'bogus'\n"


@pytest.mark.parametrize("n", ["0", "-4"])
def test_slip_signal_bad_n_exits_2(tmp_path, capsys, n):
    out = tmp_path / "signal.jsonl"
    code, stdout, err = run_cli(
        capsys, "slip", "signal", "--n", n, "--alpha", "1e-2", "--out", str(out)
    )
    assert code == 2 and stdout == "" and not out.exists()
    assert err == "error: n must be a positive integer\n"


@pytest.mark.parametrize("command", ["solve", "slip", "bench"])
def test_epsilon_is_not_an_option(tmp_path, instance_file, capsys, command):
    # the multiplier search's tolerance comes from the instance
    argv = {
        "solve": ["solve", str(instance_file), "--solver", "astar"],
        "slip": ["slip", "heat", "--n", "8", "--alpha", "1e-4", "--solver", "astar",
                 "--out", str(tmp_path / "heat.jsonl")],
        "bench": ["bench", str(tmp_path / "none.jsonl")],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--epsilon", "0.3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --epsilon 0.3" in capsys.readouterr().err


def test_bench_delta_d_is_not_an_option(tmp_path, capsys):
    # the hybrid's switchover is slip's alone: bench writes topo and astar rows
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", str(tmp_path / "none.jsonl"), "--delta-d", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --delta-d 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--no-edge-pruning", "--no-upper-bound-pruning"])
@pytest.mark.parametrize("solver", ["topo", "oracle"])
def test_solve_pruning_flags_need_astar(instance_file, capsys, solver, flag):
    code, out, err = run_cli(capsys, "solve", str(instance_file), "--solver", solver, flag)
    assert code == 2 and out == ""
    assert err == f"error: the pruning flags apply only to --solver astar, not {solver}\n"


def test_slip_heat_too_large_exits_2_before_allocating(tmp_path, capsys, monkeypatch):
    # 80001 quadrature pieces of 8 nodes, 5.1 MB, over the lowered cap
    monkeypatch.setattr(tripsolve.instance, "TABLE_BYTES_CAP", 1_000_000)
    out = tmp_path / "heat.jsonl"
    code, stdout, err = run_cli(
        capsys, "slip", "heat", "--n", "20000", "--alpha", "1e-4", "--out", str(out)
    )
    assert code == 2 and stdout == "" and not out.exists()
    assert err == (
        "error: the heat problem's quadrature table would take 5120064 bytes, over "
        "the cap of 1000000; its size grows with some of n, the number of values in "
        "xi and delta\n"
    )


def test_slip_signal_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "signal.jsonl"
    code, stdout, err = run_cli(
        capsys, "slip", "signal", "--n", "32", "--alpha", "1e-2", "--seed", "-1",
        "--out", str(out),
    )
    assert code == 2 and stdout == "" and not out.exists()
    assert err == "error: seed must be a non-negative integer\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-outer", "-3"], "max_outer must be a non-negative integer"),
        (["--solver", "hybrid", "--delta-d", "-4"], "delta_d must be a non-negative integer"),
        (["--solver", "topo", "--delta-d", "4"],
         "delta_d applies only to the hybrid solver, not topo"),
    ],
)
def test_slip_negative_loop_settings_exit_2(tmp_path, capsys, flags, message):
    out = tmp_path / "heat.jsonl"
    code, stdout, err = run_cli(
        capsys, "slip", "heat", "--n", "8", "--alpha", "1e-4", *flags, "--out", str(out)
    )
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("field, value", [("x", 0), ("alpha", None)])
def test_solve_malformed_field_exits_2(tmp_path, capsys, field, value):
    raw = {"n": 2, "alpha": 1.0, "delta": 2, "xi": [0, 1], "x": [0, 0],
           "gamma": [1, 1], "c": [0.0, 0.0], field: value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "solve", str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field}") and err.count("\n") == 1


@pytest.mark.parametrize("raw", RANGE_RULE_BREAKERS)
def test_solve_range_rule_exits_2(tmp_path, capsys, raw):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(raw))
    for solver in ("topo", "astar"):
        code, out, err = run_cli(capsys, "solve", str(path), "--solver", solver)
        assert code == 2 and out == ""
        assert err.startswith("error: budget cap") and err.count("\n") == 1


def test_solve_oversized_edge_terms_exits_2(tmp_path, capsys, monkeypatch):
    # a (400, 400) jump table of 1.28 MB, over the lowered cap
    monkeypatch.setattr(tripsolve.instance, "TABLE_BYTES_CAP", 1_000_000)
    path = tmp_path / "inst.json"
    raw = {"n": 1, "alpha": 1.0, "delta": 0, "xi": list(range(400)), "x": [0],
           "gamma": [1], "c": [1.0]}
    path.write_text(json.dumps(raw))
    for solver in ("topo", "astar"):
        code, out, err = run_cli(capsys, "solve", str(path), "--solver", solver)
        assert code == 2 and out == ""
        assert err.startswith("error: the edge term tables") and err.count("\n") == 1


def test_oversized_edge_terms_message_names_what_they_grow_with(tmp_path, capsys):
    # the (40000, 40000) jump table, 12.8 GB at the shipped cap: the edge
    # terms grow with n and the number of values in xi, not with delta
    path = tmp_path / "inst.json"
    raw = {"n": 2, "alpha": 0, "delta": 2, "xi": list(range(40000)), "x": [39999, 39999],
           "gamma": [1, 1], "c": [1, 1]}
    path.write_text(json.dumps(raw))
    for solver in ("topo", "astar"):
        code, out, err = run_cli(capsys, "solve", str(path), "--solver", solver)
        assert code == 2 and out == ""
        assert err == (
            "error: the edge term tables would take 12800000000 bytes, over the cap of "
            f"{tripsolve.instance.TABLE_BYTES_CAP}; its size grows with some of n, "
            "the number of values in xi and delta\n"
        )


# objectives past the float range: a jump of 10 at alpha 1e308, and a step
# of 2 at c_i 1e308
OVERFLOWING = [
    {"n": 2, "alpha": 1e308, "delta": 0, "xi": [0, 10], "x": [0, 10],
     "gamma": [1, 1], "c": [0, 0]},
    {"n": 2, "alpha": 0, "delta": 4, "xi": [-2, -1, 0, 1, 2], "x": [0, 0],
     "gamma": [1, 1], "c": [1e308, 1e308]},
]


@pytest.mark.parametrize("raw", OVERFLOWING)
@pytest.mark.parametrize("solver", ["topo", "astar", "oracle"])
def test_solve_overflowing_objective_exits_2(tmp_path, capsys, raw, solver):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "solve", str(path), "--solver", solver)
    assert code == 2 and out == ""
    assert err.startswith("error: range(xi)") and err.count("\n") == 1
    assert "overflows" in err


@pytest.mark.parametrize(
    "raw",
    [
        # the bounds 1.5e308 and 1.6e308, under the largest float 1.8e308
        {**OVERFLOWING[0], "alpha": 3e306},
        {**OVERFLOWING[1], "c": [1e307, 1e307]},
    ],
)
def test_solve_just_inside_the_overflow_bound(tmp_path, capsys, raw):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(raw))
    inst = read_instance(path.read_text())
    answers = []
    for solver in ("topo", "astar", "oracle"):
        code, out, _ = run_cli(capsys, "solve", str(path), "--solver", solver)
        assert code == 0
        answer = json.loads(out)
        assert np.isfinite(answer["objective"])
        assert is_feasible(inst, np.array(answer["d"]))
        answers.append((answer["d"], answer["objective"], answer["resource"]))
    assert answers[0] == answers[1] == answers[2]


def _exhaust_search(monkeypatch):
    # a heuristic of +inf makes upper-bound pruning drop every label
    table = tripsolve.astar.heuristic_table
    monkeypatch.setattr(
        tripsolve.astar,
        "heuristic_table",
        lambda inst, tables: np.full_like(table(inst, tables), np.inf),
    )


def _overuse_at_upper_endpoint(monkeypatch):
    # every relaxed path, the zero step at the upper endpoint too, overspends
    sweep = tripsolve.lagrange.relaxed_costs_to_sink
    monkeypatch.setattr(
        tripsolve.lagrange,
        "relaxed_costs_to_sink",
        lambda inst, lams, *rest: [
            dataclasses.replace(t, source_res=inst.delta + 1)
            for t in sweep(inst, lams, *rest)
        ],
    )


@pytest.mark.parametrize(
    "break_solver, message",
    [
        (_exhaust_search, "search exhausted"),
        (_overuse_at_upper_endpoint, "upper endpoint"),
    ],
)
def test_solver_error_exits_2(instance_file, capsys, monkeypatch, break_solver, message):
    break_solver(monkeypatch)
    code, out, err = run_cli(capsys, "solve", str(instance_file), "--solver", "astar")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "/nonexistent/inst.json")
    assert code != 0 and "error" in err


def test_gen_random_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run_cli(capsys, "gen-random", "--n", "5", "--m", "3", "--delta", "3",
                "--alpha", "0.2", "--seed", "11", "--out", str(path))
    assert a.read_text() == b.read_text()
    read_instance(a.read_text())  # validates


def test_gen_knapsack(tmp_path, capsys):
    path = tmp_path / "k.json"
    code, _, _ = run_cli(capsys, "gen-knapsack", "--values", "6,10",
                         "--weights", "1,2", "--budget", "2",
                         "--alpha", "0.5", "--out", str(path))
    assert code == 0
    inst = read_instance(path.read_text())
    assert inst.n == 5 and inst.delta == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen-knapsack", "--values", "1", "--weights", "0", "--budget", "1"],
         "weight of item 0 must be a positive integer"),
        (["gen-random", "--n", "3", "--m", "0", "--delta", "2", "--alpha", "0.5",
          "--seed", "0"], "m = 0 must be a positive integer"),
        (["gen-knapsack", "--values", "6,10", "--weights", "1,1.5", "--budget", "4"],
         "weight of item 1 must be a positive integer, got 1.5\n"),
        (["gen-knapsack", "--values", "6,x", "--weights", "1,2", "--budget", "4"],
         "value of item 1 must be a number, got 'x'\n"),
        (["gen-knapsack", "--values", "6,10,12", "--weights", "1,2,", "--budget", "4"],
         "weight of item 2 must be a number, got ''\n"),
        (["gen-knapsack", "--values", "1,nan", "--weights", "1,1", "--budget", "1"],
         "value of item 1 must be a finite positive number, got nan\n"),
        (["gen-random", "--n", "3", "--m", "2", "--delta", "2", "--alpha", "0.5",
          "--seed", "-1"], "seed = -1 must be a non-negative integer\n"),
        *(
            (["gen-knapsack", "--values", "1,2", "--weights", "1,1", "--budget", "1",
              "--alpha", alpha],
             f"alpha must be a positive number with 2 * alpha finite, got {shown}\n")
            for alpha, shown in (("nan", "nan"), ("inf", "inf"), ("1e308", "1e+308"))
        ),
        # a kept item's cost -value / weight - 2 * alpha past the float range
        (["gen-knapsack", "--values", "1e308,1", "--weights", "1,1", "--budget", "1",
          "--alpha", "5e307"],
         "value of item 0 over its weight plus 2 * alpha overflows float64\n"),
        # admissible values past int64, which the prefix sums and their offsets
        # used to overflow in numpy
        (["gen-knapsack", "--values", "1", "--weights", str(10**20),
          "--budget", str(10**20)],
         f"budget {10**20} and weights summing to {10**20} put the largest "
         f"admissible value at {2 * 10**20 + 1}, outside int64\n"),
        (["gen-knapsack", "--values", "1,1", "--weights", f"{5 * 10**18},{5 * 10**18}",
          "--budget", str(9 * 10**18)],
         f"budget {9 * 10**18} and weights summing to {10**19} put the largest "
         f"admissible value at {28 * 10**18 + 2}, outside int64\n"),
    ],
)
def test_generators_reject_bad_sizes(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_gen_random_checks_its_draw_before_allocating(capsys, monkeypatch):
    # a length-1000 vector of 8-byte entries
    monkeypatch.setattr(tripsolve.instance, "TABLE_BYTES_CAP", 4000)
    code, out, err = run_cli(capsys, "gen-random", "--n", "1000", "--m", "5",
                             "--delta", "2", "--alpha", "0.5", "--seed", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: the random draw for n = 1000, m = 5 would take 8000 bytes")
    assert err.count("\n") == 1


_ANY = st.one_of(
    st.integers(-3, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 0.5, 2.5]),
)
_SIZE = st.integers(-3, 2**70)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_generators_exit_0_or_2_with_one_error_line(data):
    """Sizes stay small; magnitudes do not. Each list of knapsack entries,
    and the alpha, is drawn valid three times in four, so that large weights
    and budgets reach the construction, and from anything otherwise."""

    def drawn(valid):
        return data.draw(st.sampled_from([valid, valid, valid, _ANY]))

    def entries(items, valid):
        listed = data.draw(st.lists(drawn(valid), min_size=items, max_size=items))
        return ",".join(map(repr, listed))

    if data.draw(st.booleans()):
        items = data.draw(st.integers(1, 50))
        argv = ["gen-knapsack",
                f"--values={entries(items, st.floats(1e-300, 1e308))}",
                f"--weights={entries(items, st.integers(1, 2**70))}",
                f"--budget={data.draw(_SIZE)}",
                f"--alpha={data.draw(drawn(st.floats(1e-300, 1e300)))!r}"]
    else:
        argv = ["gen-random", f"--n={data.draw(st.integers(-3, 50))}",
                f"--m={data.draw(st.integers(-3, 50))}", f"--delta={data.draw(_SIZE)}",
                f"--alpha={data.draw(_ANY)!r}", f"--seed={data.draw(_SIZE)}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "sig.jsonl"
    code = main([
        "slip", "signal", "--n", "32", "--alpha", "1e-2", "--seed", "3",
        "--delta0", "4", "--out", str(path),
    ])
    assert code == 0
    return path


def test_slip_writes_trace_and_is_deterministic(tmp_path, trace_file, capsys):
    again = tmp_path / "again.jsonl"
    code, _, err = run_cli(
        capsys, "slip", "signal", "--n", "32", "--alpha", "1e-2", "--seed", "3",
        "--delta0", "4", "--out", str(again),
    )
    assert code == 0
    assert "termination=stationary" in err
    assert trace_file.read_bytes() == again.read_bytes()


def test_slip_alpha_zero_accepted(tmp_path, capsys):
    out = tmp_path / "a0.jsonl"
    code, _, _ = run_cli(
        capsys, "slip", "signal", "--n", "32", "--alpha", "0.0", "--seed", "3",
        "--delta0", "4", "--max-outer", "10", "--out", str(out),
    )
    assert code == 0
    first = json.loads(out.read_text().splitlines()[0])
    assert first["instance"]["alpha"] == 0.0


@pytest.mark.parametrize("x0", ["relax_round", "mean_round"])
def test_slip_heat_start_strategies(tmp_path, capsys, x0):
    out = tmp_path / "heat.jsonl"
    code, _, _ = run_cli(
        capsys, "slip", "heat", "--n", "16", "--alpha", "1e-4", "--x0", x0,
        "--delta0", "4", "--rho", "0.2", "--out", str(out),
    )
    assert code == 0
    first = json.loads(out.read_text().splitlines()[0])
    assert first["delta"] == 4
    start = initial_iterate_heat(make_heat_problem(16), x0)
    assert first["instance"]["x"] == start.tolist()


def test_slip_radius_starts_at_most_at_the_budget_cap(tmp_path, capsys):
    # every radius above the cap is the same clamped subproblem, which a
    # run from delta0 = 10**11 used to solve again after each rejection
    problem = make_heat_problem(8)
    cap = budget_cap(8, problem.xi, problem.gamma)
    traces = []
    for delta0 in (10**11, cap):
        out = tmp_path / f"heat-{delta0}.jsonl"
        code, _, _ = run_cli(
            capsys, "slip", "heat", "--n", "8", "--alpha", "1e-4",
            "--delta0", str(delta0), "--out", str(out),
        )
        assert code == 0
        traces.append(out.read_bytes())
    assert traces[0] == traces[1]
    assert json.loads(traces[0].splitlines()[0])["delta"] == cap


def test_bench_csv(tmp_path, trace_file, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run_cli(capsys, "bench", str(trace_file),
                         "--solvers", "topo,astar", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    n_steps = len(trace_file.read_text().splitlines()) - 1  # minus final record
    assert len(rows) == 2 * n_steps
    by_id = {}
    for row in rows:
        by_id.setdefault(row["instance"], {})[row["solver"]] = float(row["objective"])
    for values in by_id.values():
        assert values["topo"] == pytest.approx(values["astar"], rel=1e-6)


def test_bench_mismatch_gate(tmp_path, trace_file, capsys, monkeypatch):
    import tripsolve.cli as cli_mod

    true_solve = cli_mod._solve_with

    def lying_solver(name, inst, options=None):
        sol = true_solve(name, inst, options)
        if name == "astar":
            sol.objective += 1.0
        return sol

    monkeypatch.setattr(cli_mod, "_solve_with", lying_solver)
    code, _, err = run_cli(capsys, "bench", str(trace_file),
                           "--solvers", "topo,astar",
                           "--out", str(tmp_path / "x.csv"))
    assert code != 0
    assert "mismatch" in err


def test_bench_deterministic_apart_from_timing(tmp_path, trace_file, capsys):
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        run_cli(capsys, "bench", str(trace_file), "--solvers", "topo", "--out", str(out))
        rows = [
            {k: v for k, v in row.items() if k != "wall_seconds"}
            for row in csv.DictReader(out.read_text().splitlines())
        ]
        outs.append(rows)
    assert outs[0] == outs[1]


def test_bench_on_instance_only_records(tmp_path, trace_file, capsys):
    # the form perfbench writes: no "delta" next to the instance
    bare = tmp_path / "bare.jsonl"
    deltas = []
    with open(bare, "w", encoding="utf-8") as fh:
        for line in trace_file.read_text().splitlines():
            record = json.loads(line)
            if record["kind"] == "step":
                fh.write(json.dumps({"kind": "step", "instance": record["instance"]}))
                fh.write("\n")
                deltas.append(record["instance"]["delta"])
    out = tmp_path / "bare.csv"
    code, _, err = run_cli(capsys, "bench", str(bare), "--solvers", "topo,astar",
                           "--out", str(out))
    assert code == 0, err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert deltas and len(rows) == 2 * len(deltas)
    for r in rows:
        assert int(r["delta"]) == deltas[int(r["instance"].split(":")[1])]


@pytest.mark.parametrize(
    "record",
    [
        '{"kind": "step"}',
        "[1, 2]",
        "{broken",
        '{"kind": "step", "instance": {"n": 0}}',
        # a valid instance but for its one unknown field
        '{"kind": "step", "instance": {"n": 1, "alpha": 0.5, "delta": 0, "xi": [0], '
        '"x": [0], "gamma": [1], "c": [0.0], "bogus": 7}}',
    ],
)
def test_bench_malformed_trace_record_exits_2(tmp_path, trace_file, capsys, record):
    bad = tmp_path / "bad.jsonl"
    first = trace_file.read_text().splitlines()[0]
    bad.write_text(first + "\n" + record + "\n")
    code, out, err = run_cli(capsys, "bench", str(bad), "--solvers", "topo")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{bad}:2:" in err


@pytest.mark.parametrize("solvers", [",", "topo,simplex"])
def test_bench_rejects_solver_list_before_solving(
    tmp_path, trace_file, capsys, monkeypatch, solvers
):
    import tripsolve.cli as cli_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the solver list was checked")

    monkeypatch.setattr(cli_mod, "_solve_with", no_solve)
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "bench", str(trace_file), "--solvers", solvers,
                           "--out", str(out))
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_bench_rejects_repeated_solver(tmp_path, trace_file, capsys):
    # a solver named twice would write each of its rows twice
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "bench", str(trace_file), "--solvers",
                           "topo,astar,topo", "--out", str(out))
    assert code == 2 and not out.exists()
    assert err == "error: --solvers 'topo,astar,topo' names topo more than once\n"


def test_readme_synopsis_matches_the_parser():
    # each subcommand's long options in README's "Command line" block are
    # those its parser defines, --help aside
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    documented: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("tripsolve "):
            options = documented.setdefault(line.split()[1], set())
        if line.strip():
            options.update(re.findall(r"--[a-z][a-z0-9-]*", line))
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    defined = {
        name: {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        for name, parser in subparsers.choices.items()
    }
    assert documented == defined
