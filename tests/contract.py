"""The behaviour contract: what must stay byte-identical between commits.

`python tests/contract.py OUT INPUTS` runs every command below in-process
through `tripsolve.cli.main`, with the tripsolve that PYTHONPATH finds. It
writes OUT/compared/, the files two commits must agree on byte for byte, and
OUT/counters/, A*'s output with its search counters (COUNTERS) kept, to show
a change to the search, not to fail on it. compared/ holds every output
without its one timing field, wall_seconds, and A*'s also without COUNTERS,
which follow the multiplier search and the heuristic it leaves; sweeps.txt
counts and hashes the relaxed tables A* sweeps in the SWEPT runs, zeta.txt
the tables each of its multiplier searches evaluated there, whichever
sweeps computed them, and htables.txt the heuristic tables A* reads there,
in their logical order, whatever their memory layout. INPUTS
holds the traces `bench` replays: a run writes the missing ones, so that a
second run, against another commit, replays the same subproblems under the
same names. README says how to compare two commits.
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import tripsolve.astar
import tripsolve.lagrange as lagrange
from tripsolve import cli
from tripsolve.oracle import knapsack_reduce

COUNTERS = ("nodes_expanded", "nodes_generated", "preprocessing_iterations")

SLIPS = {  # trace name: `slip` arguments
    "heat-astar": "heat --n 256 --alpha 1e-4 --solver astar",
    # seven radii per iteration, 64 down to 1, whose reach windows narrow at
    # every halving: A*'s kept heuristic table is read at radii below the one
    # it was built at
    "heat-astar-64": "heat --n 256 --alpha 1e-4 --solver astar --delta0 64",
    "heat-topo": "heat --n 256 --alpha 1e-4 --solver topo",
    "signal-topo": "signal --n 128 --alpha 1e-3 --solver topo",
    # the one run in which A* meets signal's windows, of at most 11 values,
    # at every radius from 16 down
    "signal-astar": "signal --n 128 --alpha 1e-3 --solver astar",
    "signal-256": "signal --n 256 --alpha 1e-5 --solver topo",
    # with signal-topo and signal-256, the four runs of perfbench's
    # signal-slip: every cached topo answer it times, counters included
    "signal-128-1e-5": "signal --n 128 --alpha 1e-5 --solver topo",
    "signal-256-1e-3": "signal --n 256 --alpha 1e-3 --solver topo",
    "signal-seed3": "signal --n 64 --alpha 1e-4 --seed 3 --solver topo",
    "heat-relax": "heat --n 64 --alpha 1e-4 --x0 relax_round",
}
INSTANCES = {  # instance name: generator arguments
    "random": "gen-random --n 6 --m 5 --delta 7 --alpha 0.3 --seed 4",
    "knapsack": "gen-knapsack --values 6,10,12 --weights 1,2,3 --budget 4",
    # its two selections tie in objective at budget uses 1 and 2: topo and
    # A* keep the larger remaining capacity, the oracle the smaller step
    "tie": "gen-knapsack --values 2,2 --weights 1,2 --budget 2",
    # costs near 1e-13, below any absolute tolerance: the relaxed sweep's
    # ties and A*'s pruning must follow the instance's own scale
    "tiny": "gen-knapsack --values 2.1e-13,1.06e-13 --weights 4,2 --budget 3 --alpha 2e-13",
}
# each solver once; A*'s two prunings are always on
SOLVES = ("topo", "astar", "oracle")
# the runs whose relaxed sweeps sweeps.txt hashes, and whose heuristic
# tables htables.txt hashes, in this order
SWEPT = ("bench-knapsack-replay.csv", "heat-astar.jsonl")


def commands(out: Path, inputs: Path):
    """(file name, argv) of every command, in the order they run."""
    yield SWEPT[0], ["bench", str(inputs / "knapsack-replay.jsonl"), "--solvers", "topo,astar"]
    for name, args in SLIPS.items():
        yield f"{name}.jsonl", ["slip", *args.split(), "--out", str(out / f"{name}.jsonl")]
    for name, args in INSTANCES.items():
        yield f"{name}.json", [*args.split(), "--out", str(out / f"{name}.json")]
        for run in SOLVES:
            argv = ["solve", str(out / f"{name}.json"), "--solver", *run.split()]
            yield f"solve-{name}-{run.replace(' ', '')}.json", argv
    yield "bench-heat-astar.csv", ["bench", str(inputs / "heat-astar.jsonl"), "--solvers", "topo,astar"]


def knapsack_trace() -> str:
    """Six strongly correlated knapsacks, drawn as perfbench's
    knapsack-replay draws them: reach windows of 1-2 values, the narrow
    windows of the relaxed sweep that the slip traces barely reach."""
    rng = np.random.default_rng(0)
    lines = []
    for _ in range(6):
        weights = rng.integers(1, 20, size=24)
        values = weights + 5.0 + rng.uniform(0.0, 0.01, size=24)
        capacity = int(weights.sum()) // 3
        reduction = knapsack_reduce(values.tolist(), weights.tolist(), capacity, 1.0)
        record = {"kind": "step", "instance": reduction.instance.to_dict()}
        lines.append(json.dumps(record) + "\n")
    return "".join(lines)


def without(text: str, keys) -> str:
    """Each JSON line of text with keys taken out of its stats."""
    lines = []
    for line in text.splitlines():
        record = json.loads(line)
        for key in keys:
            record.get("stats", {}).pop(key, None)
        lines.append(json.dumps(record) + "\n")
    return "".join(lines)


def bench_csv(text: str, blank_astar: bool) -> str:
    """bench CSV without wall_seconds, the sixth column, and with the
    nodes_expanded of astar rows blank when blank_astar."""
    rows = [line.split(",") for line in text.splitlines(keepends=True)]
    for row in rows:
        del row[5]
        if blank_astar and row[4] == "astar":
            row[5] = ""
    return "".join(",".join(row) for row in rows)


def run(argv: list[str]) -> str:
    """What `tripsolve ARGV` prints; exits when the command fails."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"tripsolve {' '.join(argv)} exited {code}")
    return printed.getvalue()


def main(out: Path, inputs: Path) -> None:
    compared, counters = out / "compared", out / "counters"
    compared.mkdir(parents=True)
    counters.mkdir()
    inputs.mkdir(parents=True, exist_ok=True)
    if not (inputs / "knapsack-replay.jsonl").exists():
        (inputs / "knapsack-replay.jsonl").write_text(knapsack_trace(), encoding="utf-8")

    digest, sweeps = hashlib.sha256(), 0
    sweep = lagrange.relaxed_costs_to_sink

    def hash_tables(into, tables):
        for t in tables:
            for a in (t.cost, t.res, t.choice):
                into.update(a.tobytes())
            into.update(repr((t.source_cost, t.source_res, t.source_choice)).encode())

    def hashed(*args):
        # a sweep returns one table, or a list of them where it takes a
        # list of multipliers; either way its tables hash in sweep order
        nonlocal sweeps
        sweeps += 1
        tables = sweep(*args)
        hash_tables(digest, tables if isinstance(tables, list) else [tables])
        return tables

    zeta_digest, evaluated = hashlib.sha256(), 0
    search = tripsolve.astar.binary_search

    def hashed_search(*args):
        nonlocal evaluated
        tables = search(*args)
        evaluated += len(tables.zeta)
        hash_tables(zeta_digest, tables.zeta)
        return tables

    table_digest, tables_read = hashlib.sha256(), 0
    table = tripsolve.astar.heuristic_table

    def hashed_table(*args):
        nonlocal tables_read
        tables_read += 1
        h = table(*args)
        table_digest.update(np.ascontiguousarray(h).tobytes())
        return h

    for name, argv in commands(compared, inputs):
        lagrange.relaxed_costs_to_sink = hashed if name in SWEPT else sweep
        tripsolve.astar.binary_search = hashed_search if name in SWEPT else search
        tripsolve.astar.heuristic_table = hashed_table if name in SWEPT else table
        try:
            printed = run(argv)
        finally:
            lagrange.relaxed_costs_to_sink = sweep
            tripsolve.astar.binary_search = search
            tripsolve.astar.heuristic_table = table
        astar = argv[0] == "bench" or "astar" in argv
        if argv[0] == "bench":
            kept, text = bench_csv(printed, False), bench_csv(printed, True)
        else:  # solve prints its JSON, slip and the generators write --out
            kept = (without(printed, ["wall_seconds"]) if printed
                    else (compared / name).read_text(encoding="utf-8"))
            text = without(kept, COUNTERS) if astar else kept
        if astar:
            (counters / name).write_text(kept, encoding="utf-8", newline="")
        (compared / name).write_text(text, encoding="utf-8", newline="")
        if name == "heat-astar.jsonl" and not (inputs / name).exists():
            shutil.copyfile(counters / name, inputs / name)
    (compared / "sweeps.txt").write_text(
        f"sweeps={sweeps} sha256={digest.hexdigest()}\n", encoding="utf-8"
    )
    (compared / "zeta.txt").write_text(
        f"tables={evaluated} sha256={zeta_digest.hexdigest()}\n", encoding="utf-8"
    )
    (compared / "htables.txt").write_text(
        f"tables={tables_read} sha256={table_digest.hexdigest()}\n", encoding="utf-8"
    )


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(Path(sys.argv[1]), Path(sys.argv[2]))
