"""Command-line entry point: solve instances, run the trust-region loop,
replay stored subproblem corpora across solvers and emit benchmark CSV."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from typing import Optional, Sequence

import numpy as np

from .astar import AstarOptions, solve_astar
from .instance import (
    Solution,
    SolverError,
    TripInstance,
    read_instance,
    write_instance,
)
from .lagrange import check_epsilon
from .oracle import gen_random, knapsack_reduce, solve_bruteforce
from .slip import (
    SlipConfig,
    hybrid_solver,
    initial_iterate_heat,
    make_heat_problem,
    make_signal_problem,
    read_trace_instances,
    run_slip,
    write_trace,
)
from .topo import solve_topo

SOLVERS = ("topo", "astar", "oracle")


def _solve_with(
    name: str,
    inst: TripInstance,
    epsilon: Optional[float],
    options: Optional[AstarOptions] = None,
) -> Solution:
    if name == "topo":
        return solve_topo(inst)
    if name == "astar":
        return solve_astar(inst, epsilon, options)
    if name == "oracle":
        return solve_bruteforce(inst)
    raise ValueError(f"unknown solver {name!r}")


def cmd_solve(args: argparse.Namespace) -> int:
    if args.epsilon is not None:  # whichever the solver, as slip does
        check_epsilon(args.epsilon)
    with open(args.instance, encoding="utf-8") as fh:
        inst = read_instance(fh.read())
    options = AstarOptions(
        edge_pruning=not args.no_edge_pruning,
        upper_bound_pruning=not args.no_upper_bound_pruning,
    )
    sol = _solve_with(args.solver, inst, args.epsilon, options)
    print(json.dumps(sol.to_dict()))
    return 0


def cmd_slip(args: argparse.Namespace) -> int:
    config = SlipConfig(
        alpha=args.alpha,
        delta0=args.delta0 if args.delta0 is not None else max(1, args.n // 8),
        rho=args.rho,
        epsilon=args.epsilon,
        solver=args.solver,
        delta_d=args.delta_d,
        max_outer=args.max_outer,
    )
    if args.problem == "heat":
        problem = make_heat_problem(args.n)
        x0 = initial_iterate_heat(problem, args.x0)
    else:
        problem = make_signal_problem(args.n, args.seed)
        if args.x0 != "zero":
            raise ValueError("the signal problem only supports the zero start")
        x0 = np.zeros(args.n, dtype=np.int64)
    trace = run_slip(problem, x0, config)
    write_trace(trace, args.out)
    print(
        f"{args.problem} n={args.n} alpha={args.alpha}: "
        f"{len(trace.steps)} subproblems, termination={trace.termination}, "
        f"J={trace.j_values[-1]!r}",
        file=sys.stderr,
    )
    return 0


_CSV_FIELDS = ("instance", "n", "delta", "alpha", "solver", "wall_seconds",
               "nodes_expanded", "objective")


def _objectives_agree(a: float, b: float, rel: float = 1e-6) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def cmd_bench(args: argparse.Namespace) -> int:
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not solvers or not set(solvers) <= set(SOLVERS):
        raise ValueError(
            f"--solvers {args.solvers!r} must name one or more of {', '.join(SOLVERS)}"
        )
    if len(set(solvers)) < len(solvers):  # each would write its rows twice
        twice = next(s for k, s in enumerate(solvers) if s in solvers[:k])
        raise ValueError(f"--solvers {args.solvers!r} names {twice} more than once")
    if args.delta_d is not None and not {"topo", "astar"} <= set(solvers):
        raise ValueError("hybrid reporting needs both topo and astar runs")
    if args.delta_d is not None and args.delta_d < 0:
        raise ValueError("--delta-d must be a non-negative integer")
    if args.epsilon is not None:
        check_epsilon(args.epsilon)

    # one pass, record-major and solver-minor, over the validated instances
    out_rows: list[dict] = []
    for path in args.traces:
        stem = os.path.splitext(os.path.basename(path))[0]
        for k, (_record, inst) in enumerate(read_trace_instances(path)):
            name = f"{stem}:{k:05d}"
            rows: dict[str, dict] = {}
            for solver in solvers:
                t0 = time.perf_counter()
                sol = _solve_with(solver, inst, args.epsilon)
                rows[solver] = {
                    "instance": name,
                    "n": inst.n,
                    "delta": inst.delta,
                    "alpha": inst.alpha,
                    "solver": solver,
                    "wall_seconds": time.perf_counter() - t0,
                    "nodes_expanded": sol.stats.nodes_expanded,
                    "objective": sol.objective,
                }
                out_rows.append(rows[solver])
            first = rows[solvers[0]]["objective"]
            for solver in solvers[1:]:
                value = rows[solver]["objective"]
                if not _objectives_agree(first, value):
                    print(
                        f"objective mismatch on {name}: "
                        f"{solvers[0]}={first!r}, {solver}={value!r}",
                        file=sys.stderr,
                    )
                    return 3
            if args.delta_d is not None:
                chosen = rows[hybrid_solver(inst.delta, args.delta_d)]
                out_rows.append({**chosen, "solver": "hybrid"})

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS)
    writer.writeheader()
    for row in sorted(out_rows, key=lambda r: (r["instance"], r["solver"])):
        writer.writerow(row)
    text = buffer.getvalue()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.delta_d is not None:
        total = sum(r["wall_seconds"] for r in out_rows if r["solver"] == "hybrid")
        print(
            f"hybrid(delta_d={args.delta_d}) cumulative_seconds={total!r}",
            file=sys.stderr,
        )
    return 0


def cmd_gen_random(args: argparse.Namespace) -> int:
    inst = gen_random(args.n, args.m, args.delta, args.alpha, args.seed)
    _emit(write_instance(inst), args.out)
    return 0


def _numbers(text: str, what: str) -> list[float]:
    """The comma-separated entries of text as numbers, each an int where
    int() reads it; ValueError names the first item whose entry is not a
    number."""
    numbers: list[float] = []
    for i, entry in enumerate(text.split(",")):
        try:
            numbers.append(int(entry))
        except ValueError:
            try:
                numbers.append(float(entry))
            except ValueError:
                raise ValueError(
                    f"{what} of item {i} must be a number, got {entry!r}"
                ) from None
    return numbers


def cmd_gen_knapsack(args: argparse.Namespace) -> int:
    # knapsack_reduce names an item whose weight is not a positive integer
    values = _numbers(args.values, "value")
    weights = _numbers(args.weights, "weight")
    reduction = knapsack_reduce(values, weights, args.budget, args.alpha)
    _emit(write_instance(reduction.instance), args.out)
    return 0


def _emit(text: str, out: str) -> None:
    if out == "-":
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripsolve",
        description="Solvers and benchmarks for trust-region integer step problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance file, print the solution")
    p.add_argument("instance", help="path to an instance JSON file")
    p.add_argument("--solver", choices=SOLVERS, default="topo")
    p.add_argument("--epsilon", type=float, default=None,
                   help="preprocessing tolerance for astar")
    p.add_argument("--no-edge-pruning", action="store_true")
    p.add_argument("--no-upper-bound-pruning", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("slip", help="run the trust-region loop, write a trace")
    p.add_argument("problem", choices=("heat", "signal"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--seed", type=int, default=0, help="kernel seed (signal)")
    p.add_argument("--x0", choices=("zero", "relax_round", "mean_round"),
                   default="zero")
    p.add_argument("--solver", choices=("topo", "astar", "hybrid"),
                   default="topo")
    p.add_argument("--delta-d", type=int, default=None)
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--delta0", type=int, default=None,
                   help="reset radius, defaults to n // 8")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--max-outer", type=int, default=1000)
    p.add_argument("--out", required=True, help="trace output path")
    p.set_defaults(func=cmd_slip)

    p = sub.add_parser("bench", help="replay traces through solvers, emit CSV")
    p.add_argument("traces", nargs="+", help="trace files to replay")
    p.add_argument("--solvers", default="topo,astar",
                   help="comma-separated solver list")
    p.add_argument("--delta-d", type=int, default=None,
                   help="also report the radius-switched hybrid")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out", default="-", help="CSV path, - for stdout")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-random", help="write a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_gen_random)

    p = sub.add_parser("gen-knapsack", help="write a knapsack-encoding instance")
    p.add_argument("--values", required=True, help="comma-separated item values")
    p.add_argument("--weights", required=True, help="comma-separated item weights")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_gen_knapsack)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SolverError, OSError, ValueError) as exc:  # InstanceError, JSON errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
