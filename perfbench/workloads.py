"""The three benchmark workloads: their set-up and one checked pass each.

All are closed loops in one process, calling tripsolve's public API
in-process: each solve starts when the previous one has returned.

* signal-slip: the four criterion-9 trust-region runs on the signal
  problem, solved by topo. The default user path; topo at small m and
  small radii plus the control-problem work, never lagrange or astar.
* heat-slip-astar: one trust-region run on the heat problem solved by A*,
  where the multiplier bisection dominates.
* knapsack-replay: strongly correlated 0/1 knapsacks encoded by
  knapsack_reduce and replayed through ``tripsolve bench`` with topo and
  A*, where the duality gap makes the A* search itself do real work.
"""

from __future__ import annotations

import csv
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import tripsolve.cli
import tripsolve.slip
from tripsolve.oracle import KnapsackReduction, extract_knapsack, knapsack_reduce
from tripsolve.slip import ControlProblem, SlipConfig, make_heat_problem, make_signal_problem

from hostclock import COMPUTE_PROBE, MIXED_PROBE, HostClock, Probe
from checks import (
    knapsack_optimum,
    knapsack_selection_problems,
    step_problems,
    trajectory_problems,
)
from tracer import Tracer, patched

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# the signal kernel seed the reference trajectories are recorded at
REFERENCE_SEED = 0

SIGNAL_SIZES = (128, 256)
SIGNAL_ALPHAS = (1e-3, 1e-5)
HEAT_N = 256
HEAT_ALPHA = 1e-4
HEAT_DELTA0 = 32
KNAPSACK_ITEMS = (24, 32, 40, 48)
# six draws per item count: the cost of a draw varies, and a seed's mean
# over six varies less; a pass takes 16 to 26 s on a 2-core host
KNAPSACK_DRAWS = 6


@dataclass
class PassResult:
    """One checked pass over a workload's inputs. Times named _ref are
    scaled to the reference host speed by the HostClock."""

    # the pass's wall time as measured, probes left out
    wall_s: float
    # per run (each slip run, or the replay): the per-call solver latencies
    # in call order, grouped by subproblem size class (the slip run itself,
    # or an (item count, solver) pair of the replay)
    latencies_ref_s: dict[str, dict[str, list[float]]]
    # per run: its wall time, first solve to checked result
    run_wall_ref_s: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    # sum of the reference topo states of the subproblems, for
    # astar.expanded_frac where the pass itself runs no topo
    reference_topo_states: int = 0
    # knapsack-replay: astar time over topo time per item count
    topo_ratio: dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    # builds the inputs: the timed set-up
    setup: Callable[[int, Path], object]
    # the checker's own expectations for those inputs, made once, untimed
    expected: Callable[[int, object], object]
    run_pass: Callable[[object, object, Optional[Tracer], HostClock], PassResult]
    # nominal length of one pass on a 2-core host: --seconds buys one pass
    # per pass_s seconds, rounded down, at least one
    pass_s: float
    # what the HostClock times to follow the host's speed
    probe: Probe


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# trust-region workloads


@dataclass(frozen=True)
class SlipRun:
    label: str
    problem: ControlProblem
    config: SlipConfig


def load_references(runs: list[SlipRun]) -> dict[str, dict]:
    """The recorded trajectory of each run, by label."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        recorded = json.load(fh)["runs"]
    return {r.label: recorded[r.label] for r in runs}


def signal_runs(seed: int) -> list[SlipRun]:
    problems = {n: make_signal_problem(n, seed) for n in SIGNAL_SIZES}
    return [
        SlipRun(
            f"signal n={n} alpha={alpha!r}",
            problems[n],
            SlipConfig(alpha=alpha, delta0=n // 8, solver="topo"),
        )
        for n in SIGNAL_SIZES
        for alpha in SIGNAL_ALPHAS
    ]


def heat_runs(solver: str = "astar") -> list[SlipRun]:
    return [
        SlipRun(
            f"heat n={HEAT_N} alpha={HEAT_ALPHA!r}",
            make_heat_problem(HEAT_N),
            SlipConfig(alpha=HEAT_ALPHA, delta0=HEAT_DELTA0, solver=solver),
        )
    ]


def setup_signal(seed: int, out_dir: Path) -> list[SlipRun]:
    return signal_runs(seed)


def setup_heat(seed: int, out_dir: Path) -> list[SlipRun]:
    return heat_runs()


def signal_references(seed: int, runs: list[SlipRun]) -> dict[str, dict]:
    # the kernel comes from the seed, so the recorded trajectories hold
    # for the recorded seed only; other seeds get the invariant checks
    return load_references(runs) if seed == REFERENCE_SEED else {}


def heat_references(seed: int, runs: list[SlipRun]) -> dict[str, dict]:
    # the heat problem has no random input: the reference holds on every seed
    return load_references(runs)


def _ticking(clock: HostClock, solve: Callable, factors: list) -> Callable:
    """Probe the host, if a probe is due, before each solver call (outside
    the solver's own timing) and keep the call's scale factor."""

    def call(*args, **kwargs):
        clock.tick()
        factors.append(clock.factor)
        return solve(*args, **kwargs)

    return call


def run_slip_pass(
    runs: list[SlipRun],
    references: dict[str, dict],
    tracer: Optional[Tracer],
    clock: HostClock,
) -> PassResult:
    latencies: dict[str, dict[str, list[float]]] = {}
    run_wall: dict[str, float] = {}
    problems: list[str] = []
    attempted = failed = reference_states = 0
    factors: list[float] = []
    raw0, _ = clock.read()
    slip = tripsolve.slip
    solvers = ("solve_topo", "solve_astar")
    with tracer.installed() if tracer is not None else nullcontext(), patched(
        [(slip, name, _ticking(clock, getattr(slip, name), factors)) for name in solvers]
    ):
        for run in runs:
            factors.clear()
            _, ref0 = clock.read()
            problem = tracer.wrap_problem(run.problem) if tracer else run.problem
            x0 = np.zeros(problem.n, dtype=np.int64)
            try:
                with _span(tracer, "slip.run_slip"):
                    trace = tripsolve.slip.run_slip(problem, x0, run.config)
            except Exception as exc:  # a crash fails this run; report it, go on
                attempted += 1
                failed += 1
                problems.append(f"{run.label}: {type(exc).__name__}: {exc}")
                continue
            bad = set()
            for k, step in enumerate(trace.steps):
                why = step_problems(step.instance, step.solution)
                if why:
                    bad.add(k)
                    problems.append(f"{run.label} subproblem {k}: {'; '.join(why)}")
            reference = references.get(run.label)
            why = trajectory_problems(trace, reference)
            if why:
                bad = set(range(len(trace.steps)))
                problems.extend(f"{run.label}: {w}" for w in why)
            elif reference is not None:
                reference_states += sum(reference["topo_states"])
            if len(factors) != len(trace.steps):
                bad = set(range(len(trace.steps)))
                problems.append(f"{run.label}: {len(factors)} solver calls for "
                                f"{len(trace.steps)} subproblems")
            attempted += len(trace.steps)
            failed += len(bad)
            _, ref1 = clock.read()
            latencies[run.label] = {
                run.label: [
                    s.solution.stats.wall_seconds * factor
                    for s, factor in zip(trace.steps, factors)
                ]
            }
            run_wall[run.label] = ref1 - ref0
    wall = clock.read()[0] - raw0
    return PassResult(wall, latencies, run_wall, attempted, failed, problems, reference_states)


# ---------------------------------------------------------------------------
# knapsack replay


@dataclass(frozen=True)
class KnapsackCase:
    items: int
    values: list[float]
    weights: list[int]
    capacity: int
    reduction: KnapsackReduction


@dataclass(frozen=True)
class KnapsackState:
    cases: list[KnapsackCase]
    trace_path: Path
    csv_path: Path


def knapsack_cases(seed: int) -> list[KnapsackCase]:
    """Strongly correlated knapsacks: weights uniform in 1..19, value =
    weight + 5 + uniform(0, 0.01), capacity a third of the total weight."""
    rng = np.random.default_rng(seed)
    cases = []
    for items in KNAPSACK_ITEMS:
        for _ in range(KNAPSACK_DRAWS):
            weights = rng.integers(1, 20, size=items)
            values = weights + 5.0 + rng.uniform(0.0, 0.01, size=items)
            capacity = int(weights.sum()) // 3
            cases.append(
                KnapsackCase(
                    items,
                    values.tolist(),
                    weights.tolist(),
                    capacity,
                    knapsack_reduce(values.tolist(), weights.tolist(), capacity, 1.0),
                )
            )
    return cases


def setup_knapsack(seed: int, out_dir: Path) -> KnapsackState:
    cases = knapsack_cases(seed)
    trace_path = out_dir / f"knapsack-seed{seed}.jsonl"
    with open(trace_path, "w", encoding="utf-8") as fh:
        for case in cases:
            record = {"kind": "step", "instance": case.reduction.instance.to_dict()}
            fh.write(json.dumps(record) + "\n")
    return KnapsackState(cases, trace_path, out_dir / f"knapsack-seed{seed}.csv")


def knapsack_optima(seed: int, state: KnapsackState) -> list[float]:
    return [knapsack_optimum(c.values, c.weights, c.capacity) for c in state.cases]


def _capturing(solver: str, sink: list, clock: HostClock) -> Callable:
    """Wrap cli's solver so the replay's step vectors can be checked (the
    bench CSV carries only objectives), and probe the host, if a probe is
    due, before each call. The probe falls inside the call's wall_seconds
    in the CSV; its seconds are kept to be taken out again."""
    solve = getattr(tripsolve.cli, f"solve_{solver}")

    def capture(inst, *args, **kwargs):
        probe_s = clock.tick()
        factor = clock.factor
        sol = solve(inst, *args, **kwargs)
        sink.append((inst, sol, probe_s, factor))
        return sol

    return capture


def run_knapsack_pass(
    state: KnapsackState, optima: list[float], tracer: Optional[Tracer], clock: HostClock
) -> PassResult:
    solvers = ("topo", "astar")
    captured: dict[str, list] = {s: [] for s in solvers}
    argv = ["bench", str(state.trace_path), "--solvers", ",".join(solvers),
            "--out", str(state.csv_path)]
    calls = len(state.cases) * len(solvers)
    raw0, ref0 = clock.read()
    with tracer.installed() if tracer is not None else nullcontext():
        with patched(
            [(tripsolve.cli, f"solve_{s}", _capturing(s, captured[s], clock)) for s in solvers]
        ):
            try:
                with _span(tracer, "cli.main"):
                    rc = tripsolve.cli.main(argv)
                crash = None
            except Exception as exc:  # a crash fails every call; report it
                rc, crash = None, f"{type(exc).__name__}: {exc}"
    if rc != 0:
        raw1, ref1 = clock.read()
        why = crash or f"tripsolve bench exited with code {rc}"
        return PassResult(raw1 - raw0, {"replay": {}}, {"replay": ref1 - ref0}, calls, calls, [why])

    with open(state.csv_path, newline="", encoding="utf-8") as fh:
        rows = {(r["instance"], r["solver"]): r for r in csv.DictReader(fh)}
    latencies: dict[str, list[float]] = {}
    problems: list[str] = []
    failed = 0
    seconds = {(items, s): 0.0 for items in KNAPSACK_ITEMS for s in solvers}
    stem = state.trace_path.stem
    for i, case in enumerate(state.cases):
        expected = case.reduction.instance
        for solver in solvers:
            row = rows.get((f"{stem}:{i:05d}", solver))
            if row is None or i >= len(captured[solver]):
                failed += 1
                problems.append(f"case {i} {solver}: no replay result")
                continue
            inst, sol, probe_s, factor = captured[solver][i]
            latency = (float(row["wall_seconds"]) - probe_s) * factor
            latencies.setdefault(f"items{case.items} {solver}", []).append(latency)
            seconds[case.items, solver] += latency
            if inst.delta != expected.delta or not np.array_equal(inst.c, expected.c):
                why = ["replayed instance is not the generated one"]
            else:
                why = step_problems(inst, sol)
                try:
                    chosen = extract_knapsack(case.reduction, sol.d)
                except ValueError as exc:
                    why.append(f"not a knapsack selection: {exc}")
                else:
                    why += knapsack_selection_problems(
                        case.values, case.weights, case.capacity, chosen, optima[i]
                    )
            if why:
                failed += 1
                problems.append(f"case {i} ({case.items} items) {solver}: {'; '.join(why)}")
    raw1, ref1 = clock.read()
    ratio = {
        items: seconds[items, "astar"] / seconds[items, "topo"]
        for items in KNAPSACK_ITEMS
        if seconds[items, "topo"] > 0
    }
    return PassResult(
        raw1 - raw0, {"replay": latencies}, {"replay": ref1 - ref0}, calls, failed, problems,
        topo_ratio=ratio,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "signal-slip", setup_signal, signal_references, run_slip_pass, 15.0, COMPUTE_PROBE
        ),
        Workload(
            "heat-slip-astar", setup_heat, heat_references, run_slip_pass, 15.0, COMPUTE_PROBE
        ),
        Workload(
            "knapsack-replay", setup_knapsack, knapsack_optima, run_knapsack_pass, 30.0, MIXED_PROBE
        ),
    )
}
