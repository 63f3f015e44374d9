"""tripsolve benchmark: one workload, one process, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing needs installing. The seed generates the inputs (the
signal kernel and the knapsack draws); the package receives only those.

--trace 0 sets the workload up several times (set-up time is the median),
makes one checked pass over the same inputs per pass_s seconds of
--seconds (a constant of each workload) and reports the end-to-end metrics,
their times scaled to a reference host speed by a probe that runs between
solver calls (hostclock.py). --trace 1 makes a traced, an untraced and a
traced pass, reports the per-layer metrics of the first traced one plus the
tracing overhead, checks that the exact counters of the two traced passes
agree, and writes the spans to ``.perfbench_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 when every check passed, 1 when one failed and 2 when the
package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# set up at least SETUP_MIN times and for at least SETUP_MIN_S seconds,
# at most SETUP_MAX times, in equal batches, one before each pass and one
# after the last; setup_s is the median of their scaled times.
SETUP_MIN, SETUP_MIN_S, SETUP_MAX = 6, 1.0, 60
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pass_count(seconds: float, pass_s: float) -> int:
    """Passes per run: set by --seconds and the workload's nominal pass
    length, never by the measured speed, so every commit is timed by the
    mean of the same number of passes."""
    return max(1, int(seconds // pass_s))


def setup_batch(workload, seed: int, clock, setups: list[float], share: float):
    """Set up until this batch's share of the minimum count and time is
    reached; record each set-up time, scaled to the reference host speed,
    and return the last state."""
    count, spent = 0, 0.0
    while count < SETUP_MIN * share or (
        spent < SETUP_MIN_S * share and count < SETUP_MAX * share
    ):
        clock.tick()
        raw0, ref0 = clock.read()
        state = workload.setup(seed, OUT_DIR)
        raw1, ref1 = clock.read()
        setups.append(ref1 - ref0)
        count, spent = count + 1, spent + raw1 - raw0
    return state


def mean_latencies(passes) -> dict[str, dict[str, list[float]]]:
    """Per run and size class, each call's mean latency over the passes.
    Every pass makes the same calls in the same order (checked), so call k
    of one pass repeats call k of another."""
    def samples(run: str, name: str):
        return zip(*(p.latencies_ref_s.get(run, {}).get(name, []) for p in passes))

    return {
        run: {name: [statistics.fmean(s) for s in samples(run, name)] for name in classes}
        for run, classes in passes[0].latencies_ref_s.items()
    }


def end_to_end(passes, setups: list[float]) -> dict[str, float]:
    """Every time is scaled to the reference host speed (hostclock.py),
    which takes out the host's drift, and averaged over the passes. Figures
    per run or size class are averaged with equal weight, so the
    seed-dependent number of subproblems per run does not shift them."""
    import numpy as np

    latencies = mean_latencies(passes)
    per_solve = []
    for run, classes in latencies.items():
        calls = sum(map(len, classes.values()))
        if calls:
            walls = [p.run_wall_ref_s[run] for p in passes if run in p.run_wall_ref_s]
            per_solve.append(statistics.fmean(walls) / calls)
    samples = [np.asarray(v) for classes in latencies.values() for v in classes.values() if v]

    def mean_percentile_ms(q: float) -> float:
        return 1e3 * statistics.fmean(float(np.percentile(v, q)) for v in samples) if samples else 0.0

    # printed, not gated: with 6 calls per size class on knapsack-replay, a
    # 90th percentile reads off the two slowest draws
    print(f"solve_ms_p90_ref {mean_percentile_ms(90):.6g} ms (printed only)")
    return {
        "wall_ms_per_solve_ref": 1e3 * statistics.fmean(per_solve) if per_solve else 0.0,
        "solve_ms_p50_ref": mean_percentile_ms(50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": statistics.median(setups),
    }


def call_counts(p) -> dict[str, dict[str, int]]:
    return {run: {name: len(v) for name, v in classes.items()}
            for run, classes in p.latencies_ref_s.items()}


def repeat_problems(passes) -> list[str]:
    """Passes over the same inputs must make the same solver calls."""
    return [
        f"pass {k} made different solver calls than pass 0"
        for k, p in enumerate(passes[1:], start=1)
        if call_counts(p) != call_counts(passes[0])
    ]


def traced_run(workload, state, expected, clock, args, env: str):
    """A traced, an untraced and a traced pass: the per-layer metrics of
    the first traced pass, the tracing overhead (mean traced minus
    untraced pass time, each scaled by probes made just before it), and
    the check that the exact counters repeat."""
    from tracer import EXACT_COUNTERS, Tracer, layer_metrics, layer_self_times
    from workloads import KNAPSACK_ITEMS

    def run_pass(tracer):
        clock.recalibrate()
        return workload.run_pass(state, expected, tracer, clock)

    def ref_wall(p) -> float:
        return sum(p.run_wall_ref_s.values())

    tracers = [Tracer(f"{args.workload}/seed{args.seed}/traced{k}") for k in (1, 2)]
    traced = [run_pass(tracers[0])]
    base = run_pass(None)
    traced.append(run_pass(tracers[1]))
    traced_wall = statistics.fmean(p.wall_s for p in traced)
    metrics = layer_metrics(tracers[0], traced[0].reference_topo_states)
    for items in KNAPSACK_ITEMS:
        metrics[f"astar.topo_ratio.items{items}"] = base.topo_ratio.get(items, 0.0)
    metrics["trace.overhead_s"] = statistics.fmean(map(ref_wall, traced)) - ref_wall(base)
    first, second = tracers
    problems = [
        f"{name} differs between traced passes: {first.counts[name]} vs {second.counts[name]}"
        for name in EXACT_COUNTERS
        if first.counts[name] != second.counts[name]
    ]

    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, "workload": args.workload, "seed": args.seed}) + "\n")
        for tracer in tracers:
            tracer.write(fh)
    print(f"wall_s {base.wall_s:.4f} s untraced, {traced_wall:.4f} s traced (mean of two)")
    print("# self time per module in the first traced pass:")
    for layer, seconds in sorted(layer_self_times(tracers[0]).items(), key=lambda kv: -kv[1]):
        print(f"#   {layer:<9} {seconds:9.4f} s  {seconds / traced[0].wall_s:6.1%}")
    print(f"# spans written to {spans_path.relative_to(ROOT)}")
    return [base] + traced, metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    # one process, one thread: pin the BLAS and OpenMP pools before numpy
    # loads, and keep the process pool of `tripsolve bench` off
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("TRIPSOLVE_WORKERS", None)

    if not (SRC / "tripsolve" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import tripsolve

    if Path(tripsolve.__file__).resolve().parent != SRC / "tripsolve":
        print(f"perfbench: imported tripsolve from {tripsolve.__file__}", file=sys.stderr)
        return 2
    from hostclock import COMPUTE_PROBE, PROBE_EVERY_S, HostClock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    nproc = len(os.sched_getaffinity(0))
    env = (f"python={platform.python_version()} numpy={numpy.__version__} "
           f"scipy={scipy.__version__} nproc={nproc}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} {env}")

    OUT_DIR.mkdir(exist_ok=True)
    # traced runs probe only before each pass (traced_run): a probe inside
    # cmd_bench would count as its self time
    clock = HostClock(workload.probe, math.inf if args.trace else PROBE_EVERY_S)
    # set-up (problem construction, corpus generation) is small-array and
    # interpreted work on every workload. It takes a second or less of the
    # run, so the host is probed before every set-up: with a probe every
    # 0.25 s, a handful of probes decided the scale of a whole run's set-ups
    setup_clock = HostClock(COMPUTE_PROBE, probe_every_s=0.0)
    count = pass_count(args.seconds, workload.pass_s)
    batches = 1 if args.trace else count + 1
    setups: list[float] = []
    state = setup_batch(workload, args.seed, setup_clock, setups, 1 / batches)
    expected = workload.expected(args.seed, state)

    if not args.trace:
        # every pass runs on the first batch's state; later batches are
        # only timed
        passes = []
        for k in range(count):
            if k:
                setup_batch(workload, args.seed, setup_clock, setups, 1 / batches)
            passes.append(workload.run_pass(state, expected, None, clock))
        setup_batch(workload, args.seed, setup_clock, setups, 1 / batches)
        print(f"# setup_s over {len(setups)} set-ups in {batches} batches: "
              f"min {min(setups):.4f} max {max(setups):.4f}")
        metrics = end_to_end(passes, setups)
        problems = []
        for k, p in enumerate(passes):
            print(f"# pass {k}: wall_s {p.wall_s:.4f} calls {p.attempted}")
        print(f"wall_s {statistics.median(p.wall_s for p in passes):.4f} s "
              f"(median of {len(passes)} passes)")
        print(f"# mean of {len(passes)} passes; calls per size class: "
              + ", ".join(f"{name}: {n}" for classes in call_counts(passes[0]).values()
                          for name, n in classes.items()))
    else:
        passes, metrics, problems = traced_run(workload, state, expected, clock, args, env)
    print(f"# host speed: probe {clock.probe_ms():.4f} ms median of {len(clock.probes)}, "
          f"{1e3 * min(clock.probes):.4f} to {1e3 * max(clock.probes):.4f} ms")

    problems += repeat_problems(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        problems.extend(p.problems)
    print(f"failed_frac {failed / attempted if attempted else 1.0:.6g} 1 "
          f"({failed} of {attempted} solves)")
    missing = set(wanted) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
    for name in wanted:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    for why in problems[:20]:
        print(f"perfbench: check failed: {why}", file=sys.stderr)
    correct = not problems and failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
