"""Record the reference trajectories the slip workloads are checked against.

    python3 perfbench/record_reference.py

Runs the four signal runs (kernel seed REFERENCE_SEED) and the heat run
with topo, solves every one of their subproblems with A* as well and stops
unless both solvers return the same step, then runs the heat workload
itself with A* and stops unless its trajectory equals the topo one. Writes
perfbench/reference.json. Takes a few minutes; rerun it only when a change
to the package is meant to alter the trajectories.
"""

from __future__ import annotations

import json
import os
import platform
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy

    from tripsolve.astar import solve_astar
    from tripsolve.slip import run_slip

    from checks import step_digest, trajectory_record
    from workloads import REFERENCE_PATH, REFERENCE_SEED, heat_runs, signal_runs

    runs = {}
    for run in signal_runs(REFERENCE_SEED) + heat_runs("topo"):
        x0 = np.zeros(run.problem.n, dtype=np.int64)
        trace = run_slip(run.problem, x0, run.config)
        for k, step in enumerate(trace.steps):
            other = solve_astar(step.instance)
            if step_digest(other.d) != step_digest(step.solution.d):
                print(f"{run.label} subproblem {k}: topo and astar steps differ", file=sys.stderr)
                return 1
        record = trajectory_record(trace)
        record["topo_states"] = [s.solution.stats.nodes_expanded for s in trace.steps]
        runs[run.label] = record
        print(f"{run.label}: {len(trace.steps)} subproblems, {trace.termination}")

    for run in heat_runs("astar"):
        trace = run_slip(run.problem, np.zeros(run.problem.n, dtype=np.int64), run.config)
        got, want = trajectory_record(trace), runs[run.label]
        if got["steps"] != want["steps"] or got["j"] != want["j"]:
            print(f"{run.label}: the astar trajectory differs from topo's", file=sys.stderr)
            return 1

    reference = {
        "recorded_with": f"python={platform.python_version()} numpy={np.__version__} "
                         f"scipy={scipy.__version__}",
        "runs": runs,
    }
    text = json.dumps(reference, indent=1)
    # one line per step row and per list of numbers
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + re.sub(r"\s*\n\s*", " ", m.group(1)) + "]", text)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
