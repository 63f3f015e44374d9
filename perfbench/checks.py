"""Answer checks that do not rely on the solvers under test.

Every formula here is written out again rather than imported from
tripsolve, so a defect in the package cannot hide itself by also breaking
its own check.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

import numpy as np

OBJECTIVE_REL_TOL = 1e-9
J_REL_TOL = 1e-9
KNAPSACK_REL_TOL = 1e-9


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def step_problems(inst, sol) -> list[str]:
    """Why a reported step is wrong: it leaves the admissible set, overruns
    the budget, or its reported objective or budget use disagrees with a
    recomputation. Empty when the step is feasible and consistent."""
    d = np.asarray(sol.d, dtype=np.int64)
    if d.shape != (inst.n,):
        return [f"step has shape {d.shape}, expected ({inst.n},)"]
    problems = []
    target = inst.x + d
    if not np.isin(target, inst.xi).all():
        problems.append("x + d leaves the admissible set")
    used = int(np.abs(d) @ inst.gamma)
    if used > inst.delta:
        problems.append(f"budget use {used} exceeds delta {inst.delta}")
    if used != sol.resource:
        problems.append(f"reported budget use {sol.resource}, recomputed {used}")
    value = float(inst.c @ d + inst.alpha * np.abs(np.diff(target)).sum())
    if not _close(value, sol.objective, OBJECTIVE_REL_TOL):
        problems.append(f"reported objective {sol.objective!r}, recomputed {value!r}")
    return problems


def step_digest(d: np.ndarray) -> str:
    """Short exact fingerprint of a step vector."""
    raw = np.ascontiguousarray(d, dtype="<i8").tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


def trajectory_record(trace) -> dict:
    """The deterministic part of a slip trace, as stored in the reference:
    one (outer, inner, delta, step digest, accepted) row per subproblem,
    the accepted objective values J and the termination reason."""
    return {
        "steps": [
            [s.outer, s.inner, s.instance.delta, step_digest(s.solution.d), s.accepted]
            for s in trace.steps
        ],
        "j": list(trace.j_values),
        "termination": trace.termination,
    }


def trajectory_problems(trace, reference: Optional[dict]) -> list[str]:
    """Invariants every run must meet (J non-increasing, stationary
    termination) plus, when a reference is given, an exact match of the
    step sequence and J within a relative 1e-9."""
    problems = []
    if trace.termination != "stationary":
        problems.append(f"termination {trace.termination!r}, expected 'stationary'")
    j = trace.j_values
    for k in range(1, len(j)):
        if j[k] > j[k - 1]:
            problems.append(f"J increased at accepted step {k}: {j[k - 1]!r} -> {j[k]!r}")
            break
    if reference is None:
        return problems
    got = trajectory_record(trace)
    expected_steps = [list(row) for row in reference["steps"]]
    if got["steps"] != expected_steps:
        at = next(
            (k for k, (a, b) in enumerate(zip(got["steps"], expected_steps)) if a != b),
            min(len(got["steps"]), len(expected_steps)),
        )
        problems.append(
            f"step sequence differs from the reference at subproblem {at} "
            f"({len(got['steps'])} subproblems, reference {len(expected_steps)})"
        )
    if len(j) != len(reference["j"]) or not all(
        _close(a, b, J_REL_TOL) for a, b in zip(j, reference["j"])
    ):
        problems.append("J values differ from the reference")
    if reference["termination"] != trace.termination:
        problems.append("termination differs from the reference")
    return problems


def knapsack_optimum(values: Sequence[float], weights: Sequence[int], capacity: int) -> float:
    """Optimal 0/1 knapsack value by dynamic programming over capacity."""
    best = np.zeros(capacity + 1)
    for v, w in zip(values, weights):
        w = int(w)
        if w <= capacity:
            # the right-hand side is built from the previous row before the
            # assignment, so each item is used at most once
            best[w:] = np.maximum(best[w:], best[: capacity + 1 - w] + v)
    return float(best[-1])


def knapsack_selection_problems(
    values: Sequence[float],
    weights: Sequence[int],
    capacity: int,
    selected: Sequence[int],
    optimum: float,
) -> list[str]:
    """Why an item selection is not an optimal knapsack answer."""
    if len(set(selected)) != len(selected):
        return ["an item is selected twice"]
    weight = sum(int(weights[i]) for i in selected)
    value = sum(float(values[i]) for i in selected)
    problems = []
    if weight > capacity:
        problems.append(f"selection weighs {weight} > capacity {capacity}")
    if not _close(value, optimum, KNAPSACK_REL_TOL):
        problems.append(f"selection is worth {value!r}, the optimum is {optimum!r}")
    return problems
