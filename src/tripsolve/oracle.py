"""Ground-truth brute force and adversarial instance generators."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .instance import InstanceError, Solution, SolverError, TripInstance, validate


def _decode_block(inst: TripInstance, codes: np.ndarray) -> np.ndarray:
    """Mixed-radix decode of enumeration codes into step rows (first
    coordinate varies slowest, so code order is lexicographic order)."""
    steps = np.empty((len(codes), inst.n), dtype=np.int64)
    for i in range(inst.n):
        digits = codes // inst.m ** (inst.n - 1 - i) % inst.m
        steps[:, i] = inst.shifts(i + 1)[digits]
    return steps


# step vectors enumerated per block of solve_bruteforce
_BLOCK = 1 << 14


def solve_bruteforce(inst: TripInstance, cap: int = 1 << 20) -> Solution:
    """Exhaustive minimum over every admissible step vector.

    Iterates in mixed-radix order in blocks of _BLOCK, so memory stays
    proportional to _BLOCK * n rather than the enumeration size. Ties are
    broken by the lexicographically smallest step vector. Raises ValueError
    when |xi| ** n exceeds `cap`.
    """
    t0 = time.perf_counter()
    count = inst.m**inst.n
    if count > cap:
        raise ValueError(f"enumeration size {count} exceeds cap {cap}")
    best_value = np.inf
    best_d: np.ndarray | None = None
    for start in range(0, count, _BLOCK):
        codes = np.arange(start, min(start + _BLOCK, count))
        steps = _decode_block(inst, codes)
        resource = np.abs(steps) @ inst.gamma
        values = steps @ inst.c + inst.alpha * np.abs(
            np.diff(inst.x[None, :] + steps, axis=1)
        ).sum(axis=1)
        values = np.where(resource <= inst.delta, values, np.inf)
        at = int(np.argmin(values))  # first minimum = smallest d in the block
        if values[at] < best_value:
            best_value = float(values[at])
            best_d = steps[at]
    if best_d is None:  # the zero step is feasible: its objective overflowed
        raise SolverError("no feasible step has an objective below +inf")
    return Solution.of(inst, best_d, wall_seconds=time.perf_counter() - t0)


@dataclass(frozen=True)
class KnapsackReduction:
    """A knapsack problem encoded as a step instance.

    Item i of the kept list maps to interval 2(i+1) of the instance; taking
    the item corresponds to the step d = weight there, leaving it to d = 0.
    """

    instance: TripInstance
    values: tuple[float, ...]
    weights: tuple[int, ...]
    kept_items: tuple[int, ...]
    budget: int
    alpha: float


def knapsack_reduce(
    values: Sequence[float],
    weights: Sequence[int],
    budget: int,
    alpha: float,
) -> KnapsackReduction:
    """Encode a 0/1 knapsack problem as a step instance.

    The admissible set is built from prefix weight sums offset by multiples
    of budget + 1, so that every odd interval is pinned to zero and every
    even interval can only stay or move by one item weight.

    Every weight must be a positive integer and every value a finite
    positive number, dropped items included; ValueError names the first
    item whose weight, or else whose value, is not. alpha must be positive
    and 2 * alpha, which every item's cost holds, finite, and so must each
    kept item's cost -value / weight - 2 * alpha: ValueError names the first
    item whose cost overflows. Items heavier than the budget fit in no
    selection and are dropped: kept_items lists the others.
    """
    if budget < 1:
        raise ValueError("budget must be a positive integer")
    # NaN fails the first test, and an alpha whose double overflows the second
    if not (alpha > 0 and math.isfinite(2.0 * alpha)):
        raise ValueError(
            f"alpha must be a positive number with 2 * alpha finite, got {alpha!r}"
        )
    if len(values) != len(weights):
        raise ValueError("values and weights must have equal length")
    for i, weight in enumerate(weights):
        # NaN fails the first test and +inf the second, before int() sees it
        if not (weight >= 1 and weight != math.inf and int(weight) == weight):
            raise ValueError(
                f"weight of item {i} must be a positive integer, got {weight!r}"
            )
    for i, value in enumerate(values):
        if not (value > 0 and value != math.inf):  # NaN fails the first test
            raise ValueError(
                f"value of item {i} must be a finite positive number, got {value!r}"
            )
    kept = [i for i in range(len(weights)) if weights[i] <= budget]
    w = [int(weights[i]) for i in kept]
    v = [float(values[i]) for i in kept]
    n_items = len(kept)
    delta = int(budget)
    big = delta + 1
    prefix = np.concatenate([[0], np.cumsum(w)]).astype(int)

    members = {int(prefix[k] + k * big) for k in range(n_items + 1)}
    members |= {int(prefix[k] + (k + 1) * big) for k in range(n_items)}
    if len(members) != 2 * n_items + 1:
        raise ValueError(
            "degenerate weight pattern: admissible-set construction collided; "
            "perturb the offsets"
        )
    xi = sorted(members)

    n = 2 * n_items + 1
    x = np.zeros(n, dtype=np.int64)
    c = np.zeros(n, dtype=np.float64)
    for item in range(1, n_items + 1):
        i = 2 * item
        x[i - 1] = prefix[item - 1] + item * big
        c[i - 1] = -v[item - 1] / w[item - 1] - 2.0 * alpha
    if not np.isfinite(c).all():  # validate would name a derived c_i instead
        k = next(k for k in range(n_items) if not math.isfinite(c[2 * k + 1]))
        raise ValueError(
            f"value of item {kept[k]} over its weight plus 2 * alpha overflows float64"
        )
    inst = validate(
        {
            "n": n,
            "alpha": alpha,
            "delta": delta,
            "xi": xi,
            "x": x.tolist(),
            "gamma": [1] * n,
            "c": c.tolist(),
        }
    )
    return KnapsackReduction(
        instance=inst,
        values=tuple(v),
        weights=tuple(w),
        kept_items=tuple(kept),
        budget=delta,
        alpha=float(alpha),
    )


def extract_knapsack(reduction: KnapsackReduction, d: np.ndarray) -> list[int]:
    """Read the item selection off a step vector of the reduced instance.

    Returns the selected item indices of the original value/weight lists.
    Raises ValueError when d is not of the take-or-leave form the reduction
    guarantees for optimal solutions.
    """
    d = np.asarray(d, dtype=np.int64)
    selected: list[int] = []
    total_weight = 0
    for pos, (orig, w) in enumerate(zip(reduction.kept_items, reduction.weights)):
        step = int(d[2 * pos + 1])
        if step == w:
            selected.append(orig)
            total_weight += w
        elif step != 0:
            raise ValueError(
                f"d_{2 * pos + 2} = {step} is neither 0 nor the item weight {w}"
            )
    for i in range(0, len(d), 2):
        if d[i] != 0:
            raise ValueError(f"d_{i + 1} = {int(d[i])} should be pinned to 0")
    if total_weight > reduction.budget:
        raise ValueError("extracted selection exceeds the budget")
    return selected


def gen_random(
    n: int, m: int, delta: int, alpha: float, seed: int
) -> TripInstance:
    """Reproducible random instance: m distinct admissible values, x uniform
    over them, standard-normal costs, weights in {1, 2, 3}. Raises
    InstanceError when n or m is below 1 or seed below 0."""
    for name, size in (("n", n), ("m", m)):
        if size < 1:
            raise InstanceError(f"{name} = {size!r} must be a positive integer")
    if seed < 0:
        raise InstanceError(f"seed = {seed!r} must be a non-negative integer")
    rng = np.random.default_rng(seed)
    xi = np.sort(rng.choice(np.arange(-2 * m, 2 * m + 1), size=m, replace=False))
    x = rng.choice(xi, size=n)
    c = rng.standard_normal(n)
    gamma = rng.integers(1, 4, size=n)
    return validate(
        {
            "n": n,
            "alpha": alpha,
            "delta": delta,
            "xi": xi.tolist(),
            "x": x.tolist(),
            "gamma": gamma.tolist(),
            "c": c.tolist(),
        }
    )
