"""Problem records, validation, objective evaluation and the instance file format.

All combinatorial data (delta, gamma, xi, x, d) is kept in exact integers so
that budget arithmetic never suffers from rounding; only the cost vector c,
the penalty alpha and objective values are floating point.

This module is the one home of the instance contract. validate's range rule,
B * m < 2**62 and max|xi| + B < 2**63 for B = budget_cap, keeps every shift,
consumption, path budget, window end x_i +- delta and tie key budget * m +
column in int64; its finiteness rule keeps every objective and relaxed path
cost a finite float; check_table_bytes caps every solver table before
allocation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Mapping, Optional, TypeVar

import numpy as np

T = TypeVar("T")


class InstanceError(ValueError):
    """Raised when a candidate instance violates an invariant."""


class SolverError(RuntimeError):
    """Raised when a solver finds one of its own invariants broken on a
    valid instance: a defect of the solver, not of the input."""


# the fields of an instance record, in the order it is written
_FIELDS = ("n", "alpha", "delta", "xi", "x", "gamma", "c")


@dataclass(frozen=True)
class TripInstance:
    """One trust-region integer step problem.

    Attributes:
        n: number of discretization intervals.
        c: gradient coefficients, length n.
        alpha: nonnegative switching-cost penalty.
        delta: nonnegative integer budget on sum_i gamma_i |d_i|.
        xi: strictly ascending admissible control values.
        x: current control, length n, every entry a member of xi.
        gamma: positive integer interval weights, length n.
    """

    n: int
    c: np.ndarray
    alpha: float
    delta: int
    xi: np.ndarray
    x: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.c, self.xi, self.x, self.gamma):
            arr.flags.writeable = False

    @property
    def m(self) -> int:
        return len(self.xi)

    def shifts(self, i: int) -> np.ndarray:
        """Admissible step values xi - x_i on interval i (1-based)."""
        return self.xi - self.x[i - 1]

    def to_dict(self) -> dict[str, Any]:
        """The instance record, its fields in _FIELDS order."""
        fields = ((name, getattr(self, name)) for name in _FIELDS)
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in fields}


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or bool(np.array_equal(a, b))


@dataclass
class RadiusCache:
    """Solver work that does not depend on the radius, kept while one
    instance is solved at several radii.

    Each entry serves its instance at every radius up to the one it was
    built at. A query for another instance (any of n, alpha, xi, x, gamma,
    c differs in content) empties the cache; a query above an entry's
    radius rebuilds that entry.

    The instances an entry serves differ only in delta, the budget a path
    may spend, and an entry built at radius R serves every delta <= R for a
    reason its own docstring gives: topo.TopoTables for the dynamic program
    (the states at delta are those at R with capacity at least R - delta),
    lagrange.Sweeps for A*'s relaxed tables, successor rows and heuristic
    table (the reach windows at delta lie inside those at R). A cached topo
    answer is the one a fresh solve returns, counters included. A cached A*
    answer is an optimum, but where the windows at delta are narrower than
    at R its multiplier search may evaluate other multipliers than a fresh
    solve: its search counters may differ and, where objectives tie
    exactly, so may the optimal step it returns.
    """

    inst: Optional[TripInstance] = None
    entries: dict[str, tuple[int, Any]] = field(default_factory=dict)

    def matches(self, inst: TripInstance) -> bool:
        """True when inst differs from the cached instance at most in delta."""
        ref = self.inst
        return (
            ref is not None
            and ref.n == inst.n
            and ref.alpha == inst.alpha
            and _same(ref.xi, inst.xi)
            and _same(ref.x, inst.x)
            and _same(ref.gamma, inst.gamma)
            and _same(ref.c, inst.c)
        )

    def kept(self, name: str, inst: TripInstance) -> Optional[Any]:
        """The entry `name` when it serves inst, None when entry would build."""
        kept = self.entries.get(name) if self.matches(inst) else None
        return kept[1] if kept is not None and kept[0] >= inst.delta else None

    def entry(self, name: str, inst: TripInstance, build: Callable[[], T]) -> T:
        """The entry `name` for inst, made by build() when the cache has none
        that serves inst.delta."""
        got = self.kept(name, inst)
        if got is None:
            if not self.matches(inst):
                self.inst = inst
                self.entries = {}
            got = build()
            self.entries[name] = (inst.delta, got)
        return got


@dataclass
class SolverStats:
    """How a solver found its answer. A field whose name ends in _seconds is
    a timing; every other field is a deterministic counter."""

    nodes_expanded: int = 0
    nodes_generated: int = 0
    preprocessing_iterations: int = 0
    wall_seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def counters(self) -> dict[str, Any]:
        """The deterministic fields, which traces carry: all but the timings."""
        return {k: v for k, v in asdict(self).items() if not k.endswith("_seconds")}


@dataclass
class Solution:
    """A feasible step vector with its cost, budget use and solver counters."""

    d: np.ndarray
    objective: float
    resource: int
    stats: SolverStats = field(default_factory=SolverStats)

    @classmethod
    def of(cls, inst: TripInstance, d: np.ndarray, **stats: Any) -> "Solution":
        """The answer d to inst, with its objective, its budget use and the
        SolverStats fields given: how A* and the multiplier search build
        their answers. topo.TopoTables.solution reads the budget use off
        its terminal state instead, which fixes it exactly, and takes the
        objective from objective() all the same."""
        return cls(d, objective(inst, d), resource_use(inst, d), SolverStats(**stats))

    def to_dict(self) -> dict[str, Any]:
        return {
            "d": self.d.tolist(),
            "objective": self.objective,
            "resource": self.resource,
            "stats": self.stats.to_dict(),
        }


# Largest table a solver allocates for one instance, in bytes. clamp_delta
# lets delta, and the radius-wide tables with it, grow to n * range(xi) * max(gamma).
TABLE_BYTES_CAP = 256_000_000


def check_table_bytes(what: str, nbytes: int) -> None:
    """Raise InstanceError, before the table is allocated, when it would take
    more than TABLE_BYTES_CAP bytes. Every table's size is a product of some
    of n, the number of values in xi, delta + 1 and the reach windows'
    widths, which grow with delta: the message names those three inputs."""
    if nbytes > TABLE_BYTES_CAP:
        raise InstanceError(
            f"the {what} would take {nbytes} bytes, over the cap of "
            f"{TABLE_BYTES_CAP}; its size grows with some of n, the number "
            "of values in xi and delta"
        )


def _is_number(value: Any) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return False
    return isinstance(value, (int, float, np.integer, np.floating))


def _real(value: Any) -> float:
    """A scalar field as a float, nan when it is not a number."""
    try:
        return float(value) if _is_number(value) else math.nan
    except OverflowError:  # an int beyond float
        return math.nan


def _integer(value: Any) -> Optional[int]:
    """Exact integer value of a scalar field, None when it has none;
    integral floats such as 3.0 count, other values are never truncated."""
    if isinstance(value, (float, np.floating)) and not value.is_integer():
        return None
    return int(value) if _is_number(value) else None


def _vector(
    value: Any, name: str, problems: list[str], integer: bool
) -> Optional[np.ndarray]:
    """A vector field as int64 (integer) or float64, None after reporting in
    problems why it is not one. Integer fields take integral floats such as
    3.0; non-integral or out-of-range entries are reported, never truncated
    or wrapped."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind == "O" and all(_is_number(v) for v in arr.flat):
            arr = arr.astype(np.float64)  # ints beyond 64 bits
    except (ValueError, OverflowError):  # ragged nesting, ints beyond float
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
        problems.append(f"{name} must be a vector of numbers")
        return None
    if not integer:
        return arr.astype(np.float64, copy=False)
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr) & (arr == np.trunc(arr))):
        problems.append(f"{name} entries must be integers")
        return None
    # a signed-int array always fits, a uint64 or float one may not
    if arr.dtype.kind != "i" and np.any(np.abs(arr) >= 2.0**63):
        problems.append(f"{name} entries are out of the int64 range")
        return None
    return arr.astype(np.int64, copy=False)


def validate(raw: Mapping[str, Any]) -> TripInstance:
    """Check a candidate instance record and return the immutable instance.

    Collects every violated invariant into a single error message instead of
    stopping at the first one.
    """
    if not isinstance(raw, Mapping):
        raise InstanceError("an instance must be a mapping of its fields")
    missing = [name for name in _FIELDS if name not in raw]
    if missing:
        raise InstanceError(
            "missing field(s): " + ", ".join(repr(name) for name in missing)
        )
    unknown = [name for name in raw if name not in _FIELDS]
    if unknown:
        raise InstanceError(
            "unknown field(s): " + ", ".join(repr(name) for name in unknown)
        )

    problems: list[str] = []
    n = _integer(raw["n"])
    if n is None or n < 1:
        raise InstanceError(f"n = {raw['n']!r} must be a positive integer")

    xi = _vector(raw["xi"], "xi", problems, integer=True)
    x = _vector(raw["x"], "x", problems, integer=True)
    gamma = _vector(raw["gamma"], "gamma", problems, integer=True)
    c = _vector(raw["c"], "c", problems, integer=False)
    alpha = _real(raw["alpha"])
    delta = _integer(raw["delta"])

    for name, arr in (("x", x), ("gamma", gamma), ("c", c)):
        if arr is not None and len(arr) != n:
            problems.append(f"{name} has length {len(arr)}, expected n = {n}")
    if xi is not None and len(xi) < 1:
        problems.append("xi must be a nonempty vector")
    elif xi is not None and np.any(xi[1:] <= xi[:-1]):  # np.diff can wrap
        problems.append("xi not strictly ascending")
    elif xi is not None and x is not None and len(x) == n:
        # xi ascends, so xi[at] is its smallest value >= x_i, if it has one
        at = np.minimum(np.searchsorted(xi, x), len(xi) - 1)
        for i in np.flatnonzero(xi[at] != x):
            problems.append(f"x_{i + 1} = {x[i]} not in xi")
    if gamma is not None and len(gamma) == n:
        for i in np.flatnonzero(gamma < 1):
            problems.append(f"gamma_{i + 1} = {gamma[i]} must be >= 1")
    if c is not None:
        for i in np.flatnonzero(~np.isfinite(c)):
            problems.append(f"c_{i + 1} = {c[i]} must be finite")
    if not np.isfinite(alpha):
        problems.append(f"alpha = {raw['alpha']!r} must be a finite number")
    elif alpha < 0:
        problems.append(f"alpha = {alpha} must be nonnegative")
    if delta is None or delta < 0:
        problems.append(f"delta = {raw['delta']!r} must be a nonnegative integer")

    if problems:
        raise InstanceError("; ".join(problems))
    cap, top = budget_cap(n, xi, gamma), max(abs(int(xi[0])), abs(int(xi[-1])))
    if cap * len(xi) >= 2**62 or top + cap >= 2**63:
        raise InstanceError(
            f"budget cap n * range(xi) * max(gamma) = {cap}, m = {len(xi)} and "
            f"max|xi| = {top} break cap * m < 2**62 or max|xi| + cap < 2**63"
        )
    inst = TripInstance(n=n, c=c, alpha=alpha, delta=delta, xi=xi, x=x, gamma=gamma)
    if not math.isfinite(cost_bound(inst)):
        raise InstanceError(
            "range(xi) * (sum|c| + alpha * (n - 1)) + (max|c| + 2 * alpha) * "
            f"budget cap {cap} overflows float64"
        )
    return inst


def cost_bound(inst: TripInstance) -> float:
    """V = range(xi) * (sum|c| + alpha * (n - 1)) + (max|c| + 2 * alpha) * B,
    B = budget_cap, or inf where it overflows; validate's finiteness rule
    requires it finite.

    The first term bounds the sum of the absolute terms of every step's
    objective: |c_i d_i| <= |c_i| range(xi), and each of the n - 1 jumps is
    at most range(xi). The second bounds lam * r for every multiplier the
    multiplier search evaluates, lam <= max|c| + 2 * alpha, and every budget
    use r <= B, so V also bounds every relaxed path cost, and 2V every A*
    f value, path cost plus cost-to-go minus lam * capacity.

    So every intermediate of those float sums has magnitude at most 2V and
    each of their roundings errs by at most ulp(2V) / 2 = ulp(V). An f value
    of A* takes at most 6 roundings per layer (edge terms, the multiplier's
    term, the sums) and 3 more, and objective(inst, d) at most 2n + 1 of at
    most ulp(V) / 2, so the two differ from their exact values by less than
    7 (n + 1) ulp(V) together: rounding_bound, 8 (n + 1) ulp(V), exceeds
    that.

    A*'s upper-bound pruning allows rounding_bound plus n ties of the
    relaxed sweep at the largest multiplier evaluated (lagrange.Sweeps.tie),
    the most by which a heuristic entry, a maximum of table entries that
    each exceed their exact cost-to-sink by at most n ties and rounding, can
    exceed its exact value. So it drops no label of an optimal path at any
    scale of c and alpha. A tie is eps * n * E, with E the bound on one
    edge's terms, and n * E <= 2V, so n ties stay below 4n ulp(V) and the
    whole allowance below 12 (n + 1) ulp(V).
    """
    with np.errstate(over="ignore"):  # a sum past the float range is inf
        abs_sum, abs_max = float(np.abs(inst.c).sum()), float(np.abs(inst.c).max())
    span, alpha = int(inst.xi[-1]) - int(inst.xi[0]), inst.alpha
    cap = budget_cap(inst.n, inst.xi, inst.gamma)
    return span * (abs_sum + alpha * (inst.n - 1)) + (abs_max + 2 * alpha) * cap


def rounding_bound(inst: TripInstance) -> float:
    """8 (n + 1) ulp(V), V = cost_bound(inst): more than the rounding of an
    A* f value and of an objective together, at any scale of c and alpha
    (cost_bound says why)."""
    return 8 * (inst.n + 1) * math.ulp(cost_bound(inst))


def budget_cap(n: int, xi: np.ndarray, gamma: np.ndarray) -> int:
    """n * range(xi) * max(gamma) of an ascending xi: no step uses more budget."""
    return n * (int(xi[-1]) - int(xi[0])) * int(gamma.max())


def clamp_delta(inst: TripInstance) -> TripInstance:
    """Cap the budget at budget_cap, the level where the budget constraint
    turns inactive: larger deltas are equivalent."""
    cap = budget_cap(inst.n, inst.xi, inst.gamma)
    if inst.delta <= cap:
        return inst
    return replace(inst, delta=cap)


def _step(inst: TripInstance, d: Any) -> np.ndarray:
    """d as an int64 vector of length n. Integral floats such as 3.0 count,
    as in validate; InstanceError when an entry is not an integer, or d has
    another shape. An int64 array, which every solver passes, is taken as it
    is."""
    if not (isinstance(d, np.ndarray) and d.dtype == np.int64):
        problems: list[str] = []
        d = _vector(d, "d", problems, integer=True)
        if d is None:
            raise InstanceError("; ".join(problems))
    if d.shape != (inst.n,):
        raise InstanceError(f"d has shape {d.shape}, expected ({inst.n},)")
    return d


def objective(inst: TripInstance, d: np.ndarray) -> float:
    """Cost of a step vector: linear term plus penalized jumps of x + d.
    Raises InstanceError when d is not n integers."""
    d = _step(inst, d)
    v = inst.x + d
    jumps = np.add.reduce(np.abs(v[1:] - v[:-1]))
    return float(np.dot(inst.c, d) + inst.alpha * jumps)


def is_feasible(inst: TripInstance, d: np.ndarray) -> bool:
    """True when d is n integers that keep x + d in xi within the budget."""
    try:
        d = _step(inst, d)
    except InstanceError:
        return False
    if not np.all(np.isin(inst.x + d, inst.xi)):
        return False
    return int(np.dot(inst.gamma, np.abs(d))) <= inst.delta


def resource_use(inst: TripInstance, d: np.ndarray) -> int:
    """Budget consumed by a step vector: sum_i gamma_i |d_i|. Raises
    InstanceError when d is not n integers."""
    d = _step(inst, d)
    return int(np.dot(inst.gamma, np.abs(d)))


def read_instance(text: str) -> TripInstance:
    """Parse the JSON instance document and validate it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed instance document: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    return validate(doc)


def write_instance(inst: TripInstance) -> str:
    return json.dumps(inst.to_dict())
