"""Trust-region outer loop over integer step subproblems, with two built-in
discretized control problems.

Each outer iteration linearizes the smooth objective part, solves the step
subproblem at the current radius and applies the classic accept/reject test:
the step is taken when the actual decrease of the full objective reaches a
fraction rho of the decrease the linear model predicted, otherwise the
radius is halved (integer floor, down to zero). The radius resets at every
outer iteration, to delta0 or, where that is smaller, to the budget cap,
above which every radius is the same subproblem. A subproblem whose model
predicts no decrease certifies a stationary iterate and stops the run; at
radius zero only the zero step is feasible, so a run that rejects its way
down always terminates through that same certificate.

The subproblems of one outer iteration differ only in the radius, so each
outer iteration validates its instance once, derives every radius from it
with dataclasses.replace, and hands the solvers one RadiusCache, whose
entries, built at the first radius, serve every smaller one
(instance.RadiusCache says why). topo's answers are those of a solve
without the cache; every A* answer is an optimum, but where objectives tie
exactly a cached solve may return a different optimal step than a fresh
one.

initial_iterate gives a run its start: the zero vector, the box relaxation
rounded to the nearest members of xi (relax_round), or the rounded mean of
those two (mean_round), for either problem. solve_box_relaxation minimizes
the smooth part over the box hull of xi with scipy's bounded L-BFGS-B from
zero. It stops when no entry of the projected gradient exceeds 1e-8, or
when the value no longer decreases at all, which scipy also counts as
success. Rounding jumps at each midpoint between members, so an entry near
one rounds by where the optimizer stopped. On heat n = 64 the closest
relaxed entry lies 0.0099 from a midpoint. The rounded start there is the
same for every tolerance up to 1e-7; at 1e-6, 11 of its 64 entries change.
A start is therefore reproducible within one scipy release, but it can move
between the Fortran L-BFGS-B (scipy <= 1.14) and the C one (>= 1.15).

numpy is the only numerical module imported here at module level, since
importing tripsolve imports this module and the solvers need nothing else.
The first scipy submodule adds 27 to 30 MB of RSS, so only when asked: each
problem builder imports what its closures use (scipy.linalg for heat,
scipy.fft and scipy.special for signal), and solve_box_relaxation imports
scipy.optimize.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .astar import solve_astar
from .instance import (InstanceError, RadiusCache, Solution, SolverError,
                       TripInstance, budget_cap, check_table_bytes, validate)
from .topo import solve_topo


def total_variation(x: np.ndarray) -> float:
    """Sum of the jump heights of a piecewise-constant control vector."""
    return float(np.abs(np.diff(np.asarray(x))).sum())


@dataclass(frozen=True)
class ControlProblem:
    """A discretized control objective F plus the admissible set.

    smooth_value evaluates the discretized F; gradient_coeffs returns its
    exact gradient with respect to the interval values, integrated per
    interval, which is exactly the cost vector the step subproblem needs.
    Both accept float vectors so that the continuous relaxation can be
    evaluated too.
    """

    name: str
    n: int
    xi: np.ndarray
    gamma: np.ndarray
    smooth_value: Callable[[np.ndarray], float]
    gradient_coeffs: Callable[[np.ndarray], np.ndarray]


def _is_integer(value: object) -> bool:
    """An int or numpy integer; bools and integral floats such as 2.0 are
    not, so no setting is ever truncated."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class SlipConfig:
    """Settings of run_slip: the switching penalty, the radius each outer
    iteration starts from, the acceptance fraction, the subproblem solver
    and the outer iteration limit. astar's multiplier search runs at the
    tolerance of each subproblem, lagrange.default_epsilon, which is not a
    setting."""

    alpha: float
    delta0: int
    rho: float = 0.1
    solver: str = "topo"  # topo | astar
    max_outer: int = 1000

    def __post_init__(self) -> None:
        if not _is_integer(self.delta0) or self.delta0 < 1:
            raise ValueError("delta0 must be a positive integer")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly between 0 and 1")
        if self.solver not in ("topo", "astar"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if not _is_integer(self.max_outer) or self.max_outer < 0:
            raise ValueError("max_outer must be a non-negative integer")


@dataclass
class SlipStep:
    outer: int
    inner: int
    instance: TripInstance
    solution: Solution
    predicted: float
    actual: Optional[float]
    accepted: Optional[bool]


@dataclass
class SlipTrace:
    steps: list[SlipStep] = field(default_factory=list)
    final_x: Optional[np.ndarray] = None
    termination: str = ""
    j_values: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0


def run_slip(
    problem: ControlProblem, x0: np.ndarray, config: SlipConfig
) -> SlipTrace:
    """Run the trust-region loop from a feasible start until the model
    predicts no decrease, the radius is exhausted, or max_outer is hit."""
    t0 = time.perf_counter()
    x = np.asarray(x0)
    # entries are checked before the cast, which would truncate 0.7 to 0
    if (x.dtype.kind not in "iuf" or x.shape != (problem.n,)
            or not np.all(np.isin(x, problem.xi))):
        raise ValueError("x0 must be a length-n vector with entries in xi")
    x = x.astype(np.int64)
    # slip's own names, read when the run starts: perfbench wraps
    # tripsolve.slip.solve_topo and solve_astar
    solve = solve_topo if config.solver == "topo" else solve_astar

    trace = SlipTrace()
    j_cur = problem.smooth_value(x) + config.alpha * total_variation(x)
    trace.j_values.append(j_cur)

    def finish(reason: str) -> SlipTrace:
        trace.final_x = x.copy()
        trace.termination = reason
        trace.wall_seconds = time.perf_counter() - t0
        return trace

    for outer in range(1, config.max_outer + 1):
        coeffs = problem.gradient_coeffs(x)
        base = validate(
            {
                "n": problem.n,
                "alpha": config.alpha,
                "delta": config.delta0,
                "xi": problem.xi.tolist(),
                "x": x.tolist(),
                "gamma": problem.gamma.tolist(),
                "c": coeffs.tolist(),
            }
        )
        cache = RadiusCache()
        delta = min(config.delta0, budget_cap(problem.n, problem.xi, problem.gamma))
        inner = 0
        while True:
            inst = replace(base, delta=delta)
            sol = solve(inst, cache=cache)
            predicted = config.alpha * total_variation(x) - sol.objective
            if predicted <= 0.0:
                trace.steps.append(
                    SlipStep(outer, inner, inst, sol, predicted, None, None)
                )
                return finish("stationary")
            x_new = x + sol.d
            j_new = problem.smooth_value(x_new) + config.alpha * total_variation(
                x_new
            )
            actual = j_cur - j_new
            accepted = actual >= config.rho * predicted
            trace.steps.append(
                SlipStep(outer, inner, inst, sol, predicted, actual, accepted)
            )
            if accepted:
                x = x_new
                j_cur = j_new
                trace.j_values.append(j_cur)
                break
            delta //= 2
            inner += 1
    return finish("max_outer")


def _last_state(
    solve: Callable[[np.ndarray], np.ndarray]
) -> Callable[[np.ndarray], np.ndarray]:
    """solve(x) for x as a float64 vector, where the last result is handed
    out once more to a next call at the same x: the trust region asks for
    the gradient at the iterate whose value it has just computed, and
    L-BFGS-B for both at every point. The key is a copy of x's bytes, so a
    hit returns the same floats a fresh solve would. Each call drops the
    kept result, so at most one is held; callers must not write into it."""
    last: tuple = (None, None)

    def cached(xv: np.ndarray) -> np.ndarray:
        nonlocal last
        xf = np.asarray(xv, dtype=np.float64)
        key = xf.tobytes()
        hit = last[1] if last[0] == key else None
        last = (None, None)
        if hit is not None:
            return hit
        state = solve(xf)
        last = (key, state)
        return state

    return cached


# ---------------------------------------------------------------------------
# built-in problem: steady heat equation

_HEAT_JUMP = 0.05
_HEAT_EPS_LO = 0.1
_HEAT_EPS_HI = 10.0


def make_heat_problem(n: int, fine_factor: int = 4) -> ControlProblem:
    """Integer control of -eps(t) u'' = f(t) + x(t) on (-1, 1), u(+-1) = 0,
    minimizing half the squared distance of u from the constant target 1.

    The state equation is discretized by the symmetric second-order
    difference system on a fine grid of fine_factor * n intervals; the
    source term enters through hat-function averages (split exactly at the
    diffusivity jump), which makes the nodal solve exact for piecewise
    sources and keeps the self-convergence of the objective fast. The
    gradient comes from one adjoint solve with the same matrix, accumulated
    per control interval.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if fine_factor < 4:
        raise ValueError("need at least 4 fine intervals per control interval")
    from numpy.polynomial.legendre import leggauss
    from scipy.linalg import solveh_banded

    m_fine = fine_factor * n
    # the largest arrays: 8 quadrature nodes on each of the m_fine + 1 pieces
    check_table_bytes("heat problem's quadrature table", (m_fine + 1) * 8 * 8)
    h = 2.0 / m_fine
    cell_left = -1.0 + h * np.arange(m_fine)

    band = np.zeros((2, m_fine - 1))
    band[0, 1:] = -1.0 / h**2
    band[1, :] = 2.0 / h**2

    # the pieces (lo, hi) of the fine cells: every cell, cut short at the
    # diffusivity jump, then the far side of the cell the jump cuts
    cut = np.flatnonzero((cell_left < _HEAT_JUMP) & (_HEAT_JUMP < cell_left + h))
    cell = np.concatenate([np.arange(m_fine), cut])
    a = cell_left[cell]
    b = a + h
    lo = np.concatenate([cell_left, np.full(len(cut), _HEAT_JUMP)])
    hi = b.copy()
    hi[cut] = _HEAT_JUMP
    mid = 0.5 * (lo + hi)
    eps = np.where(mid < _HEAT_JUMP, _HEAT_EPS_LO, _HEAT_EPS_HI)
    width = hi - lo

    def per_cell(piece_terms: np.ndarray) -> np.ndarray:
        # adds a cell's pieces in array order, near side first, from 0.0
        return np.bincount(cell, piece_terms, m_fine)

    # per-fine-cell hat weights (1/eps folded in): lw -> left node, rw -> right
    lw = per_cell(((b - lo) + (b - hi)) * 0.5 * width / h / eps)
    rw = per_cell(((lo - a) + (hi - a)) * 0.5 * width / h / eps)
    # load from the fixed source f(t) = exp(-(t + 0.4)^2), 8 Gauss-Legendre
    # nodes per piece
    glx, glw = leggauss(8)
    s = (0.5 * width)[:, None] * glx + mid[:, None]
    w = (0.5 * width)[:, None] * glw
    fv = np.exp(-((s + 0.4) ** 2)) / eps[:, None]
    fl = per_cell(np.sum(w * fv * (b[:, None] - s) / h, axis=1))
    fr = per_cell(np.sum(w * fv * (s - a[:, None]) / h, axis=1))
    rhs_f = (fl[1:] + fr[:-1]) / h

    rep = m_fine // n

    def control_rhs(xv: np.ndarray) -> np.ndarray:
        xf = np.repeat(np.asarray(xv, dtype=np.float64), rep)
        return ((lw * xf)[1:] + (rw * xf)[:-1]) / h

    @_last_state
    def state(xv: np.ndarray) -> np.ndarray:
        return solveh_banded(band, rhs_f + control_rhs(xv))

    def smooth_value(xv: np.ndarray) -> float:
        u = state(xv)
        return float(0.5 * h * (np.sum((u - 1.0) ** 2) + 1.0))

    def gradient_coeffs(xv: np.ndarray) -> np.ndarray:
        u = state(xv)
        p = solveh_banded(band, h * (u - 1.0))
        pp = np.concatenate([[0.0], p, [0.0]])
        per_cell = (lw * pp[:-1] + rw * pp[1:]) / h
        return per_cell.reshape(n, rep).sum(axis=1)

    return ControlProblem(
        name="heat",
        n=n,
        xi=np.arange(-2, 24, dtype=np.int64),
        gamma=np.ones(n, dtype=np.int64),
        smooth_value=smooth_value,
        gradient_coeffs=gradient_coeffs,
    )


# ---------------------------------------------------------------------------
# built-in problem: signal reconstruction through a causal kernel

# lags per kernel_mass evaluation; blocks of 256 lags or the whole grid
# (33 MB each) built the problem more slowly, their pages faulted in afresh.
# Every block is computed in one (5, 32, 200) scratch of 256 kB: temporaries
# of that size are mapped afresh whenever the allocator's mmap threshold,
# which earlier work sets, lies below it, and a seed-0 signal-slip set-up
# then faulted in up to 48,000 pages and took up to twice as long
_KERNEL_BLOCK = 32


def make_signal_problem(
    n: int, seed: int, fine_cells: int = 4096
) -> ControlProblem:
    """Least-squares reconstruction of f(t) = 5 sin(4 pi t) + 10 on (0, 1)
    from a control convolved with a random causal kernel (a mix of 200
    Gaussian bumps, coefficients uniform in [0, 1), centers uniform in
    [-2, 3), widths exponential with rate 1).

    The squared-error integral uses fifth-order Gauss-Legendre quadrature
    per fine cell; controls are broadcast to the fine cells; the kernel is
    integrated exactly over cells via the Gaussian antiderivative. The
    gradient applies the adjoint of the same discrete convolution to the
    residual and accumulates per control interval.

    The kernel's spectrum is computed once, here. Each convolution then
    transforms its own operand, multiplies by the stored spectrum and
    transforms back, the steps scipy.signal.fftconvolve takes in the same
    order and at the same length, so every float equals its result.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if seed < 0:  # numpy's own message would name no input
        raise ValueError("seed must be a non-negative integer")
    if fine_cells < 1:
        raise ValueError("fine_cells must be a positive integer")
    if fine_cells % n != 0:
        raise ValueError("n must divide the fine-grid size")
    from numpy.polynomial.legendre import leggauss
    from scipy.fft import irfftn, next_fast_len, rfftn
    from scipy.special import erf

    m_fine = fine_cells
    h = 1.0 / m_fine
    rep = m_fine // n

    rng = np.random.default_rng(seed)
    amp = rng.random(200)
    mu = rng.uniform(-2.0, 3.0, 200)
    sigma = rng.exponential(1.0, 200)

    glx, glw = leggauss(5)
    offs = (glx + 1.0) * 0.5 * h  # node offsets inside a cell, ascending
    wq = glw * 0.5 * h  # quadrature weights, sum h

    phi0 = 0.5 * (1.0 + erf((0.0 - mu) / sigma / np.sqrt(2.0)))
    scratch = np.empty((5, _KERNEL_BLOCK, 200))

    def kernel_mass(s: np.ndarray) -> np.ndarray:
        """Integral of the kernel over (0, s] for s >= 0, elementwise, at
        up to _KERNEL_BLOCK lags: the sum over the bumps of
        (0.5 * (1 + erf((s - mu) / sigma / sqrt(2))) - phi0) * amp, each
        step written over the last in scratch."""
        z = scratch[:, : s.shape[1]]
        np.subtract(s[..., None], mu, out=z)
        z /= sigma
        z /= np.sqrt(2.0)
        erf(z, out=z)
        z += 1.0
        z *= 0.5
        z -= phi0
        z *= amp
        return z.sum(axis=-1)

    lags = np.arange(m_fine, dtype=np.float64)
    t_nodes = lags[None, :] * h + offs[:, None]
    target = 5.0 * np.sin(4.0 * np.pi * t_nodes) + 10.0
    # each lag sums its 200 bumps in the same order whatever the block
    mass = np.concatenate(
        [
            kernel_mass(t_nodes[:, k : k + _KERNEL_BLOCK])
            for k in range(0, m_fine, _KERNEL_BLOCK)
        ],
        axis=1,
    )
    # the kernel over (t_nodes[q, k - 1], t_nodes[q, k]], over (0, t] at lag 0
    lag_kernel = np.diff(mass, axis=1, prepend=0.0)  # (5, m_fine)
    fshape = [next_fast_len(2 * m_fine - 1, True)]
    kernel_spectrum = rfftn(lag_kernel, fshape, axes=[1])

    def convolve(rows: np.ndarray) -> np.ndarray:
        """The first m_fine lags of each row convolved with its kernel row."""
        operand_spectrum = rfftn(rows, fshape, axes=[1])
        return irfftn(operand_spectrum * kernel_spectrum, fshape, axes=[1])[:, :m_fine]

    @_last_state
    def residual(xv: np.ndarray) -> np.ndarray:
        # kept compact: the convolution's own rows are twice as long
        return convolve(np.repeat(xv, rep)[None, :]) - target

    def smooth_value(xv: np.ndarray) -> float:
        return float(0.5 * np.sum(wq[:, None] * residual(xv) ** 2))

    def gradient_coeffs(xv: np.ndarray) -> np.ndarray:
        z = wq[:, None] * residual(xv)
        g_rows = convolve(z[:, ::-1])[:, ::-1]
        return g_rows.sum(axis=0).reshape(n, rep).sum(axis=1)

    return ControlProblem(
        name="signal",
        n=n,
        xi=np.arange(-5, 6, dtype=np.int64),
        gamma=np.ones(n, dtype=np.int64),
        smooth_value=smooth_value,
        gradient_coeffs=gradient_coeffs,
    )


# ---------------------------------------------------------------------------
# initial iterates

def round_to_members(values: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Nearest member of xi per entry; exact midpoints round down."""
    values = np.asarray(values, dtype=np.float64)
    pos = np.clip(np.searchsorted(xi, values), 1, len(xi) - 1)
    lower = xi[pos - 1]
    upper = xi[pos]
    take_upper = (upper - values) < (values - lower)
    return np.where(take_upper, upper, lower).astype(np.int64)


# the projected-gradient tolerance of solve_box_relaxation, L-BFGS-B's gtol
_RELAX_TOL = 1e-8


def solve_box_relaxation(problem: ControlProblem) -> np.ndarray:
    """The minimizer of the smooth part over the box hull of the admissible
    set (no switching penalty), by scipy's bounded L-BFGS-B from the zero
    vector; the module docstring gives its stopping rule. Raises SolverError
    when scipy does not report success."""
    from scipy.optimize import minimize  # about 17 MB, so only when asked

    result = minimize(
        lambda x: (problem.smooth_value(x), problem.gradient_coeffs(x)),
        np.zeros(problem.n),
        jac=True,
        method="L-BFGS-B",
        bounds=[(problem.xi[0], problem.xi[-1])] * problem.n,
        options={"ftol": 0.0, "gtol": _RELAX_TOL},
    )
    if not result.success:
        raise SolverError(f"the box relaxation did not converge: {result.message}")
    return result.x


def initial_iterate(problem: ControlProblem, strategy: str) -> np.ndarray:
    """Start vector: all zeros, the rounded box relaxation, or the rounded
    mean of those two."""
    zero = np.zeros(problem.n, dtype=np.int64)
    if strategy == "zero":
        return zero
    relaxed = round_to_members(solve_box_relaxation(problem), problem.xi)
    if strategy == "relax_round":
        return relaxed
    if strategy == "mean_round":
        return round_to_members((zero + relaxed) / 2.0, problem.xi)
    raise ValueError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# trace files: one JSON record per line, replayable by the bench harness

def write_trace(trace: SlipTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for step in trace.steps:
            record = {
                "kind": "step",
                "outer": step.outer,
                "inner": step.inner,
                "delta": step.instance.delta,
                "instance": step.instance.to_dict(),
                "objective": step.solution.objective,
                "d": step.solution.d.tolist(),
                "resource": step.solution.resource,
                "predicted": step.predicted,
                "actual": step.actual,
                "accepted": step.accepted,
                "stats": step.solution.stats.counters(),
            }
            fh.write(json.dumps(record) + "\n")
        fh.write(
            json.dumps(
                {
                    "kind": "final",
                    "x": trace.final_x.tolist(),
                    "termination": trace.termination,
                    "j_values": trace.j_values,
                    "n_steps": len(trace.steps),
                }
            )
            + "\n"
        )


def read_trace_instances(path: str) -> list[tuple[dict, TripInstance]]:
    """The (record, instance) pairs of every subproblem stored in a trace.

    Raises InstanceError, naming the path and line, for a line that is not a
    JSON object, a step record without an instance and an invalid instance.
    """
    out: list[tuple[dict, TripInstance]] = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise InstanceError("a record must be a JSON object")
                if record.get("kind") == "step":
                    if "instance" not in record:
                        raise InstanceError("step record has no instance")
                    out.append((record, validate(record["instance"])))
            except ValueError as exc:  # InstanceError, JSON errors too
                raise InstanceError(f"{path}:{number}: {exc}") from exc
    return out
