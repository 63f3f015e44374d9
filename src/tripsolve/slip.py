"""Trust-region outer loop over integer step subproblems, with two built-in
discretized control problems.

Each outer iteration linearizes the smooth objective part, solves the step
subproblem at the current radius and applies the classic accept/reject test:
the step is taken when the actual decrease of the full objective reaches a
fraction rho of the decrease the linear model predicted, otherwise the
radius is halved (integer floor, down to zero). The radius resets at every
outer iteration. A subproblem whose model predicts no decrease certifies a
stationary iterate and stops the run; at radius zero only the zero step is
feasible, so a run that rejects its way down always terminates through that
same certificate.

The subproblems of one outer iteration differ only in the radius: c, x,
alpha, xi and gamma stay fixed while a rejected step halves delta. Each
outer iteration therefore validates its instance once, derives every radius
from it with dataclasses.replace, and hands the solvers one RadiusCache for
the iteration. topo builds its dynamic program once, at the first radius,
and reads every smaller radius from it (the states of radius delta - s are
the states of radius delta with at least s capacity left); A*'s multiplier
search keeps one record of the instance: its edge terms, its reach windows
at the first radius, and the relaxed sweeps made over those windows. A
later search sweeps again only multipliers the record has not swept yet,
builds its successor rows and heuristic table over the record's windows,
and, when it evaluates the multipliers of the last heuristic table built,
at a radius up to that table's, reads that table again. topo's
answers are those of a solver without the cache; A*'s are optimal, the
same steps on every tested trace, but their search counters may differ
where the windows of a smaller radius are narrower.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.linalg import solveh_banded
from scipy.special import erf

from .astar import solve_astar
from .instance import InstanceError, RadiusCache, Solution, TripInstance, validate
from .lagrange import check_epsilon
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


@dataclass
class SlipConfig:
    alpha: float
    delta0: int
    rho: float = 0.1
    epsilon: Optional[float] = None
    solver: str = "topo"  # topo | astar | hybrid
    delta_d: Optional[int] = None  # hybrid switchover radius
    max_outer: int = 1000

    def __post_init__(self) -> None:
        if self.delta0 < 1:
            raise ValueError("delta0 must be a positive integer")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly between 0 and 1")
        if self.epsilon is not None:
            check_epsilon(self.epsilon)
        if self.solver not in ("topo", "astar", "hybrid"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.solver == "hybrid" and self.delta_d is None:
            raise ValueError("hybrid solver needs delta_d")
        if self.delta_d is not None and self.delta_d < 0:
            raise ValueError("delta_d must be a non-negative integer")
        if self.max_outer < 0:
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


def hybrid_solver(delta: int, delta_d: int) -> str:
    """The solver the hybrid runs at radius delta: topo below the switchover
    radius delta_d, astar from it on."""
    return "topo" if delta < delta_d else "astar"


def _solve_subproblem(
    inst: TripInstance, config: SlipConfig, cache: RadiusCache
) -> Solution:
    solver = config.solver
    if solver == "hybrid":
        solver = hybrid_solver(inst.delta, config.delta_d)
    if solver == "topo":
        return solve_topo(inst, cache=cache)
    return solve_astar(inst, config.epsilon, cache=cache)


def run_slip(
    problem: ControlProblem, x0: np.ndarray, config: SlipConfig
) -> SlipTrace:
    """Run the trust-region loop from a feasible start until the model
    predicts no decrease, the radius is exhausted, or max_outer is hit."""
    t0 = time.perf_counter()
    x = np.asarray(x0, dtype=np.int64)
    if x.shape != (problem.n,) or not np.all(np.isin(x, problem.xi)):
        raise ValueError("x0 must be a length-n vector with entries in xi")

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
        delta = config.delta0
        inner = 0
        while True:
            inst = replace(base, delta=delta)
            sol = _solve_subproblem(inst, config, cache)
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
    m_fine = fine_factor * n
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

# lags per kernel_mass evaluation: its (5, 32, 200) temporaries take 256 kB
# each, which the allocator reuses; blocks of 256 lags or the whole grid
# (33 MB each) built the problem more slowly, their pages faulted in afresh
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
    if fine_cells < 1:
        raise ValueError("fine_cells must be a positive integer")
    if fine_cells % n != 0:
        raise ValueError("n must divide the fine-grid size")
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

    def kernel_mass(s: np.ndarray) -> np.ndarray:
        """Integral of the kernel over (0, s] for s >= 0, elementwise."""
        z = (s[..., None] - mu) / sigma
        z0 = (0.0 - mu) / sigma
        phi = 0.5 * (1.0 + erf(z / np.sqrt(2.0)))
        phi0 = 0.5 * (1.0 + erf(z0 / np.sqrt(2.0)))
        return ((phi - phi0) * amp).sum(axis=-1)

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

    def forward(xv: np.ndarray) -> np.ndarray:
        xf = np.repeat(np.asarray(xv, dtype=np.float64), rep)
        return convolve(xf[None, :])

    def smooth_value(xv: np.ndarray) -> float:
        residual = forward(xv) - target
        return float(0.5 * np.sum(wq[:, None] * residual**2))

    def gradient_coeffs(xv: np.ndarray) -> np.ndarray:
        residual = forward(xv) - target
        z = wq[:, None] * residual
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


# stopping rule of solve_box_relaxation: the largest projected-gradient
# move, and the iteration limit
_RELAX_TOL = 1e-4
_RELAX_MAX_ITER = 500


def solve_box_relaxation(problem: ControlProblem) -> np.ndarray:
    """Projected gradient descent for the smooth part over the box hull of
    the admissible set (no switching penalty), with a backtracking step."""
    lo, hi = float(problem.xi[0]), float(problem.xi[-1])
    x = np.zeros(problem.n)
    fx = problem.smooth_value(x)
    step = 1.0
    for _ in range(_RELAX_MAX_ITER):
        g = problem.gradient_coeffs(x)
        if np.max(np.abs(x - np.clip(x - g, lo, hi))) <= _RELAX_TOL:
            break
        while True:
            x_new = np.clip(x - step * g, lo, hi)
            f_new = problem.smooth_value(x_new)
            if f_new <= fx - 1e-4 * float(g @ (x - x_new)) or step < 1e-12:
                break
            step *= 0.5
        if step < 1e-12:
            break
        x, fx = x_new, f_new
        step *= 1.5
    return x


def initial_iterate_heat(problem: ControlProblem, strategy: str) -> np.ndarray:
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
