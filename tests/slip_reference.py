"""Reference builders for the tests: make_heat_problem and
make_signal_problem as they were before their assembly was written in whole
arrays.

The heat builder assembles its loads cell by cell, one hat-function piece at
a time, and the signal builder integrates its kernel at the two ends of
every lag and convolves one quadrature row at a time. The builders in
tripsolve.slip must reproduce smooth_value and gradient_coeffs of these bit
for bit.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import solveh_banded
from scipy.signal import fftconvolve
from scipy.special import erf

from tripsolve.slip import ControlProblem

_HEAT_JUMP = 0.05
_HEAT_EPS_LO = 0.1
_HEAT_EPS_HI = 10.0


def _heat_pieces(lo: float, hi: float) -> list[tuple[float, float]]:
    if lo < _HEAT_JUMP < hi:
        return [(lo, _HEAT_JUMP), (_HEAT_JUMP, hi)]
    return [(lo, hi)]


def _heat_eps(t: float) -> float:
    return _HEAT_EPS_LO if t < _HEAT_JUMP else _HEAT_EPS_HI


def make_heat_problem_reference(n: int, fine_factor: int = 4) -> ControlProblem:
    m_fine = fine_factor * n
    h = 2.0 / m_fine
    cell_left = -1.0 + h * np.arange(m_fine)

    band = np.zeros((2, m_fine - 1))
    band[0, 1:] = -1.0 / h**2
    band[1, :] = 2.0 / h**2

    lw = np.zeros(m_fine)
    rw = np.zeros(m_fine)
    fl = np.zeros(m_fine)
    fr = np.zeros(m_fine)
    glx, glw = leggauss(8)
    for k in range(m_fine):
        a, b = cell_left[k], cell_left[k] + h
        for lo, hi in _heat_pieces(a, b):
            if hi <= lo:
                continue
            eps = _heat_eps(0.5 * (lo + hi))
            width = hi - lo
            lw[k] += ((b - lo) + (b - hi)) * 0.5 * width / h / eps
            rw[k] += ((lo - a) + (hi - a)) * 0.5 * width / h / eps
            s = 0.5 * width * glx + 0.5 * (lo + hi)
            w = 0.5 * width * glw
            fv = np.exp(-((s + 0.4) ** 2)) / eps
            fl[k] += np.sum(w * fv * (b - s) / h)
            fr[k] += np.sum(w * fv * (s - a) / h)
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


def make_signal_problem_reference(
    n: int, seed: int, fine_cells: int = 4096
) -> ControlProblem:
    m_fine = fine_cells
    h = 1.0 / m_fine
    rep = m_fine // n

    rng = np.random.default_rng(seed)
    amp = rng.random(200)
    mu = rng.uniform(-2.0, 3.0, 200)
    sigma = rng.exponential(1.0, 200)

    glx, glw = leggauss(5)
    offs = (glx + 1.0) * 0.5 * h
    wq = glw * 0.5 * h

    def kernel_mass(s: np.ndarray) -> np.ndarray:
        z = (s[..., None] - mu) / sigma
        z0 = (0.0 - mu) / sigma
        phi = 0.5 * (1.0 + erf(z / np.sqrt(2.0)))
        phi0 = 0.5 * (1.0 + erf(z0 / np.sqrt(2.0)))
        return ((phi - phi0) * amp).sum(axis=-1)

    lags = np.arange(m_fine, dtype=np.float64)
    hi = lags[None, :] * h + offs[:, None]
    lo = np.maximum(0.0, (lags[None, :] - 1.0) * h + offs[:, None])
    lag_kernel = kernel_mass(hi) - kernel_mass(lo)

    t_nodes = lags[None, :] * h + offs[:, None]
    target = 5.0 * np.sin(4.0 * np.pi * t_nodes) + 10.0

    def forward(xv: np.ndarray) -> np.ndarray:
        xf = np.repeat(np.asarray(xv, dtype=np.float64), rep)
        return np.stack(
            [fftconvolve(xf, lag_kernel[q])[:m_fine] for q in range(5)]
        )

    def smooth_value(xv: np.ndarray) -> float:
        residual = forward(xv) - target
        return float(0.5 * np.sum(wq[:, None] * residual**2))

    def gradient_coeffs(xv: np.ndarray) -> np.ndarray:
        residual = forward(xv) - target
        g_fine = np.zeros(m_fine)
        for q in range(5):
            z = wq[q] * residual[q]
            g_fine += fftconvolve(z[::-1], lag_kernel[q])[:m_fine][::-1]
        return g_fine.reshape(n, rep).sum(axis=1)

    return ControlProblem(
        name="signal",
        n=n,
        xi=np.arange(-5, 6, dtype=np.int64),
        gamma=np.ones(n, dtype=np.int64),
        smooth_value=smooth_value,
        gradient_coeffs=gradient_coeffs,
    )
