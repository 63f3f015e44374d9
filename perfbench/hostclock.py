"""A clock that reads in seconds of a host running at a reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.7x within minutes, as other tenants load its caches and memory;
CPU time drifts with wall time, so neither clock removes it. The clock
therefore times a fixed probe, a few milliseconds of the same kind of work
the workload does, at most every PROBE_EVERY_S seconds, between solver
calls, and scales every stretch of time it measures by the probe's
reference time over the probe time in force, the median of the last three
probes. The probe is part of the benchmark, not of the package, so a change
to the package changes the scaled times by the same share as the measured
ones; the host's drift cancels. Time spent probing is left out of every
figure.

Work whose data stays in a core's own caches and work that streams through
the shared cache slow down by different shares, so each workload names the
probe that resembles its work.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

PROBE_EVERY_S = 0.25
PROBE_WINDOW = 3


@dataclass(frozen=True)
class Probe:
    work: Callable[[], None]
    # the probe's time on the reference host; scaled times read as seconds there
    ref_s: float


def _compute_work() -> None:
    x = np.arange(64.0)
    for _ in range(200):
        x = np.minimum(x + 1.0, x[::-1] * 0.5)
        x.sum()
    total = 0
    for i in range(20000):
        total += i * i


_rng = np.random.default_rng(0)
_COST = _rng.random((97, 161))
_WEIGHT = _rng.random((97, 97))


def _sweep_work() -> None:
    (_COST[None, :, :] + _WEIGHT.T[:, :, None]).min(axis=1)


def _mixed_work() -> None:
    _compute_work()
    _sweep_work()


# small numpy operations and an interpreted loop, all in a core's own
# caches: the slip workloads' subproblems are small
COMPUTE_PROBE = Probe(_compute_work, 2.0e-3)
# the same plus one min-plus layer sweep of solve_topo at the replay's
# largest size (97 values, 161 budget levels), whose 12 MB temporary
# streams through the shared cache. Over nine identical replay passes
# measured at 23.0 to 31.0 s, scaling by this mix held the pass time within
# 8%, by the compute part alone within 15%, by the sweep alone within 15%.
MIXED_PROBE = Probe(_mixed_work, 6.0e-3)


class HostClock:
    def __init__(self, probe: Probe, probe_every_s: float = PROBE_EVERY_S) -> None:
        self.probe = probe
        self.probe_every_s = probe_every_s
        self.probes: list[float] = []
        self.factor = 1.0
        self.raw = 0.0
        self.scaled = 0.0
        self._start = perf_counter()
        self.recalibrate()

    def recalibrate(self) -> None:
        """Set the scale factor from fresh probes alone."""
        self._close()
        for _ in range(PROBE_WINDOW):
            self._probe()

    def _probe(self) -> float:
        t0 = perf_counter()
        self.probe.work()
        self._start = self._probed_at = perf_counter()
        self.probes.append(self._start - t0)
        self.factor = self.probe.ref_s / statistics.median(self.probes[-PROBE_WINDOW:])
        return self._start - t0

    def _close(self) -> None:
        now = perf_counter()
        self.raw += now - self._start
        self.scaled += (now - self._start) * self.factor
        self._start = now

    def read(self) -> tuple[float, float]:
        """Seconds since the clock was made, probes left out: as measured,
        and scaled to the reference speed."""
        self._close()
        return self.raw, self.scaled

    def tick(self) -> float:
        """Probe the host if a probe is due; the seconds spent probing."""
        self._close()
        if self._start - self._probed_at < self.probe_every_s:
            return 0.0
        return self._probe()

    def probe_ms(self) -> float:
        """Median probe time so far, in ms: the host's speed, unscaled."""
        return 1e3 * statistics.median(self.probes)
