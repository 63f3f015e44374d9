"""Spans around the calls into tripsolve's modules, made from outside.

Nothing in the package is edited: each public function is replaced, for
the length of one traced pass, by a wrapper under the name its caller looks
it up with, and the control-problem callables are wrapped with
``dataclasses.replace``. Spans (name, start, end, parent, run id) stay in
memory and are written out once the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Optional

import tripsolve.astar
import tripsolve.cli
import tripsolve.instance
import tripsolve.lagrange
import tripsolve.slip

# Exact counters: they depend only on the inputs and the algorithm, so two
# traced passes over the same inputs must report the same values.
EXACT_COUNTERS = ("topo.states", "lagrange.sweeps", "astar.expanded", "astar.generated")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str


@contextmanager
def patched(replacements: list[tuple[object, str, object]]) -> Iterator[None]:
    """Set module attributes for the duration of the block, then restore
    the originals."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.peaks: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def wrap_problem(self, problem):
        return dataclasses.replace(
            problem,
            smooth_value=self.wrap("slip.value", problem.smooth_value),
            gradient_coeffs=self.wrap("slip.gradient", problem.gradient_coeffs),
        )

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every public function a workload reaches, where its caller
        looks it up."""
        slip, cli = tripsolve.slip, tripsolve.cli
        astar, lagrange, instance = tripsolve.astar, tripsolve.lagrange, tripsolve.instance
        table = [
            (slip, "solve_topo", "topo.solve", _count_topo),
            (cli, "solve_topo", "topo.solve", _count_topo),
            (slip, "solve_astar", "astar.solve", _count_astar),
            (cli, "solve_astar", "astar.solve", _count_astar),
            (astar, "binary_search", "lagrange.bisect", _count_bisect),
            (astar, "heuristic_table", "lagrange.htable", _count_table),
            (lagrange, "relaxed_costs_to_sink", "lagrange.sweep", None),
            # run_slip and read_trace_instances validate through slip's
            # name; cmd_bench's workers import it from instance at call time
            (slip, "validate", "instance.validate", None),
            (instance, "validate", "instance.validate", None),
            (cli, "read_trace_instances", "cli.read_trace", None),
        ]
        with patched(
            [
                (owner, attr, self.wrap(name, getattr(owner, attr), hook))
                for owner, attr, name, hook in table
            ]
        ):
            yield

    def write(self, fh) -> None:
        for index, s in enumerate(self.spans):
            fh.write(
                json.dumps(
                    {
                        "id": index,
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        "parent": s.parent,
                        "run": s.run_id,
                    }
                )
                + "\n"
            )

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter[str]]:
        """Per span name: summed duration, summed self time (duration minus
        the direct children) and call count."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        duration: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for index, s in enumerate(self.spans):
            duration[s.name] += s.end - s.start
            self_time[s.name] += s.end - s.start - child[index]
            calls[s.name] += 1
        return duration, self_time, calls


def _count_topo(tracer: Tracer, args: tuple, sol) -> None:
    tracer.counts["topo.states"] += sol.stats.nodes_expanded


def _count_astar(tracer: Tracer, args: tuple, sol) -> None:
    tracer.counts["astar.expanded"] += sol.stats.nodes_expanded
    tracer.counts["astar.generated"] += sol.stats.nodes_generated


def _count_bisect(tracer: Tracer, args: tuple, tables) -> None:
    if tables.early_exit is not None:
        tracer.counts["lagrange.early_exits"] += 1


def _count_table(tracer: Tracer, args: tuple, table) -> None:
    # n * m * (delta + 1) float64 entries
    tracer.peaks["lagrange.htable_bytes"] = max(
        tracer.peaks.get("lagrange.htable_bytes", 0), table.nbytes
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, reference_topo_states: int = 0) -> dict[str, float]:
    """Per-layer figures of one traced pass. Times are in seconds unless
    the name says otherwise; a layer the workload never reaches reads 0.

    reference_topo_states stands in for topo.states in astar.expanded_frac
    when the pass itself runs no topo solve on the same subproblems.
    """
    dur, own, calls = tracer.totals()
    c = tracer.counts
    astar_calls = calls["astar.solve"]
    sweeps = calls["lagrange.sweep"]
    topo_states = c["topo.states"] or reference_topo_states
    return {
        "topo.calls": calls["topo.solve"],
        "topo.solve_s": dur["topo.solve"],
        "topo.states": c["topo.states"],
        "topo.states_per_s": _ratio(c["topo.states"], dur["topo.solve"]),
        "lagrange.bisect_s": dur["lagrange.bisect"],
        "lagrange.sweeps": sweeps,
        "lagrange.sweep_ms": 1e3 * _ratio(dur["lagrange.sweep"], sweeps),
        "lagrange.sweeps_per_solve": _ratio(sweeps, astar_calls),
        "lagrange.early_exit_frac": _ratio(c["lagrange.early_exits"], astar_calls),
        "lagrange.htable_s": dur["lagrange.htable"],
        "lagrange.htable_mb": tracer.peaks.get("lagrange.htable_bytes", 0) / 1e6,
        "astar.calls": astar_calls,
        "astar.solve_s": dur["astar.solve"],
        "astar.search_s": own["astar.solve"],
        "astar.expanded": c["astar.expanded"],
        "astar.generated": c["astar.generated"],
        "astar.expanded_frac": _ratio(c["astar.expanded"], topo_states),
        "slip.gradient_calls": calls["slip.gradient"],
        "slip.gradient_s": dur["slip.gradient"],
        "slip.value_calls": calls["slip.value"],
        "slip.value_s": dur["slip.value"],
        "slip.loop_self_s": own["slip.run_slip"],
        "instance.validate_calls": calls["instance.validate"],
        "instance.validate_s": dur["instance.validate"],
        "cli.trace_read_s": own["cli.read_trace"],
        "cli.bench_self_s": own["cli.main"],
    }


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time summed per module (the span-name prefix)."""
    _, own, _ = tracer.totals()
    out: dict[str, float] = defaultdict(float)
    for name, seconds in own.items():
        out[name.split(".", 1)[0]] += seconds
    return dict(out)
