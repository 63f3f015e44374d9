"""The perfbench tracer wraps tripsolve functions under the module attribute
names their callers look them up with. A name that is deleted or moved must
fail here, not only in a traced benchmark run."""

import sys
from pathlib import Path

import tripsolve.astar
import tripsolve.slip
from tripsolve.oracle import gen_random

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402


def test_tracer_installs_and_restores_its_patch_points():
    solve_topo = tripsolve.slip.solve_topo
    with Tracer("t").installed():
        assert tripsolve.slip.solve_topo.__wrapped__ is solve_topo
    assert tripsolve.slip.solve_topo is solve_topo


def test_tracer_sees_the_relaxed_sweeps_under_the_multiplier_search(monkeypatch):
    # the multiplier search of this instance runs rounds and does not exit
    # early, so A* searches after several sweeps
    inst = gen_random(8, 3, 4, 0.4, seed=3)
    searches = []
    binary_search = tripsolve.astar.binary_search

    def logged(*args):
        searches.append(binary_search(*args))
        return searches[-1]

    monkeypatch.setattr(tripsolve.astar, "binary_search", logged)
    tracer = Tracer("t")
    with tracer.installed():
        sol = tripsolve.astar.solve_astar(inst)
    assert sol.stats.preprocessing_iterations > 0 and sol.stats.nodes_expanded > 0
    spans = tracer.spans
    sweeps = [s for s in spans if s.name == "lagrange.sweep"]
    # one sweep per evaluated multiplier: both bracket ends, then at most
    # two per round
    assert len(sweeps) == len(searches[0].zeta)
    assert 2 < len(sweeps) <= 2 + 2 * sol.stats.preprocessing_iterations
    assert all(spans[s.parent].name == "lagrange.bisect" for s in sweeps)
