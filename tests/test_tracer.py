"""The perfbench tracer wraps tripsolve functions under the module attribute
names their callers look them up with. A name that is deleted or moved must
fail here, not only in a traced benchmark run."""

import sys
from pathlib import Path

import tripsolve.slip

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402


def test_tracer_installs_and_restores_its_patch_points():
    solve_topo = tripsolve.slip.solve_topo
    with Tracer("t").installed():
        assert tripsolve.slip.solve_topo.__wrapped__ is solve_topo
    assert tripsolve.slip.solve_topo is solve_topo
