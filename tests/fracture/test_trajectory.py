"""Algorithm 1's trajectory on the mdp-ilt clips, pinned to a record.

The e2e ``mdp-ilt`` workload fractures ILT-1, ILT-3, ILT-5 and ILT-10
with the full method.  In their seed-0 frame (the built-in suite's own
grids) ILT-3, ILT-5 and ILT-10 must each give exactly the recorded shot
list, refinement iterations, priced candidates and portfolio runs;
ILT-1 is left out to keep the test near 5 s.  A change to how
Algorithm 1 is computed must keep all four; a change that means to move
the trajectory regenerates the record and says why::

    PYTHONPATH=src python tests/fracture/test_trajectory.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.shapes import ilt_suite
from repro.mask.constraints import FractureSpec
from repro.methods import make_fracturer
from repro.obs import recording
from repro.obs.recorder import NullRecorder

RECORD = Path(__file__).with_name("mdp_ilt_trajectory.json")
CLIPS = ("ILT-3", "ILT-5", "ILT-10")


class _Counts(NullRecorder):
    """Keeps counters and summed observations; spans stay no-ops."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.observed: dict[str, float] = {}

    def incr(self, name: str, value: int | float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        self.observed[name] = self.observed.get(name, 0.0) + value


def trajectory(shape) -> dict:
    counts = _Counts()
    with recording(counts):
        result = make_fracturer("ours").fracture(shape, FractureSpec())
    shots = json.dumps([shot.as_tuple() for shot in result.shots])
    return {
        "shots": len(result.shots),
        "shots_sha256": hashlib.sha256(shots.encode()).hexdigest(),
        "refine.iterations": int(counts.observed["refine.iterations"]),
        "refine.candidates_priced": counts.counters["refine.candidates_priced"],
        "pipeline.portfolio_runs": counts.counters["pipeline.portfolio_runs"],
    }


def _shapes() -> dict:
    return {shape.name: shape for shape in ilt_suite() if shape.name in CLIPS}


@pytest.mark.parametrize("clip", CLIPS)
def test_trajectory_matches_record(clip):
    record = json.loads(RECORD.read_text())
    assert trajectory(_shapes()[clip]) == record[clip]


if __name__ == "__main__":
    shapes = _shapes()
    RECORD.write_text(
        json.dumps({clip: trajectory(shapes[clip]) for clip in CLIPS}, indent=1)
        + "\n"
    )
    print(f"wrote {RECORD}")
