"""Unit tests for the fault-tolerant tile execution layer.

Fast by construction: stub tiles and a stub inner fracturer make every
``run_tiles`` call a few milliseconds, so retry/backoff/fallback/store
logic is exercised without real fracturing.  Retries run without
backoff here: the module's ``BACKOFF_S`` is patched to zero.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro.fracture.runtime as runtime
from repro.fracture.cache import FractureCache
from repro.fracture.runtime import (
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    InjectedHang,
    RuntimePolicy,
    run_tiles,
)
from repro.geometry.raster import PixelGrid
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec
from repro.mask.shape import MaskShape


class StubTile:
    """Minimal tile: a name, a core and an accept-everything ownership rule."""

    def __init__(self, name: str, core: Rect):
        self.name = name
        self.core = core

    def owns(self, x: float, y: float) -> bool:
        return True


class StubInner:
    """Inner fracturer stub: one fixed shot per sub-shape."""

    name = "STUB"

    def fracture_shots(self, sub, spec):
        return [Rect(0.0, 0.0, 10.0, 10.0)]


#: A 2x2-pixel sub-shape: real enough for the store key, and the stub
#: inner ignores it.
SUB = MaskShape.from_mask(
    np.ones((2, 2), dtype=bool), PixelGrid(0.0, 0.0, 1.0, 2, 2)
)


def _jobs(n: int = 3, subs_per_tile: int = 1):
    return [
        (StubTile(f"t{i},0", Rect(10.0 * i, 0.0, 10.0 * i + 10.0, 10.0)),
         [SUB] * subs_per_tile)
        for i in range(n)
    ]


def _store(directory) -> FractureCache:
    """A fresh store over ``directory``: what a new process would open."""
    return FractureCache(persist_dir=directory)


def _entries(directory) -> dict[str, Path]:
    """The stored tile entry files, by tile name."""
    return {
        json.loads(path.read_text())["tile"]: path
        for path in directory.glob("*.json")
    }


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(runtime, "BACKOFF_S", 0.0)


@pytest.fixture
def stub_fallback(monkeypatch):
    """The degradation ladder's terminal, replaced by one fixed shot."""
    monkeypatch.setattr(
        runtime, "partition_fallback",
        lambda tile, subs, spec: [Rect(1.0, 1.0, 2.0, 2.0)],
    )


SPEC = FractureSpec()


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self, monkeypatch):
        monkeypatch.setattr(runtime, "BACKOFF_S", 0.1)
        monkeypatch.setattr(runtime, "BACKOFF_FACTOR", 2.0)
        monkeypatch.setattr(runtime, "BACKOFF_CAP_S", 0.3)
        assert runtime.backoff(1) == pytest.approx(0.1)
        assert runtime.backoff(2) == pytest.approx(0.2)
        assert runtime.backoff(3) == pytest.approx(0.3)  # capped
        assert runtime.backoff(10) == pytest.approx(0.3)


class TestFaultPlan:
    def test_parse_variants(self):
        plan = FaultPlan.parse(["t0,0:crash", "t1,2:raise:2", "t2,0:hang"])
        assert plan.faults["t0,0"] == FaultSpec("crash", 1)
        assert plan.faults["t1,2"] == FaultSpec("raise", 2)
        assert plan.faults["t2,0"] == FaultSpec("hang", 1)

    @pytest.mark.parametrize("bad", ["", "t0,0", "t0,0:explode", ":crash"])
    def test_parse_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse([bad])

    def test_seeded_is_deterministic(self):
        names = [f"t{i},0" for i in range(20)]
        a = FaultPlan.seeded(names, seed=7, fraction=0.4)
        b = FaultPlan.seeded(names, seed=7, fraction=0.4)
        assert a.faults == b.faults
        assert set(a.faults) <= set(names)

    def test_fire_arms_per_attempt(self):
        plan = FaultPlan(faults={"t0,0": FaultSpec("raise", 2)})
        with pytest.raises(InjectedFault):
            plan.fire("t0,0", attempt=1, inline=True)
        with pytest.raises(InjectedFault):
            plan.fire("t0,0", attempt=2, inline=True)
        plan.fire("t0,0", attempt=3, inline=True)  # disarmed
        plan.fire("t9,9", attempt=1, inline=True)  # unnamed tile: no-op

    def test_inline_crash_and_hang_are_simulated(self):
        plan = FaultPlan(faults={"a": FaultSpec("crash"), "b": FaultSpec("hang")})
        with pytest.raises(InjectedCrash):
            plan.fire("a", attempt=1, inline=True)
        with pytest.raises(InjectedHang):
            plan.fire("b", attempt=1, inline=True)


class TestTileStore:
    class OddInner(StubInner):
        """Shots whose coordinates are not short decimals."""

        def fracture_shots(self, sub, spec):
            return [Rect(0.25, 0.1 + 0.2, 10.125, 20.0625)]

    def test_roundtrip_replays_exact_shots(self, tmp_path):
        first, _ = run_tiles(
            _jobs(3), inner=self.OddInner(), spec=SPEC,
            policy=RuntimePolicy(
                fault_plan=FaultPlan(faults={"t0,0": FaultSpec("raise", 1)}),
                store=_store(tmp_path),
            ),
        )
        entry = json.loads(_entries(tmp_path)["t0,0"].read_text())
        assert set(entry) == {"tile", "shots", "attempts", "trace_id"}
        replayed, stats = run_tiles(
            _jobs(3), inner=self.OddInner(), spec=SPEC,
            policy=RuntimePolicy(store=_store(tmp_path)),
        )
        assert stats.tiles_replayed == 3
        assert all(o.replayed for o in replayed)
        assert [o.shots for o in replayed] == [o.shots for o in first]
        assert replayed[0].shots == [Rect(0.25, 0.1 + 0.2, 10.125, 20.0625)]
        assert [o.attempts for o in replayed] == [2, 1, 1]

    def test_fallback_tile_is_not_stored(self, tmp_path, stub_fallback):
        """A store can be shared across runs: a stored fallback would
        poison later fault-free runs, so fallback tiles are attempted
        again instead."""
        outcomes, _ = run_tiles(
            _jobs(3), inner=StubInner(), spec=SPEC,
            policy=RuntimePolicy(
                max_attempts=2,
                fault_plan=FaultPlan(faults={"t1,0": FaultSpec("raise", 99)}),
                store=_store(tmp_path),
            ),
        )
        assert outcomes[1].fallback
        assert set(_entries(tmp_path)) == {"t0,0", "t2,0"}
        again, stats = run_tiles(
            _jobs(3), inner=StubInner(), spec=SPEC,
            policy=RuntimePolicy(store=_store(tmp_path)),
        )
        assert stats.tiles_replayed == 2
        assert not again[1].replayed and not again[1].fallback
        assert again[1].shots == [Rect(0.0, 0.0, 10.0, 10.0)]

    def test_torn_entry_quarantined_and_recomputed(self, tmp_path):
        """A torn tile entry (crash mid-write, truncation) is quarantined
        and its tile recomputed, bit-identically."""
        first, _ = run_tiles(
            _jobs(3), inner=self.OddInner(), spec=SPEC,
            policy=RuntimePolicy(store=_store(tmp_path)),
        )
        torn = _entries(tmp_path)["t1,0"]
        torn.write_text(torn.read_text()[:25])
        store = _store(tmp_path)
        again, stats = run_tiles(
            _jobs(3), inner=self.OddInner(), spec=SPEC,
            policy=RuntimePolicy(store=store),
        )
        assert [o.shots for o in again] == [o.shots for o in first]
        assert stats.tiles_replayed == 2 and not again[1].replayed
        assert store.corrupt_quarantined == 1
        assert torn.with_suffix(".json.bad").exists()
        assert json.loads(torn.read_text())["tile"] == "t1,0"  # refilled

    def test_changed_input_gets_no_replay(self, tmp_path):
        """The key holds every input of a tile and nothing else: change
        any one and nothing stale replays."""
        run_tiles(_jobs(3), inner=StubInner(), spec=SPEC,
                  policy=RuntimePolicy(store=_store(tmp_path)))

        class Renamed(StubInner):
            name = "OTHER"

        moved = [(StubTile(t.name, t.core.translated(1.0, 0.0)), subs)
                 for t, subs in _jobs(3)]
        other_sub = MaskShape.from_mask(
            np.array([[True, True], [True, False]]), SUB.grid
        )
        changed = {
            "spec": dict(spec=FractureSpec(gamma=3.0)),
            "method": dict(inner=Renamed()),
            "core": dict(jobs=moved),
            "mask": dict(jobs=[(t, [other_sub]) for t, _ in _jobs(3)]),
        }
        for what, overrides in changed.items():
            kwargs = dict(jobs=_jobs(3), inner=StubInner(), spec=SPEC,
                          policy=RuntimePolicy(store=_store(tmp_path)))
            kwargs.update(overrides)
            _, stats = run_tiles(kwargs.pop("jobs"), **kwargs)
            assert stats.tiles_replayed == 0, what
        # A sub-shape's name is not an input.
        renamed = MaskShape.from_mask(SUB.inside, SUB.grid, name="other")
        _, stats = run_tiles([(t, [renamed]) for t, _ in _jobs(3)],
                             inner=StubInner(), spec=SPEC,
                             policy=RuntimePolicy(store=_store(tmp_path)))
        assert stats.tiles_replayed == 3


class TestRunTilesSerial:
    def test_clean_run_in_job_order(self):
        outcomes, stats = run_tiles(_jobs(3), inner=StubInner(), spec=SPEC)
        assert [o.tile_name for o in outcomes] == ["t0,0", "t1,0", "t2,0"]
        assert all(o.ok and not o.fallback for o in outcomes)
        assert stats.as_dict() == {
            "tile_retries": 0, "tile_timeouts": 0, "pool_respawns": 0,
            "tile_fallbacks": 0, "tiles_replayed": 0,
        }

    def test_injected_raise_is_retried_then_succeeds(self):
        outcomes, stats = run_tiles(
            _jobs(3), inner=StubInner(), spec=SPEC,
            policy=RuntimePolicy(
                fault_plan=FaultPlan(faults={"t1,0": FaultSpec("raise", 1)}),
            ),
        )
        assert all(o.ok and not o.fallback for o in outcomes)
        assert outcomes[1].attempts == 2
        assert stats.tile_retries == 1

    def test_inline_hang_counts_as_timeout(self):
        outcomes, stats = run_tiles(
            _jobs(2), inner=StubInner(), spec=SPEC,
            policy=RuntimePolicy(
                fault_plan=FaultPlan(faults={"t0,0": FaultSpec("hang", 1)}),
            ),
        )
        assert all(o.ok for o in outcomes)
        assert stats.tile_timeouts == 1
        assert stats.tile_retries == 1

    def test_exhausted_retries_degrade_to_fallback(self, stub_fallback):
        outcomes, stats = run_tiles(
            _jobs(3, subs_per_tile=2), inner=StubInner(), spec=SPEC,
            policy=RuntimePolicy(
                max_attempts=2,
                fault_plan=FaultPlan(faults={"t2,0": FaultSpec("raise", 99)}),
            ),
        )
        assert outcomes[2].fallback
        assert outcomes[2].shots == [Rect(1.0, 1.0, 2.0, 2.0)]
        # The enriched error keeps tile identity and sub-shape count.
        assert "t2,0" in outcomes[2].error
        assert "2 sub-shapes" in outcomes[2].error
        assert stats.tile_fallbacks == 1
        assert stats.tile_retries == 1
        # The healthy tiles are untouched.
        assert not outcomes[0].fallback and not outcomes[1].fallback

    def test_zero_retries_goes_straight_to_fallback(self, stub_fallback):
        outcomes, stats = run_tiles(
            _jobs(1), inner=StubInner(), spec=SPEC,
            policy=RuntimePolicy(
                max_attempts=1,
                fault_plan=FaultPlan(faults={"t0,0": FaultSpec("raise", 1)}),
            ),
        )
        assert outcomes[0].fallback
        assert stats.tile_retries == 0

    def test_journal_resume_skips_completed_tiles(self, tmp_path):
        first, _ = run_tiles(
            _jobs(3), inner=StubInner(), spec=SPEC,
            policy=RuntimePolicy(store=_store(tmp_path)),
        )
        # Interrupted before the last tile settled: its entry is missing.
        _entries(tmp_path)["t2,0"].unlink()
        second, stats = run_tiles(
            _jobs(3), inner=StubInner(), spec=SPEC,
            policy=RuntimePolicy(store=_store(tmp_path)),
        )
        assert stats.tiles_replayed == 2
        assert [o.shots for o in second] == [o.shots for o in first]
        assert [o.replayed for o in second] == [True, True, False]

    def test_outcome_record_shape(self):
        outcomes, _stats = run_tiles(_jobs(1), inner=StubInner(), spec=SPEC)
        record = outcomes[0].to_record()
        assert record == {
            "tile": "t0,0", "ok": True, "attempts": 1, "shots": 1,
            "fallback": False, "replayed": False,
        }


class TestProgressTelemetry:
    def test_progress_events_count_up_with_eta(self):
        import repro.obs as obs

        rec = obs.TelemetryRecorder()
        with obs.recording(rec):
            run_tiles(_jobs(4), inner=StubInner(), spec=SPEC)
        progress = [e for e in rec.events if e["name"] == "progress"]
        assert [e["tiles_done"] for e in progress] == [1, 2, 3, 4]
        assert all(e["tiles_total"] == 4 for e in progress)
        assert progress[-1]["shots"] == 4
        assert progress[-1]["tile_wall_ewma_s"] >= 0.0
        # The last tile has nothing remaining, so no ETA; earlier ones
        # carry a non-negative estimate.
        assert "eta_s" not in progress[-1]
        assert all(e["eta_s"] >= 0.0 for e in progress[:-1])
        assert rec.gauges["windowed.tiles_done"] == 4
        assert rec.gauges["windowed.shots_done"] == 4

    def test_replayed_tiles_count_as_done_up_front(self, tmp_path):
        import repro.obs as obs

        run_tiles(_jobs(4), inner=StubInner(), spec=SPEC,
                  policy=RuntimePolicy(store=_store(tmp_path)))
        _entries(tmp_path)["t3,0"].unlink()  # interrupted before t3,0
        rec = obs.TelemetryRecorder()
        with obs.recording(rec):
            run_tiles(_jobs(4), inner=StubInner(), spec=SPEC,
                      policy=RuntimePolicy(store=_store(tmp_path)))
        progress = [e for e in rec.events if e["name"] == "progress"]
        # Only the one fresh tile produces a progress event, starting
        # from the replayed baseline of 3.
        assert [e["tiles_done"] for e in progress] == [4]

    def test_fallback_tiles_still_advance_progress(self, stub_fallback):
        import repro.obs as obs

        rec = obs.TelemetryRecorder()
        with obs.recording(rec):
            run_tiles(
                _jobs(2), inner=StubInner(), spec=SPEC,
                policy=RuntimePolicy(
                    max_attempts=1,
                    fault_plan=FaultPlan(faults={"t0,0": FaultSpec("raise", 1)}),
                ),
            )
        progress = [e for e in rec.events if e["name"] == "progress"]
        assert [e["tiles_done"] for e in progress] == [1, 2]


class TestHeartbeatIntegration:
    def test_pooled_outcomes_carry_worker_pid(self):
        import os

        outcomes, _stats = run_tiles(
            _jobs(4), inner=StubInner(), spec=SPEC, workers=2,
        )
        pids = {o.worker_pid for o in outcomes}
        assert None not in pids
        assert os.getpid() not in pids  # pool workers, not the parent
        assert all("worker_pid" in o.to_record() for o in outcomes)

    def test_heartbeats_fold_into_events_and_gauges(self):
        import time

        import repro.obs as obs

        class SlowInner(StubInner):
            def fracture_shots(self, sub, spec):
                time.sleep(0.05)
                return super().fracture_shots(sub, spec)

        rec = obs.TelemetryRecorder()
        with obs.recording(rec):
            outcomes, _stats = run_tiles(
                _jobs(8), inner=SlowInner(), spec=SPEC, workers=2,
                policy=RuntimePolicy(heartbeat_s=0.05),
            )
        assert all(o.ok for o in outcomes)
        beats = [e for e in rec.events if e["name"] == "worker_heartbeat"]
        assert beats, "heartbeat events must reach the parent recorder"
        assert all("rss_bytes" in b and "cpu_s" in b for b in beats)
        assert rec.gauges.get("windowed.workers_alive", 0) >= 1

    def test_hang_is_flagged_as_slow_task_before_deadline(self):
        import repro.obs as obs

        rec = obs.TelemetryRecorder()
        with obs.recording(rec):
            outcomes, stats = run_tiles(
                _jobs(3), inner=StubInner(), spec=SPEC, workers=2,
                policy=RuntimePolicy(
                    tile_deadline_s=2.0,
                    fault_plan=FaultPlan(
                        faults={"t1,0": FaultSpec("hang", 1)}, hang_s=60.0
                    ),
                    heartbeat_s=0.1,
                ),
            )
        assert all(o.ok for o in outcomes)
        assert stats.tile_timeouts == 1
        stalls = [e for e in rec.events if e["name"] == "worker_stalled"]
        # The stall alarm fires at half the deadline — before the
        # deadline kill rescues the tile.
        assert stalls and stalls[0]["kind"] == "slow_task"
        assert stalls[0]["tile"] == "t1,0"
        assert stalls[0]["age_s"] < 2.0
        assert rec.counters["windowed.worker_stalls"] >= 1

    def test_merged_shots_identical_with_and_without_observability(
        self, tmp_path
    ):
        import repro.obs as obs

        baseline, _ = run_tiles(_jobs(6), inner=StubInner(), spec=SPEC)
        stream = obs.TelemetryStream(tmp_path / "s.jsonl")
        rec = obs.TelemetryRecorder(stream=stream)
        with obs.recording(rec):
            observed, _ = run_tiles(
                _jobs(6), inner=StubInner(), spec=SPEC, workers=2,
                policy=RuntimePolicy(heartbeat_s=0.05),
            )
        stream.close()
        assert [o.shots for o in observed] == [o.shots for o in baseline]
