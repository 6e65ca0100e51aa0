"""Unit tests for the fault-tolerant tile execution layer.

Fast by construction: stub tiles and a stub inner fracturer make every
``run_tiles`` call a few milliseconds, so retry/backoff/fallback/store
logic is exercised without real fracturing.  Retries run without
backoff here: the module's ``BACKOFF_S`` is patched to zero.
"""

import json
import multiprocessing
import os
import signal
import struct
import threading
import time
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


def _named_jobs(*names: str):
    """One stub tile per name, over one sub-shape of that name."""
    return [
        (tile, [MaskShape.from_mask(SUB.inside, SUB.grid, name=name)])
        for (tile, _subs), name in zip(_jobs(len(names)), names)
    ]


class LoggedInner(StubInner):
    """Stub inner that appends each sub-shape's name to ``log`` as it
    starts fracturing it, then sleeps ``pauses[name]`` seconds."""

    def __init__(self, log: str, pauses: dict[str, float]):
        self.log = log
        self.pauses = pauses

    def fracture_shots(self, sub, spec):
        with open(self.log, "a") as out:
            out.write(sub.name + "\n")
        time.sleep(self.pauses.get(sub.name, 0.0))
        return super().fracture_shots(sub, spec)


def _runs(log: Path, name: str) -> int:
    """How many times a ``LoggedInner`` started sub-shape ``name``."""
    return log.read_text().split().count(name)


class ShotInner(StubInner):
    """Stub inner whose one shot per sub-shape is ``shot``."""

    def __init__(self, shot):
        self.shot = shot

    def fracture_shots(self, sub, spec):
        return [self.shot]


def _refused_in(parent: int):
    if os.getpid() == parent:
        raise ValueError("this shot cannot be read here")
    return Unreadable(parent)


class Unreadable:
    """A shot its worker pickles and the process ``parent`` cannot unpickle."""

    center = Rect(0.0, 0.0, 10.0, 10.0).center

    def __init__(self, parent: int):
        self.parent = parent

    def __reduce__(self):
        return (_refused_in, (self.parent,))


class Unsendable:
    """A shot that cannot be pickled."""

    center = Rect(0.0, 0.0, 10.0, 10.0).center

    def __reduce__(self):
        raise TypeError("this shot cannot be sent")


class OrphanInner(StubInner):
    """Stub inner whose ``orphan`` sub-shape, fractured in a pool worker
    while the ``armed`` marker file exists, forks a child that keeps the
    worker's end of its pipe open for a minute, writes ``"PID TIME"`` of
    that child and the moment to ``holder`` and exits the worker at once:
    the worker dies and its pipe reports no EOF."""

    def __init__(self, armed: str, holder: str):
        self.armed = armed
        self.holder = holder

    def fracture_shots(self, sub, spec):
        if sub.name == "orphan" and os.path.exists(self.armed):
            os.unlink(self.armed)
            pid = os.fork()
            if pid == 0:
                time.sleep(60.0)
                os._exit(0)
            Path(self.holder).write_text(f"{pid} {time.time()}")
            os._exit(13)
        return super().fracture_shots(sub, spec)


class TestExactAttribution:
    """Each worker holds one attempt, so a worker's death or overrun is
    charged to the attempt it held and costs no other job anything."""

    def test_crash_leaves_the_other_workers_job_alone(self, tmp_path):
        import repro.obs as obs

        log = tmp_path / "runs"
        rec = obs.TelemetryRecorder()
        with obs.recording(rec):
            outcomes, stats = run_tiles(
                _named_jobs("a", "b"),
                inner=LoggedInner(str(log), {"b": 0.5}), spec=SPEC,
                workers=2,
                policy=RuntimePolicy(
                    fault_plan=FaultPlan(faults={"t0,0": FaultSpec("crash")}),
                ),
            )
        assert [o.attempts for o in outcomes] == [2, 1]
        assert _runs(log, "b") == 1
        retried = [
            (e["tile"], e["kind"]) for e in rec.events
            if e["name"] == "tile_retry"
        ]
        assert retried == [("t0,0", "crash")]
        assert stats.pool_respawns == 1

    def test_deadline_kill_leaves_the_other_workers_job_alone(self, tmp_path):
        """``hung`` overruns its deadline while ``b`` runs on the other
        worker (from 1.0 s to 2.5 s; the kill comes at 2.0 s): only the
        overdue worker is killed, and ``b`` runs once."""
        log = tmp_path / "runs"
        outcomes, stats = run_tiles(
            _named_jobs("hung", "a", "b"),
            inner=LoggedInner(str(log), {"a": 1.0, "b": 1.5}), spec=SPEC,
            workers=2,
            policy=RuntimePolicy(
                tile_deadline_s=2.0,
                fault_plan=FaultPlan(
                    faults={"t0,0": FaultSpec("hang")}, hang_s=60.0
                ),
            ),
        )
        assert [o.attempts for o in outcomes] == [2, 1, 1]
        assert _runs(log, "b") == 1
        assert (stats.tile_timeouts, stats.pool_respawns) == (1, 1)

    @pytest.mark.parametrize("shot", ["unreadable", "unsendable"])
    def test_result_that_cannot_cross_the_pipe_is_an_error(
        self, shot, stub_fallback
    ):
        """A result the parent cannot unpickle, or the worker cannot
        pickle, fails its attempt as an error; the worker lives on."""
        made = Unreadable(os.getpid()) if shot == "unreadable" else Unsendable()
        outcomes, stats = run_tiles(
            _jobs(4), inner=ShotInner(made), spec=SPEC, workers=2,
        )
        assert all(o.fallback for o in outcomes)
        for outcome in outcomes:
            assert outcome.tile_name in outcome.error
            assert "result unavailable" in outcome.error
        assert (stats.tile_retries, stats.pool_respawns) == (8, 0)

    def test_many_workers_and_crashes_charge_each_crash_once(
        self, monkeypatch
    ):
        """More workers than cores, a crash on a seeded third of the
        jobs and a short switch interval for the reader threads: every
        job settles once, in order, and only the crashed jobs retry,
        each crash costing one replaced worker of a budget of exactly
        that many."""
        import sys

        jobs = _jobs(40)
        names = [tile.name for tile, _subs in jobs]
        plan = FaultPlan.seeded(names, seed=3, action="crash", fraction=0.3)
        monkeypatch.setattr(runtime, "MAX_POOL_RESPAWNS", len(plan.faults))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            outcomes, stats = run_tiles(
                jobs, inner=StubInner(), spec=SPEC, workers=4,
                policy=RuntimePolicy(fault_plan=plan),
            )
        finally:
            sys.setswitchinterval(interval)
        assert plan.faults
        assert [o.tile_name for o in outcomes] == names
        assert [o.attempts for o in outcomes] == [
            2 if name in plan.faults else 1 for name in names
        ]
        assert not any(o.fallback for o in outcomes)
        crashed = len(plan.faults)
        assert (stats.tile_retries, stats.pool_respawns) == (crashed, crashed)

    def test_worker_death_without_eof_is_a_crash(self, tmp_path):
        """Another process holds the dead worker's end of its pipe, so
        no EOF comes: the exit-code probe still charges the crash within
        about a second."""
        import repro.obs as obs

        armed = tmp_path / "armed"
        armed.touch()
        holder = tmp_path / "holder"
        finished = threading.Event()

        def release() -> None:
            if holder.exists():
                try:
                    os.kill(int(holder.read_text().split()[0]), signal.SIGKILL)
                except ProcessLookupError:
                    pass

        def rescue():
            # Should the runner miss the death, only the holder's exit
            # would end the run: end it, and the timing assertion fails.
            if not finished.wait(30.0):
                release()

        watchdog = threading.Thread(target=rescue, daemon=True)
        watchdog.start()
        rec = obs.TelemetryRecorder()
        try:
            with obs.recording(rec):
                outcomes, stats = run_tiles(
                    _named_jobs("orphan", "a"),
                    inner=OrphanInner(str(armed), str(holder)), spec=SPEC,
                    workers=2,
                )
        finally:
            finished.set()
            watchdog.join(timeout=60.0)
            release()
        died_at = float(holder.read_text().split()[1])
        retry = next(
            r for r in rec.records
            if r["type"] == "event" and r["name"] == "tile_retry"
        )
        assert (retry["tile"], retry["kind"]) == ("t0,0", "crash")
        assert retry["t"] - died_at < 2.0
        assert [o.attempts for o in outcomes] == [2, 1]
        assert not outcomes[0].fallback
        assert stats.pool_respawns == 1


class MidSendInner(StubInner):
    """Stub inner whose ``big`` sub-shape, fractured in a pool worker
    while the ``armed`` marker file exists, yields 2,000 distinct shots
    and cuts its worker off half way through sending them: the 4-byte
    header of the result goes out, the payload never does.  The worker
    then stalls (to be killed by the deadline) or, with ``dies``, exits
    on its own.  In the process that built it, it raises instead."""

    def __init__(self, armed: str, dies: bool = False):
        self.armed = armed
        self.dies = dies
        self.parent = os.getpid()

    def fracture_shots(self, sub, spec):
        if sub.name != "big":
            return super().fracture_shots(sub, spec)
        if os.path.exists(self.armed):
            if os.getpid() == self.parent:
                raise AssertionError("the big tile ran in the parent")
            os.unlink(self.armed)
            _cut_large_sends(self.dies)
        return [Rect(float(i), 0.0, i + 1.0, 1.0) for i in range(2000)]


def _cut_large_sends(dies: bool) -> None:
    """In this process, send only the header of a message over 16 KiB,
    which multiprocessing writes apart from its payload; then exit, or
    stall."""
    from multiprocessing import connection

    send = connection.Connection._send_bytes

    def cut(self, buf):
        if len(buf) > 16384:
            self._send(struct.pack("!i", len(buf)))
            if dies:
                os._exit(9)
            time.sleep(60.0)
        send(self, buf)

    connection.Connection._send_bytes = cut


def _readers() -> set:
    """The runner's reader threads now alive."""
    return {t for t in threading.enumerate() if t.name == "runner-reader"}


def _workers() -> set:
    """This process's child processes now alive."""
    return set(multiprocessing.active_children())


def _rescue(before: set) -> None:
    """Kill every child process not in ``before``: each runner reader
    then reads EOF, and a run that missed a worker's death ends.  A test
    calls this on failure, so that it still exits."""
    for proc in _workers() - before:
        proc.kill()


def _big_tile_jobs():
    """Three stub tiles, the middle one over the ``big`` sub-shape."""
    big = MaskShape.from_mask(
        np.ones((2, 2), dtype=bool), PixelGrid(0.0, 0.0, 1.0, 2, 2),
        name="big",
    )
    jobs = _jobs(3)
    jobs[1] = (jobs[1][0], [big])
    return jobs


class TestPoolTeardown:
    """A worker cut off half way through sending a large result leaves
    its reader thread blocked reading the rest: the runner must still
    see the worker's end, and nothing of the worker may outlive the
    run."""

    def test_killed_pool_leaves_no_manager_thread(self, tmp_path):
        """A deadline kill while a worker is stalled half way through
        sending: no worker process of the run and no reader thread is
        left when the run returns; the tile retries to its full
        result."""
        armed = tmp_path / "armed"
        armed.touch()
        before, readers = _workers(), _readers()
        try:
            outcomes, stats = run_tiles(
                _big_tile_jobs(), inner=MidSendInner(str(armed)), spec=SPEC,
                workers=2, policy=RuntimePolicy(tile_deadline_s=1.0),
            )
            assert not armed.exists()  # the worker did stall
            assert not _workers() - before
            assert not _readers() - readers
        finally:
            _rescue(before)
        assert len(outcomes[1].shots) == 2000
        assert (stats.tile_timeouts, stats.pool_respawns) == (1, 1)

    def test_worker_dying_mid_send_is_a_crash(self, tmp_path):
        """A worker that exits on its own half way through sending, with
        no deadline set: the runner sees the dead worker, charges its
        tile a crash and retries it to the full result, instead of
        waiting forever for the rest of the message."""
        armed = tmp_path / "armed"
        armed.touch()
        before, readers = _workers(), _readers()
        finished = threading.Event()
        rescued = threading.Event()

        def rescue():
            # Should the runner miss the death, nothing else would end
            # the run: kill its workers, so the run returns and the
            # assertion reports.
            if not finished.wait(30.0):
                rescued.set()
                _rescue(before)

        watchdog = threading.Thread(target=rescue, daemon=True)
        watchdog.start()
        try:
            outcomes, stats = run_tiles(
                _big_tile_jobs(), inner=MidSendInner(str(armed), dies=True),
                spec=SPEC, workers=2,
            )
            assert not _workers() - before
            assert not _readers() - readers
        finally:
            finished.set()
            watchdog.join(timeout=60.0)
            _rescue(before)
        assert not rescued.is_set()
        assert not armed.exists()  # the worker did die
        assert len(outcomes[1].shots) == 2000
        assert stats.pool_respawns == 1
        assert not outcomes[1].fallback
