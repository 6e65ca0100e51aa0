"""Integration tests: fault-tolerant tiled and batch execution end to end.

The acceptance bar of the fault layer: an injected hard crash (worker
``os._exit``), hang (deadline exceeded) or raised exception on any tile
neither fails the run nor changes the final shot list — retries, pool
respawns, resume and any worker count reproduce the fault-free
single-worker result bit for bit (fallback tiles excepted and flagged).
A resumed run is a re-run against the store that holds the settled
tiles.  The shapes of a pooled batch run on the same runner: a crash or
hang is retried to the fault-free result, and a stopped batch keeps
every shape settled before the stop.  Retries run without backoff here:
the runtime's ``BACKOFF_S`` is patched to zero.
"""

import json
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.fracture.runtime as runtime
from repro.baselines import PartitionFracturer
from repro.fracture.cache import FractureCache
from repro.fracture.pipeline import ModelBasedFracturer, RefineConfig
from repro.fracture.refine import RefineParams
from repro.fracture.runtime import FaultPlan, PoolBroken, RuntimePolicy, run_tiles
from repro.fracture.tiling import plan_tiles
from repro.fracture.windowed import WindowedFracturer
from repro.geometry.polygon import Polygon
from repro.geometry.raster import PixelGrid
from repro.mask.constraints import FractureSpec
from repro.mask.mdp import SHAPES, MdpPipeline, PolygonShapes
from repro.mask.shape import MaskShape
from repro.obs import TelemetryRecorder, recording
from tests.fracture.test_windowed import stepped_at_seams
from tests.mask.test_mdp import _FailOn


@pytest.fixture(scope="module")
def spec_module():
    return FractureSpec()


@pytest.fixture(scope="module")
def bar_field(spec_module):
    """Three rectangular components over a 3×1 tile grid (see
    test_windowed.py): every sub-problem is easy, so these tests
    exercise the fault machinery, not the inner method."""
    grid = PixelGrid(0.0, 0.0, 1.0, 760, 160)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[60:100, 50:340] = True
    mask[60:100, 380:710] = True
    mask[115:145, 330:410] = True
    return MaskShape.from_mask(mask, grid, name="bar-field")


@pytest.fixture(scope="module")
def stepped_bar_field(bar_field):
    """``bar_field`` with both bars stepping in width at their seams:
    the seam handoff cannot merge the two tiles' shots of a bar, and
    both seams run a stitch window."""
    return stepped_at_seams(bar_field, 250.0)


def _inner():
    return ModelBasedFracturer(
        config=RefineConfig(params=RefineParams(nmax=120, nh=3))
    )


def _windowed(workers=1, runtime=None):
    return WindowedFracturer(
        _inner(), window_nm=250.0, workers=workers, runtime=runtime
    )


@pytest.fixture(scope="module")
def clean_shots(bar_field, spec_module):
    """The fault-free single-worker reference every test compares to."""
    return _windowed(workers=1).fracture_shots(bar_field, spec_module)


@pytest.fixture(scope="module")
def tile_names(bar_field, spec_module):
    return [t.name for t in plan_tiles(bar_field, spec_module, 250.0).tiles]


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(runtime, "BACKOFF_S", 0.0)


def _stored(store_dir) -> RuntimePolicy:
    """A policy over a fresh store on ``store_dir`` (a new process's view)."""
    return RuntimePolicy(store=FractureCache(persist_dir=store_dir))


def _entries(store_dir, kind: str) -> list[tuple[str, object]]:
    """``(name, path)`` of the stored entries of one kind ("tile" or
    "window"), by name."""
    entries = []
    for path in store_dir.glob("*.json"):
        entry = json.loads(path.read_text())
        if kind in entry:
            entries.append((entry[kind], path))
    return sorted(entries)


def _interrupt(store_dir, keep: int) -> None:
    """Simulate an interrupt during the tile pass: keep only the first
    ``keep`` tiles' entries (stitch windows run after every tile, so
    none of theirs)."""
    for _name, path in _entries(store_dir, "tile")[keep:]:
        path.unlink()
    for _name, path in _entries(store_dir, "window"):
        path.unlink()


class TestCrashRecovery:
    def test_real_worker_crash_is_bit_identical(
        self, bar_field, spec_module, clean_shots
    ):
        """A worker hard-killed mid-tile (os._exit): the pool respawns,
        the tile retries, and the final shot list is unchanged."""
        policy = RuntimePolicy(fault_plan=FaultPlan.parse(["t1,0:crash"]))
        recorder = TelemetryRecorder()
        with recording(recorder):
            shots = _windowed(workers=4, runtime=policy).fracture_shots(
                bar_field, spec_module
            )
        assert shots == clean_shots
        assert recorder.counters.get("windowed.pool_respawns", 0) >= 1
        assert recorder.counters.get("windowed.tile_retries", 0) >= 1
        assert recorder.counters.get("windowed.tile_fallbacks", 0) == 0

    def test_inline_crash_simulation_is_bit_identical(
        self, bar_field, spec_module, clean_shots
    ):
        """workers=1 simulates the crash as an exception (a real
        SIGKILL would take down the run itself) — same result."""
        policy = RuntimePolicy(fault_plan=FaultPlan.parse(["t1,0:crash"]))
        shots = _windowed(workers=1, runtime=policy).fracture_shots(
            bar_field, spec_module
        )
        assert shots == clean_shots

    def test_tile_killing_every_worker_falls_back_alone(
        self, bar_field, spec_module
    ):
        """A tile that kills its worker on every attempt retries alone
        on the pool, never in the parent: each attempt costs one
        respawn, and its last failure degrades it to the fallback."""
        policy = RuntimePolicy(fault_plan=FaultPlan.parse(["t1,0:crash:99"]))
        recorder = TelemetryRecorder()
        fracturer = _windowed(workers=2, runtime=policy)
        with recording(recorder):
            fracturer.fracture_shots(bar_field, spec_module)
        assert fracturer._last_extra["fallback_tiles"] == ["t1,0"]
        assert recorder.counters.get("windowed.pool_respawns") == 3
        retried = [
            e["tile"] for e in recorder.export()["events"]
            if e["name"] == "tile_retry"
        ]
        assert retried.count("t1,0") == 2

    def test_pool_respawn_budget_exhaustion_raises(
        self, bar_field, spec_module, monkeypatch
    ):
        """When the pool cannot be kept alive, the failure is explicit —
        PoolBroken, not a bare BrokenProcessPool traceback."""
        monkeypatch.setattr(runtime, "MAX_POOL_RESPAWNS", 0)
        policy = RuntimePolicy(
            max_attempts=9, fault_plan=FaultPlan.parse(["t1,0:crash:99"]),
        )
        with pytest.raises(PoolBroken):
            _windowed(workers=2, runtime=policy).fracture_shots(
                bar_field, spec_module
            )


class TestHangRecovery:
    def test_deadline_kills_hung_worker_and_retries(
        self, bar_field, spec_module, clean_shots
    ):
        policy = RuntimePolicy(
            tile_deadline_s=2.0,
            fault_plan=FaultPlan.parse(["t1,0:hang"], hang_s=60.0),
        )
        recorder = TelemetryRecorder()
        with recording(recorder):
            shots = _windowed(workers=2, runtime=policy).fracture_shots(
                bar_field, spec_module
            )
        assert shots == clean_shots
        assert recorder.counters.get("windowed.tile_timeouts", 0) >= 1
        assert recorder.counters.get("windowed.pool_respawns", 0) >= 1


class TestDegradationLadder:
    def test_persistent_failure_falls_back_not_fails(
        self, bar_field, spec_module, clean_shots
    ):
        """A tile that fails every attempt degrades to the partition
        baseline: the run completes, the tile is flagged, the other
        tiles are untouched."""
        policy = RuntimePolicy(
            max_attempts=2, fault_plan=FaultPlan.parse(["t1,0:raise:99"]),
        )
        recorder = TelemetryRecorder()
        fracturer = _windowed(workers=1, runtime=policy)
        with recording(recorder):
            shots = fracturer.fracture_shots(bar_field, spec_module)
        assert shots  # the run survived
        assert fracturer._last_extra["fallback_tiles"] == ["t1,0"]
        assert recorder.counters.get("windowed.tile_fallbacks", 0) == 1
        manifest_entries = recorder.manifest.get("fault_tolerance")
        assert manifest_entries and manifest_entries[0]["fallback_tiles"] == ["t1,0"]
        # Degradation is deliberately *not* bit-identical on the failed
        # tile — but it must still deliver coverage there.
        assert len(shots) >= len(clean_shots)


class TestCheckpointResume:
    def test_mid_run_interrupt_and_resume(
        self, bar_field, spec_module, clean_shots, tmp_path
    ):
        """Kill the run after one tile (simulated by deleting the other
        tiles' stored entries), run again: bit-identical result, only
        the unfinished tiles re-execute."""
        ckpt = tmp_path / "ckpt"
        full = _windowed(workers=1, runtime=_stored(ckpt)).fracture_shots(
            bar_field, spec_module
        )
        assert full == clean_shots
        assert len(_entries(ckpt, "tile")) == 3
        _interrupt(ckpt, keep=1)
        recorder = TelemetryRecorder()
        with recording(recorder):
            resumed = _windowed(
                workers=1, runtime=_stored(ckpt)
            ).fracture_shots(bar_field, spec_module)
        assert resumed == clean_shots
        assert recorder.counters.get("windowed.tiles_replayed") == 1

    def test_journal_records_are_loadable_json(
        self, stepped_bar_field, spec_module, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        _windowed(workers=1, runtime=_stored(ckpt)).fracture_shots(
            stepped_bar_field, spec_module
        )
        records = [
            json.loads(path.read_text()) for _name, path in _entries(ckpt, "tile")
        ]
        assert sorted(r["tile"] for r in records) == ["t0,0", "t1,0", "t2,0"]
        assert all(
            set(r) == {"tile", "shots", "attempts", "trace_id"}
            for r in records
        )
        assert all(r["attempts"] == 1 and r["shots"] for r in records)
        windows = [
            json.loads(path.read_text())
            for _name, path in _entries(ckpt, "window")
        ]
        assert windows
        assert all(
            set(r) == {"window", "shots", "attempts", "trace_id", "info"}
            for r in windows
        )


class TestBitIdentityProperty:
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        workers=st.sampled_from([1, 4]),
        keep=st.integers(min_value=0, max_value=3),
    )
    def test_faulted_and_resumed_runs_reproduce_clean_run(
        self, bar_field, spec_module, clean_shots, tile_names, tmp_path_factory,
        seed, workers, keep,
    ):
        """Property: a crash injected on a seeded random tile subset
        (then retried), and a re-run after a mid-run interrupt, are both
        bit-identical to the clean run at workers ∈ {1, 4}."""
        plan = FaultPlan.seeded(tile_names, seed=seed, action="crash", fraction=0.5)
        ckpt = tmp_path_factory.mktemp("ckpt")
        shots = _windowed(
            workers=workers,
            runtime=RuntimePolicy(
                fault_plan=plan, store=FractureCache(persist_dir=ckpt),
            ),
        ).fracture_shots(bar_field, spec_module)
        assert shots == clean_shots

        # Mid-run interrupt: keep a prefix of the stored tiles, re-run.
        _interrupt(ckpt, keep=keep)
        resumed = _windowed(
            workers=workers, runtime=_stored(ckpt)
        ).fracture_shots(bar_field, spec_module)
        assert resumed == clean_shots


def _batch(spec) -> PolygonShapes:
    """Six small clips, ``s0`` … ``s5``: bars and Ls of different sizes."""
    polygons = []
    for k in range(6):
        w, h = 40 + 10 * k, 30 + 5 * (k % 3)
        outline = (
            [(0, 0), (w, 0), (w, h), (0, h)] if k % 2 == 0 else
            [(0, 0), (w, 0), (w, 30), (30, 30), (30, h + 30), (0, h + 30)]
        )
        polygons.append((f"s{k}", Polygon(outline)))
    return PolygonShapes(polygons, pitch=spec.pitch, margin=spec.grid_margin)


class _CrashOnce(PartitionFracturer):
    """Partition, except that the process fracturing ``crash_on`` exits
    at once (``os._exit``) while the ``armed`` marker file exists; the
    crash deletes it, so every later attempt succeeds."""

    def __init__(self, crash_on: str, armed: str):
        super().__init__()
        self.crash_on = crash_on
        self.armed = armed

    def fracture_shots(self, shape, spec):
        if shape.name == self.crash_on and os.path.exists(self.armed):
            os.unlink(self.armed)
            os._exit(13)
        return super().fracture_shots(shape, spec)


class _CrashAlways(PartitionFracturer):
    """Partition, except that a pool worker fracturing ``crash_on``
    exits at once (``os._exit``) on every attempt.  In the process
    that built the fracturer the shape raises instead, so a run that
    fractures it there fails the test instead of ending it."""

    def __init__(self, crash_on: str):
        super().__init__()
        self.crash_on = crash_on
        self.parent = os.getpid()

    def fracture_shots(self, shape, spec):
        if shape.name == self.crash_on:
            if os.getpid() == self.parent:
                raise AssertionError(f"{shape.name} fractured in the parent")
            os._exit(13)
        return super().fracture_shots(shape, spec)


class TestPooledShapes:
    """Batch shapes are jobs of the tile runner: its retry, pool
    respawn and deadline cover them as they cover tiles."""

    def test_worker_death_is_retried_and_every_shape_stored(
        self, spec_module, tmp_path
    ):
        shapes = _batch(spec_module)
        clean = MdpPipeline(PartitionFracturer(), spec_module).run(shapes)
        armed = tmp_path / "armed"
        armed.touch()
        store = tmp_path / "store"
        recorder = TelemetryRecorder()
        with recording(recorder):
            report = MdpPipeline(
                _CrashOnce("s3", str(armed)), spec_module,
                cache=FractureCache(persist_dir=store),
            ).run(shapes, workers=2)
        assert not armed.exists()  # the worker did die
        assert [r.shots for r in report.results] == \
            [r.shots for r in clean.results]
        assert recorder.counters.get("windowed.pool_respawns") == 1
        retried = [
            e["shape"] for e in recorder.export()["events"]
            if e["name"] == "shape_retry"
        ]
        assert retried.count("s3") == 1
        assert len(list(store.glob("*.json"))) == 6

    def test_shape_killing_every_worker_fails_alone(
        self, spec_module, tmp_path
    ):
        """A shape whose fracture kills its process on every attempt
        retries alone on the pool, never in the parent: the batch
        raises JobFailed naming it, the shapes before it are stored,
        and no worker is left alive."""
        store = tmp_path / "store"
        before = set(multiprocessing.active_children())
        recorder = TelemetryRecorder()
        with recording(recorder), pytest.raises(
            runtime.JobFailed,
            match=r"shape s3 \(attempt 3\): worker process died",
        ):
            MdpPipeline(
                _CrashAlways("s3"), spec_module,
                cache=FractureCache(persist_dir=store),
            ).run(_batch(spec_module), workers=2)
        assert recorder.counters.get("windowed.pool_respawns") == 3
        retried = [
            e["shape"] for e in recorder.export()["events"]
            if e["name"] == "shape_retry"
        ]
        assert retried.count("s3") == 2
        assert len(list(store.glob("*.json"))) == 3
        assert set(multiprocessing.active_children()) <= before

    def test_hung_shape_times_out_and_retries(self, spec_module):
        shapes = list(_batch(spec_module))[:4]
        clean, _ = run_tiles(
            shapes, inner=PartitionFracturer(), spec=spec_module, kind=SHAPES
        )
        policy = RuntimePolicy(
            fault_plan=FaultPlan.parse(["s1:hang"], hang_s=60.0),
            tile_deadline_s=2.0,
        )
        outcomes, stats = run_tiles(
            shapes, inner=PartitionFracturer(), spec=spec_module, workers=2,
            policy=policy, kind=SHAPES,
        )
        assert [o.shots for o in outcomes] == [o.shots for o in clean]
        assert [o.attempts for o in outcomes] == [1, 2, 1, 1]
        assert (stats.tile_timeouts, stats.tile_retries) == (1, 1)
        assert stats.pool_respawns == 1

    def test_interrupt_keeps_the_settled_prefix_and_no_worker(
        self, spec_module, tmp_path
    ):
        shapes = _batch(spec_module)
        out, store = tmp_path / "out", tmp_path / "store"
        before = set(multiprocessing.active_children())
        with pytest.raises(KeyboardInterrupt):
            MdpPipeline(
                _FailOn("s2", KeyboardInterrupt), spec_module,
                cache=FractureCache(persist_dir=store),
            ).run(shapes, output_dir=out, workers=2)
        assert sorted(p.name for p in out.iterdir()) == [
            "s0.solution.json", "s1.solution.json",
        ]
        assert len(list(store.glob("*.json"))) == 2
        assert set(multiprocessing.active_children()) <= before

    def test_shape_failing_every_attempt_names_itself(self, spec_module):
        with pytest.raises(runtime.JobFailed, match=r"shape s4 .*attempt 3"):
            MdpPipeline(_FailOn("s4", ValueError), spec_module).run(
                _batch(spec_module), workers=2
            )
