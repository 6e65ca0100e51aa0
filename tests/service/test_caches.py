"""Warm caches: fingerprints, result cache bounds, profile-bank wiring."""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

import repro.cli
from repro.baselines import PartitionFracturer
from repro.cli import main
from repro.ebeam.intensity_map import IntensityMap, get_profile_bank
from repro.fracture.cache import FractureCache, canonical_fingerprint
from repro.geometry.polygon import Polygon
from repro.mask.constraints import FractureSpec
from repro.mask.io import load_clips, load_solution, rect_from_list, save_clips
from repro.obs import load_telemetry
from repro.service.caches import WarmCaches
from repro.service.executor import execute_job
from repro.service.jobs import JobPaths, JobRecord, validate_submission

CLIP = [[0.0, 0.0], [40.0, 0.0], [40.0, 40.0], [0.0, 40.0]]


class TestFingerprint:
    def test_deterministic(self):
        a = canonical_fingerprint(CLIP, {"sigma": 6.25}, "ours", None)
        b = canonical_fingerprint(CLIP, {"sigma": 6.25}, "ours", None)
        assert a == b

    def test_sensitive_to_every_result_affecting_input(self):
        base = canonical_fingerprint(CLIP, {}, "ours", None)
        moved = [[0.0, 0.0], [41.0, 0.0], [41.0, 40.0], [0.0, 40.0]]
        assert canonical_fingerprint(moved, {}, "ours", None) != base
        assert canonical_fingerprint(CLIP, {"sigma": 7.0}, "ours", None) != base
        assert canonical_fingerprint(CLIP, {}, "partition", None) != base
        assert canonical_fingerprint(CLIP, {}, "ours", 300.0) != base

    def test_spec_key_order_irrelevant(self):
        a = canonical_fingerprint(CLIP, {"sigma": 6.25, "rho": 0.5}, "ours", None)
        b = canonical_fingerprint(CLIP, {"rho": 0.5, "sigma": 6.25}, "ours", None)
        assert a == b


class TestFractureCache:
    def test_miss_then_hit(self):
        cache = FractureCache()
        assert cache.get("k") is None
        cache.put("k", {"shots": []})
        assert cache.get("k") == {"shots": []}
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_eviction_is_oldest_first(self):
        cache = FractureCache(max_entries=2)
        cache.put("a", {"n": 1})
        cache.put("b", {"n": 2})
        cache.put("c", {"n": 3})
        assert cache.get("a") is None  # evicted
        assert cache.get("b") is not None
        assert cache.get("c") is not None

    def test_put_is_idempotent(self):
        cache = FractureCache()
        cache.put("k", {"first": True})
        cache.put("k", {"second": True})
        assert cache.get("k") == {"first": True}


class TestWarmCaches:
    def test_install_publishes_profile_bank(self):
        warm = WarmCaches()
        assert get_profile_bank() is None
        with warm:
            assert get_profile_bank() is warm.profiles
        assert get_profile_bank() is None

    def test_second_fracture_attaches_warm(self, spec, rect_shape):
        warm = WarmCaches()
        with warm:
            PartitionFracturer().fracture(rect_shape, spec)
            first = warm.stats()["profile"]
            assert first["attaches"] >= 1
            assert first["profiles"] > 0
            PartitionFracturer().fracture(rect_shape, spec)
            second = warm.stats()["profile"]
            assert second["warm_attaches"] >= 1
            assert second["layouts"] == first["layouts"]

    def test_shared_cache_gives_identical_intensity(self, spec, rect_shape):
        """Warm profiles must not change the physics, only skip work."""
        shots = PartitionFracturer().fracture_shots(rect_shape, spec)
        cold = IntensityMap(rect_shape.grid, spec.sigma)
        for shot in shots:
            cold.add(shot)
        with WarmCaches():
            warm_a = IntensityMap(rect_shape.grid, spec.sigma)
            for shot in shots:
                warm_a.add(shot)
            # Second map attaches to the already-warm shared cache.
            warm_b = IntensityMap(rect_shape.grid, spec.sigma)
            for shot in shots:
                warm_b.add(shot)
        np.testing.assert_array_equal(cold.total, warm_a.total)
        np.testing.assert_array_equal(cold.total, warm_b.total)


class TestLibraryPromotion:
    """The service cache is the library cache — same class, same key."""

    def test_service_and_library_keys_agree(self):
        from repro.fracture.cache import fingerprint_polygon
        from repro.geometry.polygon import Polygon

        vertices = [[0.0, 0.0], [60.0, 0.0], [60.0, 40.0], [0.0, 40.0]]
        spec = FractureSpec()
        service_key = canonical_fingerprint(vertices, spec, "partition", None)
        library_key, offset = fingerprint_polygon(
            Polygon(vertices), spec, "partition", None
        )
        assert service_key == library_key
        assert offset == (0.0, 0.0)

    def test_warm_caches_persist_dir(self, tmp_path):
        warm = WarmCaches(persist_dir=tmp_path / "store")
        warm.results.put("fp", {"shots": [], "shot_count": 0})
        assert (tmp_path / "store" / "fp.json").exists()
        cold = WarmCaches(persist_dir=tmp_path / "store")
        assert cold.results.get("fp") == {"shots": [], "shot_count": 0}


L_CLIP = [[0.0, 0.0], [80.0, 0.0], [80.0, 30.0], [40.0, 30.0],
          [40.0, 70.0], [0.0, 70.0]]


class TestExecutorCacheHits:
    """The daemon's result-cache hit path, one shared ``WarmCaches``."""

    def _run(self, tmp_path, caches, job_id, clip, **overrides):
        from repro.obs import read_stream, stream_to_payload
        from repro.service.executor import execute_job
        from repro.service.jobs import JobPaths, JobRecord, validate_submission

        record = JobRecord(job_id=job_id, spec=validate_submission({
            "clips": {"L": clip}, "method": "partition", **overrides,
        }))
        record.attempts = 1
        paths = JobPaths.for_job(tmp_path, job_id)
        result = execute_job(record, paths, caches)
        counters = stream_to_payload(read_stream(paths.stream))["counters"]
        return result, counters

    def test_resubmissions_are_served_from_the_cache(self, tmp_path):
        caches = WarmCaches()
        cold, cold_counters = self._run(tmp_path, caches, "job-c01d", L_CLIP)
        assert cold["totals"]["cached_clips"] == 0
        assert cold_counters["cache.fracture.misses"] == 1
        assert "cache.fracture.hits" not in cold_counters

        verbatim, counters = self._run(tmp_path, caches, "job-0a0a", L_CLIP)
        assert verbatim["totals"]["cached_clips"] == 1
        assert verbatim["clips"]["L"]["cached"] is True
        assert counters["cache.fracture.hits"] == 1
        assert verbatim["clips"]["L"]["shots"] == cold["clips"]["L"]["shots"]
        assert verbatim["totals"]["shots"] == cold["totals"]["shots"]

        dx, dy = 130.0, -70.0
        moved = [[x + dx, y + dy] for x, y in L_CLIP]
        translated, counters = self._run(tmp_path, caches, "job-0b0b", moved)
        assert translated["totals"]["cached_clips"] == 1
        assert counters["cache.fracture.hits"] == 1
        assert translated["clips"]["L"]["shots"] == [
            [x0 + dx, y0 + dy, x1 + dx, y1 + dy]
            for x0, y0, x1, y1 in cold["clips"]["L"]["shots"]
        ]
        assert translated["clips"]["L"]["feasible"] == \
            cold["clips"]["L"]["feasible"]
        assert translated["clips"]["L"]["failing_px"] == \
            cold["clips"]["L"]["failing_px"]

    def test_job_without_result_cache_misses(self, tmp_path):
        caches = WarmCaches()
        cold, _ = self._run(tmp_path, caches, "job-c01d", L_CLIP)
        uncached, counters = self._run(
            tmp_path, caches, "job-0c0c", L_CLIP, use_result_cache=False
        )
        assert uncached["totals"]["cached_clips"] == 0
        assert uncached["clips"]["L"]["cached"] is False
        assert "cache.fracture.hits" not in counters
        assert uncached["clips"]["L"]["shots"] == cold["clips"]["L"]["shots"]

    def test_cached_clip_keeps_its_fracture_time_in_extra(self, tmp_path):
        caches = WarmCaches()
        cold, _ = self._run(tmp_path, caches, "job-c01d", L_CLIP)
        warm, _ = self._run(tmp_path, caches, "job-0d0d", L_CLIP)
        clip = warm["clips"]["L"]
        assert clip["extra"]["cache_hit"] is True
        assert clip["extra"]["cached_runtime_s"] == \
            cold["clips"]["L"]["runtime_s"]


def _job(tmp_path, caches, job_id, clips, **overrides):
    """Run one partition job on ``caches``; its result and stream counters."""
    record = JobRecord(job_id=job_id, spec=validate_submission({
        "clips": clips, "method": "partition", **overrides,
    }))
    record.attempts = 1
    paths = JobPaths.for_job(tmp_path / "state", job_id)
    result = execute_job(record, paths, caches)
    return result, load_telemetry(paths.stream)["counters"]


def _mdp(clip_file, store, window_nm, *extra):
    argv = ["mdp", str(clip_file), "--method", "partition",
            "--fracture-cache", str(store), *extra]
    if window_nm is not None:
        argv += ["--window-nm", str(window_nm)]
    # Exit 1 only says some clip fails Eq. 4; partition is not CD-clean.
    assert main(argv) in (0, 1)


@pytest.fixture(scope="module")
def ilt_clip_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("clips")
    assert main(["generate", "--output", str(out)]) == 0
    return out / "ilt_suite.clips.json"


@pytest.mark.parametrize("window_nm", [None, 300.0])
class TestCliAndDaemonShareOneStore:
    """`mdp --fracture-cache DIR` and a daemon job on
    `WarmCaches(persist_dir=DIR)` call one clip loop with one store."""

    def _job(self, tmp_path, clip_file, store, window_nm):
        clips = {
            name: [[p.x, p.y] for p in poly.vertices]
            for name, poly in load_clips(clip_file).items()
        }
        return _job(
            tmp_path, WarmCaches(persist_dir=store), "job-5a5e0001", clips,
            window_nm=window_nm,
        )

    def test_daemon_replays_what_mdp_stored(
        self, tmp_path, ilt_clip_file, window_nm, monkeypatch
    ):
        store, out, stream = (
            tmp_path / "store", tmp_path / "out", tmp_path / "mdp.jsonl"
        )
        _mdp(ilt_clip_file, store, window_nm,
             "--output", str(out), "--stream", str(stream))
        done = {
            e["clip"]: e for e in load_telemetry(stream)["events"]
            if e["name"] == "clip_done"
        }
        result, counters = self._job(tmp_path, ilt_clip_file, store, window_nm)
        assert sorted(result["clips"]) == sorted(done)
        assert len(done) == 10
        # `job result --output` writes the job's solutions as the batch
        # loop writes its own.
        monkeypatch.setattr(
            repro.cli, "_service_client",
            lambda args: SimpleNamespace(result=lambda job_id: result),
        )
        daemon_out = tmp_path / "daemon-out"
        assert main(["job", "result", result["job_id"],
                     "--output", str(daemon_out)]) == 0
        for name, clip in result["clips"].items():
            shots, _spec, meta = load_solution(out / f"{name}.solution.json")
            daemon_shots, _spec, daemon_meta = load_solution(
                daemon_out / f"{name}.solution.json"
            )
            assert clip["cached"] is True
            assert [rect_from_list(s) for s in clip["shots"]] == shots
            assert daemon_shots == shots
            assert set(meta) <= set(daemon_meta)
            assert daemon_meta["method"] == meta["method"]
            assert daemon_meta["failing_pixels"] == meta["failing_pixels"]
            assert clip["feasible"] == done[name]["feasible"]
        assert counters["cache.fracture.hits"] == len(done)

    def test_mdp_replays_what_the_daemon_stored(
        self, tmp_path, ilt_clip_file, window_nm
    ):
        store, telemetry = tmp_path / "store", tmp_path / "mdp.json"
        result, _ = self._job(tmp_path, ilt_clip_file, store, window_nm)
        assert result["totals"]["cached_clips"] == 0
        _mdp(ilt_clip_file, store, window_nm, "--telemetry", str(telemetry))
        batch = json.loads(telemetry.read_text())["manifest"]["mdp_batch"]
        assert batch["cache_hits"] == batch["shapes"] == len(result["clips"])


class TestStoreHitsDoNotRasterize:
    """A store hit costs a fingerprint: the clip is never rasterized."""

    @pytest.fixture
    def rasterized(self, monkeypatch):
        import repro.mask.shape as shape_module

        calls = []
        real = shape_module.rasterize_polygon

        def counting(polygon, grid):
            calls.append(polygon)
            return real(polygon, grid)

        monkeypatch.setattr(shape_module, "rasterize_polygon", counting)
        return calls

    def test_warm_daemon_resubmission(self, tmp_path, rasterized):
        caches = WarmCaches()
        _job(tmp_path, caches, "job-c01d", {"L": L_CLIP})
        assert rasterized
        rasterized.clear()
        warm, _ = _job(tmp_path, caches, "job-0a0a", {"L": L_CLIP})
        assert warm["totals"]["cached_clips"] == 1
        assert rasterized == []

    def test_mdp_replay_of_a_finished_batch(self, tmp_path, rasterized):
        clip_file = tmp_path / "clips.json"
        save_clips(
            {"L": Polygon([tuple(v) for v in L_CLIP]),
             "sq": Polygon([tuple(v) for v in CLIP])},
            clip_file,
        )
        store = tmp_path / "store"
        _mdp(clip_file, store, None)
        assert len(rasterized) == 2
        rasterized.clear()
        _mdp(clip_file, store, None, "--telemetry", str(tmp_path / "t.json"))
        batch = json.loads((tmp_path / "t.json").read_text())
        assert batch["manifest"]["mdp_batch"]["cache_hits"] == 2
        assert rasterized == []


class TestJobClipRasters:
    def test_no_clip_keeps_its_raster(self, tmp_path, monkeypatch):
        """A daemon job reads each clip afresh, so a fractured clip's
        raster is freed before the next clip is fractured."""
        import weakref

        import repro.service.executor as executor
        from repro.fracture.base import Fracturer
        from repro.methods import make_fracturer

        inner = make_fracturer("partition")
        rasters = []

        class Watch(Fracturer):
            name = "watch"

            def fracture_shots(self, shape, spec):
                assert all(ref() is None for ref in rasters)
                rasters.append(weakref.ref(shape.inside))
                return inner.fracture_shots(shape, spec)

        monkeypatch.setattr(executor, "make_fracturer", lambda name: Watch())
        clips = {
            f"c{k}": [[0.0, 0.0], [40.0 + 10 * k, 0.0],
                      [40.0 + 10 * k, 30.0], [0.0, 30.0]]
            for k in range(5)
        }
        result, _counters = _job(tmp_path, None, "job-4a57e4", clips)
        assert result["totals"]["clips"] == 5
        assert len(rasters) == 5
