"""Guard-layer units: limits, admission, rate limiting, watchdog, disk.

Everything here drives :mod:`repro.service.guard` and the disk
primitives directly — no daemon, no sockets — so each rule is pinned
in isolation before the integration suites compose them.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.fracture.cache import FractureCache, evict_lru
from repro.obs import (
    DiskFullError,
    HeartbeatWriter,
    disk_free_bytes,
    ensure_disk_space,
    rss_bytes,
    set_disk_free_override,
)
from repro.service.guard import (
    AdmissionError,
    ClientRateLimiter,
    JobWatchdog,
    ServiceLimits,
    TokenBucket,
    validate_admission,
)
from repro.service.jobs import validate_submission

SQUARE = [[0, 0], [40, 0], [40, 40], [0, 40]]


def valid_spec(**overrides) -> dict:
    job = {"clips": {"sq": SQUARE}, "method": "partition", **overrides}
    return validate_submission(job)


@pytest.fixture(autouse=True)
def _reset_disk_override():
    yield
    set_disk_free_override(None)


class TestServiceLimits:
    def test_defaults_validate(self):
        assert ServiceLimits().validated() is not None

    @pytest.mark.parametrize("field,value", [
        ("max_clips", 0),
        ("max_clip_vertices", -1),
        ("watchdog_interval_s", 0.0),
        ("read_deadline_s", -2.0),
        ("rate_per_s", 0.0),
        ("job_wall_budget_s", -1.0),
        ("job_rss_budget_bytes", 0),
        ("disk_floor_bytes", -1),
    ])
    def test_nonsense_values_rejected(self, field, value):
        limits = ServiceLimits(**{field: value})
        with pytest.raises(ValueError, match=field):
            limits.validated()

    def test_rate_burst_and_shares(self):
        with pytest.raises(ValueError, match="rate_burst"):
            ServiceLimits(rate_burst=0).validated()
        with pytest.raises(ValueError, match="queue_share"):
            ServiceLimits(queue_share=1.5).validated()
        with pytest.raises(ValueError, match="priority_min"):
            ServiceLimits(priority_min=5, priority_max=-5).validated()

    def test_to_dict_round_trips_every_field(self):
        snapshot = ServiceLimits(max_clips=7).to_dict()
        assert snapshot["max_clips"] == 7
        assert "job_wall_budget_s" in snapshot


class TestAdmission:
    def test_valid_spec_passes_unchanged(self):
        spec = valid_spec()
        assert validate_admission(spec, ServiceLimits()) is spec

    def reason_of(self, spec, limits) -> str:
        with pytest.raises(AdmissionError) as caught:
            validate_admission(spec, limits)
        return caught.value.reason

    def test_too_many_clips(self):
        spec = validate_submission({
            "clips": {f"c{i}": SQUARE for i in range(3)},
            "method": "partition",
        })
        assert self.reason_of(
            spec, ServiceLimits(max_clips=2)
        ) == "too_many_clips"

    def test_clip_too_complex_and_total_vertices(self):
        many = [[float(i), float(i % 7)] for i in range(40)]
        spec = validate_submission(
            {"clips": {"big": many}, "method": "partition"}
        )
        assert self.reason_of(
            spec, ServiceLimits(max_clip_vertices=10)
        ) == "clip_too_complex"
        assert self.reason_of(
            spec, ServiceLimits(max_total_vertices=10)
        ) == "too_many_vertices"

    def test_coordinates_bounded_and_finite(self):
        far = validate_submission({
            "clips": {"far": [[0, 0], [1e12, 0], [1e12, 40], [0, 40]]},
            "method": "partition",
        })
        assert self.reason_of(far, ServiceLimits()) == "coords_out_of_range"
        nan = valid_spec()
        nan["clips"]["sq"][0][0] = float("nan")
        assert self.reason_of(nan, ServiceLimits()) == "coords_out_of_range"

    def test_spec_window_workers_priority_ranges(self):
        assert self.reason_of(
            valid_spec(spec={"rho": 3.0}), ServiceLimits()
        ) == "spec_out_of_range"
        assert self.reason_of(
            valid_spec(window_nm=1e9), ServiceLimits()
        ) == "window_out_of_range"
        assert self.reason_of(
            valid_spec(tile_workers=999), ServiceLimits()
        ) == "too_many_tile_workers"
        assert self.reason_of(
            valid_spec(priority=1000), ServiceLimits()
        ) == "priority_out_of_range"


class TestRateLimiting:
    def test_token_bucket_refills_at_rate(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        t0 = 100.0
        assert bucket.allow(t0) and bucket.allow(t0)
        assert not bucket.allow(t0)  # burst drained
        assert bucket.allow(t0 + 1.1)  # one token back after ~1s
        assert not bucket.allow(t0 + 1.1)

    def test_per_client_isolation_and_lru_bound(self):
        limiter = ClientRateLimiter(rate=0.001, burst=1, max_clients=2)
        t0 = 50.0
        assert limiter.allow("a", t0)
        assert not limiter.allow("a", t0)  # a is drained
        assert limiter.allow("b", t0)  # b unaffected
        limiter.allow("c", t0)  # evicts oldest (a)
        assert len(limiter) == 2
        assert limiter.allow("a", t0)  # fresh bucket after eviction


class TestJobWatchdog:
    def make(self, tmp_path, running, **limit_overrides):
        limits = ServiceLimits(**limit_overrides)
        killed: list = []
        dog = JobWatchdog(
            limits, tmp_path / "heartbeats",
            running=lambda: running,
            over_budget=killed.append,
        )
        return dog, killed

    def test_disabled_without_budgets(self, tmp_path):
        dog, _ = self.make(tmp_path, {})
        assert not dog.enabled

    def test_wall_budget_flags_once(self, tmp_path):
        now = time.time()
        dog, killed = self.make(
            tmp_path, {"job-aaaaaaaa": now - 10}, job_wall_budget_s=5.0
        )
        assert dog.enabled
        violations = dog.tick(now)
        assert [v.job_id for v in violations] == ["job-aaaaaaaa"]
        assert killed[0].reason == "wall"
        assert dog.tick(now) == []  # flagged once, not spammed
        dog.forget("job-aaaaaaaa")
        assert len(dog.tick(now)) == 1  # re-armed after requeue

    def test_rss_budget_reads_heartbeat(self, tmp_path):
        now = time.time()
        hb_dir = tmp_path / "heartbeats"
        hb_dir.mkdir()
        (hb_dir / "hb-job-bbbbbbbb.json").write_text(
            json.dumps({"rss_bytes": 512 * 1024 * 1024})
        )
        dog, killed = self.make(
            tmp_path, {"job-bbbbbbbb": now},
            job_rss_budget_bytes=256 * 1024 * 1024,
        )
        assert [v.reason for v in dog.tick(now)] == ["rss"]
        assert "rss" in str(killed[0])

    def test_within_budget_untouched(self, tmp_path):
        now = time.time()
        dog, killed = self.make(
            tmp_path, {"job-cccccccc": now - 1}, job_wall_budget_s=60.0
        )
        assert dog.tick(now) == [] and killed == []

    def test_rss_budget_measures_the_writing_process(self, tmp_path):
        """The executor's job heartbeats are written by threads of one
        daemon process, so their RSS is that process's, not the job's:
        once it crosses the budget, every running job is flagged."""
        process_rss = rss_bytes()
        if process_rss is None:
            pytest.skip("no RSS source on this platform")
        jobs = ["job-dddddddd", "job-eeeeeeee"]
        writers = [
            HeartbeatWriter(
                tmp_path / "heartbeats", interval_s=60.0, name=job,
                meta={"job_id": job},
            ).start()
            for job in jobs
        ]
        try:
            beats = [
                json.loads(writer.path.read_text()) for writer in writers
            ]
            assert {beat["pid"] for beat in beats} == {os.getpid()}
            now = time.time()
            dog, killed = self.make(
                tmp_path, dict.fromkeys(jobs, now),
                job_rss_budget_bytes=process_rss // 2,
            )
            assert sorted(v.job_id for v in dog.tick(now)) == jobs
            assert {v.reason for v in killed} == {"rss"}
        finally:
            for writer in writers:
                writer.stop(unlink=True)


class TestDiskGuard:
    def test_override_and_ensure(self, tmp_path):
        set_disk_free_override(1000)
        assert disk_free_bytes(tmp_path) == 1000
        ensure_disk_space(tmp_path, 500)  # above floor: fine
        with pytest.raises(DiskFullError) as caught:
            ensure_disk_space(tmp_path, 5000)
        assert caught.value.free == 1000 and caught.value.floor == 5000
        set_disk_free_override(None)
        assert disk_free_bytes(tmp_path) > 0  # real statvfs again

    def test_none_floor_disables(self, tmp_path):
        set_disk_free_override(0)
        ensure_disk_space(tmp_path, None)  # no floor: never raises

    def test_evict_lru_oldest_first(self, tmp_path):
        import os
        store = tmp_path / "cache"
        store.mkdir()
        for i, age in enumerate([300, 200, 100]):
            path = store / f"entry{i}.json"
            path.write_bytes(b"x" * 1000)
            stamp = time.time() - age
            os.utime(path, (stamp, stamp))
        set_disk_free_override(500)
        removed = evict_lru(store, floor_bytes=2000)
        assert removed >= 1
        assert not (store / "entry0.json").exists()  # oldest went first
        assert (store / "entry2.json").exists()  # newest survives

    def test_cache_write_skipped_below_floor(self, tmp_path):
        cache = FractureCache(
            persist_dir=tmp_path / "store", min_free_bytes=10**15
        )
        cache.put("f" * 64, {"shots": [], "shot_count": 0, "feasible": True,
                             "failing_px": 0, "runtime_s": 0.0})
        stats = cache.stats()
        assert stats["disk_write_skips"] >= 1
        assert not list((tmp_path / "store").glob("*.json"))

    def test_corrupt_entry_quarantined(self, tmp_path):
        store = tmp_path / "store"
        cache = FractureCache(persist_dir=store)
        fingerprint = "a" * 64
        cache.put(fingerprint, {"shots": [], "shot_count": 0,
                                "feasible": True, "failing_px": 0,
                                "runtime_s": 0.0})
        cache.clear()  # force the disk path
        entry = next(store.glob("*.json"))
        entry.write_text("{ not json")
        assert cache.get(fingerprint) is None
        assert cache.stats()["corrupt_quarantined"] == 1
        assert entry.with_suffix(".json.bad").exists()
        assert not entry.exists()
