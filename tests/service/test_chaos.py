"""Daemon chaos harness: seeded faults against real daemons.

Acceptance gates of the daemon hardening, each driven through the
harness in ``tests/service/chaos.py`` with a seed printed on failure so
any run replays bit-identically:

* SIGKILL mid-job + restart → bit-identical resume, no torn state
  files;
* disk-full (shimmed) → typed ``disk_full`` failure, zero torn bytes,
  and the *next* job on freed disk succeeds;
* a torn stored tile → recovery quarantines it, replays the intact
  tiles and recomputes the rest, still bit-identical;
* over-budget job cancelled within ~one watchdog interval while a
  healthy job finishes untouched;
* stalled clients and floods never block a healthy client.

Runs under the gating ``service-chaos`` CI job with pytest-timeout.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs import set_disk_free_override
from tests.service.chaos import (
    ChaosPlan,
    corrupt_bytes,
    disk_full,
    flood_submits,
    stalled_request,
    truncate_tail,
)
from repro.service.client import ServiceClient, wait_for_daemon
from repro.service.executor import execute_job
from repro.service.guard import ServiceLimits
from repro.service.jobs import JobPaths, JobRecord, validate_submission
from repro.service.protocol import decode_line, encode_line
from repro.service.server import FractureService
from tests.service.conftest import stored_tiles, wait_for_first_tile

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "20250808"))

LONG_BAR = [[0.0, 0.0], [6600.0, 0.0], [6600.0, 60.0], [0.0, 60.0]]
SHORT_BAR = [[0.0, 0.0], [220.0, 0.0], [220.0, 60.0], [0.0, 60.0]]
SQUARE = [[0, 0], [40, 0], [40, 40], [0, 40]]


@pytest.fixture
def chaos_plan():
    """Seeded fault plan; the repr (with seed) lands in failure output."""
    return ChaosPlan(CHAOS_SEED)


@pytest.fixture(autouse=True)
def _restore_disk_shim():
    yield
    set_disk_free_override(None)


async def request(service: FractureService, payload: dict) -> dict:
    reader, writer = await asyncio.open_unix_connection(
        str(service.socket_path)
    )
    try:
        writer.write(encode_line(payload))
        await writer.drain()
        return decode_line(await reader.readline())
    finally:
        writer.close()


async def wait_settled(
    service: FractureService, job_id: str, timeout_s: float = 60.0
) -> dict:
    response = await request(
        service, {"op": "wait", "job_id": job_id, "timeout_s": timeout_s}
    )
    assert not response.get("timed_out"), f"{job_id} never settled"
    return response["job"]


def windowed_bar_payload(vertices, **overrides) -> dict:
    job = {"clips": {"bar": vertices}, "method": "partition",
           "window_nm": 100.0, **overrides}
    return {"op": "submit", "job": job}


def assert_no_torn_state(state_dir: Path) -> int:
    """Every state file under ``state_dir`` parses; returns files seen.

    "No torn state files" is the blanket durability gate: after any
    fault, whatever exists on disk is valid JSON/JSONL (modulo the
    final line of an append-only stream, which readers skip by design)
    or is quarantined with a ``.bad`` suffix.
    """
    seen = 0
    for path in sorted(state_dir.rglob("*.json")):
        seen += 1
        json.loads(path.read_text())  # raises on a torn file
    for stream in sorted(state_dir.rglob("*.jsonl")):
        seen += 1
        lines = stream.read_text().splitlines()
        for line in lines[:-1]:  # the tail may be mid-append
            json.loads(line)
    return seen


def cold_reference(tmp_path: Path, vertices) -> dict:
    """The job's result computed outside any daemon (the golden copy)."""
    submission = validate_submission({
        "clips": {"bar": vertices}, "method": "partition",
        "window_nm": 100.0,
    })
    record = JobRecord(job_id="job-c0ffee00", spec=submission)
    record.attempts = 1
    return execute_job(
        record, JobPaths.for_job(tmp_path / "cold", record.job_id)
    )


def spawn_daemon(
    state_dir: Path, cwd: Path, *extra_args: str, env_extra=None
) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", str(state_dir), "--workers", "1", *extra_args],
        cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


@pytest.mark.timeout(300)
class TestKillRecovery:
    def test_sigkill_then_restart_bit_identical(self, tmp_path, chaos_plan):
        """Kill the daemon mid-tiled-job; recovery must replay exactly."""
        reference = cold_reference(tmp_path, LONG_BAR)
        state_dir = tmp_path / "state"
        daemon = spawn_daemon(state_dir, tmp_path)
        try:
            wait_for_daemon(state_dir, timeout_s=30)
            client = ServiceClient(state_dir)
            job_id = client.submit(
                {"bar": LONG_BAR}, method="partition", window_nm=100.0
            )
            paths = JobPaths.for_job(state_dir, job_id)
            # Kill once at least one tile is stored — mid-job, with
            # settled work worth resuming.
            wait_for_first_tile(paths.checkpoint_dir)
            daemon.kill()
            daemon.wait(timeout=30)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)

        assert_no_torn_state(state_dir)

        daemon2 = spawn_daemon(state_dir, tmp_path)
        try:
            wait_for_daemon(state_dir, timeout_s=30)
            client = ServiceClient(state_dir)
            finished = client.wait(job_id, timeout_s=120)
            assert finished["state"] == "done", chaos_plan
            result = client.result(job_id)
            assert result["resumed"] is True
            assert result["clips"]["bar"]["shots"] == \
                reference["clips"]["bar"]["shots"], chaos_plan
            client.shutdown("drain")
            daemon2.wait(timeout=60)
        finally:
            if daemon2.poll() is None:
                daemon2.kill()
                daemon2.wait(timeout=30)


@pytest.mark.timeout(300)
class TestTruncatedJournalRecovery:
    def test_torn_journal_tail_recomputes_bit_identical(
        self, tmp_path, chaos_plan
    ):
        """A torn tile entry (crash mid-write, bit rot) must not poison
        recovery: it is quarantined and its tile recomputed."""
        reference = cold_reference(tmp_path, LONG_BAR)
        state_dir = tmp_path / "state"

        async def interrupt_mid_job() -> str:
            service = FractureService(state_dir, workers=1)
            await service.start()
            response = await request(
                service, windowed_bar_payload(LONG_BAR)
            )
            job_id = response["job_id"]
            paths = JobPaths.for_job(state_dir, job_id)
            deadline = time.monotonic() + 60
            while (
                time.monotonic() < deadline
                and not stored_tiles(paths.checkpoint_dir)
            ):
                await asyncio.sleep(0.02)
            await service.stop("interrupt")  # stop + requeue
            return job_id

        job_id = asyncio.run(interrupt_mid_job())

        paths = JobPaths.for_job(state_dir, job_id)
        entry = next(iter(stored_tiles(paths.checkpoint_dir)))
        truncate_tail(entry, chaos_plan.seed)  # torn mid-entry, seeded

        async def recover() -> dict:
            service = FractureService(state_dir, workers=1)
            await service.start()
            try:
                job = await wait_settled(service, job_id, timeout_s=120)
                assert job["state"] == "done", chaos_plan
                result = json.loads(paths.result_json.read_text())
                return result
            finally:
                await service.stop("drain")

        result = asyncio.run(recover())
        assert result["clips"]["bar"]["shots"] == \
            reference["clips"]["bar"]["shots"], chaos_plan
        assert entry.with_suffix(".json.bad").exists(), chaos_plan


@pytest.mark.timeout(300)
class TestDiskFull:
    def test_disk_full_fails_typed_then_freed_disk_succeeds(self, tmp_path):
        """Shimmed zero free space: typed failure, no torn bytes, and a
        healthy job right after the space comes back."""

        async def main():
            service = FractureService(
                tmp_path / "state", workers=1,
                limits=ServiceLimits(disk_floor_bytes=1024 * 1024),
            )
            await service.start()
            try:
                with disk_full(0):
                    response = await request(
                        service, windowed_bar_payload(SHORT_BAR)
                    )
                    assert response["ok"]  # admission is not a disk guard
                    starved = await wait_settled(
                        service, response["job_id"], timeout_s=60
                    )
                    assert starved["state"] == "failed"
                    assert starved["error_code"] == "disk_full"
                    stats = await request(service, {"op": "stats"})
                    assert stats["guard"]["counters"]["disk_full"] == 1
                assert_no_torn_state(tmp_path / "state")
                # Space back: the very next job must succeed.
                response = await request(
                    service,
                    windowed_bar_payload(SHORT_BAR, name="after-free"),
                )
                healthy = await wait_settled(
                    service, response["job_id"], timeout_s=60
                )
                assert healthy["state"] == "done"
            finally:
                await service.stop("drain")

        asyncio.run(main())


@pytest.mark.timeout(300)
class TestOverBudget:
    def stuck_runner_factory(self):
        def stuck_runner(record, paths, caches, control):
            if record.spec.get("method") == "partition":
                # The degraded baseline "succeeds" instantly.
                return {"totals": {"clips": 1, "shots": 1,
                                   "feasible": True, "cached_clips": 0}}
            while True:
                control.raise_if_stopped()
                time.sleep(0.01)
        return stuck_runner

    def test_over_budget_killed_fast_healthy_job_unharmed(self, tmp_path):
        async def main():
            service = FractureService(
                tmp_path, workers=2,
                job_runner=self.stuck_runner_factory(),
                limits=ServiceLimits(
                    job_wall_budget_s=0.3, watchdog_interval_s=0.1
                ),
            )
            await service.start()
            try:
                hog = await request(service, {"op": "submit", "job": {
                    "clips": {"sq": SQUARE}, "method": "ours",
                }})
                healthy = await request(service, {"op": "submit", "job": {
                    "clips": {"sq": SQUARE}, "method": "partition",
                }})
                started = time.monotonic()
                hog_job = await wait_settled(
                    service, hog["job_id"], timeout_s=10
                )
                settled_after = time.monotonic() - started
                assert hog_job["state"] == "failed"
                assert hog_job["error_code"] == "over_budget"
                assert "wall" in hog_job["error"]
                # Budget 0.3s + one watchdog interval 0.1s + slack: the
                # kill must land promptly, not at some coarse sweep.
                assert settled_after < 5.0
                healthy_job = await wait_settled(
                    service, healthy["job_id"], timeout_s=10
                )
                assert healthy_job["state"] == "done"
                stats = await request(service, {"op": "stats"})
                assert stats["guard"]["counters"]["over_budget"] == 1
            finally:
                await service.stop("drain")

        asyncio.run(main())

    def test_degrade_over_budget_requeues_on_baseline(self, tmp_path):
        async def main():
            service = FractureService(
                tmp_path, workers=1,
                job_runner=self.stuck_runner_factory(),
                limits=ServiceLimits(
                    job_wall_budget_s=0.2, watchdog_interval_s=0.05,
                    degrade_over_budget=True,
                ),
            )
            await service.start()
            try:
                submitted = await request(service, {"op": "submit", "job": {
                    "clips": {"sq": SQUARE}, "method": "ours",
                }})
                job = await wait_settled(
                    service, submitted["job_id"], timeout_s=15
                )
                assert job["state"] == "done"  # finished on the baseline
                assert job["spec"]["method"] == "partition"
                assert job["spec"]["degraded_from"] == "ours"
                assert job["attempts"] == 2
                stats = await request(service, {"op": "stats"})
                assert stats["guard"]["counters"]["degraded"] == 1
            finally:
                await service.stop("drain")

        asyncio.run(main())


@pytest.mark.timeout(300)
class TestStallAndFlood:
    def test_stalled_client_never_blocks_healthy_traffic(self, tmp_path):
        async def main():
            service = FractureService(
                tmp_path, workers=1,
                job_runner=lambda record, paths, caches, control: {
                    "totals": {"clips": 1, "shots": 0, "feasible": True,
                               "cached_clips": 0}},
                limits=ServiceLimits(read_deadline_s=0.3),
            )
            await service.start()
            loop = asyncio.get_running_loop()
            try:
                def stall_and_collect() -> bytes:
                    with stalled_request(
                        service.socket_path, {"op": "ping"}
                    ) as stalled:
                        return stalled.response()

                stall = loop.run_in_executor(None, stall_and_collect)
                # While the staller squats, a healthy client round-trips.
                submitted = await request(service, {"op": "submit", "job": {
                    "clips": {"sq": SQUARE}, "method": "partition",
                }})
                job = await wait_settled(
                    service, submitted["job_id"], timeout_s=10
                )
                assert job["state"] == "done"
                raw = await asyncio.wait_for(stall, timeout=10)
                torn = decode_line(raw)
                assert torn["reason"] == "read_timeout"
                assert service.guard_counters["read_timeouts"] == 1
            finally:
                await service.stop("drain")

        asyncio.run(main())

    def test_flood_sheds_load_healthy_client_lands(self, tmp_path):
        async def main():
            service = FractureService(
                tmp_path, workers=1,
                job_runner=lambda record, paths, caches, control: {
                    "totals": {"clips": 1, "shots": 0, "feasible": True,
                               "cached_clips": 0}},
                limits=ServiceLimits(rate_per_s=0.001, rate_burst=5),
            )
            await service.start()
            loop = asyncio.get_running_loop()
            socket_path = service.socket_path

            def one_submit(client: ServiceClient, name: str):
                return client.submit(
                    {"sq": SQUARE}, method="partition", name=name,
                    idempotent=False,
                )

            try:
                attacker = ServiceClient(
                    tmp_path, client_id="attacker", timeout_s=10
                )
                tally = await loop.run_in_executor(
                    None,
                    lambda: flood_submits(
                        lambda i: one_submit(attacker, f"flood-{i}"), 50
                    ),
                )
                assert tally["ok"] == 5  # the burst
                assert tally["rate_limited"] == 45
                victim = ServiceClient(
                    tmp_path, client_id="victim", timeout_s=10
                )
                job_id = await loop.run_in_executor(
                    None, lambda: one_submit(victim, "victim")
                )
                job = await wait_settled(service, job_id, timeout_s=10)
                assert job["state"] == "done"
                assert socket_path.exists()
            finally:
                await service.stop("drain")

        asyncio.run(main())


class TestCorruptCacheUnderDaemon:
    def test_corrupt_disk_entry_quarantined_and_recomputed(
        self, tmp_path, chaos_plan
    ):
        """A flipped-bytes cache entry must be quarantined, not served."""

        async def main():
            from repro.service.caches import WarmCaches

            store = tmp_path / "cache"
            caches = WarmCaches(persist_dir=store)
            service = FractureService(
                tmp_path / "state", workers=1, caches=caches
            )
            await service.start()
            try:
                first = await request(service, {"op": "submit", "job": {
                    "clips": {"sq": SQUARE}, "method": "partition",
                }})
                job = await wait_settled(service, first["job_id"], 60)
                assert job["state"] == "done"
                entries = list(store.glob("*.json"))
                assert entries
                offsets = corrupt_bytes(entries[0], chaos_plan.seed)
                assert offsets
                caches.results.clear()  # force the (corrupt) disk path
                second = await request(service, {"op": "submit", "job": {
                    "clips": {"sq": SQUARE}, "method": "partition",
                    "name": "retry",
                }})
                job2 = await wait_settled(service, second["job_id"], 60)
                assert job2["state"] == "done", chaos_plan
                stats = await request(service, {"op": "stats"})
                cache_stats = stats["caches"]["result"]
                assert cache_stats["corrupt_quarantined"] == 1
                assert list(store.glob("*.json.bad")), chaos_plan
            finally:
                await service.stop("drain")

        asyncio.run(main())


class TestPlanDeterminism:
    def test_same_seed_same_plan(self):
        a, b = ChaosPlan(CHAOS_SEED), ChaosPlan(CHAOS_SEED)
        assert a.events() == b.events()
        assert ChaosPlan(CHAOS_SEED + 1).events() != a.events()

    def test_corruption_is_seed_deterministic(self, tmp_path):
        for name in ("a", "b"):
            (tmp_path / name).write_bytes(bytes(range(256)))
        off_a = corrupt_bytes(tmp_path / "a", CHAOS_SEED)
        off_b = corrupt_bytes(tmp_path / "b", CHAOS_SEED)
        assert off_a == off_b
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
