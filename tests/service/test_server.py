"""Daemon control plane: lifecycle, ordering, backpressure, cancel, wait.

Every test runs an in-process :class:`FractureService` on a private
state directory with a *stub* job runner, so the control plane is
exercised in milliseconds without fracturing anything.  Requests go
through the real Unix socket and wire protocol.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.service.executor import JobCancelled, JobInterrupted
from repro.service.jobs import JobState
from repro.service.protocol import decode_line, encode_line
from repro.service.server import FractureService, daemon_info

CLIPS = {"sq": [[0, 0], [40, 0], [40, 40], [0, 40]]}


def submit_payload(priority: int = 0, **overrides) -> dict:
    job = {"clips": CLIPS, "method": "partition", "priority": priority,
           **overrides}
    return {"op": "submit", "job": job}


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


def run(coro):
    return asyncio.run(coro)


def instant_runner(record, paths, caches, control):
    return {"totals": {"clips": 1, "shots": 0, "feasible": True,
                       "cached_clips": 0}}


class GateRunner:
    """Stub runner that records execution order and can block on a gate."""

    def __init__(self):
        self.order: list[str] = []
        self.gate = threading.Event()
        self.started = threading.Event()

    def __call__(self, record, paths, caches, control):
        self.started.set()
        self.order.append(record.spec.get("name") or record.job_id)
        while not self.gate.wait(0.01):
            control.raise_if_stopped()
        control.raise_if_stopped()
        return {"totals": {"clips": 0, "shots": 0, "feasible": True,
                           "cached_clips": 0}}


class TestLifecycle:
    def test_submit_runs_to_done(self, tmp_path):
        async def main():
            service = FractureService(
                tmp_path, workers=1, job_runner=instant_runner
            )
            await service.start()
            try:
                response = await request(service, submit_payload())
                assert response["ok"]
                job_id = response["job_id"]
                waited = await request(
                    service, {"op": "wait", "job_id": job_id, "timeout_s": 10}
                )
                assert waited["job"]["state"] == "done"
                assert waited["job"]["summary"]["feasible"] is True
                status = await request(
                    service, {"op": "status", "job_id": job_id}
                )
                assert status["job"]["attempts"] == 1
            finally:
                await service.stop("drain")

        run(main())

    def test_ping_lists_stats_and_unknown_ops(self, tmp_path):
        async def main():
            service = FractureService(
                tmp_path, workers=1, job_runner=instant_runner
            )
            await service.start()
            try:
                assert daemon_info(tmp_path) is not None
                ping = await request(service, {"op": "ping"})
                assert ping["ok"] and ping["schema"] == "repro.service/v1"
                bogus = await request(service, {"op": "explode"})
                assert not bogus["ok"] and bogus["code"] == "unknown_op"
                listing = await request(service, {"op": "list"})
                assert listing["jobs"] == []
                stats = await request(service, {"op": "stats"})
                assert stats["queued"] == 0
                assert "result" in stats["caches"]
            finally:
                await service.stop("drain")
            assert daemon_info(tmp_path) is None  # daemon.json cleaned up

        run(main())

    def test_job_failure_is_contained(self, tmp_path):
        def exploding_runner(record, paths, caches, control):
            raise RuntimeError("boom")

        async def main():
            service = FractureService(
                tmp_path, workers=1, job_runner=exploding_runner
            )
            await service.start()
            try:
                job_id = (await request(service, submit_payload()))["job_id"]
                waited = await request(
                    service, {"op": "wait", "job_id": job_id, "timeout_s": 10}
                )
                assert waited["job"]["state"] == "failed"
                assert "boom" in waited["job"]["error"]
                result = await request(
                    service, {"op": "result", "job_id": job_id}
                )
                assert not result["ok"] and result["code"] == "not_done"
                # The daemon survived: next submission still works.
                assert (await request(service, submit_payload()))["ok"]
            finally:
                await service.stop("drain")

        run(main())


class TestSchedulingOrder:
    def test_priority_then_fifo(self, tmp_path):
        """With the single worker blocked, queued jobs run by (prio, seq)."""
        runner = GateRunner()

        async def main():
            service = FractureService(tmp_path, workers=1, job_runner=runner)
            await service.start()
            try:
                await request(service, submit_payload(0, name="blocker"))
                await asyncio.get_running_loop().run_in_executor(
                    None, runner.started.wait, 5
                )
                ids = {}
                for name, prio in (
                    ("low-a", 0), ("high-a", 5), ("low-b", 0), ("high-b", 5),
                ):
                    response = await request(
                        service, submit_payload(prio, name=name)
                    )
                    ids[name] = response["job_id"]
                runner.gate.set()
                for name in ids:
                    await request(service, {
                        "op": "wait", "job_id": ids[name], "timeout_s": 10,
                    })
            finally:
                await service.stop("drain")

        run(main())
        assert runner.order == [
            "blocker", "high-a", "high-b", "low-a", "low-b"
        ]


class TestBackpressure:
    def test_queue_full_surfaces_to_client(self, tmp_path):
        runner = GateRunner()

        async def main():
            service = FractureService(
                tmp_path, workers=1, max_queue_depth=2, job_runner=runner
            )
            await service.start()
            try:
                await request(service, submit_payload(name="blocker"))
                await asyncio.get_running_loop().run_in_executor(
                    None, runner.started.wait, 5
                )
                assert (await request(service, submit_payload()))["ok"]
                assert (await request(service, submit_payload()))["ok"]
                rejected = await request(service, submit_payload(priority=9))
                assert not rejected["ok"]
                assert rejected["code"] == "queue_full"
                runner.gate.set()
            finally:
                await service.stop("drain")

        run(main())


class TestCancel:
    def test_cancel_queued_job(self, tmp_path):
        runner = GateRunner()

        async def main():
            service = FractureService(tmp_path, workers=1, job_runner=runner)
            await service.start()
            try:
                await request(service, submit_payload(name="blocker"))
                await asyncio.get_running_loop().run_in_executor(
                    None, runner.started.wait, 5
                )
                queued = (await request(service, submit_payload(name="victim")))["job_id"]
                cancelled = await request(
                    service, {"op": "cancel", "job_id": queued}
                )
                assert cancelled["state"] == "cancelled"
                runner.gate.set()
            finally:
                await service.stop("drain")
            assert runner.order == ["blocker"]  # victim never ran

        run(main())

    def test_cancel_running_job(self, tmp_path):
        runner = GateRunner()  # gate never opens; only cancel stops it

        async def main():
            service = FractureService(tmp_path, workers=1, job_runner=runner)
            await service.start()
            try:
                job_id = (await request(service, submit_payload()))["job_id"]
                await asyncio.get_running_loop().run_in_executor(
                    None, runner.started.wait, 5
                )
                response = await request(
                    service, {"op": "cancel", "job_id": job_id}
                )
                assert response["cancelling"]
                waited = await request(
                    service, {"op": "wait", "job_id": job_id, "timeout_s": 10}
                )
                assert waited["job"]["state"] == "cancelled"
            finally:
                await service.stop("drain")

        run(main())

    def test_cancel_unknown_job(self, tmp_path):
        async def main():
            service = FractureService(
                tmp_path, workers=1, job_runner=instant_runner
            )
            await service.start()
            try:
                response = await request(
                    service, {"op": "cancel", "job_id": "job-deadbeef"}
                )
                assert not response["ok"]
                assert response["code"] == "unknown_job"
            finally:
                await service.stop("drain")

        run(main())


class TestShutdownModes:
    def test_interrupt_requeues_running_job(self, tmp_path):
        runner = GateRunner()  # blocks until the stop event fires

        async def main():
            service = FractureService(tmp_path, workers=1, job_runner=runner)
            await service.start()
            job_id = (await request(service, submit_payload()))["job_id"]
            await asyncio.get_running_loop().run_in_executor(
                None, runner.started.wait, 5
            )
            await service.stop("interrupt")
            return job_id

        job_id = run(main())
        # On disk: queued again with resume set, ready for the next daemon.
        from repro.service.jobs import JobPaths, JobRecord

        record = JobRecord.load(JobPaths.for_job(tmp_path, job_id))
        assert record.state is JobState.QUEUED
        assert record.resume
        assert record.attempts == 1

    def test_second_daemon_on_live_state_dir_refused(self, tmp_path):
        async def main():
            service = FractureService(
                tmp_path, workers=1, job_runner=instant_runner
            )
            await service.start()
            try:
                rival = FractureService(tmp_path, workers=1)
                with pytest.raises(RuntimeError, match="already running"):
                    await rival.start()
            finally:
                await service.stop("drain")

        run(main())


class TestRestartRecovery:
    def test_queued_jobs_recovered_in_order(self, tmp_path):
        """Daemon 1 dies with queued jobs; daemon 2 runs them in order."""
        runner1 = GateRunner()

        async def first_daemon():
            service = FractureService(tmp_path, workers=1, job_runner=runner1)
            await service.start()
            await request(service, submit_payload(name="blocker"))
            await asyncio.get_running_loop().run_in_executor(
                None, runner1.started.wait, 5
            )
            for name, prio in (("low", 0), ("high", 4)):
                await request(service, submit_payload(prio, name=name))
            # Graceful interrupt: the running blocker stops and is
            # requeued with resume before the daemon exits.  (The
            # ungraceful SIGKILL path is covered by the CLI smoke test.)
            await service.stop("interrupt")

        run(first_daemon())

        runner2 = GateRunner()
        runner2.gate.set()

        async def second_daemon():
            service = FractureService(tmp_path, workers=1, job_runner=runner2)
            await service.start()
            try:
                # All three were persisted as queued: the blocker was
                # gracefully requeued (resume=True) by the interrupt.
                assert service.recovered["queued"] == 3
                assert service.recovered["resumed"] == 0
                blocker = next(
                    record for record in service.jobs.values()
                    if record.spec["name"] == "blocker"
                )
                assert blocker.resume and blocker.attempts == 1
                listing = await request(service, {"op": "list"})
                waiting = [
                    job["job_id"] for job in listing["jobs"]
                    if job["state"] in ("queued", "running")
                ]
                for job_id in waiting:
                    await request(service, {
                        "op": "wait", "job_id": job_id, "timeout_s": 10,
                    })
            finally:
                await service.stop("drain")

        run(second_daemon())
        # Priority order survives the restart; the interrupted blocker
        # re-runs where its priority puts it, flagged as resumed.
        assert runner2.order == ["high", "blocker", "low"]


class TestWaitOp:
    def test_wait_times_out_cleanly(self, tmp_path):
        runner = GateRunner()

        async def main():
            service = FractureService(tmp_path, workers=1, job_runner=runner)
            await service.start()
            try:
                job_id = (await request(service, submit_payload()))["job_id"]
                t0 = time.monotonic()
                waited = await request(service, {
                    "op": "wait", "job_id": job_id, "timeout_s": 0.2,
                })
                assert waited["timed_out"]
                assert time.monotonic() - t0 < 5.0
                runner.gate.set()
            finally:
                await service.stop("drain")

        run(main())


class TestStatsHeartbeats:
    def test_stats_reports_wedged_and_dead_jobs(self, tmp_path):
        """The stats op folds the per-job heartbeat files into a summary:
        a fresh beat with an ancient task is a *wedged* job (slow_task),
        a stale file a *dead* one (no_heartbeat) — flagged, not just
        slow."""
        import json as _json

        hb_dir = tmp_path / "heartbeats"
        hb_dir.mkdir()
        now = time.time()
        (hb_dir / "hb-job-wedged00.json").write_text(_json.dumps({
            "pid": 11, "t": now, "tile": "CLIP-3",
            "task_started_t": now - 10_000.0, "job_id": "job-wedged00",
        }))
        (hb_dir / "hb-job-dead0000.json").write_text(_json.dumps({
            "pid": 12, "t": now - 10_000.0, "job_id": "job-dead0000",
        }))
        (hb_dir / "hb-job-alive000.json").write_text(_json.dumps({
            "pid": 13, "t": now, "job_id": "job-alive000",
        }))

        async def main():
            service = FractureService(
                tmp_path, workers=1, job_runner=instant_runner
            )
            await service.start()
            try:
                stats = await request(service, {"op": "stats"})
                summary = stats["heartbeats"]
                assert summary["alive"] == 1 and summary["stalled"] == 2
                by_job = {w["job_id"]: w["status"] for w in summary["workers"]}
                assert by_job == {
                    "job-wedged00": "slow_task",
                    "job-dead0000": "no_heartbeat",
                    "job-alive000": "alive",
                }
            finally:
                await service.stop("drain")

        run(main())

    def test_real_job_beats_and_cleans_up(self, tmp_path):
        """A real (non-stub) job run publishes a heartbeat while
        executing and unlinks it on completion."""
        from repro.service.executor import JobControl, execute_job
        from repro.service.jobs import JobPaths, JobRecord, new_job_id

        record = JobRecord(
            job_id=new_job_id(),
            spec={"clips": CLIPS, "method": "partition"},
            attempts=1,
        )
        paths = JobPaths.for_job(tmp_path, record.job_id)
        payload = execute_job(record, paths, None, JobControl())
        assert payload["totals"]["clips"] == 1
        assert not list((tmp_path / "heartbeats").glob("hb-*.json"))
