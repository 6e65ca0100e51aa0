"""Resume through the service: interrupted jobs finish bit-identically.

Two layers:

* executor level — a stop that trips after the first tile settles must
  leave stored tiles the resumed attempt replays, and the resumed shot
  list must equal an uninterrupted cold run exactly;
* daemon level — a job found ``running`` on disk (previous daemon
  died under it) is requeued with resume and completes identically.

The ``bar`` clip tiles 3×1 under ``window_nm=100``, so there are real
tiles to store and a real seam stitch in the result.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.stream import read_stream
from repro.service.executor import (
    JobControl,
    JobInterrupted,
    execute_job,
)
from repro.service.jobs import (
    JobPaths,
    JobRecord,
    JobState,
    validate_submission,
)
from repro.service.protocol import decode_line, encode_line
from repro.service.server import FractureService
from tests.service.conftest import stored_tiles

BAR = {"bar": [[0, 0], [220, 0], [220, 60], [0, 60]]}


def bar_submission(**overrides) -> dict:
    return validate_submission({
        "clips": BAR,
        "method": "partition",
        "window_nm": 100.0,
        **overrides,
    })


class TripControl(JobControl):
    """Flips the daemon stop flag after ``trip_after`` tile checks.

    The tiled runtime polls ``should_stop`` before each tile, so
    ``trip_after=1`` lets exactly one tile settle (and be stored) before
    the graceful interrupt fires — a deterministic mid-job SIGTERM.
    """

    def __init__(self, trip_after: int):
        super().__init__()
        self._checks = 0
        self._trip_after = trip_after

    def should_stop(self) -> bool:
        self._checks += 1
        if self._checks > self._trip_after:
            self.stop.set()
        return super().should_stop()


def cold_run(tmp_path) -> dict:
    record = JobRecord(job_id="job-c01dc01d", spec=bar_submission())
    record.attempts = 1
    return execute_job(
        record, JobPaths.for_job(tmp_path / "cold", record.job_id)
    )


class TestExecutorResume:
    def test_interrupt_then_resume_is_bit_identical(self, tmp_path):
        reference = cold_run(tmp_path)

        record = JobRecord(job_id="job-ab12ab12", spec=bar_submission())
        record.attempts = 1
        paths = JobPaths.for_job(tmp_path / "svc", record.job_id)
        with pytest.raises(JobInterrupted):
            execute_job(record, paths, None, TripControl(trip_after=1))

        # The job's store holds the settled tile(s), written before the
        # stop.
        tiles_before = stored_tiles(paths.checkpoint_dir)
        assert len(tiles_before) >= 1

        # Resumed attempt: same job dir, resume flag set.
        record.resume = True
        record.attempts = 2
        payload = execute_job(record, paths, None, JobControl())
        extra = payload["clips"]["bar"]["extra"]
        assert extra["tiles_replayed"] == len(tiles_before)

        assert payload["clips"]["bar"]["shots"] == \
            reference["clips"]["bar"]["shots"]
        assert payload["totals"]["shots"] == reference["totals"]["shots"]
        assert payload["resumed"] is True

    def test_stream_spans_both_attempts(self, tmp_path):
        record = JobRecord(job_id="job-ab34ab34", spec=bar_submission())
        record.attempts = 1
        paths = JobPaths.for_job(tmp_path / "svc", record.job_id)
        with pytest.raises(JobInterrupted):
            execute_job(record, paths, None, TripControl(trip_after=1))
        record.resume = True
        record.attempts = 2
        execute_job(record, paths, None, JobControl())

        records = read_stream(paths.stream)
        headers = [r for r in records if r["type"] == "stream_header"]
        ends = [r for r in records if r["type"] == "stream_end"]
        assert len(headers) == 2                # one per attempt
        assert headers[0]["resumed"] is False
        assert headers[1]["resumed"] is True
        # Exactly one terminal record, from the attempt that finished —
        # a follower attached across the restart sees one clean end.
        assert len(ends) == 1
        assert ends[0]["status"] == "ok"
        interrupts = [
            r for r in records
            if r.get("name") == "job_interrupted"
        ]
        assert len(interrupts) == 1


class TestDaemonRecovery:
    def test_running_job_on_disk_resumes_to_identical_result(self, tmp_path):
        reference = cold_run(tmp_path)

        # Craft the crash aftermath: job.json persisted as RUNNING (the
        # daemon died before any transition out of it).
        state_dir = tmp_path / "state"
        record = JobRecord(job_id="job-dead0001", spec=bar_submission())
        record.state = JobState.RUNNING
        record.attempts = 1
        record.seq = 4
        paths = JobPaths.for_job(state_dir, record.job_id)
        record.save(paths)

        async def main() -> dict:
            service = FractureService(state_dir, workers=1)
            await service.start()
            try:
                assert service.recovered["resumed"] == 1
                reader, writer = await asyncio.open_unix_connection(
                    str(service.socket_path)
                )
                try:
                    writer.write(encode_line({
                        "op": "wait", "job_id": record.job_id,
                        "timeout_s": 60,
                    }))
                    await writer.drain()
                    waited = decode_line(await reader.readline())
                    assert waited["job"]["state"] == "done"
                    writer.write(encode_line({
                        "op": "result", "job_id": record.job_id,
                    }))
                    await writer.drain()
                    return decode_line(await reader.readline())["result"]
                finally:
                    writer.close()
            finally:
                await service.stop("drain")

        result = asyncio.run(main())
        assert result["clips"]["bar"]["shots"] == \
            reference["clips"]["bar"]["shots"]
        assert result["attempts"] == 2          # recovery bumped it
        assert result["resumed"] is True

        # The persisted record settled too.
        final = JobRecord.load(paths)
        assert final.state is JobState.DONE
