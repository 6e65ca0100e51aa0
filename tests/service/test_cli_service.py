"""End-to-end CLI smoke: real daemon subprocess, real signals.

The in-process server tests cover the control plane; these cover what
only a subprocess can — a SIGKILLed daemon leaving a ``running`` job on
disk for the next daemon to resume bit-identically, and a SIGTERM'd
``fracture`` run closing its telemetry stream with a clean
``interrupted`` terminal record.

The long bar tiles 66×1 under ``window_nm=100`` (~1.5 s of tile work),
so "kill after the first tile settles" lands mid-job with a wide
margin.  Each test carries a generous ``pytest.mark.timeout`` for the
CI runner (the marker is inert without pytest-timeout installed).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.stream import read_stream
from repro.service.client import ServiceClient, wait_for_daemon
from repro.service.executor import execute_job
from repro.service.jobs import JobPaths, JobRecord, validate_submission
from tests.service.conftest import stored_tiles, wait_for_first_tile

LONG_BAR = [[0.0, 0.0], [6600.0, 0.0], [6600.0, 60.0], [0.0, 60.0]]
SHORT_BAR = [[0.0, 0.0], [220.0, 0.0], [220.0, 60.0], [0.0, 60.0]]


def write_clip_file(path: Path, name: str, vertices: list) -> Path:
    path.write_text(json.dumps({
        "format": "repro-clips",
        "clips": {name: {"vertices": vertices}},
    }))
    return path


def spawn(args: list[str], cwd: Path) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def run_cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    process = spawn(args, cwd)
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, f"{args} failed:\n{stdout}\n{stderr}"
    return subprocess.CompletedProcess(args, process.returncode, stdout, stderr)


@pytest.mark.timeout(300)
class TestDaemonKillRestart:
    def test_sigkill_mid_job_then_restart_is_bit_identical(self, tmp_path):
        """ISSUE smoke: two priorities, tail a stream, kill+restart mid-job."""
        submission = validate_submission({
            "clips": {"bar": LONG_BAR},
            "method": "partition",
            "window_nm": 100.0,
        })
        reference_record = JobRecord(job_id="job-c01dc01d", spec=submission)
        reference_record.attempts = 1
        reference = execute_job(
            reference_record,
            JobPaths.for_job(tmp_path / "cold", reference_record.job_id),
        )

        state_dir = tmp_path / "state"
        clip_file = write_clip_file(tmp_path / "bar.json", "bar", LONG_BAR)
        daemon = spawn(
            ["serve", "--state-dir", str(state_dir), "--workers", "1"],
            tmp_path,
        )
        try:
            assert wait_for_daemon(state_dir, timeout_s=30)
            client = ServiceClient(state_dir)

            # A queued low-priority sibling rides along across the kill.
            submitted = run_cli(
                ["job", "submit", "--state-dir", str(state_dir),
                 "--clip-file", str(clip_file), "--method", "partition",
                 "--window-nm", "100", "--priority", "5"],
                tmp_path,
            )
            job_id = submitted.stdout.splitlines()[0].strip()
            sibling = client.submit(
                {"short": SHORT_BAR}, method="partition", priority=0,
                window_nm=100.0,
            )

            paths = JobPaths.for_job(state_dir, job_id)
            wait_for_first_tile(paths.checkpoint_dir)
            daemon.kill()  # SIGKILL: no graceful requeue, no cleanup
            daemon.wait(timeout=30)

            on_disk = JobRecord.load(paths)
            assert on_disk.state.value == "running"  # crash left it mid-job

            # The partial stream is already tailable by job id.
            tailed = run_cli(
                ["trace", "tail", job_id, "--state-dir", str(state_dir)],
                tmp_path,
            )
            assert "job_start" in tailed.stdout
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)

        daemon2 = spawn(
            ["serve", "--state-dir", str(state_dir), "--workers", "1"],
            tmp_path,
        )
        try:
            assert wait_for_daemon(state_dir, timeout_s=30)
            banner = daemon2.stdout.readline()
            assert "recovered 1 queued / 1 resumed" in banner

            client = ServiceClient(state_dir)
            finished = client.wait(job_id, timeout_s=120)
            assert finished["state"] == "done"
            result = client.result(job_id)
            assert result["resumed"] is True
            assert result["attempts"] == 2
            assert result["clips"]["bar"]["shots"] == \
                reference["clips"]["bar"]["shots"]

            assert client.wait(sibling, timeout_s=120)["state"] == "done"
            run_cli(
                ["job", "shutdown", "--state-dir", str(state_dir)], tmp_path
            )
            daemon2.wait(timeout=60)
        finally:
            if daemon2.poll() is None:
                daemon2.kill()
                daemon2.wait(timeout=30)


@pytest.mark.timeout(300)
class TestGracefulFractureSignals:
    def test_sigterm_flushes_checkpoint_and_closes_stream(self, tmp_path):
        clip_file = write_clip_file(tmp_path / "bar.json", "bar", LONG_BAR)
        stream = tmp_path / "stream.jsonl"
        store_dir = tmp_path / "ckpt"
        process = spawn(
            ["fracture", "--method", "partition",
             "--clip-file", str(clip_file), "--window-nm", "100",
             "--fracture-cache", str(store_dir),
             "--stream", str(stream),
             "--output", str(tmp_path / "out")],
            tmp_path,
        )
        try:
            wait_for_first_tile(store_dir)
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)

        assert process.returncode == 130
        assert "interrupted" in stderr

        # The stream closed with a clean terminal record.
        records = read_stream(stream)
        ends = [r for r in records if r["type"] == "stream_end"]
        assert len(ends) == 1
        assert ends[0]["status"] == "interrupted"

        # The store kept the settled tiles; a re-run against it replays
        # them and completes.
        settled = len(stored_tiles(store_dir))
        assert settled >= 1
        resumed = run_cli(
            ["fracture", "--method", "partition",
             "--clip-file", str(clip_file), "--window-nm", "100",
             "--fracture-cache", str(store_dir),
             "--telemetry", str(tmp_path / "resumed.json"),
             "--output", str(tmp_path / "out")],
            tmp_path,
        )
        assert resumed.returncode == 0
        payload = json.loads((tmp_path / "resumed.json").read_text())
        assert payload["counters"]["windowed.tiles_replayed"] == settled
