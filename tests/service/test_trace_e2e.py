"""End-to-end trace correlation across a SIGKILLed daemon.

The acceptance invariant for the observability layer: ONE trace_id,
minted client-side at submit, is present on

* the durable job record (and survives a daemon restart),
* every stream record of every attempt — spans, tiles, events —
  across both daemon processes,
* every tile entry the job stores,
* the job heartbeat file of the resumed attempt,
* the exported chrome trace (structurally valid, single trace_id),

and enabling all of it never changes the shot output: the resumed
traced job must match a cold untraced run bit-identically.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs import (
    chrome_from_payload,
    load_telemetry,
    mint_trace,
    parse_prometheus,
    read_stream,
    validate_chrome_trace,
)
from repro.service.client import ServiceClient, wait_for_daemon
from repro.service.executor import execute_job
from repro.service.jobs import JobPaths, JobRecord, validate_submission
from tests.service.conftest import stored_tiles, wait_for_first_tile

LONG_BAR = [[0.0, 0.0], [6600.0, 0.0], [6600.0, 60.0], [0.0, 60.0]]


def spawn_daemon(state_dir: Path, cwd: Path) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", str(state_dir), "--workers", "1"],
        cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def cold_reference(tmp_path: Path) -> dict:
    """The same job outside any daemon, with tracing entirely off."""
    submission = validate_submission({
        "clips": {"bar": LONG_BAR}, "method": "partition",
        "window_nm": 100.0,
    })
    record = JobRecord(job_id="job-c0ffee00", spec=submission)
    record.attempts = 1
    return execute_job(
        record, JobPaths.for_job(tmp_path / "cold", record.job_id)
    )


@pytest.mark.timeout(300)
class TestTraceSurvivesSigkill:
    def test_one_trace_id_joins_both_daemon_processes(self, tmp_path):
        reference = cold_reference(tmp_path)
        state_dir = tmp_path / "state"
        trace = mint_trace()

        daemon = spawn_daemon(state_dir, tmp_path)
        try:
            wait_for_daemon(state_dir, timeout_s=30)
            client = ServiceClient(state_dir)
            job_id = client.submit(
                {"bar": LONG_BAR}, method="partition", window_nm=100.0,
                trace=trace,
            )
            assert client.last_trace_id == trace.trace_id
            paths = JobPaths.for_job(state_dir, job_id)
            wait_for_first_tile(paths.checkpoint_dir)
            daemon.kill()  # SIGKILL: no atexit, no graceful anything
            daemon.wait(timeout=30)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)

        daemon2 = spawn_daemon(state_dir, tmp_path)
        try:
            # -- heartbeat: read while the resumed attempt runs -----------
            # The executor unlinks the job's heartbeat file when the
            # attempt ends, and the killed first attempt left its own
            # file behind, so only a beat stamped attempt >= 2 counts.
            beat_file = state_dir / "heartbeats" / f"hb-{job_id}.json"
            resumed_beats = []
            deadline = time.monotonic() + 120
            while not resumed_beats and time.monotonic() < deadline:
                try:
                    beat = json.loads(beat_file.read_text())
                except (OSError, ValueError):
                    beat = {}
                if beat.get("attempt", 0) >= 2:
                    resumed_beats.append(beat)
                elif JobRecord.load(paths).state.settled:
                    break
                time.sleep(0.005)
            assert resumed_beats, "no heartbeat of the resumed attempt read"
            assert resumed_beats[0].get("trace_id") == trace.trace_id

            wait_for_daemon(state_dir, timeout_s=30)
            client = ServiceClient(state_dir)
            finished = client.wait(job_id, timeout_s=120)
            assert finished["state"] == "done"

            # -- job record: minted id survived the restart ---------------
            assert finished["trace"]["trace_id"] == trace.trace_id
            assert finished["attempts"] >= 2

            # -- metrics op: valid exposition from the second daemon ------
            parsed = parse_prometheus(client.metrics())
            assert any(
                name.startswith("repro_service_") for name, _ in parsed
            )

            result = client.result(job_id)
            client.shutdown("drain")
            daemon2.wait(timeout=60)
        finally:
            if daemon2.poll() is None:
                daemon2.kill()
                daemon2.wait(timeout=30)

        # -- determinism: traced + killed + resumed == cold untraced ------
        assert result["resumed"] is True
        assert result["clips"]["bar"]["shots"] == \
            reference["clips"]["bar"]["shots"]
        assert result["totals"]["shots"] == reference["totals"]["shots"]

        # -- stream: both attempts, one trace_id --------------------------
        records = read_stream(paths.stream)
        headers = [r for r in records if r["type"] == "stream_header"]
        assert len(headers) >= 2, "expected an attempt per daemon process"
        assert {h.get("pid") for h in headers} and len(
            {h.get("pid") for h in headers}
        ) >= 2, "attempts must come from two daemon processes"
        stamped = [r for r in records if "trace_id" in r]
        assert stamped, "no stream record carries a trace_id"
        assert {r["trace_id"] for r in stamped} == {trace.trace_id}
        # Spans — the tile work itself — are among the stamped records.
        assert any(r["type"] == "span_open" for r in stamped)
        assert any(r["type"] == "span_close" for r in stamped)

        # -- tile store: every stored tile carries the id ----------------
        entries = list(stored_tiles(paths.checkpoint_dir).values())
        assert len(entries) == result["clips"]["bar"]["extra"]["tiles_used"]
        assert {e["trace_id"] for e in entries} == {trace.trace_id}

        # -- chrome export: valid, joined to the same id ------------------
        doc = chrome_from_payload(load_telemetry(paths.stream))
        summary = validate_chrome_trace(
            doc, expect_trace_id=trace.trace_id
        )
        assert summary["spans"] > 0

    def test_server_mints_when_client_sends_garbage(self, tmp_path):
        """A hostile/legacy trace field degrades to a fresh server-side
        trace — the job still runs and is still correlated."""
        state_dir = tmp_path / "state"
        daemon = spawn_daemon(state_dir, tmp_path)
        try:
            wait_for_daemon(state_dir, timeout_s=30)
            client = ServiceClient(state_dir)
            job_id = client.submit(
                {"bar": [[0, 0], [220, 0], [220, 60], [0, 60]]},
                method="partition",
                trace={"trace_id": "NOT-HEX", "evil": "x" * 4096},
            )
            finished = client.wait(job_id, timeout_s=120)
            assert finished["state"] == "done"
            minted = (finished.get("trace") or {}).get("trace_id")
            assert minted and minted != "NOT-HEX"
            assert client.last_trace_id == minted
            client.shutdown("drain")
            daemon.wait(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)


class TestDaemonFoldMatchesCli:
    """A daemon job's stream folds to the same layer breakdown as the
    same clip run through ``repro fracture --stream``."""

    BAR = [[0.0, 0.0], [220.0, 0.0], [220.0, 60.0], [0.0, 60.0]]  # 3x1 tiles

    def test_phase_breakdown_matches_cli_run(self, tmp_path, capsys):
        from repro.cli import main
        from repro.geometry.polygon import Polygon
        from repro.mask.io import save_clips
        from repro.obs import phase_breakdown

        submission = validate_submission({
            "clips": {"bar": self.BAR}, "method": "partition",
            "window_nm": 100.0,
        })
        record = JobRecord(job_id="job-f01d0000", spec=submission)
        record.attempts = 1
        paths = JobPaths.for_job(tmp_path / "state", record.job_id)
        execute_job(record, paths)
        assert not (paths.root / "telemetry.json").exists()

        save_clips(
            {"bar": Polygon([tuple(v) for v in self.BAR])},
            tmp_path / "clips.json",
        )
        stream = tmp_path / "cli.jsonl"
        assert main(
            ["fracture", "--clip-file", str(tmp_path / "clips.json"),
             "--method", "partition", "--window-nm", "100",
             "--stream", str(stream)]
        ) == 0

        daemon = load_telemetry(paths.stream)
        cli = load_telemetry(stream)
        daemon_phases = phase_breakdown(daemon)

        def pairs(phases):
            return sorted((p["phase"], p["count"]) for p in phases)

        assert pairs(daemon_phases) == pairs(phase_breakdown(cli))
        assert ("tile", 3) in pairs(daemon_phases)
        [batch] = daemon["spans"]["children"]
        assert batch["name"] == "mdp.batch"
        assert sum(p["self_s"] for p in daemon_phases) == pytest.approx(
            batch["wall_s"]
        )
