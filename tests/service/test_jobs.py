"""Job model: validation, persistence round-trips, stream resolution."""

from __future__ import annotations

import pytest

from repro.service.jobs import (
    JobPaths,
    JobRecord,
    JobState,
    job_id_like,
    new_job_id,
    resolve_stream_path,
    validate_submission,
)

GOOD = {
    "clips": {"sq": [[0, 0], [40, 0], [40, 40], [0, 40]]},
    "method": "partition",
    "priority": 3,
}


class TestValidation:
    def test_defaults_filled(self):
        spec = validate_submission({"clips": GOOD["clips"]})
        assert spec["method"] == "ours"
        assert spec["priority"] == 0
        assert spec["window_nm"] is None
        assert spec["use_result_cache"] is True
        assert set(spec) == {
            "clips", "name", "method", "priority", "window_nm",
            "tile_workers", "use_result_cache", "spec",
        }

    def test_vertices_coerced_to_floats(self):
        spec = validate_submission(GOOD)
        assert spec["clips"]["sq"][1] == [40.0, 0.0]

    @pytest.mark.parametrize("bad", [
        None,
        {},
        {"clips": {}},
        {"clips": {"sq": [[0, 0], [1, 1]]}},            # < 3 vertices
        {"clips": {"sq": [[0, 0], [1], [2, 2]]}},       # malformed vertex
        {"clips": {"": [[0, 0], [1, 0], [1, 1]]}},      # empty name
        {"clips": GOOD["clips"], "priority": "high"},
        {"clips": GOOD["clips"], "window_nm": -5},
        {"clips": GOOD["clips"], "tile_workers": 0},
        {"clips": GOOD["clips"], "spec": {"bogus": 1.0}},
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            validate_submission(bad)

    def test_unknown_top_level_fields_dropped(self):
        spec = validate_submission({**GOOD, "evil": "payload"})
        assert "evil" not in spec


class TestRecordPersistence:
    def test_round_trip(self, tmp_path):
        record = JobRecord(
            job_id=new_job_id(),
            spec=validate_submission(GOOD),
            priority=3,
            seq=12,
        )
        paths = JobPaths.for_job(tmp_path, record.job_id)
        record.save(paths)
        loaded = JobRecord.load(paths)
        assert loaded.job_id == record.job_id
        assert loaded.state is JobState.QUEUED
        assert loaded.priority == 3
        assert loaded.seq == 12
        assert loaded.spec == record.spec

    def test_state_machine_fields_persist(self, tmp_path):
        record = JobRecord(job_id="job-00000001", spec=validate_submission(GOOD))
        record.state = JobState.RUNNING
        record.resume = True
        record.attempts = 2
        paths = JobPaths.for_job(tmp_path, record.job_id)
        record.save(paths)
        loaded = JobRecord.load(paths)
        assert loaded.state is JobState.RUNNING
        assert loaded.resume
        assert loaded.attempts == 2

    def test_settled_property(self):
        assert JobState.DONE.settled
        assert JobState.FAILED.settled
        assert JobState.CANCELLED.settled
        assert not JobState.QUEUED.settled
        assert not JobState.RUNNING.settled

    def test_public_view_strips_clip_geometry(self):
        record = JobRecord(job_id="job-00000002", spec=validate_submission(GOOD))
        view = record.public_view()
        assert "clips" not in view["spec"]
        assert view["spec"]["clip_names"] == ["sq"]
        assert view["state"] == "queued"


class TestStreamResolution:
    def test_job_id_shape(self):
        assert job_id_like(new_job_id())
        assert job_id_like("job-ab12cd34")
        assert not job_id_like("job-xyz")
        assert not job_id_like("stream.jsonl")

    def test_job_id_resolves_into_state_dir(self, tmp_path):
        path = resolve_stream_path("job-ab12cd34", tmp_path)
        assert path == tmp_path / "jobs" / "job-ab12cd34" / "stream.jsonl"

    def test_literal_path_passes_through(self, tmp_path):
        assert resolve_stream_path("run.jsonl", tmp_path).name == "run.jsonl"

    def test_existing_file_wins_over_job_id_shape(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        decoy = tmp_path / "job-ab12cd34"
        decoy.write_text("")
        assert resolve_stream_path("job-ab12cd34", tmp_path).resolve() == decoy
