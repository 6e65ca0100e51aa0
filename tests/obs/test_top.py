"""Unit tests for the ``repro top`` dashboard helpers (renderer-first)."""

from __future__ import annotations

import json

from repro.obs import gather_job_progress, render_top, tail_records


def _write_stream(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


class TestTailRecords:
    def test_reads_whole_small_file(self, tmp_path):
        path = tmp_path / "s.jsonl"
        _write_stream(path, [{"type": "event", "seq": i} for i in range(5)])
        assert len(tail_records(path)) == 5

    def test_windows_large_file_and_drops_torn_head(self, tmp_path):
        path = tmp_path / "s.jsonl"
        _write_stream(
            path, [{"type": "event", "seq": i, "pad": "x" * 100}
                   for i in range(2000)]
        )
        records = tail_records(path, max_bytes=4096)
        assert records
        assert len(records) < 2000
        assert records[-1]["seq"] == 1999  # tail is the live end

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"type": "event", "seq": 0}\n{"type": "ev')
        records = tail_records(path)
        assert records == [{"type": "event", "seq": 0}]

    def test_missing_file_is_empty(self, tmp_path):
        assert tail_records(tmp_path / "absent.jsonl") == []


class TestGatherJobProgress:
    def test_folds_progress_and_phase(self):
        snapshot = gather_job_progress([
            {"type": "span_open", "id": 0, "parent": None,
             "name": "fracture"},
            {"type": "span_open", "id": 1, "parent": 0, "name": "tile"},
            {"type": "span_close", "id": 1, "name": "tile"},
            {"type": "event", "name": "progress", "tiles_done": 3,
             "tiles_total": 9, "shots": 120, "eta_s": 42.0},
        ])
        assert snapshot["tiles_done"] == 3
        assert snapshot["tiles_total"] == 9
        assert snapshot["phase"] == "fracture"  # tile closed, fracture open

    def test_latest_progress_wins(self):
        snapshot = gather_job_progress([
            {"type": "event", "name": "progress", "tiles_done": 1,
             "tiles_total": 9},
            {"type": "event", "name": "progress", "tiles_done": 5,
             "tiles_total": 9},
        ])
        assert snapshot["tiles_done"] == 5

    def test_stalls_and_gaps_surface(self):
        snapshot = gather_job_progress([
            {"type": "event", "name": "worker_stalled", "pid": 3},
            {"type": "stream_gap", "missing": 2},
        ])
        assert snapshot["stalls"] == 1
        assert snapshot["gap"] is True


class TestRenderTop:
    STATS = {
        "uptime_s": 61.0,
        "queued": 1,
        "running": ["job-aaaaaaaa"],
        "workers": 2,
        "jobs_by_state": {"running": 1, "queued": 1, "done": 3},
        "caches": {
            "result": {"hits": 3, "misses": 1, "entries": 4},
            "profile": {"layouts": 2, "profiles": 10, "attaches": 5,
                        "warm_attaches": 4},
        },
        "heartbeats": {"alive": 2, "stalled": 0},
        "guard": {"counters": {"payload_rejected": 2, "rate_limited": 0}},
    }
    JOBS = [
        {"job_id": "job-aaaaaaaa", "state": "running", "priority": 1,
         "wait_s": 0.5},
        {"job_id": "job-bbbbbbbb", "state": "queued", "priority": 0,
         "wait_s": 3.0},
        {"job_id": "job-cccccccc", "state": "done", "priority": 0,
         "wait_s": 0.1},
    ]

    def test_running_count_from_stats_op_list(self):
        frame = render_top(self.STATS, self.JOBS)
        assert "running 1/2" in frame  # list coerced to a count

    def test_active_jobs_sort_first(self):
        frame = render_top(self.STATS, self.JOBS)
        lines = [l for l in frame.splitlines() if l.startswith("job-")]
        assert lines[0].startswith("job-aaaaaaaa")  # running before queued
        assert lines[1].startswith("job-bbbbbbbb")

    def test_progress_folds_into_row(self):
        frame = render_top(
            self.STATS, self.JOBS,
            {"job-aaaaaaaa": {"tiles_done": 3, "tiles_total": 9,
                              "shots": 77, "eta_s": 40, "phase": "tile",
                              "stalls": 0}},
        )
        row = next(
            l for l in frame.splitlines() if l.startswith("job-aaaaaaaa")
        )
        assert "3/9" in row and "77" in row and "40s" in row

    def test_guard_line_only_when_fired(self):
        frame = render_top(self.STATS, self.JOBS)
        assert "payload_rejected" in frame
        assert "rate_limited" not in frame  # zero counters are noise
        quiet = dict(self.STATS, guard={"counters": {}})
        assert "guard:" not in render_top(quiet, self.JOBS)

    def test_cache_summary_line(self):
        frame = render_top(self.STATS, self.JOBS)
        assert "result 75% hit" in frame
        assert "2 layouts/10 profiles" in frame

    def test_max_rows_bounds_table(self):
        jobs = [
            {"job_id": f"job-{i:08d}", "state": "done", "priority": 0}
            for i in range(50)
        ]
        frame = render_top(self.STATS, jobs, max_rows=5)
        assert sum(1 for l in frame.splitlines() if l.startswith("job-")) == 5

    def test_empty_everything_still_renders(self):
        frame = render_top({}, [])
        assert "repro top" in frame
