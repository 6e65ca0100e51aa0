"""Tests for the streaming telemetry event bus (repro.obs.stream)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    STREAM_SCHEMA,
    StreamFormatter,
    TelemetryRecorder,
    TelemetryStream,
    follow_stream,
    read_stream,
    phase_breakdown,
    recording,
    stream_to_payload,
)


class TestTelemetryStream:
    def test_header_and_end_bracket_the_stream(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with TelemetryStream(path) as stream:
            stream.emit({"type": "event", "name": "x"})
        records = read_stream(path)
        assert records[0]["type"] == "stream_header"
        assert records[0]["schema"] == STREAM_SCHEMA
        assert records[-1]["type"] == "stream_end"
        assert records[-1]["status"] == "ok"

    def test_seq_is_monotonic_and_every_line_is_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with TelemetryStream(path) as stream:
            for i in range(10):
                stream.emit({"type": "event", "name": f"e{i}"})
        lines = path.read_text().splitlines()
        seqs = [json.loads(line)["seq"] for line in lines]
        assert seqs == list(range(len(lines)))

    def test_concurrent_writers_never_tear_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stream = TelemetryStream(path)

        def blast(tag: str) -> None:
            for i in range(200):
                stream.emit({"type": "event", "name": f"{tag}{i}", "pad": "x" * 64})

        threads = [
            threading.Thread(target=blast, args=(t,)) for t in ("a", "b", "c")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stream.close()
        records = read_stream(path)
        # header + 600 events + end, all decodable, seq strictly increasing
        assert len(records) == 602
        assert [r["seq"] for r in records] == list(range(602))

    def test_error_exit_records_error_status(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with pytest.raises(RuntimeError):
            with TelemetryStream(path):
                raise RuntimeError("boom")
        assert read_stream(path)[-1]["status"] == "error"

    def test_emit_after_close_is_a_noop(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stream = TelemetryStream(path)
        stream.close()
        stream.emit({"type": "event", "name": "late"})
        assert all(r.get("name") != "late" for r in read_stream(path))

    def test_unserializable_record_degrades_not_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with TelemetryStream(path) as stream:
            stream.emit({"type": "event", "name": "bad", "x": {1, 2}})
        # default=str covers most objects; a set serializes via str().
        records = read_stream(path)
        assert all(isinstance(r, dict) for r in records)


class TestTornTolerance:
    def test_reader_drops_trailing_partial_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stream = TelemetryStream(path)
        stream.emit({"type": "event", "name": "good"})
        stream.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "event", "name": "torn')  # no newline
        names = [r.get("name") for r in read_stream(path)]
        assert "good" in names
        assert "torn" not in names

    def test_reader_skips_corrupt_interior_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            '{"type": "stream_header", "seq": 0}\n'
            "%% not json %%\n"
            '{"type": "event", "name": "after", "seq": 2}\n'
        )
        names = [r.get("name") for r in read_stream(path)]
        assert "after" in names


class TestFollow:
    def test_follow_yields_appended_records_until_end(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stream = TelemetryStream(path)

        def writer() -> None:
            for i in range(5):
                stream.emit({"type": "event", "name": f"e{i}"})
            stream.close()

        thread = threading.Thread(target=writer)
        thread.start()
        records = list(
            follow_stream(path, follow=True, poll_s=0.01, timeout_s=10.0)
        )
        thread.join()
        assert records[-1]["type"] == "stream_end"
        assert [r["name"] for r in records if r["type"] == "event"] == [
            f"e{i}" for i in range(5)
        ]

    def test_follow_timeout_returns_instead_of_hanging(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stream = TelemetryStream(path)  # never closed
        stream.emit({"type": "event", "name": "only"})
        records = list(
            follow_stream(path, follow=True, poll_s=0.01, timeout_s=0.1)
        )
        assert any(r.get("name") == "only" for r in records)

    def test_missing_file_raises_without_follow(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(follow_stream(tmp_path / "absent.jsonl"))


class TestRecorderIntegration:
    def test_spans_events_convergence_reach_the_stream(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stream = TelemetryStream(path)
        rec = TelemetryRecorder(stream=stream)
        with recording(rec):
            with rec.span("refine", clip="c1"):
                rec.event("tile_outcome", tile="t0,0", ok=True, shots=3,
                          attempts=1, fallback=False, replayed=False)
                rec.convergence(iteration=0, cost=1.0, failing=2, shots=3,
                                operator="split")
            rec.incr("refine.moves", 4)
            rec.emit_metrics()
        stream.close()
        by_type: dict[str, list] = {}
        for record in read_stream(path):
            by_type.setdefault(record["type"], []).append(record)
        assert by_type["span_open"][0]["name"] == "refine"
        assert by_type["span_open"][0]["attrs"] == {"clip": "c1"}
        assert by_type["span_close"][0]["wall_s"] >= 0.0
        assert by_type["event"][0]["name"] == "tile_outcome"
        assert by_type["convergence"][0]["iteration"] == 0
        assert by_type["metrics"][-1]["counters"]["refine.moves"] == 4

    def test_merge_child_emits_worker_merged(self, tmp_path):
        child = TelemetryRecorder()
        with child.span("tile", tile="t0,0"):
            child.incr("refine.moves", 2)
        path = tmp_path / "run.jsonl"
        stream = TelemetryStream(path)
        parent = TelemetryRecorder(stream=stream)
        child.emit_metrics()
        parent.merge_child(child.records, label="t0,0")
        stream.close()
        records = read_stream(path)
        merged = [r for r in records if r["type"] == "worker_merged"]
        assert merged and merged[0]["label"] == "t0,0"
        # The child's span is re-emitted under the worker span, with
        # ids from the parent's id space, in one batch.
        opens = [r for r in records if r["type"] == "span_open"]
        assert [r["name"] for r in opens] == ["worker:t0,0", "tile"]
        assert opens[1]["parent"] == opens[0]["id"]
        assert opens[1]["attrs"] == {"tile": "t0,0"}
        closes = [r for r in records if r["type"] == "span_close"]
        assert {r["id"] for r in closes} == {r["id"] for r in opens}
        assert parent.counters == {"refine.moves": 2}

    def test_recorder_without_stream_collects_identically(self, tmp_path):
        def run(stream):
            rec = TelemetryRecorder(stream=stream)
            with recording(rec):
                with rec.span("phase"):
                    rec.incr("c", 2)
                    rec.event("e", x=1)
                    rec.convergence(iteration=0, cost=1.0)
            payload = rec.export()
            # Timings differ run to run; compare the structural content.
            payload["spans"] = [c["name"] for c in payload["spans"]["children"]]
            payload["manifest"] = {}
            return payload

        with TelemetryStream(tmp_path / "s.jsonl") as stream:
            streamed = run(stream)
        plain = run(None)
        assert streamed == plain


class TestStreamToPayload:
    def test_folds_metrics_events_and_spans(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with TelemetryStream(path) as stream:
            stream.emit({"type": "manifest", "run_id": "r1"})
            stream.emit({"type": "manifest_update", "section": "profile",
                         "value": {"samples": 3}})
            stream.emit({"type": "span_open", "id": 0, "parent": None,
                         "name": "fracture", "attrs": {"clip": "c"}})
            stream.emit({"type": "span_open", "id": 1, "parent": 0,
                         "name": "refine"})
            stream.emit({"type": "span_close", "id": 1, "name": "refine",
                         "wall_s": 1.5, "cpu_s": 1.0})
            stream.emit({"type": "span_close", "id": 0, "name": "fracture",
                         "wall_s": 2.0, "cpu_s": 1.2,
                         "attrs": {"shots": 9}})
            stream.emit({"type": "metrics", "counters": {"a": 1},
                         "gauges": {"g": 2.0}})
            stream.emit({"type": "metrics", "counters": {"a": 5},
                         "gauges": {"g": 7.0},
                         "histograms": {"h": {"count": 2, "sum": 3.0,
                                              "min": 1.0, "max": 2.0}}})
            stream.emit({"type": "event", "name": "tile_outcome",
                         "tile": "t0,0", "shots": 9})
            stream.emit({"type": "convergence", "iteration": 0, "cost": 1.0})
        payload = stream_to_payload(read_stream(path))
        assert payload["schema"] == "repro.obs/v1"
        assert payload["manifest"] == {"run_id": "r1",
                                       "profile": {"samples": 3}}
        assert payload["counters"] == {"a": 5}  # last snapshot wins
        assert payload["gauges"] == {"g": 7.0}
        assert payload["histograms"]["h"]["count"] == 2
        fracture = payload["spans"]["children"][0]
        assert fracture["name"] == "fracture"
        assert fracture["attrs"] == {"clip": "c", "shots": 9}
        assert [c["name"] for c in fracture["children"]] == ["refine"]
        assert payload["spans"]["wall_s"] == 2.0
        assert payload["events"] == [
            {"name": "tile_outcome", "tile": "t0,0", "shots": 9}
        ]
        assert payload["convergence"] == [
            {"iteration": 0, "cost": 1.0, "seq": 0}
        ]

    def test_nested_spans_count_once(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stream = TelemetryStream(path)
        rec = TelemetryRecorder(stream=stream)
        with rec.span("fracture"):
            with rec.span("refine"):
                with rec.span("polish"):
                    pass
        stream.close()
        payload = stream_to_payload(read_stream(path))
        phases = phase_breakdown(payload)
        assert [(p["phase"], p["count"]) for p in phases] == [
            ("fracture", 1), ("refine", 1), ("polish", 1),
        ]
        fracture = payload["spans"]["children"][0]
        assert sum(p["self_s"] for p in phases) == pytest.approx(
            fracture["wall_s"]
        )

    def test_two_attempts_fold_into_one_tree(self, tmp_path):
        # Attempt one is cut off mid-span (a daemon SIGKILL); attempt
        # two appends its own header and complete tree to the file.
        path = tmp_path / "job.jsonl"
        stream = TelemetryStream(path)
        first = TelemetryRecorder(stream=stream)
        with first.span("run"):
            with first.span("tile", index=0):
                first.incr("tiles.done")
            first.emit_metrics()
            first.span("tile", index=1).__enter__()
            stream.detach()  # killed: no span_close, no stream_end
        stream = TelemetryStream(path, append=True)
        second = TelemetryRecorder(stream=stream)
        with second.span("run"):
            with second.span("tile", index=1):
                second.incr("tiles.done")
        second.emit_metrics()
        stream.close()

        records = read_stream(path)
        opens = [r for r in records if r["type"] == "span_open"]
        assert opens[0]["id"] == opens[3]["id"] == 0  # ids restart
        payload = stream_to_payload(records)
        cut, full = payload["spans"]["children"]
        assert cut["attrs"]["status"] == "aborted"
        done, aborted = cut["children"]
        assert done["attrs"] == {"index": 0} and done["wall_s"] > 0
        assert aborted["attrs"] == {"index": 1, "status": "aborted"}
        assert "open" not in cut and "open" not in aborted
        assert "attrs" not in full
        assert [c["attrs"] for c in full["children"]] == [{"index": 1}]
        assert full["wall_s"] >= full["children"][0]["wall_s"] > 0
        # Each attempt's last snapshot counts once.
        assert payload["counters"] == {"tiles.done": 2}

    def test_spans_open_at_the_end_stay_open(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stream = TelemetryStream(path)
        rec = TelemetryRecorder(stream=stream)
        rec.span("live").__enter__()
        payload = stream_to_payload(read_stream(path))
        stream.close()
        assert payload["spans"]["children"][0]["open"] is True


class TestStreamFormatter:
    def test_progress_heartbeat_stall_and_tile_lines(self):
        fmt = StreamFormatter()
        lines = [
            fmt.format({"type": "stream_header", "schema": STREAM_SCHEMA,
                        "pid": 1, "t": 100.0}),
            fmt.format({"type": "event", "name": "progress", "t": 101.0,
                        "tiles_done": 3, "tiles_total": 9, "shots": 120,
                        "tile_wall_ewma_s": 0.52, "eta_s": 12.4}),
            fmt.format({"type": "event", "name": "worker_heartbeat",
                        "t": 101.5, "pid": 42, "tile": "t1,0", "attempt": 1,
                        "rss_bytes": 50_000_000, "cpu_s": 2.5}),
            fmt.format({"type": "event", "name": "worker_stalled", "t": 102.0,
                        "pid": 42, "kind": "no_heartbeat", "tile": "t1,0",
                        "age_s": 3.2}),
            fmt.format({"type": "event", "name": "tile_outcome", "t": 103.0,
                        "tile": "t1,0", "ok": True, "shots": 40,
                        "attempts": 2, "fallback": True}),
        ]
        assert lines[0].startswith("     0.000s")
        assert "3/9 tiles" in lines[1] and "eta=12s" in lines[1]
        assert "pid=42" in lines[2] and "50MB" in lines[2]
        assert "STALL" in lines[3] and "no_heartbeat" in lines[3]
        assert "t1,0" in lines[4] and "[fallback]" in lines[4]

    def test_unknown_record_type_still_renders(self):
        line = StreamFormatter().format({"type": "mystery", "t": 1.0, "x": 2})
        assert "mystery" in line and "x=2" in line
