"""Trace correlation across streams, gaps, and crashed pool workers.

The invariant under test: one trace_id, minted once, survives every
failure mode the observability layer knows about — torn stream lines,
missing records, and worker processes that die mid-span — and every
surviving artifact still carries it.
"""

from __future__ import annotations

import json

from repro.obs import (
    TelemetryRecorder,
    TelemetryStream,
    follow_stream,
    mint_trace,
    read_stream,
    stream_to_payload,
)

TRACE = mint_trace().to_dict()


class TestStreamTraceStamping:
    def test_every_record_carries_trace_id(self, tmp_path):
        path = tmp_path / "s.jsonl"
        stream = TelemetryStream(path, trace_id=TRACE["trace_id"])
        rec = TelemetryRecorder(stream=stream, trace=TRACE)
        with rec.span("run"):
            rec.event("progress", tiles_done=1)
            rec.incr("cache.lut.hits")
            rec.emit_metrics()
        stream.close()
        records = read_stream(path)
        assert len(records) >= 5  # header, open, event, metrics, close, end
        assert all(
            r.get("trace_id") == TRACE["trace_id"] for r in records
        ), [r for r in records if r.get("trace_id") != TRACE["trace_id"]]

    def test_recorder_manifest_carries_trace(self):
        rec = TelemetryRecorder(trace=TRACE)
        assert rec.export()["manifest"]["trace"] == TRACE

    def test_late_set_trace_stamps_subsequent_records(self, tmp_path):
        path = tmp_path / "s.jsonl"
        stream = TelemetryStream(path)
        stream.emit({"type": "event", "name": "before"})
        stream.set_trace(TRACE["trace_id"])
        stream.emit({"type": "event", "name": "after"})
        stream.close()
        by_name = {
            r.get("name"): r for r in read_stream(path)
            if r.get("type") == "event"
        }
        assert "trace_id" not in by_name["before"]
        assert by_name["after"]["trace_id"] == TRACE["trace_id"]


class TestStreamGapDetection:
    def _write(self, path, seqs, header_at=()):
        with open(path, "w", encoding="utf-8") as fh:
            for seq in seqs:
                record = {
                    "type": "stream_header" if seq in header_at else "event",
                    "name": "x",
                    "seq": seq,
                    "trace_id": TRACE["trace_id"],
                }
                fh.write(json.dumps(record) + "\n")

    def test_discontinuity_yields_stream_gap(self, tmp_path):
        path = tmp_path / "s.jsonl"
        self._write(path, [0, 1, 5, 6])
        records = list(follow_stream(path))
        gaps = [r for r in records if r["type"] == "stream_gap"]
        assert len(gaps) == 1
        assert gaps[0]["expected_seq"] == 2
        assert gaps[0]["got_seq"] == 5
        assert gaps[0]["missing"] == 3
        assert gaps[0]["trace_id"] == TRACE["trace_id"]

    def test_header_resets_numbering_without_gap(self, tmp_path):
        # A resumed job's second attempt writes its own header at seq 0;
        # that restart must not read as data loss.
        path = tmp_path / "s.jsonl"
        self._write(path, [0, 1, 2, 0, 1], header_at=(0,))
        records = list(follow_stream(path))
        assert not [r for r in records if r["type"] == "stream_gap"]

    def test_contiguous_stream_has_no_gap(self, tmp_path):
        path = tmp_path / "s.jsonl"
        self._write(path, range(10))
        assert not [
            r for r in follow_stream(path) if r["type"] == "stream_gap"
        ]

    def test_gaps_counted_in_payload(self, tmp_path):
        path = tmp_path / "s.jsonl"
        self._write(path, [0, 1, 7])
        records = list(follow_stream(path))
        payload = stream_to_payload(records)
        assert payload["counters"]["stream.gaps"] == 1


class TestCrashedWorkerMerge:
    """Satellite: a pool worker dying mid-span must leave a closed,
    trace-stamped ``status=aborted`` span in the merged tree."""

    def _crashed_child_records(self) -> list:
        # Simulate SIGKILL: the worker recorder hands over whatever it
        # has while spans are still open (a kill mid-tile leaves the
        # tile span unclosed in its records).
        child = TelemetryRecorder(trace=TRACE)
        child.span("tile", index=3).__enter__()
        child.span("refine").__enter__()
        return child.records

    def test_orphan_spans_closed_aborted_with_trace_id(self):
        parent = TelemetryRecorder(trace=TRACE)
        with parent.span("run"):
            parent.merge_child(self._crashed_child_records(), label="pid-7")
        wrapper = parent.root.children[0].children[0]
        assert wrapper.name == "worker:pid-7"
        assert wrapper.attrs["trace_id"] == TRACE["trace_id"]
        orphans = [
            node for node in wrapper.walk()
            if node.attrs.get("status") == "aborted"
        ]
        assert {n.name for n in orphans} == {"tile", "refine"}
        for node in orphans:
            assert node.closed
            assert node.attrs["trace_id"] == TRACE["trace_id"]

    def test_merged_tree_serializes_closed(self):
        # After the merge, nothing in the exported tree is still "open":
        # the crash left a mark (status=aborted), not a dangling span.
        parent = TelemetryRecorder(trace=TRACE)
        with parent.span("run"):
            parent.merge_child(self._crashed_child_records(), label="w")
        spans = parent.export()["spans"]

        def walk(node):
            yield node
            for child in node.get("children", ()):
                yield from walk(child)

        assert not [n for n in walk(spans) if n.get("open")]

    def test_worker_merged_stream_record_counts_aborted(self, tmp_path):
        path = tmp_path / "s.jsonl"
        stream = TelemetryStream(path, trace_id=TRACE["trace_id"])
        parent = TelemetryRecorder(stream=stream, trace=TRACE)
        with parent.span("run"):
            parent.merge_child(self._crashed_child_records(), label="w")
        stream.close()
        merged = next(
            r for r in read_stream(path) if r.get("type") == "worker_merged"
        )
        assert merged["aborted_spans"] == 2
        assert merged["trace_id"] == TRACE["trace_id"]

    def test_healthy_child_has_no_aborted_marks(self):
        child = TelemetryRecorder(trace=TRACE)
        with child.span("tile", index=0):
            pass
        parent = TelemetryRecorder(trace=TRACE)
        with parent.span("run"):
            parent.merge_child(child.records, label="w")
        wrapper = parent.root.children[0].children[0]
        assert not [
            n for n in wrapper.walk() if n.attrs.get("status") == "aborted"
        ]

    def test_trace_falls_back_to_parent_when_child_has_none(self):
        # An old-style child payload without a trace still gets joined
        # via the parent's context.
        child = TelemetryRecorder()
        child.span("tile").__enter__()
        parent = TelemetryRecorder(trace=TRACE)
        with parent.span("run"):
            parent.merge_child(child.records, label="w")
        wrapper = parent.root.children[0].children[0]
        assert wrapper.attrs["trace_id"] == TRACE["trace_id"]
