"""Unit tests for the chrome-trace / speedscope exporters and CI gate."""

from __future__ import annotations

import pytest

from repro.obs import (
    TelemetryRecorder,
    TelemetryStream,
    chrome_from_payload,
    load_telemetry,
    mint_trace,
    speedscope_from_payload,
    validate_chrome_trace,
)

TRACE = {"trace_id": "cd" * 16, "span_id": "12" * 8}


def _payload() -> dict:
    rec = TelemetryRecorder(trace=TRACE)
    with rec.span("run"):
        with rec.span("fracture", clip="ILT-1"):
            with rec.span("tile", index=0):
                pass
            with rec.span("tile", index=1):
                pass
        rec.event("progress", tiles_done=2, tiles_total=2)
    return rec.export()


class TestChromeFromPayload:
    def test_valid_and_joined(self):
        doc = chrome_from_payload(_payload())
        summary = validate_chrome_trace(
            doc, expect_trace_id=TRACE["trace_id"]
        )
        assert summary["spans"] >= 4  # root + run + fracture + 2 tiles
        assert summary["instants"] == 1
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert names.count("tile") == 2

    def test_span_attrs_become_args(self):
        doc = chrome_from_payload(_payload())
        fract = next(
            e for e in doc["traceEvents"] if e.get("name") == "fracture"
        )
        assert fract["args"]["clip"] == "ILT-1"
        assert fract["args"]["trace_id"] == TRACE["trace_id"]

    def test_worker_wrappers_get_own_lane(self):
        parent = TelemetryRecorder(trace=TRACE)
        child = TelemetryRecorder(trace=TRACE)
        with child.span("tile", index=7):
            pass
        with parent.span("run"):
            parent.merge_child(child.records, label="pid-9")
        doc = chrome_from_payload(parent.export())
        summary = validate_chrome_trace(doc)
        assert summary["lanes"] == 2
        worker = next(
            e for e in doc["traceEvents"] if e.get("name") == "worker:pid-9"
        )
        tile = next(e for e in doc["traceEvents"] if e.get("name") == "tile")
        assert tile["tid"] == worker["tid"] != 1

    def test_open_spans_marked_aborted(self):
        rec = TelemetryRecorder(trace=TRACE)
        span = rec.span("never_closed").__enter__()  # noqa: F841 crash sim
        doc = chrome_from_payload(rec.export())
        event = next(
            e for e in doc["traceEvents"] if e.get("name") == "never_closed"
        )
        assert event["args"]["status"] == "aborted"


class TestChromeFromRecords:
    """Chrome export of a stream file: the exporter walks the folded
    tree, so real timestamps, restarts and heartbeat lanes survive."""

    def _stream(self, tmp_path, crash_mid_span: bool = False):
        path = tmp_path / "s.jsonl"
        stream = TelemetryStream(path, trace_id=TRACE["trace_id"])
        rec = TelemetryRecorder(stream=stream, trace=TRACE)
        with rec.span("run"):
            with rec.span("tile", index=0):
                pass
            if crash_mid_span:
                rec.span("tile", index=1).__enter__()
                stream.detach()  # simulated kill: no span_close, no end
                return path
        stream.close()
        return path

    def test_real_timestamps_and_join(self, tmp_path):
        payload = load_telemetry(self._stream(tmp_path))
        doc = chrome_from_payload(payload)
        summary = validate_chrome_trace(
            doc, expect_trace_id=TRACE["trace_id"]
        )
        assert summary["spans"] >= 2
        # Spans sit at their recorded open times (µs since the first).
        run = payload["spans"]["children"][0]
        tile = run["children"][0]
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert by_name["tile"]["ts"] == pytest.approx(
            (tile["t"] - run["t"]) * 1e6, abs=1.0
        )

    def test_crash_spans_closed_aborted(self, tmp_path):
        path = self._stream(tmp_path, crash_mid_span=True)
        doc = chrome_from_payload(load_telemetry(path))
        validate_chrome_trace(doc, expect_trace_id=TRACE["trace_id"])
        aborted = [
            e for e in doc["traceEvents"]
            if e.get("args", {}).get("status") == "aborted"
        ]
        assert aborted  # torn spans are visible, not dropped

    def test_restart_joins_both_attempts(self, tmp_path):
        # First attempt dies mid-span; a restarted attempt appends its
        # own header to the same file.  One export shows both, with the
        # first attempt's span aborted at the restart boundary.
        path = self._stream(tmp_path, crash_mid_span=True)
        stream = TelemetryStream(
            path, append=True, trace_id=TRACE["trace_id"]
        )
        rec = TelemetryRecorder(stream=stream, trace=TRACE)
        with rec.span("run"):
            with rec.span("tile", index=1):
                pass
        stream.close()
        doc = chrome_from_payload(load_telemetry(path))
        summary = validate_chrome_trace(
            doc, expect_trace_id=TRACE["trace_id"]
        )
        aborted = [
            e for e in doc["traceEvents"]
            if e.get("args", {}).get("status") == "aborted"
        ]
        assert aborted
        tiles = [
            e for e in doc["traceEvents"]
            if e.get("name") == "tile" and e["ph"] == "X"
        ]
        # Attempt one: tile 0 closed + tile 1 aborted; attempt two
        # re-runs tile 1 — all three are visible in one export.
        assert len(tiles) == 3
        assert (
            sum(1 for t in tiles if t["args"].get("status") == "aborted")
            == 1
        )
        assert summary["trace_id"] == TRACE["trace_id"]

    def test_heartbeats_get_worker_lanes(self, tmp_path):
        path = tmp_path / "s.jsonl"
        stream = TelemetryStream(path, trace_id=TRACE["trace_id"])
        stream.emit({"type": "event", "name": "worker_heartbeat",
                     "pid": 4242, "rss_bytes": 1024})
        stream.close()
        doc = chrome_from_payload(load_telemetry(path))
        beat = next(
            e for e in doc["traceEvents"]
            if e.get("name") == "worker_heartbeat"
        )
        assert beat["tid"] == 4242


class TestSpeedscope:
    def test_structurally_valid(self):
        doc = speedscope_from_payload(_payload())
        profile = doc["profiles"][0]
        assert profile["type"] == "evented"
        assert TRACE["trace_id"] in profile["name"]
        depth = 0
        for event in profile["events"]:
            depth += 1 if event["type"] == "O" else -1
            assert depth >= 0
            assert 0 <= event["frame"] < len(doc["shared"]["frames"])
        assert depth == 0  # every open closed

    def test_events_monotone(self):
        events = speedscope_from_payload(_payload())["profiles"][0]["events"]
        times = [e["at"] for e in events]
        assert times == sorted(times)


class TestValidator:
    def test_rejects_missing_trace_id(self):
        doc = chrome_from_payload(_payload())
        for event in doc["traceEvents"]:
            event.get("args", {}).pop("trace_id", None)
        with pytest.raises(ValueError, match="trace_id"):
            validate_chrome_trace(doc)

    def test_rejects_mixed_trace_ids(self):
        doc = chrome_from_payload(_payload())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        spans[-1]["args"]["trace_id"] = "ff" * 16
        with pytest.raises(ValueError, match="one trace_id"):
            validate_chrome_trace(doc)

    def test_rejects_escaping_span(self):
        doc = chrome_from_payload(_payload())
        spans = sorted(
            (e for e in doc["traceEvents"] if e["ph"] == "X"),
            key=lambda e: e["dur"],
        )
        spans[0]["dur"] = spans[-1]["dur"] * 10  # child now outlives parent
        with pytest.raises(ValueError, match="escapes"):
            validate_chrome_trace(doc)

    def test_rejects_wrong_expected_id(self):
        doc = chrome_from_payload(_payload())
        with pytest.raises(ValueError, match="expected"):
            validate_chrome_trace(doc, expect_trace_id="00" * 16)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})
