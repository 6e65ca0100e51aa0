"""Tests for the telemetry regression diff (repro.obs.diff)."""

from __future__ import annotations

import pytest

from repro.obs import (
    DiffThresholds,
    TelemetryRecorder,
    diff_payloads,
    format_diff,
    payload_metrics,
)
from repro.obs.diff import classify_metric


def _telemetry_payload(moves: int = 5, shots: int = 10) -> dict:
    rec = TelemetryRecorder()
    with rec.span("refine"):
        rec.incr("refine.moves", moves)
    rec.gauge("windowed.workers_alive", 2)
    rec.event("tile_outcome", tile="t0,0", ok=True, shots=shots, attempts=1)
    payload = rec.export()
    # Deterministic timings so diffs compare content, not scheduling.
    payload["spans"]["children"][0]["wall_s"] = 1.0
    payload["spans"]["children"][0]["cpu_s"] = 0.9
    return payload


def _payload(counters=None, spans=None) -> dict:
    """A telemetry payload holding ``counters`` and one top-level span
    per ``spans`` entry (name -> (wall_s, cpu_s))."""
    spans = spans or {}
    rec = TelemetryRecorder()
    for name in spans:
        with rec.span(name):
            pass
    for name, value in (counters or {}).items():
        rec.incr(name, value)
    payload = rec.export()
    nodes = payload["spans"].get("children", [])
    for node, (wall, cpu) in zip(nodes, spans.values()):
        node["wall_s"], node["cpu_s"] = wall, cpu
    return payload


class TestMetricExtraction:
    def test_telemetry_payload_yields_phases_counters_shots(self):
        metrics = payload_metrics(_telemetry_payload())
        assert metrics["phase.refine.wall_s"] == 1.0
        assert metrics["phase.refine.cpu_s"] == 0.9
        assert metrics["counter.refine.moves"] == 5
        assert metrics["gauge.windowed.workers_alive"] == 2
        assert metrics["tiles.count"] == 1
        assert metrics["tiles.shots"] == 10

    def test_other_documents_are_refused(self):
        with pytest.raises(ValueError, match="not a telemetry payload"):
            payload_metrics({"benchmark": "kernels", "total_shots": 100})
        with pytest.raises(ValueError, match="not a telemetry payload"):
            diff_payloads(_payload(), [1, 2])


class TestClassification:
    def test_kinds(self):
        assert classify_metric("phase.refine.wall_s") == "time"
        assert classify_metric("tiles.shots") == "count"
        assert classify_metric("counter.windowed.tile_fallbacks") == "count"
        assert classify_metric("phase.refine.cpu_s") == "info"
        assert classify_metric("gauge.windowed.tile_wall_ewma_s") == "info"


class TestGating:
    def test_time_needs_rel_and_abs_to_gate(self):
        thresholds = DiffThresholds(time_rel=0.30, time_abs_floor_s=0.05)

        def diff(base_s, head_s):
            return diff_payloads(
                _payload(spans={"a": (base_s, 0.0)}),
                _payload(spans={"a": (head_s, 0.0)}),
                thresholds,
            )

        # +100% but only 10ms: under the absolute floor, no gate.
        assert not diff(0.01, 0.02).regressed
        # +10% of 10s is large absolutely but under the relative bar.
        assert not diff(10.0, 11.0).regressed
        # +50% and +5s: both bars cleared.
        assert diff(10.0, 15.0).regressed

    def test_faster_never_regresses(self):
        result = diff_payloads(
            _payload(spans={"a": (10.0, 0.0)}), _payload(spans={"a": (1.0, 0.0)})
        )
        assert not result.regressed

    def test_shot_count_gates_at_one_percent(self):
        base = _payload({"total_shots": 1000})
        assert diff_payloads(base, _payload({"total_shots": 1011})).regressed
        assert not diff_payloads(base, _payload({"total_shots": 1005})).regressed
        # Fewer shots is an improvement.
        assert not diff_payloads(base, _payload({"total_shots": 900})).regressed

    def test_cpu_time_reports_but_never_gates(self):
        result = diff_payloads(
            _payload(spans={"a": (1.0, 1.0)}), _payload(spans={"a": (1.0, 99.0)})
        )
        assert not result.regressed
        changed = [d.name for d in result.deltas if d.delta]
        assert changed == ["phase.a.cpu_s"]

    def test_telemetry_payloads_end_to_end(self):
        base = _telemetry_payload(shots=100)
        head = _telemetry_payload(shots=150)
        result = diff_payloads(base, head)
        names = [d.name for d in result.regressions]
        assert "tiles.shots" in names


class TestFormat:
    def test_report_names_the_regression_and_verdict(self):
        result = diff_payloads(
            _payload({"total_shots": 100}), _payload({"total_shots": 200})
        )
        text = format_diff(result, "old.json", "new.json")
        assert "old.json -> new.json" in text
        assert "total_shots" in text
        assert "REGRESSED" in text
        assert "verdict: REGRESSED" in text

    def test_clean_diff_says_ok(self):
        result = diff_payloads(
            _payload({"total_shots": 100}), _payload({"total_shots": 100})
        )
        assert "verdict: OK" in format_diff(result)

    def test_one_sided_metrics_are_reported_not_fatal(self):
        result = diff_payloads(
            _payload({"a": 1, "b": 2}), _payload({"a": 1, "c": 3})
        )
        text = format_diff(result)
        assert "only in base" in text and "only in head" in text
        assert not result.regressed
