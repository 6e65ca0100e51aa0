"""Tests for the trace-summary rendering."""

from __future__ import annotations

from repro.obs import (
    TelemetryRecorder,
    format_clip_breakdown,
    format_summary,
    phase_breakdown,
)


def _bench_like_payload() -> dict:
    rec = TelemetryRecorder(manifest={"git_sha": "abc", "argv": ["bench"]})
    with rec.span("bench.clip", clip="ILT-1"):
        with rec.span("fracture", method="OURS"):
            with rec.span("portfolio_run", run=0):
                with rec.span("init.rdp"):
                    pass
                with rec.span("refine"):
                    rec.convergence(iteration=0, cost=3.0, failing=4,
                                    shots=2, operator="edge_adjust")
                    rec.convergence(iteration=1, cost=0.0, failing=0,
                                    shots=2, operator="converged")
                with rec.span("polish"):
                    pass
            with rec.span("verify"):
                pass
        with rec.span("fracture", method="GSC"):
            with rec.span("verify"):
                pass
    rec.incr("refine.moves_accepted", 5)
    rec.gauge("coloring.colors_used", 2)
    rec.observe("refine.iterations", 2.0)
    return rec.export()


class TestPhaseBreakdown:
    def test_aggregates_by_name(self):
        phases = phase_breakdown(_bench_like_payload())
        by_name = {p["phase"]: p for p in phases}
        assert by_name["fracture"]["count"] == 2
        assert by_name["verify"]["count"] == 2
        assert by_name["refine"]["count"] == 1

    def test_sorted_by_wall_time(self):
        phases = phase_breakdown(_bench_like_payload())
        walls = [p["wall_s"] for p in phases]
        assert walls == sorted(walls, reverse=True)

    def test_self_time_excludes_children(self):
        phases = phase_breakdown(_bench_like_payload())
        clip = next(p for p in phases if p["phase"] == "bench.clip")
        assert clip["self_s"] <= clip["wall_s"]


class TestFormatSummary:
    def test_contains_all_sections(self):
        text = format_summary(_bench_like_payload())
        assert "manifest:" in text
        assert "per-phase breakdown" in text
        assert "refine" in text
        assert "counters:" in text
        assert "refine.moves_accepted: 5" in text
        assert "gauges:" in text
        assert "histograms:" in text
        assert "convergence (2 records" in text
        assert "converged" in text

    def test_handles_empty_payload(self):
        text = format_summary({"manifest": {}, "spans": {"name": "run"}})
        assert "per-phase breakdown" in text


class TestClipBreakdown:
    def test_per_clip_per_method_rows(self):
        text = format_clip_breakdown(_bench_like_payload())
        lines = text.splitlines()
        assert "clip" in lines[0] and "refine s" in lines[0]
        body = "\n".join(lines[2:])
        assert "ILT-1" in body
        assert "OURS" in body
        assert "GSC" in body

    def test_no_clips_message(self):
        rec = TelemetryRecorder()
        with rec.span("fracture", method="OURS"):
            pass
        assert "no bench.clip spans" in format_clip_breakdown(rec.export())


class TestPartialPayloads:
    """``trace summarize`` must degrade, not raise, on partial payloads."""

    def test_totally_empty_payload(self):
        text = format_summary({})
        assert "(empty)" in text
        assert "(no spans recorded)" in text

    def test_none_sections(self):
        text = format_summary({
            "manifest": None, "spans": None, "counters": None,
            "gauges": None, "histograms": None, "convergence": None,
        })
        assert "per-phase breakdown" in text

    def test_merged_child_only_trace(self):
        # A parent that only ever merged worker payloads: the root has
        # worker:* children but no spans of its own.
        child = TelemetryRecorder()
        with child.span("tile", tile="t0,0"):
            child.convergence(iteration=0, cost=1.0)
        parent = TelemetryRecorder()
        parent.merge_child(child.records, label="t0,0")
        text = format_summary(parent.export())
        assert "worker:t0,0" in text
        assert "convergence (1 records" in text

    def test_missing_convergence_fields_render_defaults(self):
        payload = {
            "spans": {"name": "run"},
            "convergence": [{"span": "refine"}, "not-a-dict", None],
        }
        text = format_summary(payload)
        assert "convergence (1 records" in text

    def test_histogram_with_missing_fields(self):
        payload = {
            "spans": {"name": "run"},
            "histograms": {"h": {}, "h2": None},
        }
        text = format_summary(payload)
        assert "h: n=0" in text

    def test_clip_breakdown_on_spanless_payload(self):
        assert "no bench.clip spans" in format_clip_breakdown({})
