"""Unit tests for the span/metric recorder core."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    NullRecorder,
    TelemetryRecorder,
    get_recorder,
    recording,
    set_recorder,
)


class TestNullRecorder:
    def test_is_process_default(self):
        assert isinstance(get_recorder(), NullRecorder)
        assert get_recorder().enabled is False

    def test_all_operations_are_noops(self):
        rec = NullRecorder()
        with rec.span("anything", attr=1) as span:
            span.annotate(more=2)
            rec.incr("c")
            rec.gauge("g", 1.0)
            rec.observe("h", 2.0)
            rec.event("e", field=3)
            rec.convergence(iteration=0, cost=1.0)
            rec.manifest_section("profile", {"samples": 1})
            rec.merge_child([], label="w")

    def test_span_reentrant(self):
        rec = NullRecorder()
        span = rec.span("x")
        with span:
            with span:
                pass


class TestSpans:
    def test_nesting_builds_tree(self):
        rec = TelemetryRecorder()
        with rec.span("outer", clip="A"):
            with rec.span("inner"):
                pass
            with rec.span("inner"):
                pass
        outer = rec.root.children[0]
        assert outer.name == "outer"
        assert outer.attrs == {"clip": "A"}
        assert [c.name for c in outer.children] == ["inner", "inner"]
        assert outer.wall_s >= sum(c.wall_s for c in outer.children)
        assert outer.cpu_s >= 0.0

    def test_annotate_after_open(self):
        rec = TelemetryRecorder()
        with rec.span("s") as span:
            span.annotate(shots=5)
        assert rec.root.children[0].attrs["shots"] == 5

    def test_sibling_spans_do_not_nest(self):
        rec = TelemetryRecorder()
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
        assert [c.name for c in rec.root.children] == ["a", "b"]

    def test_current_path(self):
        rec = TelemetryRecorder()
        assert rec.current_path() == ""
        with rec.span("a"):
            with rec.span("b"):
                assert rec.current_path() == "a/b"

    def test_exception_still_closes_span(self):
        rec = TelemetryRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("broken"):
                raise RuntimeError("boom")
        assert rec.current_path() == ""
        assert rec.root.children[0].wall_s >= 0.0

    def test_threads_get_independent_stacks(self):
        rec = TelemetryRecorder()
        errors: list[str] = []

        def worker(tag: str) -> None:
            for _ in range(50):
                with rec.span(f"t-{tag}"):
                    if not rec.current_path().startswith(f"t-{tag}"):
                        errors.append(rec.current_path())

        threads = [
            threading.Thread(target=worker, args=(str(i),)) for i in range(4)
        ]
        with rec.span("main"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []
        # Worker spans attach to the root (their stacks were empty) and
        # are tagged with the thread name.
        names = {c.name for c in rec.root.children}
        assert "main" in names
        tagged = [
            c for c in rec.root.children if c.name.startswith("t-")
        ]
        assert len(tagged) == 200
        assert all("thread" in c.attrs for c in tagged)


class TestMetrics:
    def test_counters_accumulate(self):
        rec = TelemetryRecorder()
        rec.incr("a")
        rec.incr("a", 4)
        assert rec.counters == {"a": 5}

    def test_gauge_last_wins(self):
        rec = TelemetryRecorder()
        rec.gauge("g", 1.0)
        rec.gauge("g", 7.0)
        assert rec.gauges["g"] == 7.0

    def test_histogram_stats(self):
        rec = TelemetryRecorder()
        for value in (1.0, 3.0, 2.0):
            rec.observe("h", value)
        hist = rec.histograms["h"]
        assert hist["count"] == 3
        assert hist["sum"] == 6.0
        assert hist["min"] == 1.0
        assert hist["max"] == 3.0

    def test_convergence_records_sequenced_and_span_tagged(self):
        rec = TelemetryRecorder()
        with rec.span("refine"):
            rec.convergence(iteration=0, cost=2.0)
            rec.convergence(iteration=1, cost=1.0)
        records = rec.convergence_records
        assert [r["seq"] for r in records] == [0, 1]
        assert all(r["span"] == "refine" for r in records)


class TestInstallation:
    def test_set_and_restore(self):
        rec = TelemetryRecorder()
        previous = get_recorder()
        try:
            assert set_recorder(rec) is rec
            assert get_recorder() is rec
            assert isinstance(set_recorder(None), NullRecorder)
        finally:
            set_recorder(previous)

    def test_recording_context_restores_on_exit(self):
        rec = TelemetryRecorder()
        before = get_recorder()
        with recording(rec) as active:
            assert active is rec
            assert get_recorder() is rec
        assert get_recorder() is before

    def test_recording_restores_on_error(self):
        before = get_recorder()
        with pytest.raises(ValueError):
            with recording(TelemetryRecorder()):
                raise ValueError
        assert get_recorder() is before


class TestMergeChild:
    def _child_records(self) -> list:
        child = TelemetryRecorder()
        with child.span("fracture", method="OURS"):
            with child.span("refine"):
                child.convergence(iteration=0, cost=1.0)
        child.incr("refine.moves_accepted", 3)
        child.gauge("coloring.colors_used", 4)
        child.observe("refine.iterations", 10.0)
        child.event("pipeline.run_outcome", run=0)
        child.emit_metrics()  # the worker's final snapshot
        return child.records

    def test_spans_grafted_under_worker_node(self):
        parent = TelemetryRecorder()
        with parent.span("mdp.batch"):
            parent.merge_child(self._child_records(), label="clipA")
        batch = parent.root.children[0]
        worker = batch.children[0]
        assert worker.name == "worker:clipA"
        assert worker.children[0].name == "fracture"
        assert worker.wall_s == worker.children[0].wall_s

    def test_counters_sum_and_histograms_merge(self):
        parent = TelemetryRecorder()
        parent.incr("refine.moves_accepted", 2)
        parent.observe("refine.iterations", 4.0)
        parent.merge_child(self._child_records(), label="w")
        assert parent.counters["refine.moves_accepted"] == 5
        hist = parent.histograms["refine.iterations"]
        assert hist["count"] == 2
        assert hist["min"] == 4.0 and hist["max"] == 10.0

    def test_convergence_and_events_tagged_with_worker(self):
        parent = TelemetryRecorder()
        parent.merge_child(self._child_records(), label="w1")
        parent.merge_child(self._child_records(), label="w2")
        workers = [r["worker"] for r in parent.convergence_records]
        assert workers == ["w1", "w2"]
        assert [r["seq"] for r in parent.convergence_records] == [0, 1]
        assert parent.events[0]["worker"] == "w1"
