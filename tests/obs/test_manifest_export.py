"""Tests for the run manifest, the JSON/CSV exporters and the loader."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.mask.constraints import FractureSpec
from repro.obs import (
    TelemetryRecorder,
    TelemetryStream,
    atomic_write_text,
    load_telemetry,
    read_stream,
    run_manifest,
    stream_to_payload,
    write_telemetry,
)


class TestManifest:
    def test_captures_spec_params(self):
        spec = FractureSpec(sigma=5.0, gamma=1.5)
        manifest = run_manifest(spec=spec, seed=42, argv=["bench", "--table", "2"])
        params = manifest["params"]
        assert params["sigma"] == 5.0
        assert params["gamma"] == 1.5
        assert params["rho"] == 0.5
        assert params["lmin"] == 10.0
        assert params["lth"] == pytest.approx(spec.lth)
        assert manifest["seed"] == 42
        assert manifest["argv"] == ["bench", "--table", "2"]

    def test_host_and_provenance_fields(self):
        manifest = run_manifest()
        assert set(manifest["host"]) == {
            "hostname", "platform", "python", "cpu_count",
        }
        assert "created_unix" in manifest
        # In this checkout the git SHA must resolve; from a wheel it may
        # legitimately be None, so only the type is asserted.
        assert manifest["git_sha"] is None or len(manifest["git_sha"]) == 40

    def test_is_json_serializable(self):
        json.dumps(run_manifest(spec=FractureSpec(), extra={"note": "x"}))


def _record_sample(stream=None) -> TelemetryRecorder:
    rec = TelemetryRecorder(
        manifest=run_manifest(spec=FractureSpec()), stream=stream
    )
    with rec.span("fracture", method="OURS"):
        with rec.span("refine"):
            rec.convergence(iteration=0, cost=2.0, failing=5, shots=3,
                            operator="edge_adjust")
            rec.convergence(iteration=1, cost=0.0, failing=0, shots=3,
                            operator="converged")
        rec.incr("refine.moves_accepted", 7)
        rec.gauge("coloring.colors_used", 3)
        rec.observe("refine.iterations", 2.0)
        rec.event("pipeline.run_outcome", run=0, feasible=True)
    return rec


def _sample_payload() -> dict:
    return _record_sample().export()


def _sample_stream(tmp_path) -> tuple:
    """A sample run streamed to ``t.jsonl``: (path, the run's payload)."""
    path = tmp_path / "t.jsonl"
    stream = TelemetryStream(path)
    rec = _record_sample(stream)
    rec.emit_metrics()
    stream.close()
    return path, rec.export()


class TestExporters:
    def test_json_round_trip(self, tmp_path):
        payload = _sample_payload()
        path = write_telemetry(payload, tmp_path / "t.json")
        assert load_telemetry(path) == json.loads(json.dumps(payload))

    def test_jsonl_round_trip_preserves_everything(self, tmp_path):
        # The .jsonl format is the stream, and its fold is the payload.
        path, payload = _sample_stream(tmp_path)
        back = load_telemetry(path)
        assert back == json.loads(json.dumps(payload))
        # The span tree keeps its nesting.
        assert back["spans"]["children"][0]["name"] == "fracture"
        assert (
            back["spans"]["children"][0]["children"][0]["name"] == "refine"
        )

    def test_jsonl_lines_are_typed_records(self, tmp_path):
        path, _ = _sample_stream(tmp_path)
        types = {
            json.loads(line)["type"] for line in path.read_text().splitlines()
        }
        assert {"stream_header", "manifest", "span_open", "span_close",
                "event", "convergence", "metrics", "stream_end"} <= types

    def test_payload_is_not_written_as_jsonl(self, tmp_path):
        with pytest.raises(ValueError, match="stream"):
            write_telemetry(_sample_payload(), tmp_path / "t.jsonl")
        assert not (tmp_path / "t.jsonl").exists()

    def test_csv_is_the_convergence_table(self, tmp_path):
        path = write_telemetry(_sample_payload(), tmp_path / "t.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("seq,span,worker,iteration,cost")
        assert len(lines) == 3  # header + 2 records

    def test_csv_cannot_be_summarized(self, tmp_path):
        path = write_telemetry(_sample_payload(), tmp_path / "t.csv")
        with pytest.raises(ValueError):
            load_telemetry(path)

    def test_records_include_span_links(self, tmp_path):
        path, _ = _sample_stream(tmp_path)
        records = read_stream(path)
        opened: list[int] = []
        for record in records:
            if record["type"] == "span_open":
                assert record["parent"] is None or record["parent"] in opened
                opened.append(record["id"])
        closed = [r["id"] for r in records if r["type"] == "span_close"]
        assert opened and sorted(closed) == sorted(opened)

    def test_creates_parent_directories(self, tmp_path):
        path = write_telemetry(
            _sample_payload(), tmp_path / "deep" / "dir" / "t.json"
        )
        assert path.exists()


class TestAtomicWrites:
    def test_no_tmp_file_survives_any_format(self, tmp_path):
        for name in ("t.json", "t.csv"):
            write_telemetry(_sample_payload(), tmp_path / name)
        assert not list(tmp_path.glob("*.tmp"))

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        # Overwriting an existing export goes through tmp+rename, so the
        # destination always holds a complete document.
        path = tmp_path / "t.json"
        write_telemetry(_sample_payload(), path)
        first = path.read_text()
        write_telemetry(_sample_payload(), path)
        assert json.loads(path.read_text())  # complete JSON either way
        assert path.read_text().count('"schema"') == first.count('"schema"')

    def test_two_writers_of_one_path(self, tmp_path):
        # A daemon and a CLI run can share one --fracture-cache
        # directory: concurrent writers of one path must each land a
        # complete file, never trip over the other's temp file.
        path = tmp_path / "entry.json"
        texts = [json.dumps({"writer": w, "pad": "x" * 4096}) for w in (0, 1)]
        errors: list[BaseException] = []

        def write(text: str) -> None:
            try:
                for _ in range(100):
                    atomic_write_text(path, text)
            except BaseException as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(t,)) for t in texts]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert path.read_text() in texts
        assert not list(tmp_path.glob("*.tmp"))


class TestRecordsRoundTrip:
    """Stream records back to a payload: the fold and its tolerance."""

    def test_merged_multi_worker_payload_round_trips(self, tmp_path):
        path = tmp_path / "s.jsonl"
        stream = TelemetryStream(path)
        parent = TelemetryRecorder(manifest={"run_id": "merge"}, stream=stream)
        for label in ("t0,0", "t1,0"):
            child = TelemetryRecorder()
            with child.span("tile", tile=label):
                child.incr("refine.moves", 2)
                child.event("tile_note", tile=label)
                child.convergence(iteration=0, cost=1.0)
            child.emit_metrics()
            parent.merge_child(child.records, label=label)
        parent.emit_metrics()
        stream.close()
        payload = parent.export()
        back = load_telemetry(path)
        assert back == json.loads(json.dumps(payload))
        workers = [c["name"] for c in back["spans"]["children"]]
        assert workers == ["worker:t0,0", "worker:t1,0"]
        assert back["counters"]["refine.moves"] == 4
        assert [e["worker"] for e in back["events"]] == ["t0,0", "t1,0"]
        assert len(back["convergence"]) == 2

    def test_torn_jsonl_line_is_skipped_on_load(self, tmp_path):
        path, _ = _sample_stream(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "event", "name": "to')  # torn tail
        back = load_telemetry(path)
        assert all(e.get("name") != "to" for e in back["events"])
        assert back["spans"]["children"][0]["name"] == "fracture"

    def test_orphaned_span_reattaches_under_root(self):
        payload = stream_to_payload([
            {"type": "span_open", "id": 0, "parent": None, "name": "outer"},
            # The span_open of span 7 was lost to a torn write.
            {"type": "span_open", "id": 8, "parent": 7, "name": "orphan"},
            {"type": "span_close", "id": 8, "wall_s": 1.0, "cpu_s": 0.5},
            # So was the span_open of span 9; its close still counts.
            {"type": "span_close", "id": 9, "name": "lost",
             "wall_s": 2.0, "cpu_s": 1.0},
            {"type": "span_close", "id": 0, "wall_s": 4.0, "cpu_s": 2.0},
        ])
        children = payload["spans"]["children"]
        assert [c["name"] for c in children] == ["outer", "orphan", "lost"]
        assert children[1]["wall_s"] == 1.0 and children[2]["wall_s"] == 2.0
        assert not any(c.get("open") for c in children)

    def test_malformed_records_are_skipped(self):
        payload = stream_to_payload([
            "not-a-dict",
            {"type": "span_open", "name": "no-id"},  # can never close
            {"type": "span_close", "wall_s": 1.0},  # no id, no name
            {"type": "manifest_update", "value": 3},  # no section
            {"type": "metrics", "counters": {"ok": 1}},  # no gauges
            {"type": "mystery", "x": 1},
        ])
        assert payload["counters"] == {"ok": 1}
        assert payload["gauges"] == {} and payload["histograms"] == {}
        assert payload["manifest"] == {}
        children = payload["spans"]["children"]
        assert children[0] == {
            "name": "no-id", "t": None, "wall_s": 0.0, "cpu_s": 0.0,
            "open": True,
        }
        assert children[1] == {"name": "?", "wall_s": 1.0, "cpu_s": 0.0}
