"""Unit tests for the multi-shape MDP pipeline."""

import json

import pytest

from repro.baselines import PartitionFracturer
from repro.fracture.cache import FractureCache
from repro.geometry.polygon import Polygon
from repro.mask.mdp import MdpPipeline, MdpReport
from repro.mask.shape import MaskShape
from repro.obs import TelemetryRecorder, recording


class TestMdpPipeline:
    def test_batch_run(self, rect_shape, l_shape, spec):
        pipeline = MdpPipeline(PartitionFracturer(), spec)
        report = pipeline.run([rect_shape, l_shape])
        assert len(report.results) == 2
        assert report.total_shots >= 3  # 1 for rect, 2 for L
        assert report.shots_per_shape() == report.total_shots / 2

    def test_writes_solutions(self, rect_shape, spec, tmp_path):
        pipeline = MdpPipeline(PartitionFracturer(), spec)
        pipeline.run([rect_shape], output_dir=tmp_path)
        path = tmp_path / "rect.solution.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["metadata"]["method"] == "PARTITION"

    def test_projected_saving(self, rect_shape, l_shape, spec):
        pipeline = MdpPipeline(PartitionFracturer(), spec)
        base = pipeline.run([rect_shape, l_shape])
        # Fake an improved flow with 10% fewer shots.
        improved = MdpReport(results=base.results[:1])
        saving = pipeline.projected_saving(base, improved)
        assert 0.0 < saving["shot_reduction"] <= 1.0
        import pytest

        assert saving["mask_cost_saving_fraction"] == pytest.approx(
            0.2 * saving["shot_reduction"]
        )
        assert saving["mask_set_saving_usd"] > 0.0

    def test_projected_saving_empty_baseline(self, spec):
        pipeline = MdpPipeline(PartitionFracturer(), spec)
        import pytest

        with pytest.raises(ValueError):
            pipeline.projected_saving(MdpReport(), MdpReport())

    def test_summary_mentions_totals(self, rect_shape, spec):
        pipeline = MdpPipeline(PartitionFracturer(), spec)
        report = pipeline.run([rect_shape])
        assert "total:" in report.summary()


class TestParallelMdp:
    def test_parallel_matches_serial(self, rect_shape, l_shape, spec):
        pipeline = MdpPipeline(PartitionFracturer(), spec)
        serial = pipeline.run([rect_shape, l_shape], workers=1)
        parallel = pipeline.run([rect_shape, l_shape], workers=2)
        assert [r.shot_count for r in serial.results] == [
            r.shot_count for r in parallel.results
        ]
        assert [r.shape_name for r in parallel.results] == ["rect", "L"]

    def test_parallel_single_shape_falls_back(self, rect_shape, spec):
        pipeline = MdpPipeline(PartitionFracturer(), spec)
        report = pipeline.run([rect_shape], workers=4)
        assert len(report.results) == 1

    def test_parallel_writes_solutions(self, rect_shape, l_shape, spec, tmp_path):
        pipeline = MdpPipeline(PartitionFracturer(), spec)
        pipeline.run([rect_shape, l_shape], output_dir=tmp_path, workers=2)
        assert (tmp_path / "rect.solution.json").exists()
        assert (tmp_path / "L.solution.json").exists()


class TestParallelTelemetry:
    def _run(self, shapes, spec, workers):
        recorder = TelemetryRecorder()
        with recording(recorder):
            report = MdpPipeline(PartitionFracturer(), spec).run(
                shapes, workers=workers
            )
        return report, recorder.export()

    def test_workers2_identical_solutions_and_merged_telemetry(
        self, rect_shape, l_shape, spec
    ):
        shapes = [rect_shape, l_shape]
        serial_report, serial = self._run(shapes, spec, workers=1)
        parallel_report, parallel = self._run(shapes, spec, workers=2)

        # Identical solutions, shot for shot.
        assert [
            [s.as_tuple() for s in r.shots] for r in serial_report.results
        ] == [[s.as_tuple() for s in r.shots] for r in parallel_report.results]

        # Workload counters merge to the same totals across processes.
        assert parallel["counters"]["fracture.shapes"] == 2
        assert (
            parallel["counters"]["fracture.shapes"]
            == serial["counters"]["fracture.shapes"]
        )
        assert (
            parallel["counters"].get("intensity.patch_evals")
            == serial["counters"].get("intensity.patch_evals")
        )
        hist_p = parallel["histograms"]["fracture.shots"]
        hist_s = serial["histograms"]["fracture.shots"]
        assert hist_p["count"] == hist_s["count"] == 2
        assert hist_p["sum"] == hist_s["sum"]

    def test_worker_span_trees_grafted_per_shape(
        self, rect_shape, l_shape, spec
    ):
        _, payload = self._run([rect_shape, l_shape], spec, workers=2)
        batch = payload["spans"]["children"][0]
        assert batch["name"] == "mdp.batch"
        worker_nodes = [
            c for c in batch.get("children", ())
            if c["name"].startswith("worker:")
        ]
        assert {c["name"] for c in worker_nodes} == {
            "worker:rect", "worker:L",
        }
        for node in worker_nodes:
            assert node["children"][0]["name"] == "fracture"
            assert node["wall_s"] > 0.0

    def test_parallel_off_means_no_worker_nodes(self, rect_shape, l_shape, spec):
        _, payload = self._run([rect_shape, l_shape], spec, workers=1)
        batch = payload["spans"]["children"][0]
        names = [c["name"] for c in batch.get("children", ())]
        assert names == ["mdp.shape", "mdp.shape"]


def _bar(spec) -> MaskShape:
    polygon = Polygon([(0, 0), (100, 0), (100, 30), (0, 30)])
    return MaskShape.from_polygon(polygon, margin=spec.grid_margin, name="bar")


class _FailOn(PartitionFracturer):
    """Partition, except that the shape named ``fail_on`` raises ``error``."""

    def __init__(self, fail_on: str, error: type[BaseException]):
        super().__init__()
        self.fail_on = fail_on
        self.error = error

    def fracture_shots(self, shape, spec):
        if shape.name == self.fail_on:
            raise self.error(shape.name)
        return super().fracture_shots(shape, spec)


class _CountingCache(FractureCache):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.puts = 0

    def put(self, fingerprint, payload):
        self.puts += 1
        super().put(fingerprint, payload)


def _store(directory) -> FractureCache:
    """A fresh store over ``directory``: what a new process would open."""
    return FractureCache(persist_dir=directory)


class TestMdpResume:
    """A batch resumes by re-running against its persisted FractureCache."""

    def test_resume_replays_bit_identically(self, rect_shape, l_shape, spec, tmp_path):
        shapes = [rect_shape, l_shape]
        first = MdpPipeline(
            PartitionFracturer(), spec, cache=_store(tmp_path)
        ).run(shapes)

        resumed = MdpPipeline(
            PartitionFracturer(), spec, cache=_store(tmp_path)
        ).run(shapes)
        assert [r.shots for r in resumed.results] == \
            [r.shots for r in first.results]
        assert all(r.extra.get("cache_hit") for r in resumed.results)
        assert [r.report.total_failing for r in resumed.results] == \
            [r.report.total_failing for r in first.results]

    def test_changed_spec_invalidates_journal(self, rect_shape, spec, tmp_path):
        from dataclasses import replace

        MdpPipeline(
            PartitionFracturer(), spec, cache=_store(tmp_path)
        ).run([rect_shape])

        other_spec = replace(spec, lmin=spec.lmin + 1.0)
        report = MdpPipeline(
            PartitionFracturer(), other_spec, cache=_store(tmp_path)
        ).run([rect_shape])
        assert not report.results[0].extra.get("cache_hit")

    def test_duplicate_shapes_journal_once(self, rect_shape, spec, tmp_path):
        pipeline = MdpPipeline(PartitionFracturer(), spec, cache=_store(tmp_path))
        pipeline.run([rect_shape, rect_shape])
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_interrupted_batch_resumes_from_finished_shapes(
        self, rect_shape, l_shape, spec, tmp_path
    ):
        shapes = [rect_shape, l_shape, _bar(spec)]
        reference = MdpPipeline(PartitionFracturer(), spec).run(shapes)

        flaky = _FailOn("bar", KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt):
            MdpPipeline(flaky, spec, cache=_store(tmp_path)).run(shapes)
        assert len(list(tmp_path.glob("*.json"))) == 2

        recorder = TelemetryRecorder()
        with recording(recorder):
            resumed = MdpPipeline(
                PartitionFracturer(), spec, cache=_store(tmp_path)
            ).run(shapes)
        batch = recorder.export()["manifest"]["mdp_batch"]
        assert batch == {"shapes": 3, "fresh": 1, "cache_hits": 2}
        assert [bool(r.extra.get("cache_hit")) for r in resumed.results] == \
            [True, True, False]
        assert [r.shots for r in resumed.results] == \
            [r.shots for r in reference.results]

    def test_interrupted_batch_keeps_the_solutions_that_finished(
        self, rect_shape, l_shape, spec, tmp_path
    ):
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            MdpPipeline(_FailOn("bar", KeyboardInterrupt), spec).run(
                [rect_shape, l_shape, _bar(spec)], output_dir=out
            )
        assert sorted(p.name for p in out.iterdir()) == [
            "L.solution.json", "rect.solution.json",
        ]

    def test_parallel_failure_keeps_the_shapes_finished_before_it(
        self, rect_shape, l_shape, spec, tmp_path
    ):
        flaky = _FailOn("bar", RuntimeError)
        with pytest.raises(RuntimeError):
            MdpPipeline(flaky, spec, cache=_store(tmp_path)).run(
                [rect_shape, l_shape, _bar(spec)], workers=2
            )
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestMdpFractureCache:
    def test_within_batch_duplicates_hit(self, rect_shape, spec):
        pipeline = MdpPipeline(PartitionFracturer(), spec, cache=FractureCache())
        report = pipeline.run([rect_shape, rect_shape])
        hits = [r for r in report.results if r.extra.get("cache_hit")]
        assert len(hits) == 1
        assert report.results[0].shots == report.results[1].shots

    def test_parallel_run_detaches_cache_and_hits_in_parent(
        self, rect_shape, l_shape, spec
    ):
        pipeline = MdpPipeline(PartitionFracturer(), spec, cache=FractureCache())
        first = pipeline.run([rect_shape, l_shape], workers=2)
        second = pipeline.run([rect_shape, l_shape], workers=2)
        assert all(r.extra.get("cache_hit") for r in second.results)
        assert [r.shots for r in second.results] == \
            [r.shots for r in first.results]

    def test_serial_batch_stores_each_fresh_shape_once(
        self, rect_shape, l_shape, spec
    ):
        cache = _CountingCache()
        MdpPipeline(PartitionFracturer(), spec, cache=cache).run(
            [rect_shape, l_shape]
        )
        assert cache.puts == 2

    def test_pool_looks_up_stores_and_counts_as_one_worker_does(
        self, rect_shape, l_shape, spec
    ):
        """A duplicate waits for its first instance on the pool too, so
        both paths return, store and count the same."""
        seen = {}
        for workers in (1, 2):
            cache = _CountingCache()
            recorder = TelemetryRecorder()
            with recording(recorder):
                report = MdpPipeline(
                    PartitionFracturer(), spec, cache=cache
                ).run([rect_shape, l_shape, rect_shape], workers=workers)
            counters = recorder.export()["counters"]
            seen[workers] = (
                [r.shots for r in report.results],
                [bool(r.extra.get("cache_hit")) for r in report.results],
                cache.puts,
                [counters.get(name) for name in (
                    "cache.fracture.hits", "cache.fracture.misses",
                    "fracture.shapes",
                )],
            )
        assert seen[2] == seen[1]
        assert seen[2][1:] == ([False, False, True], 2, [1, 2, 3])


class TestBatchHooks:
    def test_before_clip_runs_per_shape_and_can_stop_the_batch(
        self, rect_shape, l_shape, spec, tmp_path
    ):
        seen = []

        def before_clip(name):
            seen.append(name)
            if name == "L":
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            MdpPipeline(PartitionFracturer(), spec).run(
                [rect_shape, l_shape, _bar(spec)], output_dir=tmp_path,
                before_clip=before_clip,
            )
        assert seen == ["rect", "L"]
        assert [p.name for p in tmp_path.iterdir()] == ["rect.solution.json"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_clip_events_for_every_shape_cached_or_not(
        self, rect_shape, l_shape, spec, workers
    ):
        pipeline = MdpPipeline(PartitionFracturer(), spec, cache=FractureCache())
        pipeline.run([rect_shape])
        recorder = TelemetryRecorder()
        with recording(recorder):
            report = pipeline.run([rect_shape, l_shape], workers=workers)
        done = [
            (e["clip"], e["cached"], e["shots"], e["feasible"])
            for e in recorder.export()["events"] if e["name"] == "clip_done"
        ]
        assert done == [
            (r.shape_name, bool(r.extra.get("cache_hit")), r.shot_count,
             r.feasible)
            for r in report.results
        ]
        assert [cached for _, cached, _, _ in done] == [True, False]
        started = [
            e["clip"] for e in recorder.export()["events"]
            if e["name"] == "clip_start"
        ]
        assert started == ["rect", "L"]
