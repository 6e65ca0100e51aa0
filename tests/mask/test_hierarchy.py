"""Hierarchy-aware fracturing: bit-identity with the flattened path,
template sharing, cache accounting, and templates on the batch loop's
pool."""

import time
import weakref

import pytest

from repro.fracture.base import Fracturer
from repro.fracture.cache import FractureCache, fingerprint_polygon
from repro.geometry.polygon import Polygon
from repro.mask.constraints import FractureSpec
from repro.mask.gds import GdsCell, GdsRef, Layout, TARGET_LAYER
from repro.mask.hierarchy import fracture_layout, placed_polygons
from repro.methods import make_fracturer
from tests.property.test_hierarchy_properties import result_key

SPEC = FractureSpec()


@pytest.fixture()
def layout() -> Layout:
    unit = GdsCell("UNIT", polygons=[
        (TARGET_LAYER, Polygon([(0, 0), (120, 0), (120, 40), (0, 40)])),
        (TARGET_LAYER, Polygon([(0, 60), (40, 60), (40, 120), (0, 120)])),
    ])
    top = GdsCell("TOP", polygons=[
        (TARGET_LAYER, Polygon([(0, 500), (80, 500), (80, 580), (0, 580)])),
    ], refs=[
        GdsRef.array("UNIT", origin=(0.0, 0.0), cols=4, rows=2,
                     col_pitch=200.0, row_pitch=200.0),
        GdsRef("UNIT", origin=(1000.0, 0.0), rotation=90),
        GdsRef("UNIT", origin=(1000.0, 400.0), mirror_x=True),
    ])
    return Layout(cells={"UNIT": unit, "TOP": top}, top="TOP")


def arrayed_layout(cols: int, rows: int) -> Layout:
    """A ``cols×rows`` AREF of a bar/contact/L unit cell, plus one
    rotated and one mirrored placement of it."""
    unit = GdsCell("UNIT", polygons=[
        (TARGET_LAYER, Polygon([(0, 0), (120, 0), (120, 40), (0, 40)])),
        (TARGET_LAYER, Polygon([(160, 0), (200, 0), (200, 40), (160, 40)])),
        (TARGET_LAYER, Polygon(
            [(0, 60), (80, 60), (80, 100), (40, 100), (40, 140), (0, 140)]
        )),
    ])
    pitch = 260.0
    top = GdsCell("TOP", refs=[
        GdsRef.array("UNIT", origin=(0.0, 0.0), cols=cols, rows=rows,
                     col_pitch=pitch, row_pitch=pitch),
        GdsRef("UNIT", origin=(cols * pitch + 200.0, 0.0), rotation=90),
        GdsRef("UNIT", origin=(cols * pitch + 200.0, rows * pitch),
               mirror_x=True),
    ])
    return Layout(cells={"UNIT": unit, "TOP": top}, top="TOP")


class TestPlacedPolygons:
    def test_matches_flatten_order(self, layout):
        placed = placed_polygons(layout)
        flat = layout.flatten().targets
        assert [poly for _, poly in placed] == flat

    def test_names_are_unique(self, layout):
        names = [name for name, _ in placed_polygons(layout)]
        assert len(names) == len(set(names))


class TestBitIdentity:
    def test_hierarchy_equals_flatten(self, layout):
        frac = make_fracturer("partition")
        hier = fracture_layout(layout, frac, SPEC, hierarchy=True)
        flat = fracture_layout(layout, frac, SPEC, hierarchy=False)
        assert hier.shots == flat.shots  # bit-identical, not approx
        assert hier.shot_count == flat.shot_count
        assert [r.feasible for r in hier.results] == \
            [r.feasible for r in flat.results]
        assert [r.report.total_failing for r in hier.results] == \
            [r.report.total_failing for r in flat.results]

    def test_results_in_placement_order(self, layout):
        report = fracture_layout(layout, make_fracturer("partition"), SPEC)
        names = [name for name, _ in placed_polygons(layout)]
        assert [r.shape_name for r in report.results] == names


class TestTemplateSharing:
    def test_unique_fractures_bounded_by_distinct_geometry(self, layout):
        report = fracture_layout(layout, make_fracturer("partition"), SPEC)
        stats = report.stats
        # 21 placed polygons; distinct canonical geometries: the two
        # UNIT polygons, their 90°-rotated images, and the TOP square
        # (the mirrored placement canonicalizes onto the plain one).
        assert stats["polygon_instances"] == 21
        assert stats["unique_geometries"] == 5
        # One fingerprint per (cell, polygon, orientation): UNIT's two
        # polygons plain, rotated and mirrored, plus TOP's square.
        assert stats["fingerprints"] == 7
        assert stats["template_fractures"] == stats["unique_geometries"]
        assert stats["cache_hits"] == 16
        assert stats["hit_rate"] == pytest.approx(16 / 21)
        assert stats["mode"] == "hierarchy"

    def test_fractional_placements_fingerprint_their_own_polygon(self):
        """An AREF pitch of 200.5 puts the middle column at a fractional
        x: its polygons are placed and fingerprinted one by one, while
        the whole columns share one fingerprint per polygon."""
        unit = GdsCell("UNIT", polygons=[
            (TARGET_LAYER, Polygon([(0, 0), (120, 0), (120, 40), (0, 40)])),
            (TARGET_LAYER, Polygon([(0, 60), (40, 60), (40, 120), (0, 120)])),
        ])
        top = GdsCell("TOP", refs=[
            GdsRef.array("UNIT", origin=(0.0, 0.0), cols=3, rows=1,
                         col_pitch=200.5, row_pitch=0.0),
        ])
        layout = Layout(cells={"UNIT": unit, "TOP": top}, top="TOP")
        frac = make_fracturer("partition")
        report = fracture_layout(layout, frac, SPEC)
        assert report.stats["polygon_instances"] == 6
        assert report.stats["fingerprints"] == 2 + 2
        flat = fracture_layout(layout, frac, SPEC, hierarchy=False)
        assert report.shots == flat.shots

    def test_far_placement_keeps_its_own_winding(self):
        """At 2^30 nm the float shoelace sum of a 40x1 nm bar rounds to
        the other sign, so the placed copy canonicalizes to the reversed
        loop, a geometry of its own.  The walk must fingerprint it as
        placed rather than reuse the bar's memoized fingerprint."""
        bar = GdsCell("BAR", polygons=[
            (TARGET_LAYER, Polygon([(0, 0), (40, 0), (40, 1), (0, 1)])),
        ])
        top = GdsCell("TOP", refs=[
            GdsRef("BAR", origin=(0.0, 0.0)),
            GdsRef("BAR", origin=(2.0**30 + 7, 2.0**30 - 10)),
        ])
        layout = Layout(cells={"BAR": bar, "TOP": top}, top="TOP")
        placed = {
            fingerprint_polygon(polygon, SPEC, "partition")[0]
            for _, polygon in placed_polygons(layout)
        }
        assert len(placed) == 2
        report = fracture_layout(layout, make_fracturer("partition"), SPEC)
        assert report.stats["unique_geometries"] == 2
        assert report.stats["fingerprints"] == 2

    def test_flatten_mode_never_caches(self, layout):
        report = fracture_layout(
            layout, make_fracturer("partition"), SPEC, hierarchy=False
        )
        assert report.stats["cache_hits"] == 0
        assert report.stats["template_fractures"] == 21
        assert report.stats["mode"] == "flatten"
        assert "cache" not in report.stats

    def test_cache_hits_marked_in_extra(self, layout):
        report = fracture_layout(layout, make_fracturer("partition"), SPEC)
        hits = [r for r in report.results if r.extra.get("cache_hit")]
        assert len(hits) == report.stats["cache_hits"]

    def test_shared_cache_warm_across_runs(self, layout, tmp_path):
        cache = FractureCache(persist_dir=tmp_path / "store")
        frac = make_fracturer("partition")
        cold = fracture_layout(layout, frac, SPEC, cache=cache)
        assert cold.stats["template_fractures"] == 5

        warm_cache = FractureCache(persist_dir=tmp_path / "store")
        warm = fracture_layout(layout, frac, SPEC, cache=warm_cache)
        assert warm.stats["template_fractures"] == 0
        assert warm.stats["hit_rate"] == 1.0
        assert warm.shots == cold.shots
        # The store is read once per template, not once per placement.
        assert cold.stats["cache"]["misses"] == 5
        assert warm.stats["cache"]["hits"] == 5


class TestArrayedLayoutWarmCache:
    def test_warm_run_replays_everything_at_least_5x_faster(self, tmp_path):
        """81 placements fractured cold into an on-disk cache, then warm
        from it with a fresh in-memory cache: both match the flattened
        run, and the warm run fractures nothing (best of 3 each)."""
        layout = arrayed_layout(5, 5)
        frac = make_fracturer("partition")
        flat = fracture_layout(layout, frac, SPEC, hierarchy=False)

        def timed(store):
            cache = FractureCache(max_entries=4096, persist_dir=store)
            start = time.perf_counter()
            report = fracture_layout(layout, frac, SPEC, cache=cache)
            return report, time.perf_counter() - start

        colds, warms = [], []
        for i in range(3):
            colds.append(timed(tmp_path / f"store{i}"))
            warms.append(timed(tmp_path / f"store{i}"))
        for report, _ in colds + warms:
            assert report.shots == flat.shots
            assert report.stats["hit_rate"] >= 0.9
        for report, _ in colds:
            # 3 unit polygons × 3 orientations, not one per placement.
            assert report.stats["fingerprints"] <= 9
        for report, _ in warms:
            assert report.stats["template_fractures"] == 0
        cold_s = min(wall for _, wall in colds)
        warm_s = min(wall for _, wall in warms)
        assert cold_s >= 5 * warm_s, (cold_s, warm_s)


class TestTemplatesOnTheBatchLoop:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_pool_matches_one_worker(self, layout, workers):
        """Templates fractured on the batch loop's pool give every
        placement what one worker gives it, hierarchical and flattened."""
        frac = make_fracturer("partition")
        for case in (layout, arrayed_layout(5, 5)):
            for hierarchy in (True, False):
                serial = fracture_layout(case, frac, SPEC, hierarchy=hierarchy)
                pooled = fracture_layout(
                    case, frac, SPEC, hierarchy=hierarchy, workers=workers
                )
                assert [result_key(r) for r in pooled.results] == \
                    [result_key(r) for r in serial.results]
                assert pooled.stats == serial.stats

    def test_no_template_keeps_its_raster(self):
        """The batch loop reads each template afresh, so a fractured
        template's raster is freed before the next template is
        fractured, not kept until the batch ends."""
        inner = make_fracturer("partition")
        rasters = []

        class Watch(Fracturer):
            name = "watch"

            def fracture_shots(self, shape, spec):
                assert all(ref() is None for ref in rasters)
                rasters.append(weakref.ref(shape.inside))
                return inner.fracture_shots(shape, spec)

        report = fracture_layout(
            arrayed_layout(2, 2), Watch(), SPEC, hierarchy=False
        )
        assert len(rasters) == report.stats["template_fractures"] == 18
