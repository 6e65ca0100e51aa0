"""Unit tests for the content-addressed fracture result cache."""

import json
import threading
from pathlib import Path

import pytest

from repro.fracture.base import FractureResult
from repro.fracture.cache import (
    FractureCache,
    canonical_fingerprint,
    fingerprint_polygon,
    result_from_payload,
    result_to_payload,
    translate_shots,
)
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.mask.constraints import FailureReport, FractureSpec
from repro.mask.mdp import MdpPipeline
from repro.mask.shape import MaskShape
from repro.methods import make_fracturer

SPEC = FractureSpec()


def rect_poly(x0=0, y0=0, w=100, h=60):
    return Polygon([(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)])


def fracture(polygon, name="clip"):
    shape = MaskShape.from_polygon(
        polygon, pitch=SPEC.pitch, margin=SPEC.grid_margin, name=name
    )
    return make_fracturer("partition").fracture(shape, SPEC)


def put_result(cache, polygon, result, method, window_nm=None):
    """Store ``result`` under ``polygon``'s canonical key, as the batch
    loop and the hierarchy walk do; returns the fingerprint."""
    fingerprint, offset = fingerprint_polygon(polygon, SPEC, method, window_nm)
    cache.put(fingerprint, result_to_payload(result, frame=offset))
    return fingerprint


def get_result(cache, polygon, method, window_nm=None):
    """The stored result for ``polygon``, placed on it, or ``None``."""
    fingerprint, offset = fingerprint_polygon(polygon, SPEC, method, window_nm)
    payload = cache.get(fingerprint)
    if payload is None:
        return None
    return result_from_payload(payload, shape_name="", frame=offset)


class TestFingerprint:
    def test_translation_invariant(self):
        fp_a, off_a = fingerprint_polygon(rect_poly(), SPEC, "m", None)
        fp_b, off_b = fingerprint_polygon(rect_poly(500, 700), SPEC, "m", None)
        assert fp_a == fp_b
        assert off_b == (500.0, 700.0)

    def test_int_and_float_coordinates_agree(self):
        ints = Polygon([(0, 0), (60, 0), (60, 40), (0, 40)])
        floats = Polygon([(0.0, 0.0), (60.0, 0.0), (60.0, 40.0), (0.0, 40.0)])
        assert fingerprint_polygon(ints, SPEC, "m", None)[0] == \
            fingerprint_polygon(floats, SPEC, "m", None)[0]

    def test_negative_zero_collapsed(self):
        a = canonical_fingerprint([[0.0, 0.0], [10.0, 0.0]], SPEC, "m", None)
        b = canonical_fingerprint([[-0.0, 0.0], [10.0, -0.0]], SPEC, "m", None)
        assert a == b

    def test_window_int_float_agree(self):
        verts = [[0.0, 0.0], [10.0, 0.0]]
        assert canonical_fingerprint(verts, SPEC, "m", 512) == \
            canonical_fingerprint(verts, SPEC, "m", 512.0)

    def test_method_and_window_split_keys(self):
        verts = [[0.0, 0.0], [10.0, 0.0]]
        base = canonical_fingerprint(verts, SPEC, "m", None)
        assert canonical_fingerprint(verts, SPEC, "other", None) != base
        assert canonical_fingerprint(verts, SPEC, "m", 512.0) != base

    def test_geometry_splits_keys(self):
        assert fingerprint_polygon(rect_poly(w=100), SPEC, "m", None)[0] != \
            fingerprint_polygon(rect_poly(w=120), SPEC, "m", None)[0]


class TestPayloadRoundtrip:
    def test_report_digest_survives(self):
        result = fracture(rect_poly())
        payload = result_to_payload(result, frame=(0.0, 0.0))
        back = result_from_payload(payload, shape_name="clip")
        assert back.shots == result.shots
        assert back.feasible == result.feasible
        assert back.report.total_failing == result.report.total_failing
        assert back.report.cost == result.report.cost
        assert back.report.undersize_shots == result.report.undersize_shots
        assert back.extra["cache_hit"] is True
        assert back.extra["cached_runtime_s"] == result.runtime_s

    def test_frame_translation(self):
        result = fracture(rect_poly())
        payload = result_to_payload(result, frame=(100.0, 200.0))
        back = result_from_payload(
            payload, shape_name="clip", frame=(150.0, 180.0)
        )
        assert back.shots == translate_shots(result.shots, 50.0, -20.0)

    def test_json_round_trip_preserves_shots(self):
        result = fracture(rect_poly())
        payload = json.loads(json.dumps(result_to_payload(result)))
        assert result_from_payload(payload, "clip").shots == result.shots

    def test_translate_shots_identity_copies(self):
        shots = [Rect(0, 0, 10, 10)]
        out = translate_shots(shots, 0.0, 0.0)
        assert out == shots and out is not shots


class TestFractureCache:
    def test_get_put_and_stats(self):
        cache = FractureCache()
        assert cache.get("missing") is None
        cache.put("k", {"shots": [], "shot_count": 0})
        assert cache.get("k") == {"shots": [], "shot_count": 0}
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_empty_cache_is_truthy(self):
        # `if cache:` must never silently skip a warm disk store.
        assert FractureCache()

    def test_eviction_is_fifo(self):
        cache = FractureCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.put(key, {"shots": [], "key": key})
        assert len(cache) == 2
        assert cache.get("a") is None
        assert cache.get("c") is not None

    def test_result_interface_translates_placement(self):
        cache = FractureCache()
        result = fracture(rect_poly())
        put_result(cache, rect_poly(), result, method="partition")
        moved = rect_poly(300, 400)
        hit = get_result(cache, moved, method="partition")
        assert hit is not None
        assert hit.shots == translate_shots(result.shots, 300.0, 400.0)
        assert get_result(cache, moved, method="other") is None

    def test_put_result_method_overrides_display_name(self):
        # Registry name and FractureResult.method (class display name)
        # can differ; the explicit method parameter keys the entry.
        cache = FractureCache()
        result = fracture(rect_poly())
        assert result.method != "registry-alias"
        put_result(cache, rect_poly(), result, method="registry-alias")
        assert get_result(cache, rect_poly(), "registry-alias") is not None
        assert get_result(cache, rect_poly(), result.method) is None


class TestPersistence:
    def test_disk_round_trip(self, tmp_path):
        store = tmp_path / "cache"
        warm = FractureCache(persist_dir=store)
        result = fracture(rect_poly())
        fp = put_result(warm, rect_poly(), result, method="partition")
        assert (store / f"{fp}.json").exists()

        cold = FractureCache(persist_dir=store)
        hit = get_result(cold, rect_poly(77, 88), "partition")
        assert hit is not None
        assert hit.shots == translate_shots(result.shots, 77.0, 88.0)
        stats = cold.stats()
        assert stats["disk_hits"] == 1
        assert stats["disk_entries"] == 1

    def test_corrupt_disk_entry_reads_as_miss(self, tmp_path):
        store = tmp_path / "cache"
        cache = FractureCache(persist_dir=store)
        fp = put_result(
            cache, rect_poly(), fracture(rect_poly()), method="partition"
        )
        (store / f"{fp}.json").write_text("{ torn")
        cold = FractureCache(persist_dir=store)
        assert cold.get(fp) is None
        (store / f"{fp}.json").write_text(json.dumps({"no": "shots"}))
        assert FractureCache(persist_dir=store).get(fp) is None

    def test_stats_lists_the_store_outside_the_lock(
        self, tmp_path, monkeypatch
    ):
        cache = FractureCache(persist_dir=tmp_path / "cache")
        payload = result_to_payload(fracture(rect_poly()))
        cache.put("fp", payload)
        listing, release = threading.Event(), threading.Event()
        glob = Path.glob

        def blocked_glob(self, pattern):
            listing.set()
            release.wait(10)
            return glob(self, pattern)

        monkeypatch.setattr(Path, "glob", blocked_glob)
        stats = threading.Thread(target=cache.stats, daemon=True)
        stats.start()
        assert listing.wait(10)
        got = []
        getter = threading.Thread(
            target=lambda: got.append(cache.get("fp")), daemon=True
        )
        getter.start()
        getter.join(timeout=1)
        returned = not getter.is_alive()
        release.set()
        getter.join(timeout=10)
        stats.join(timeout=10)
        assert returned, "get waited for stats() to list the disk store"
        assert got == [payload]

    def test_memoryless_stats_without_persist_dir(self):
        assert "disk_hits" not in FractureCache().stats()

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            FractureCache(max_entries=0)


class TestFracturerIntegration:
    """The batch loop keys its store by the fracturer it runs."""

    def test_fracture_populates_and_hits(self):
        pipeline = MdpPipeline(
            make_fracturer("partition"), SPEC, cache=FractureCache()
        )
        shape = MaskShape.from_polygon(
            rect_poly(), pitch=SPEC.pitch, margin=SPEC.grid_margin, name="a"
        )
        [first] = pipeline.run([shape]).results
        assert not first.extra.get("cache_hit")
        moved = MaskShape.from_polygon(
            rect_poly(40, 80), pitch=SPEC.pitch, margin=SPEC.grid_margin,
            name="b",
        )
        [second] = pipeline.run([moved]).results
        assert second.extra.get("cache_hit") is True
        assert second.shots == translate_shots(first.shots, 40.0, 80.0)

    def test_registry_name_keys_the_cache(self):
        # make_fracturer sets cache_method to the registry name, so a
        # fresh result the batch loop stores is found under that name.
        cache = FractureCache()
        shape = MaskShape.from_polygon(
            rect_poly(), pitch=SPEC.pitch, margin=SPEC.grid_margin, name="a"
        )
        MdpPipeline(make_fracturer("partition"), SPEC, cache=cache).run([shape])
        assert get_result(cache, rect_poly(), "partition") is not None
