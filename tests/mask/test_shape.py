"""Unit tests for MaskShape."""

import numpy as np
import pytest

from repro.geometry.polygon import Polygon
from repro.geometry.raster import PixelGrid
from repro.mask.shape import MaskShape


class TestConstruction:
    def test_from_polygon_pads_grid(self, spec):
        poly = Polygon([(0, 0), (50, 0), (50, 30), (0, 30)])
        shape = MaskShape.from_polygon(poly, margin=20.0)
        extent = shape.grid.extent
        assert extent.xbl <= -20.0 and extent.xtr >= 70.0

    def test_from_mask_traces_polygon(self, small_grid):
        mask = np.zeros(small_grid.shape, dtype=bool)
        mask[5:25, 5:35] = True
        shape = MaskShape.from_mask(mask, small_grid, name="sq")
        assert shape.polygon.is_rectilinear()
        assert shape.polygon.area == 600.0

    def test_empty_mask_raises(self, small_grid):
        with pytest.raises(ValueError):
            MaskShape.from_mask(np.zeros(small_grid.shape, dtype=bool), small_grid)

    def test_shape_mismatch_raises(self, small_grid):
        poly = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        with pytest.raises(ValueError):
            MaskShape(poly, small_grid, np.zeros((3, 3), dtype=bool))


class TestLazyTrace:
    def test_polygon_traced_on_first_read_equals_eager_trace(
        self, small_grid, monkeypatch
    ):
        from repro.geometry.trace import trace_boundary
        from repro.mask import shape as shape_module

        mask = np.zeros(small_grid.shape, dtype=bool)
        mask[5:25, 5:35] = True
        mask[10:20, 30:38] = True
        calls = []
        monkeypatch.setattr(
            shape_module, "trace_boundary",
            lambda *args: calls.append(args) or trace_boundary(*args),
        )
        shape = MaskShape.from_mask(mask, small_grid, name="lazy")
        assert not calls
        assert shape.polygon == trace_boundary(mask, small_grid)
        assert shape.polygon is shape.polygon
        assert len(calls) == 1

    def test_crop_keeps_the_whole_shape_pixel_classes(self, rect_shape):
        pixels = rect_shape.pixels(2.0)
        # A window across the rectangle's lower-left corner.
        rows, cols = slice(30, 70), slice(30, 80)
        crop = rect_shape.crop(rows, cols, name="part")
        assert crop.grid.shape == (40, 50)
        assert crop.grid.x0 == rect_shape.grid.x0 + 30 * rect_shape.grid.pitch
        assert crop.grid.y0 == rect_shape.grid.y0 + 30 * rect_shape.grid.pitch
        assert np.array_equal(crop.inside, rect_shape.inside[rows, cols])
        cropped = crop.pixels(2.0)
        for name in ("on", "off", "band"):
            assert np.array_equal(
                getattr(cropped, name), getattr(pixels, name)[rows, cols]
            )


class TestDerivedData:
    def test_area_matches_polygon(self, rect_shape):
        assert abs(rect_shape.area - 2400.0) < 150.0

    def test_sat_cached(self, rect_shape):
        assert rect_shape.sat is rect_shape.sat

    def test_pixels_cached_per_gamma(self, rect_shape):
        a = rect_shape.pixels(2.0)
        b = rect_shape.pixels(2.0)
        c = rect_shape.pixels(3.0)
        assert a is b and a is not c

    def test_pixel_partition(self, blob_shape):
        assert blob_shape.pixels(2.0).is_partition()

    def test_repr_mentions_name(self, rect_shape):
        assert "rect" in repr(rect_shape)

    def test_vertex_count(self, rect_shape):
        assert rect_shape.vertex_count == 4
