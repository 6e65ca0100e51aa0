"""Unit tests for summed-area tables."""

import numpy as np
import pytest

from repro.geometry.raster import PixelGrid
from repro.geometry.rect import Rect
from repro.geometry.sat import SummedAreaTable


@pytest.fixture()
def checkerboard(small_grid):
    field = np.indices(small_grid.shape).sum(axis=0) % 2 == 0
    return SummedAreaTable(field.astype(np.float64), small_grid), field


class TestWindowSum:
    def test_shape_mismatch_raises(self, small_grid):
        with pytest.raises(ValueError):
            SummedAreaTable(np.zeros((3, 3)), small_grid)

    def test_full_window_equals_total(self, checkerboard, small_grid):
        sat, field = checkerboard
        assert sat.window_sum(0, small_grid.ny, 0, small_grid.nx) == field.sum()

    def test_random_windows_match_numpy(self, small_grid):
        rng = np.random.default_rng(0)
        field = rng.random(small_grid.shape)
        sat = SummedAreaTable(field, small_grid)
        for _ in range(25):
            y1, y2 = sorted(rng.integers(0, small_grid.ny + 1, 2))
            x1, x2 = sorted(rng.integers(0, small_grid.nx + 1, 2))
            assert np.isclose(
                sat.window_sum(y1, y2, x1, x2), field[y1:y2, x1:x2].sum()
            )

    def test_out_of_range_clamped(self, checkerboard):
        sat, field = checkerboard
        assert sat.window_sum(-5, 1000, -5, 1000) == field.sum()

    def test_empty_window_is_zero(self, checkerboard):
        sat, _ = checkerboard
        assert sat.window_sum(5, 5, 0, 10) == 0.0


class TestRectQueries:
    def test_rect_sum_counts_covered_centres(self, small_grid):
        field = np.ones(small_grid.shape)
        sat = SummedAreaTable(field, small_grid)
        # Rect [2,2]..[6,5] covers centres 2.5..5.5 x, 2.5..4.5 y → 4x3.
        assert sat.rect_sum(Rect(2, 2, 6, 5)) == 12.0
        assert sat.rect_pixel_count(Rect(2, 2, 6, 5)) == 12

    def test_rect_sums_equal_rect_sum_per_rectangle(self, small_grid):
        rng = np.random.default_rng(1)
        sat = SummedAreaTable(rng.random(small_grid.shape), small_grid)
        lo = rng.uniform(-10.0, 60.0, (40, 2))
        hi = lo + rng.uniform(0.0, 30.0, (40, 2))
        sums = sat.rect_sums(lo[:, 0], lo[:, 1], hi[:, 0], hi[:, 1])
        assert list(sums) == [
            sat.rect_sum(Rect(*a, *b)) for a, b in zip(lo, hi)
        ]

    def test_rect_fraction_inside_mask(self, small_grid):
        field = np.zeros(small_grid.shape)
        field[:, :25] = 1.0  # left half (x < 25) filled
        sat = SummedAreaTable(field, small_grid)
        assert sat.rect_fraction(Rect(0, 0, 25, 40)) == 1.0
        assert sat.rect_fraction(Rect(25, 0, 50, 40)) == 0.0
        assert abs(sat.rect_fraction(Rect(15, 0, 35, 40)) - 0.5) < 0.01

    def test_rect_fraction_empty_rect(self, small_grid):
        sat = SummedAreaTable(np.ones(small_grid.shape), small_grid)
        assert sat.rect_fraction(Rect(10.6, 10.6, 10.9, 10.9)) == 0.0

    def test_fraction_used_by_merge_rule(self, blob_shape):
        """The shape's own SAT reports ~1.0 deep inside, ~0 far outside."""
        bbox = blob_shape.polygon.bounding_box()
        center = bbox.center
        inner = Rect.from_center(center, 4, 4)
        if blob_shape.sat.rect_fraction(inner) > 0:  # centre may be outside
            assert 0.0 <= blob_shape.sat.rect_fraction(inner) <= 1.0
        outer = Rect(bbox.xtr + 10, bbox.ytr + 10, bbox.xtr + 20, bbox.ytr + 20)
        assert blob_shape.sat.rect_fraction(outer) == 0.0
