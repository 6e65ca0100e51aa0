"""Unit tests for connected-component labeling."""

import numpy as np
import pytest

from repro.geometry.labeling import bounding_boxes, label_components
from repro.geometry.raster import PixelGrid


class TestLabelComponents:
    def test_empty_mask(self):
        labels, count = label_components(np.zeros((5, 5), dtype=bool))
        assert count == 0 and labels.sum() == 0

    def test_single_component(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[1:4, 1:4] = True
        labels, count = label_components(mask)
        assert count == 1
        assert (labels[mask] == 1).all()
        assert (labels[~mask] == 0).all()

    def test_two_components(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0:2, 0:2] = True
        mask[5:8, 5:8] = True
        _, count = label_components(mask)
        assert count == 2

    def test_diagonal_is_not_connected(self):
        mask = np.array([[1, 0], [0, 1]], dtype=bool)
        _, count = label_components(mask)
        assert count == 2

    def test_u_shape_merges_to_one(self):
        """U shape forces label equivalence resolution across the pass."""
        mask = np.zeros((5, 7), dtype=bool)
        mask[1:4, 1] = True
        mask[1:4, 5] = True
        mask[1, 1:6] = True
        _, count = label_components(mask)
        assert count == 1

    def test_labels_consecutive(self):
        rng = np.random.default_rng(3)
        mask = rng.random((30, 30)) > 0.6
        labels, count = label_components(mask)
        present = np.unique(labels)
        assert present[0] == 0 or count == labels.max()
        assert set(present) - {0} == set(range(1, count + 1))

    def test_matches_scipy(self):
        from scipy.ndimage import label as scipy_label

        rng = np.random.default_rng(11)
        mask = rng.random((40, 40)) > 0.55
        _, ours = label_components(mask)
        _, theirs = scipy_label(mask)
        assert ours == theirs


class TestBoundingBoxes:
    def test_boxes_cover_pixel_cells(self):
        grid = PixelGrid(0.0, 0.0, 2.0, 10, 10)
        mask = np.zeros((10, 10), dtype=bool)
        mask[2:4, 3:6] = True
        labels, count = label_components(mask)
        boxes = bounding_boxes(labels, count, grid)
        assert len(boxes) == 1
        rect, pixels = boxes[0]
        assert pixels == 6
        assert rect.as_tuple() == (6.0, 4.0, 12.0, 8.0)

    def test_sorted_by_size_descending(self):
        grid = PixelGrid(0.0, 0.0, 1.0, 20, 20)
        mask = np.zeros((20, 20), dtype=bool)
        mask[1:3, 1:3] = True  # 4 px
        mask[10:16, 10:16] = True  # 36 px
        labels, count = label_components(mask)
        boxes = bounding_boxes(labels, count, grid)
        assert [pixels for _, pixels in boxes] == [36, 4]


# -- vectorized labeling vs the pure-Python references ----------------------
#
# The contract is exact: labels AND numbering (components in raster-scan
# order of their first pixel) must match the union-find reference bit
# for bit, because tile extraction, AddShot and the GSC baseline all
# consume the ordering.

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import labeling
from repro.geometry.labeling import (
    component_stats,
    component_stats_scalar,
    label_components_scalar,
)


def _assert_labeling_identical(mask: np.ndarray) -> None:
    labels_v, count_v = label_components(mask)
    labels_s, count_s = label_components_scalar(mask)
    assert count_v == count_s
    assert np.array_equal(labels_v, labels_s)


def _spiral_mask(n: int) -> np.ndarray:
    """One-pixel-wide square spiral: the longest merge chains per pixel."""
    mask = np.zeros((n, n), dtype=bool)
    y, x = n // 2, n // 2
    mask[y, x] = True
    step, d = 1, 0
    moves = ((0, 1), (1, 0), (0, -1), (-1, 0))
    while step < n:
        for _ in range(2):
            dy, dx = moves[d % 4]
            for _ in range(step):
                y += dy
                x += dx
                if 0 <= y < n and 0 <= x < n:
                    mask[y, x] = True
            d += 1
        step += 2  # gap between arms: a genuine winding component
    return mask


def _layout_masks(size: int) -> list[tuple[str, np.ndarray]]:
    """Whole-layout sizes: p=0.5 noise (thousands of components at
    512²), chunky block noise, and long diagonal runs."""
    rng = np.random.default_rng(20150607)
    block = max(1, size // 64)
    coarse = rng.random((size // block + 1, size // block + 1)) < 0.5
    blocks = np.repeat(np.repeat(coarse, block, 0), block, 1)[:size, :size]
    iy, ix = np.indices((size, size))
    return [
        (f"random_{size}", rng.random((size, size)) < 0.5),
        (f"blocks_{size}", blocks),
        (f"stripes_{size}", ((iy + ix) // 7) % 2 == 0),
    ]


class TestBackendBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ny=st.integers(1, 28),
        nx=st.integers(1, 28),
        density=st.floats(0.05, 0.95),
    )
    def test_random_masks(self, seed, ny, nx, density):
        rng = np.random.default_rng(seed)
        _assert_labeling_identical(rng.random((ny, nx)) < density)

    @pytest.mark.parametrize(
        "name,mask",
        [
            ("empty", np.zeros((9, 9), dtype=bool)),
            ("all_true", np.ones((9, 13), dtype=bool)),
            ("single_pixel", np.eye(1, dtype=bool)),
            ("single_row", np.array([[1, 1, 0, 1, 0, 0, 1]], dtype=bool)),
            ("single_column", np.array([[1], [0], [1], [1], [0]], dtype=bool)),
            (
                "checkerboard",
                (np.indices((16, 17)).sum(axis=0) % 2 == 0),
            ),
            ("spiral", _spiral_mask(25)),
            ("spiral_even", _spiral_mask(32)),
            *_layout_masks(128),
            *_layout_masks(512),
        ],
    )
    def test_adversarial_structures(self, name, mask):
        _assert_labeling_identical(mask)

    def test_numbering_is_raster_order_of_first_pixels(self):
        rng = np.random.default_rng(2015)
        mask = rng.random((40, 40)) < 0.45
        labels, count = label_components(mask)
        firsts = [
            int(np.flatnonzero(labels.ravel() == lab)[0])
            for lab in range(1, count + 1)
        ]
        assert firsts == sorted(firsts)

    def test_component_stats_match_scan(self):
        rng = np.random.default_rng(7)
        mask = rng.random((40, 50)) < 0.4
        labels, count = label_components(mask)
        fast = component_stats(labels, count)
        scan = component_stats_scalar(labels, count)
        for a, b in zip(fast, scan, strict=True):
            assert np.array_equal(a, b)

    def test_window_origin_gives_the_whole_grid_boxes(self):
        """Labeling the bounding box of a mask with its origin passed in
        gives the boxes of labeling the whole grid, bit for bit, on a
        grid whose origin is not a whole number."""
        rng = np.random.default_rng(17)
        grid = PixelGrid(3.4505, -7.25, 1.0, 60, 50)
        mask = np.zeros((50, 60), dtype=bool)
        mask[12:41, 9:47] = rng.random((29, 38)) < 0.45
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask.any(axis=0))
        window = mask[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
        labels, count = label_components(window)
        windowed = bounding_boxes(
            labels, count, grid, origin=(int(rows[0]), int(cols[0]))
        )
        whole = bounding_boxes(*label_components(mask), grid)
        assert len(whole) > 1
        assert [(r.as_tuple(), n) for r, n in windowed] == [
            (r.as_tuple(), n) for r, n in whole
        ]

    def test_bounding_boxes_identical_across_backends(self, monkeypatch):
        rng = np.random.default_rng(99)
        mask = rng.random((35, 30)) < 0.35
        grid = PixelGrid(0.0, 0.0, 1.0, 30, 35)
        labels, count = label_components_scalar(mask)

        def boxes():
            return [
                (rect.as_tuple(), pixels)
                for rect, pixels in bounding_boxes(labels, count, grid)
            ]

        fast = boxes()
        monkeypatch.setattr(labeling, "component_stats", component_stats_scalar)
        assert boxes() == fast
