"""Summed-area tables for O(1) rectangle occupancy queries.

The fracturer repeatedly asks "what fraction of this candidate shot lies
inside the target shape?" — for the 80 % graph-edge overlap rule (paper §3
footnote 2) and the 90 % merge rule (§4.5).  A summed-area table over the
inside-mask answers each query in constant time.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.raster import PixelGrid
from repro.geometry.rect import Rect


class SummedAreaTable:
    """Integral image over a scalar (or boolean) pixel field."""

    __slots__ = ("_grid", "_table")

    def __init__(self, field: np.ndarray, grid: PixelGrid):
        if field.shape != grid.shape:
            raise ValueError(f"field shape {field.shape} != grid shape {grid.shape}")
        self._grid = grid
        table = np.zeros((grid.ny + 1, grid.nx + 1), dtype=np.float64)
        np.cumsum(field, axis=0, out=table[1:, 1:])
        np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
        self._table = table

    @property
    def grid(self) -> PixelGrid:
        return self._grid

    def window_sum(self, iy_lo: int, iy_hi: int, ix_lo: int, ix_hi: int) -> float:
        """Sum of the field over the half-open index window.

        ``iy_lo <= iy < iy_hi`` and ``ix_lo <= ix < ix_hi``; indices are
        clamped to the grid.
        """
        iy_lo = min(max(iy_lo, 0), self._grid.ny)
        iy_hi = min(max(iy_hi, iy_lo), self._grid.ny)
        ix_lo = min(max(ix_lo, 0), self._grid.nx)
        ix_hi = min(max(ix_hi, ix_lo), self._grid.nx)
        t = self._table
        return float(
            t[iy_hi, ix_hi] - t[iy_lo, ix_hi] - t[iy_hi, ix_lo] + t[iy_lo, ix_lo]
        )

    def rect_sum(self, rect: Rect) -> float:
        """Sum of the field over pixels whose centres lie inside ``rect``."""
        g = self._grid
        ix_lo = int(np.ceil((rect.xbl - g.x0) / g.pitch - 0.5))
        ix_hi = int(np.floor((rect.xtr - g.x0) / g.pitch - 0.5)) + 1
        iy_lo = int(np.ceil((rect.ybl - g.y0) / g.pitch - 0.5))
        iy_hi = int(np.floor((rect.ytr - g.y0) / g.pitch - 0.5)) + 1
        return self.window_sum(iy_lo, iy_hi, ix_lo, ix_hi)

    def rect_sums(
        self, xbl: np.ndarray, ybl: np.ndarray, xtr: np.ndarray, ytr: np.ndarray
    ) -> np.ndarray:
        """:meth:`rect_sum` over broadcastable arrays of rectangle edges.

        The index arithmetic and clamping are the scalar call's, element
        by element, so each entry equals ``rect_sum`` of its rectangle.
        """
        g = self._grid
        ix_lo = np.ceil((xbl - g.x0) / g.pitch - 0.5).astype(np.int64)
        ix_hi = np.floor((xtr - g.x0) / g.pitch - 0.5).astype(np.int64) + 1
        iy_lo = np.ceil((ybl - g.y0) / g.pitch - 0.5).astype(np.int64)
        iy_hi = np.floor((ytr - g.y0) / g.pitch - 0.5).astype(np.int64) + 1
        iy_lo = np.minimum(np.maximum(iy_lo, 0), g.ny)
        iy_hi = np.minimum(np.maximum(iy_hi, iy_lo), g.ny)
        ix_lo = np.minimum(np.maximum(ix_lo, 0), g.nx)
        ix_hi = np.minimum(np.maximum(ix_hi, ix_lo), g.nx)
        t = self._table
        return t[iy_hi, ix_hi] - t[iy_lo, ix_hi] - t[iy_hi, ix_lo] + t[iy_lo, ix_lo]

    def rect_pixel_count(self, rect: Rect) -> int:
        """Number of grid pixels whose centres lie inside ``rect``."""
        g = self._grid
        ix_lo = min(max(int(np.ceil((rect.xbl - g.x0) / g.pitch - 0.5)), 0), g.nx)
        ix_hi = min(max(int(np.floor((rect.xtr - g.x0) / g.pitch - 0.5)) + 1, ix_lo), g.nx)
        iy_lo = min(max(int(np.ceil((rect.ybl - g.y0) / g.pitch - 0.5)), 0), g.ny)
        iy_hi = min(max(int(np.floor((rect.ytr - g.y0) / g.pitch - 0.5)) + 1, iy_lo), g.ny)
        return (ix_hi - ix_lo) * (iy_hi - iy_lo)

    def rect_fraction(self, rect: Rect) -> float:
        """Mean field value over the pixels covered by ``rect``.

        For a boolean inside-mask this is exactly "fraction of the shot
        inside the target shape"; returns 0.0 for rects covering no pixel.
        """
        count = self.rect_pixel_count(rect)
        if count == 0:
            return 0.0
        return self.rect_sum(rect) / count
