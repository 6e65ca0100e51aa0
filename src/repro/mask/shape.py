"""Target mask shapes: polygon + pixel sampling in one problem instance.

A :class:`MaskShape` bundles everything a fracturer needs about one
target: the boundary polygon ``V_M``, the pixel grid, the rasterized
inside-mask, a summed-area table for overlap queries, and (cached) the
P_on/P_off/P_x classification for a given γ.  A polygon rasterizes on
first use, so a fracture-cache hit, which reads only the polygon,
never pays for it; a mask traces its polygon on first use, so a tiled
run, whose tile sub-shapes and stitch windows are masks, traces each
sub-shape in the worker that fractures it and never traces the chip.
"""

from __future__ import annotations

from repro.geometry.polygon import Polygon
from repro.geometry.raster import PixelGrid, rasterize_polygon
from repro.geometry.sat import SummedAreaTable
from repro.geometry.trace import trace_boundary
from repro.mask.pixels import PixelSets, classify_pixels

import numpy as np


class MaskShape:
    """One fracturing problem instance.

    Construct with :meth:`from_polygon` (toy shapes, traced ILT contours)
    or :meth:`from_mask` (ρ-contour targets from the benchmark
    generators).  The grid always pads the target bounding box by the
    blur reach so P_off constraints outside the shape are represented.
    """

    __slots__ = ("name", "_polygon", "grid", "_inside", "_sat", "_pixel_cache")

    def __init__(
        self,
        polygon: Polygon | None,
        grid: PixelGrid,
        inside: np.ndarray | None,
        name: str = "",
    ):
        self.name = name
        self._polygon = polygon
        self.grid = grid
        self._inside = None if inside is None else _checked_mask(inside, grid)
        self._sat: SummedAreaTable | None = None
        self._pixel_cache: dict[float, PixelSets] = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_polygon(
        cls,
        polygon: Polygon,
        pitch: float = 1.0,
        margin: float = 30.0,
        name: str = "",
    ) -> "MaskShape":
        """Place a boundary polygon on a padded grid (rasterized on first use)."""
        grid = PixelGrid.for_rect(polygon.bounding_box(), pitch, margin=margin)
        return cls(polygon, grid, None, name=name)

    @classmethod
    def from_mask(
        cls, inside: np.ndarray, grid: PixelGrid, name: str = ""
    ) -> "MaskShape":
        """Wrap an existing boolean mask (traced to a polygon on first use)."""
        return cls(None, grid, inside, name=name)

    def crop(self, rows: slice, cols: slice, name: str = "") -> "MaskShape":
        """The shape's pixels in one index window, on that window's grid.

        Pixel classes this shape has already computed are cropped along,
        so every pixel of the crop keeps the class the whole shape gives
        it: a class depends on the boundary within γ, which may lie
        outside the window.
        """
        grid = self.grid
        cropped = MaskShape(
            None,
            PixelGrid(
                grid.x0 + cols.start * grid.pitch,
                grid.y0 + rows.start * grid.pitch,
                grid.pitch,
                cols.stop - cols.start,
                rows.stop - rows.start,
            ),
            self.inside[rows, cols],
            name=name,
        )
        for gamma, sets in self._pixel_cache.items():
            cropped._pixel_cache[gamma] = PixelSets(
                on=sets.on[rows, cols],
                off=sets.off[rows, cols],
                band=sets.band[rows, cols],
            )
        return cropped

    # -- cached derived data ---------------------------------------------------

    @property
    def polygon(self) -> Polygon:
        """Boundary polygon ``V_M`` (traced from the mask on first use)."""
        if self._polygon is None:
            self._polygon = trace_boundary(self._inside, self.grid)
        return self._polygon

    @property
    def inside(self) -> np.ndarray:
        """Boolean inside-mask on :attr:`grid`."""
        if self._inside is None:
            inside = rasterize_polygon(self.polygon, self.grid)
            self._inside = _checked_mask(inside, self.grid)
        return self._inside

    @property
    def sat(self) -> SummedAreaTable:
        """Summed-area table of the inside-mask (overlap-fraction queries)."""
        if self._sat is None:
            self._sat = SummedAreaTable(self.inside.astype(np.float64), self.grid)
        return self._sat

    def pixels(self, gamma: float) -> PixelSets:
        """P_on/P_off/P_x classification at CD tolerance γ (cached)."""
        cached = self._pixel_cache.get(gamma)
        if cached is None:
            cached = classify_pixels(self.inside, self.grid, gamma)
            self._pixel_cache[gamma] = cached
        return cached

    # -- measures ------------------------------------------------------------

    @property
    def area(self) -> float:
        """Pixel-counted area in nm² (agrees with polygon area to O(Δp))."""
        return float(self.inside.sum()) * self.grid.pitch**2

    @property
    def vertex_count(self) -> int:
        return len(self.polygon)

    def __repr__(self) -> str:
        label = self.name or "unnamed"
        return (
            f"MaskShape({label!r}, {self.vertex_count} vertices, "
            f"{self.area:.0f} nm², grid {self.grid.ny}x{self.grid.nx})"
        )


def _checked_mask(inside: np.ndarray, grid: PixelGrid) -> np.ndarray:
    if inside.shape != grid.shape:
        raise ValueError(f"mask shape {inside.shape} != grid shape {grid.shape}")
    if not inside.any():
        raise ValueError("target shape rasterizes to no pixels")
    return inside
