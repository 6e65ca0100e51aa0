"""Shared fixtures: model spec, small targets, fast pipeline configs."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.geometry.polygon import Polygon
from repro.geometry.raster import PixelGrid
from repro.mask.constraints import FractureSpec
from repro.mask.shape import MaskShape


@pytest.fixture(scope="session")
def spec() -> FractureSpec:
    """The paper's experimental parameters (§5)."""
    return FractureSpec()


@pytest.fixture(scope="session")
def rect_shape(spec) -> MaskShape:
    """A 60x40 nm rectangle target — the simplest feasible instance."""
    polygon = Polygon([(0, 0), (60, 0), (60, 40), (0, 40)])
    return MaskShape.from_polygon(polygon, margin=spec.grid_margin, name="rect")


@pytest.fixture(scope="session")
def l_shape(spec) -> MaskShape:
    """An L-shaped target with one concave corner."""
    polygon = Polygon([(0, 0), (80, 0), (80, 30), (40, 30), (40, 70), (0, 70)])
    return MaskShape.from_polygon(polygon, margin=spec.grid_margin, name="L")


@pytest.fixture(scope="session")
def blob_shape(spec) -> MaskShape:
    """A small curvy target from a blurred-threshold mask (ILT-like)."""
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(5)
    grid = PixelGrid(0.0, 0.0, 1.0, 180, 180)
    field = np.zeros(grid.shape)
    field[70:110, 40:140] = 1.0
    noise = gaussian_filter(rng.standard_normal(grid.shape), 6.0)
    noise /= np.abs(noise).max()
    mask = (gaussian_filter(field, 8.0) + 0.3 * noise) > 0.42
    from repro.geometry.labeling import label_components

    labels, count = label_components(mask)
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    mask = labels == int(sizes.argmax())
    return MaskShape.from_mask(mask, grid, name="blob")


@pytest.fixture()
def small_grid() -> PixelGrid:
    return PixelGrid(0.0, 0.0, 1.0, 50, 40)


@pytest.fixture()
def scalar_references():
    """Context manager that routes every hot spot through its reference.

    Whole-run equivalence tests run once as shipped and once inside
    ``with scalar_references():`` — per-pixel union–find labeling, the
    per-label stats scan, the dense whole-grid cost integral, the crop
    from dense active-pixel prefix counts, the full-field (uncropped)
    cost path, and the whole-grid ``report()``, AddShot and RemoveShot of
    ``tests/fracture/test_state_bookkeeping.py`` — and require identical
    shots.
    """
    from repro.fracture import add_remove, refine, state
    from repro.geometry import labeling
    from tests.fracture import test_state_bookkeeping as whole_grid

    @contextlib.contextmanager
    def references():
        with pytest.MonkeyPatch.context() as patch:
            for module in (labeling, add_remove):
                patch.setattr(
                    module, "label_components", labeling.label_components_scalar
                )
            patch.setattr(
                labeling, "component_stats", labeling.component_stats_scalar
            )
            patch.setattr(
                state.RefinementState, "report", whole_grid.reference_report
            )
            patch.setattr(refine, "add_shot", whole_grid.reference_add_shot)
            patch.setattr(
                refine, "remove_shot", whole_grid.reference_remove_shot
            )
            patch.setattr(
                state.RefinementState, "cost_integral",
                state.RefinementState.dense_cost_integral,
            )
            patch.setattr(
                state.RefinementState, "active_pixels",
                state.RefinementState.dense_active_pixels,
            )
            patch.setattr(state, "_active_crop", lambda active_mask: None)
            yield

    return references
