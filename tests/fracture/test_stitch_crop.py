"""Equivalence gates for the seam-band cost-field crop.

A region-restricted ``RefinementState`` keeps its per-iteration
cost/active fields cropped to the active-mask bounding box; with the
crop helper patched out it works on the full grid, the reference path.
The signed weight is exactly zero outside the active mask, so everything
observable — failure masks, candidate gathering, candidate prices, and
the shots a stitch produces — must agree across the two layouts.  Cost
*sums* may differ in final ULPs (different pairwise-summation grouping
over the same nonzero values), which is why the gate is at the
shot/decision level with exact equality and at the scalar-cost level
with 1e-12 closeness.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.fracture import state as state_module
from repro.fracture.graph_color import approximate_fracture
from repro.fracture.pipeline import ModelBasedFracturer, RefineConfig
from repro.fracture.refine import RefineParams
from repro.fracture.state import RefinementState
from repro.fracture.windowed import WindowedFracturer
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.mask.shape import MaskShape


def _band_mask(shape, half_width: int = 6) -> np.ndarray:
    ny, nx = shape.grid.shape
    mask = np.zeros((ny, nx), dtype=bool)
    mid = nx // 2
    mask[:, mid - half_width:mid + half_width] = True
    return mask


@pytest.fixture()
def seam_states(l_shape, spec):
    shots, _ = approximate_fracture(l_shape, spec)
    mask = _band_mask(l_shape)
    cropped = RefinementState(l_shape, spec, shots, active_mask=mask)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(state_module, "_active_crop", lambda active_mask: None)
        full = RefinementState(l_shape, spec, shots, active_mask=mask)
    return cropped, full


class TestCroppedStateMatchesFull:
    def test_crop_engages_only_with_capability(self, seam_states):
        cropped, full = seam_states
        assert cropped._crop is not None
        assert full._crop is None
        r0, r1, c0, c1 = cropped._crop
        assert (r1 - r0) * (c1 - c0) < cropped.pixels.on.size

    def test_reports_identical(self, seam_states):
        cropped, full = seam_states
        rep_c = cropped.report()
        rep_f = full.report()
        assert np.array_equal(rep_c.fail_on, rep_f.fail_on)
        assert np.array_equal(rep_c.fail_off, rep_f.fail_off)
        assert math.isclose(rep_c.cost, rep_f.cost, rel_tol=1e-12, abs_tol=1e-12)

    def test_integral_lookups_identical_inside_mask(self, seam_states):
        cropped, full = seam_states
        ci_c = cropped.cost_integral()
        ci_f = full.cost_integral()
        rng = np.random.default_rng(42)
        ny, nx = cropped.pixels.on.shape
        r0, r1, c0, c1 = cropped._crop
        for _ in range(50):
            y0 = int(rng.integers(0, ny - 1))
            x0 = int(rng.integers(0, nx - 1))
            y1 = int(rng.integers(y0 + 1, ny + 1))
            x1 = int(rng.integers(x0 + 1, nx + 1))
            window = (slice(y0, y1), slice(x0, x1))
            assert cropped.window_cost_from_integral(ci_c, window) == \
                full.window_cost_from_integral(ci_f, window)

    def test_gather_and_prices_identical(self, seam_states):
        cropped, full = seam_states
        ci_c = cropped.cost_integral().copy()
        ai_c = cropped.active_integral().copy()
        ci_f = full.cost_integral().copy()
        ai_f = full.active_integral().copy()
        cands_c = cropped.gather_edge_moves(ci_c)
        cands_f = full.gather_edge_moves(ci_f)
        key = lambda c: (c.index, c.edge, c.delta)
        assert [key(c) for c in cands_c] == [key(c) for c in cands_f]
        prices_c = cropped.price_edge_moves(cands_c, ci_c, ai_c)
        prices_f = full._price_edge_moves_loop(cands_f, ci_f, ai_f)
        assert np.array_equal(prices_c, prices_f)


class TestWindowedStitchShotIdentity:
    def test_stitch_identical_across_backends(self, spec, scalar_references):
        # Wide enough for several tiles so the seam-band stitch runs.
        polygon = Polygon(
            [Point(0, 0), Point(500, 0), Point(500, 40), Point(0, 40)]
        )
        bar = MaskShape.from_polygon(
            polygon, pitch=spec.pitch, margin=spec.grid_margin, name="bar"
        )

        def stitch():
            inner = ModelBasedFracturer(
                config=RefineConfig(params=RefineParams(nmax=6, nh=3))
            )
            windowed = WindowedFracturer(inner, window_nm=150.0)
            return [s.as_tuple() for s in windowed.fracture_shots(bar, spec)]

        shipped = stitch()
        with scalar_references():
            assert stitch() == shipped
