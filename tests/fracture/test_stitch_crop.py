"""Equivalence gates for the seam-band cost-field crop.

A region-restricted ``RefinementState`` keeps its per-iteration
cost field and pricing tables cropped to the active-mask bounding box;
with the crop helper patched out it works on the full grid, the
reference path.  The signed weight is exactly zero outside the active
mask, so everything observable — failure masks, candidate gathering,
candidate prices, and the shots a stitch produces — must agree across
the two layouts.  Cost *sums* may differ in final ULPs (different
pairwise-summation grouping over the same nonzero values), which is why
the gate is at the shot/decision level with exact equality and at the
scalar-cost level with 1e-12 closeness.
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
from repro.obs import TelemetryRecorder, recording


def _band_mask(shape, half_width: int = 40) -> np.ndarray:
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
        assert np.array_equal(cropped.failing_on(), full.failing_on())
        assert np.array_equal(cropped.failing_off(), full.failing_off())
        assert (rep_c.count_on, rep_c.count_off) == (
            rep_f.count_on, rep_f.count_off,
        )
        assert math.isclose(rep_c.cost, rep_f.cost, rel_tol=1e-12, abs_tol=1e-12)

    def test_integral_lookups_identical_inside_and_past_box(self, seam_states):
        # Windows anywhere on the grid: inside the box, across its edge
        # and past it.
        cropped, full = seam_states
        ci_c = cropped.cost_integral()
        ci_f = full.dense_cost_integral()
        rng = np.random.default_rng(42)
        ny, nx = cropped.pixels.on.shape
        for _ in range(200):
            y0 = int(rng.integers(0, ny - 1))
            x0 = int(rng.integers(0, nx - 1))
            y1 = int(rng.integers(y0 + 1, ny + 1))
            x1 = int(rng.integers(x0 + 1, nx + 1))
            window = (slice(y0, y1), slice(x0, x1))
            assert cropped.window_cost_from_integral(ci_c, window) == \
                full.window_cost_from_integral(ci_f, window)

    def test_gather_and_prices_identical(self, seam_states):
        cropped, full = seam_states
        ci_c = cropped.cost_integral()
        active_c = cropped.active_pixels()
        ci_f = full.dense_cost_integral()
        active_f = full.dense_active_pixels()
        cands_c = cropped.gather_edge_moves(ci_c)
        cands_f = full.gather_edge_moves(ci_f)
        key = lambda c: (c.index, c.edge, c.delta)
        assert cands_c, "expected candidates inside the seam band"
        assert [key(c) for c in cands_c] == [key(c) for c in cands_f]
        for cand in cands_c:
            assert active_c.crop(*cand.window) == active_f.crop(*cand.window)
        prices_c = cropped.price_edge_moves(cands_c, ci_c, active_c)
        prices_f = full.price_edge_moves(cands_f, ci_f, active_f)
        assert prices_c.tobytes() == prices_f.tobytes()


def _bar(spec) -> MaskShape:
    """A 500 nm bar over 4 × 1 tiles at 150 nm that steps 4 nm in width
    at each seam (x = 125, 250, 375): the two tiles' shots of a seam
    differ in height, so the seam handoff leaves them to the stitch
    window.  A straight bar's seams need no window at all
    (``test_windowed.py::TestSeamHandoff``)."""
    corners = [
        (0, 0), (500, 0), (500, 44), (375, 44), (375, 40), (250, 40),
        (250, 44), (125, 44), (125, 40), (0, 40),
    ]
    polygon = Polygon([Point(x, y) for x, y in corners])
    return MaskShape.from_polygon(
        polygon, pitch=spec.pitch, margin=spec.grid_margin, name="bar"
    )


def _plus(spec) -> MaskShape:
    """Two crossing 240 nm arms: 2×2 tiles at 150 nm, so a vertical and
    a horizontal seam band cross and the crop box is the whole grid."""
    corners = [
        (100, 0), (140, 0), (140, 100), (240, 100), (240, 140), (140, 140),
        (140, 240), (100, 240), (100, 140), (0, 140), (0, 100), (100, 100),
    ]
    polygon = Polygon([Point(x, y) for x, y in corners])
    return MaskShape.from_polygon(
        polygon, pitch=spec.pitch, margin=spec.grid_margin, name="plus"
    )


class TestWindowedStitchShotIdentity:
    @pytest.mark.parametrize(
        ("layout", "tiles"),
        [
            # 1-D tiling: the seam band's crop box is a narrow strip.
            pytest.param(_bar, (4, 1), id="bar"),
            # 2-D seam lattice: the crop box is the whole grid.
            pytest.param(_plus, (2, 2), id="lattice"),
        ],
    )
    def test_stitch_identical_across_backends(
        self, spec, scalar_references, layout, tiles
    ):
        shape = layout(spec)

        def stitch():
            inner = ModelBasedFracturer(
                config=RefineConfig(params=RefineParams(nmax=6, nh=3))
            )
            windowed = WindowedFracturer(inner, window_nm=150.0)
            shots = [s.as_tuple() for s in windowed.fracture_shots(shape, spec)]
            extra = windowed._last_extra
            assert (extra["tiles_x"], extra["tiles_y"]) == tiles
            assert extra["stitch_candidates_priced"] > 0
            return shots

        shipped = stitch()
        with scalar_references():
            assert stitch() == shipped


class TestStitchCandidateCount:
    def test_count_does_not_depend_on_telemetry(self, spec):
        inner = ModelBasedFracturer(
            config=RefineConfig(params=RefineParams(nmax=20))
        )
        windowed = WindowedFracturer(inner, window_nm=150.0)
        untraced = windowed.fracture(_bar(spec), spec).extra
        recorder = TelemetryRecorder()
        with recording(recorder):
            traced = windowed.fracture(_bar(spec), spec).extra
        assert untraced["stitch_iterations"] > 0
        assert untraced["stitch_candidates_priced"] > 0
        assert untraced["stitch_candidates_priced"] == \
            traced["stitch_candidates_priced"] == \
            recorder.counters["windowed.stitch_candidates_priced"]
