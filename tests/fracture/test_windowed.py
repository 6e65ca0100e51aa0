"""Unit tests for tiled (divide-and-stitch) fracturing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fracture.pipeline import ModelBasedFracturer, RefineConfig
from repro.fracture.refine import RefineParams
from repro.fracture.windowed import WindowedFracturer
from repro.geometry.polygon import Polygon
from repro.geometry.raster import PixelGrid
from repro.mask.shape import MaskShape


@pytest.fixture(scope="module")
def long_bar(spec_module):
    """A wavy bar ~3 windows wide."""
    from scipy.ndimage import gaussian_filter

    from repro.bench.shapes import _mrc_clean
    from repro.geometry.labeling import largest_component

    rng = np.random.default_rng(4)
    grid = PixelGrid(0.0, 0.0, 1.0, 700, 150)
    field = np.zeros(grid.shape)
    field[55:100, 40:660] = 1.0
    noise = gaussian_filter(rng.standard_normal(grid.shape), 7.0)
    noise /= np.abs(noise).max()
    mask = (gaussian_filter(field, 8.0) + 0.3 * noise) > 0.42
    mask = largest_component(_mrc_clean(mask, 8, 5))
    return MaskShape.from_mask(mask, grid, name="long-bar")


@pytest.fixture(scope="module")
def bar_field(spec_module):
    """Rectangular bars spread over ~3×1 tiles — every tile sub-problem
    is easy, so tiled runs exercise the seam machinery, not the inner
    method's convergence."""
    grid = PixelGrid(0.0, 0.0, 1.0, 760, 160)
    mask = np.zeros(grid.shape, dtype=bool)
    # bbox spans x ∈ [50, 710) → seams at x = 270 and 490 for 250 nm
    # tiles; both long bars cross a seam, the island stays > one halo
    # width away from either seam (it must end up frozen in the stitch).
    mask[60:100, 50:340] = True
    mask[60:100, 380:710] = True
    mask[115:145, 330:410] = True
    return MaskShape.from_mask(mask, grid, name="bar-field")


@pytest.fixture(scope="module")
def spec_module():
    from repro.mask.constraints import FractureSpec

    return FractureSpec()


def _inner(nmax: int = 300) -> ModelBasedFracturer:
    return ModelBasedFracturer(
        config=RefineConfig(params=RefineParams(nmax=nmax, nh=3))
    )


class TestWindowedFracturer:
    def test_invalid_window(self):
        with pytest.raises(ValueError):
            WindowedFracturer(_inner(), window_nm=0.0)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            WindowedFracturer(_inner(), workers=0)

    def test_stitch_params_not_shared(self):
        a = WindowedFracturer(_inner())
        b = WindowedFracturer(_inner())
        assert a.stitch_params == b.stitch_params
        assert a.stitch_params is not b.stitch_params

    def test_small_shape_delegates(self, rect_shape, spec):
        windowed = WindowedFracturer(_inner(), window_nm=300.0)
        result = windowed.fracture(rect_shape, spec)
        assert result.extra["tiles"] == 1
        assert result.feasible

    def test_large_shape_decomposed(self, long_bar, spec_module):
        windowed = WindowedFracturer(
            _inner(), window_nm=250.0,
            stitch_params=RefineParams(nmax=300, nh=3),
        )
        result = windowed.fracture(long_bar, spec_module)
        assert result.extra["tiles"] >= 2
        assert result.shot_count >= 3
        # Stitching must leave at most a sliver of the seams unresolved.
        pixels = long_bar.pixels(spec_module.gamma)
        assert result.report.total_failing <= 0.01 * pixels.count_on

    def test_stitching_improves_on_raw_union(self, long_bar, spec_module):
        """The seam-repair pass must strictly help: compare the stitched
        result against the raw tile-shot union."""
        inner = _inner()
        raw = WindowedFracturer(
            inner, window_nm=250.0, stitch_params=RefineParams(nmax=0)
        ).fracture(long_bar, spec_module)
        stitched = WindowedFracturer(
            inner, window_nm=250.0,
            stitch_params=RefineParams(nmax=300, nh=3),
        ).fracture(long_bar, spec_module)
        assert stitched.report.total_failing <= raw.report.total_failing

    def test_every_shot_owned_once(self, long_bar, spec_module):
        """No duplicate shots from overlapping halos."""
        windowed = WindowedFracturer(
            _inner(), window_nm=250.0, stitch_params=RefineParams(nmax=0)
        )
        shots = windowed.fracture_shots(long_bar, spec_module)
        keys = [tuple(round(c, 3) for c in s.as_tuple()) for s in shots]
        assert len(keys) == len(set(keys))

    def test_multi_tile_feasible_and_near_direct(self, bar_field, spec_module):
        """Tiled execution on an easy multi-component layout is feasible
        and lands within a bounded shot-count delta of direct fracture
        of the individual components."""
        from repro.mask.constraints import check_solution

        inner = _inner(nmax=120)
        windowed = WindowedFracturer(inner, window_nm=250.0)
        shots = windowed.fracture_shots(bar_field, spec_module)
        report = check_solution(shots, bar_field, spec_module)
        assert report.total_failing == 0
        # Three rectangular components: the direct per-component optimum
        # is 3; tiling (which cuts both bars across seams) may pay a
        # bounded premium, never more than ~2 extra shots per crossing.
        assert len(shots) <= 3 + 2 * 2

    def test_deterministic_across_worker_counts(self, bar_field, spec_module):
        """workers=4 must reproduce workers=1 bit for bit — the merge
        order is row-major tile order either way."""
        inner = _inner(nmax=120)
        serial = WindowedFracturer(
            inner, window_nm=250.0, workers=1
        ).fracture_shots(bar_field, spec_module)
        parallel = WindowedFracturer(
            inner, window_nm=250.0, workers=4
        ).fracture_shots(bar_field, spec_module)
        assert serial == parallel

    def test_stitch_candidates_restricted_to_seam_bands(
        self, bar_field, spec_module
    ):
        """On the same merged tile shots, a region-restricted greedy
        pass must gather strictly fewer pricing candidates than an
        unrestricted one — the stitch cost scales with seam area."""
        from repro.fracture.state import RefinementState
        from repro.fracture.tiling import (
            extract_tile_shapes,
            plan_tiles,
            seam_band_masks,
            split_seam_shots,
        )
        from repro.fracture.runtime import fracture_tile
        from repro.obs import TelemetryRecorder, recording

        inner = _inner(nmax=120)
        plan = plan_tiles(bar_field, spec_module, 250.0)
        collected = []
        for tile in plan.tiles:
            subs = extract_tile_shapes(bar_field, tile)
            if subs:
                collected.extend(fracture_tile(inner, tile, subs, spec_module))

        full = RefinementState(bar_field, spec_module, collected)
        n_full = len(full.gather_edge_moves(full.cost_integral()))

        active, movable_nm = seam_band_masks(bar_field, plan, spec_module)
        movable, frozen = split_seam_shots(collected, plan, movable_nm)
        assert movable and frozen
        restricted = RefinementState(
            bar_field, spec_module, movable,
            background=frozen, active_mask=active,
        )
        n_restricted = len(
            restricted.gather_edge_moves(restricted.cost_integral())
        )
        assert n_restricted < n_full

        # And the executor reports the restriction through telemetry.
        recorder = TelemetryRecorder()
        with recording(recorder):
            WindowedFracturer(inner, window_nm=250.0).fracture_shots(
                bar_field, spec_module
            )
        assert "windowed.stitch_candidates_priced" in recorder.counters
        assert recorder.counters.get("windowed.frozen_shots", 0) > 0

    def test_telemetry_merged_from_workers(self, bar_field, spec_module):
        """Per-tile telemetry from pool workers lands in the parent
        recorder via the cross-process merge."""
        from repro.obs import TelemetryRecorder, recording

        inner = _inner(nmax=120)
        windowed = WindowedFracturer(inner, window_nm=250.0, workers=2)
        recorder = TelemetryRecorder()
        with recording(recorder):
            windowed.fracture_shots(bar_field, spec_module)
        assert recorder.counters.get("windowed.tiles", 0) >= 2
        assert recorder.counters.get("refine.moves_priced", 0) > 0


class TestSingleTileIdentity:
    @settings(max_examples=6, deadline=None)
    @given(
        width=st.integers(min_value=30, max_value=90),
        height=st.integers(min_value=20, max_value=60),
    )
    def test_single_tile_bit_identical_to_inner(self, width, height):
        """Property: when the shape fits one tile, the tiled executor is
        a pass-through — identical shots to the inner method."""
        from repro.mask.constraints import FractureSpec

        spec = FractureSpec()
        polygon = Polygon(
            [(0, 0), (width, 0), (width, height), (0, height)]
        )
        shape = MaskShape.from_polygon(
            polygon, margin=spec.grid_margin, name=f"rect{width}x{height}"
        )
        inner = _inner(nmax=80)
        direct = inner.fracture_shots(shape, spec)
        tiled = WindowedFracturer(inner, window_nm=400.0).fracture_shots(
            shape, spec
        )
        assert tiled == direct

