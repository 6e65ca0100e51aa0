"""Failure-injection and adversarial-input tests.

The refinement loop, intensity map and checker must degrade gracefully —
never crash, never return silently-wrong verdicts — under inputs a
production flow will eventually produce: shapes hugging the grid edge,
shots far outside the window, empty solutions, coarse grids and
degenerate parameter combinations.
"""

import numpy as np
import pytest

from repro import FractureSpec, MaskShape, ModelBasedFracturer, RefineConfig, check_solution
from repro.ebeam.intensity_map import IntensityMap
from repro.fracture.refine import RefineParams, refine
from repro.fracture.state import RefinementState
from repro.geometry.raster import PixelGrid
from repro.geometry.rect import Rect


class TestGridEdgeConditions:
    def test_shape_touching_grid_border(self, spec):
        """A target flush against the grid edge: P_off context is
        truncated, but nothing may crash and the result must verify."""
        grid = PixelGrid(0.0, 0.0, 1.0, 80, 60)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[0:40, 0:60] = True  # touches two window borders
        shape = MaskShape.from_mask(mask, grid, name="flush")
        result = ModelBasedFracturer(config=RefineConfig.fast()).fracture(
            shape, spec
        )
        assert result.shot_count >= 1
        recheck = check_solution(result.shots, shape, spec)
        assert recheck.total_failing == result.report.total_failing

    def test_shot_entirely_off_grid(self, rect_shape, spec):
        imap = IntensityMap(rect_shape.grid, spec.sigma)
        far = Rect(10_000.0, 10_000.0, 10_040.0, 10_040.0)
        imap.add(far)  # window clamps to empty — must be a no-op
        assert np.max(np.abs(imap.total)) == 0.0
        imap.remove(far)
        assert np.max(np.abs(imap.total)) == 0.0

    def test_checker_with_off_grid_shots(self, rect_shape, spec):
        report = check_solution(
            [Rect(-1, -1, 61, 41), Rect(5_000, 5_000, 5_050, 5_050)],
            rect_shape,
            spec,
        )
        assert report.count_on == 0  # target still covered

    def test_refinement_with_stray_shot(self, rect_shape, spec):
        """RemoveShot must be able to discard a shot that helps nothing."""
        shots, trace = refine(
            rect_shape,
            spec,
            [Rect(-1, -1, 61, 41), Rect(200, 200, 240, 240)],
            RefineParams(nmax=60),
        )
        assert trace.converged
        assert check_solution(shots, rect_shape, spec).feasible


class TestDegenerateInputs:
    def test_refine_from_empty_solution(self, rect_shape, spec):
        shots, trace = refine(rect_shape, spec, [], RefineParams(nmax=250))
        report = check_solution(shots, rect_shape, spec)
        # AddShot must bootstrap coverage from nothing.
        assert len(shots) >= 1
        pixels = rect_shape.pixels(spec.gamma)
        assert report.count_on < pixels.count_on

    def test_single_pixel_scale_target(self, spec):
        """A target barely above the minimum shot size."""
        from repro.geometry.polygon import Polygon

        poly = Polygon([(0, 0), (12, 0), (12, 12), (0, 12)])
        shape = MaskShape.from_polygon(poly, margin=spec.grid_margin, name="dot")
        result = ModelBasedFracturer(config=RefineConfig.fast()).fracture(
            shape, spec
        )
        assert result.shot_count >= 1
        assert all(s.meets_min_size(spec.lmin - 1e-9) for s in result.shots)

    def test_coarse_pitch_everything(self):
        """The whole pipeline at Δp = 2 nm."""
        from repro.geometry.polygon import Polygon

        spec = FractureSpec(pitch=2.0)
        poly = Polygon([(0, 0), (80, 0), (80, 50), (0, 50)])
        shape = MaskShape.from_polygon(
            poly, pitch=2.0, margin=spec.grid_margin, name="coarse"
        )
        result = ModelBasedFracturer(config=RefineConfig.fast()).fracture(
            shape, spec
        )
        assert result.shot_count >= 1

    def test_state_with_no_shots_reports_all_on_failing(self, rect_shape, spec):
        state = RefinementState(rect_shape, spec, [])
        report = state.report()
        assert report.count_on == rect_shape.pixels(spec.gamma).count_on
        assert report.count_off == 0

    def test_lmin_larger_than_feature(self, spec):
        """L_min bigger than the target: every shot must overhang; the
        result may be infeasible but must still verify consistently."""
        from repro.geometry.polygon import Polygon

        big_lmin = FractureSpec(lmin=30.0)
        poly = Polygon([(0, 0), (20, 0), (20, 20), (0, 20)])
        shape = MaskShape.from_polygon(poly, margin=big_lmin.grid_margin)
        result = ModelBasedFracturer(config=RefineConfig.fast()).fracture(
            shape, big_lmin
        )
        assert all(s.meets_min_size(30.0 - 1e-9) for s in result.shots)


class TestRandomizedStress:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_random_blob_end_to_end(self, seed, spec):
        """Random curvy blobs: the pipeline never crashes, the verifier
        agrees with the result, min-size always holds."""
        from scipy.ndimage import gaussian_filter

        from repro.bench.shapes import _mrc_clean
        from repro.geometry.labeling import largest_component

        rng = np.random.default_rng(seed)
        grid = PixelGrid(0.0, 0.0, 1.0, 150, 150)
        field = np.zeros(grid.shape)
        field[50:100, 30:120] = 1.0
        noise = gaussian_filter(rng.standard_normal(grid.shape), 6.0)
        noise /= np.abs(noise).max()
        mask = (gaussian_filter(field, 8.0) + 0.3 * noise) > 0.42
        mask = largest_component(_mrc_clean(mask, 8, 5))
        if not mask.any():
            pytest.skip("seed produced empty shape")
        shape = MaskShape.from_mask(mask, grid, name=f"stress-{seed}")
        result = ModelBasedFracturer(config=RefineConfig.fast()).fracture(
            shape, spec
        )
        recheck = check_solution(result.shots, shape, spec)
        assert recheck.total_failing == result.report.total_failing
        assert all(s.meets_min_size(spec.lmin - 1e-9) for s in result.shots)


class TestTiledFaultInjection:
    """The tiled executor's fault layer under injected failures.

    Deeper coverage lives in tests/fracture/test_runtime.py and
    tests/fracture/test_fault_tolerance.py; this class keeps one
    crash-and-recover and one degrade-don't-die scenario in the
    failure-injection suite CI runs under pytest-timeout.
    """

    @pytest.fixture(scope="class")
    def two_bars(self):
        grid = PixelGrid(0.0, 0.0, 1.0, 560, 140)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[55:95, 45:260] = True
        mask[55:95, 300:515] = True
        return MaskShape.from_mask(mask, grid, name="two-bars")

    def _windowed(self, runtime=None):
        from repro.fracture.refine import RefineParams
        from repro.fracture.windowed import WindowedFracturer

        inner = ModelBasedFracturer(
            config=RefineConfig(params=RefineParams(nmax=100, nh=3))
        )
        return WindowedFracturer(
            inner, window_nm=250.0, workers=1, runtime=runtime
        )

    def test_injected_crash_recovers_bit_identically(
        self, two_bars, spec, monkeypatch
    ):
        from repro.fracture import runtime as tile_runtime
        from repro.fracture.runtime import FaultPlan, RuntimePolicy

        monkeypatch.setattr(tile_runtime, "BACKOFF_S", 0.0)
        clean = self._windowed().fracture_shots(two_bars, spec)
        runtime = RuntimePolicy(
            fault_plan=FaultPlan.parse(["t0,0:crash", "t1,0:raise"]),
        )
        faulted = self._windowed(runtime).fracture_shots(two_bars, spec)
        assert faulted == clean

    def test_persistent_failure_degrades_not_dies(
        self, two_bars, spec, monkeypatch
    ):
        from repro.fracture import runtime as tile_runtime
        from repro.fracture.runtime import FaultPlan, RuntimePolicy

        monkeypatch.setattr(tile_runtime, "BACKOFF_S", 0.0)
        runtime = RuntimePolicy(
            max_attempts=2, fault_plan=FaultPlan.parse(["t1,0:raise:99"]),
        )
        fracturer = self._windowed(runtime)
        shots = fracturer.fracture_shots(two_bars, spec)
        assert shots
        assert fracturer._last_extra["fallback_tiles"] == ["t1,0"]
        report = check_solution(shots, two_bars, spec)
        # The partition fallback still covers its tile: failures, if
        # any, stay a sliver of the target.
        pixels = two_bars.pixels(spec.gamma)
        assert report.count_on <= 0.02 * pixels.count_on
