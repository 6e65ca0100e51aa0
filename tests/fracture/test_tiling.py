"""Unit tests for the 2-D tile decomposition and seam-band machinery."""

import numpy as np
import pytest

from repro.fracture.state import RefinementState
from repro.fracture.tiling import (
    extract_tile_shapes,
    halo_nm,
    merge_seam_pairs,
    ownership_stretch,
    plan_tiles,
    seam_band_masks,
    seam_windows,
    split_seam_shots,
)
from repro.geometry.raster import PixelGrid
from repro.geometry.rect import Rect
from repro.mask.shape import MaskShape


def _bars_shape() -> MaskShape:
    """A wide bar spanning three tiles plus a small isolated island."""
    grid = PixelGrid(0.0, 0.0, 1.0, 760, 220)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[60:100, 50:710] = True
    mask[140:170, 330:380] = True  # island owned by the middle tile
    return MaskShape.from_mask(mask, grid, name="bars")


class TestPlanTiles:
    def test_deterministic(self, spec):
        shape = _bars_shape()
        a = plan_tiles(shape, spec, 250.0)
        b = plan_tiles(shape, spec, 250.0)
        assert a == b

    def test_small_extent_single_tile(self, rect_shape, spec):
        plan = plan_tiles(rect_shape, spec, 300.0)
        assert len(plan) == 1
        assert not plan.has_seams

    def test_grid_shape_and_seams(self, spec):
        shape = _bars_shape()
        plan = plan_tiles(shape, spec, 250.0)
        assert plan.tiles_x >= 2
        assert plan.tiles_y == 1
        assert len(plan.seam_xs) == plan.tiles_x - 1
        assert plan.seam_ys == ()
        # Row-major order.
        order = [(t.iy, t.ix) for t in plan.tiles]
        assert order == sorted(order)

    def test_ownership_partition(self, spec):
        """Every point in the stretched bounding region has exactly one
        owner — including points exactly on seam lines."""
        shape = _bars_shape()
        plan = plan_tiles(shape, spec, 250.0)
        bbox = shape.polygon.bounding_box()
        rng = np.random.default_rng(7)
        xs = list(rng.uniform(bbox.xbl, bbox.xtr, 50)) + list(plan.seam_xs)
        ys = list(rng.uniform(bbox.ybl, bbox.ytr, 5))
        for x in xs:
            for y in ys:
                owners = [t for t in plan.tiles if t.owns(x, y)]
                assert len(owners) == 1

    def test_boundary_stretch_is_blur_derived(self, spec):
        """Outer tiles own shot centres hugging (or slightly outside) the
        target bounding box — out to 2σ + L_th, and no further.

        Regression for the magic ``10 × grid_margin`` stretch this
        replaced: the reach must follow the same 2σ argument as the
        blocked-zone rule, not an arbitrary multiplier.
        """
        shape = _bars_shape()
        plan = plan_tiles(shape, spec, 250.0)
        bbox = shape.polygon.bounding_box()
        stretch = ownership_stretch(spec)
        assert stretch == pytest.approx(2.0 * spec.sigma + spec.lth)
        y = (bbox.ybl + bbox.ytr) / 2.0
        assert plan.owner_of(bbox.xbl - 0.9 * stretch, y) is not None
        assert plan.owner_of(bbox.xtr + 0.9 * stretch, y) is not None
        # Beyond the stretch nothing is owned: such a shot centre cannot
        # contribute printable dose, so orphaning it is correct.
        assert plan.owner_of(bbox.xbl - stretch - 1.0, y) is None
        assert plan.owner_of(bbox.xtr + stretch + 1.0, y) is None

    def test_halo_contains_core(self, spec):
        shape = _bars_shape()
        plan = plan_tiles(shape, spec, 250.0)
        for tile in plan.tiles:
            assert tile.halo.contains_rect(tile.core)
            assert tile.halo.xbl == pytest.approx(tile.core.xbl - halo_nm(spec))


class TestExtractTileShapes:
    def test_owned_island_not_dropped(self, spec):
        """Regression for the historical dropped-component bug: a small
        component wholly owned by one tile must be extracted."""
        shape = _bars_shape()
        plan = plan_tiles(shape, spec, 250.0)
        per_tile = [extract_tile_shapes(shape, t) for t in plan.tiles]
        total_subs = sum(len(subs) for subs in per_tile)
        # The bar appears in every tile, the island in exactly one.
        assert total_subs == len(plan) + 1
        island_tiles = [
            subs for subs in per_tile
            if any(s.inside.sum() == 30 * 50 for s in subs)
        ]
        assert len(island_tiles) == 1

    def test_every_owned_pixel_covered(self, spec):
        """Union of extracted sub-shapes covers the whole target."""
        shape = _bars_shape()
        plan = plan_tiles(shape, spec, 250.0)
        covered = np.zeros(shape.grid.shape, dtype=bool)
        grid = shape.grid
        for tile in plan.tiles:
            for sub in extract_tile_shapes(shape, tile):
                sg = sub.grid
                ix = int(round((sg.x0 - grid.x0) / grid.pitch))
                iy = int(round((sg.y0 - grid.y0) / grid.pitch))
                covered[iy : iy + sg.ny, ix : ix + sg.nx] |= sub.inside
        assert (covered >= shape.inside).all()


class TestSeamBands:
    def test_mask_covers_seams_only(self, spec):
        shape = _bars_shape()
        plan = plan_tiles(shape, spec, 250.0)
        active, movable_nm = seam_band_masks(shape, plan, spec)
        assert movable_nm == pytest.approx(halo_nm(spec))
        grid = shape.grid
        for sx in plan.seam_xs:
            col = int((sx - grid.x0) / grid.pitch)
            assert active[:, col].all()
        # Strictly a band, not the whole chip.
        assert 0.0 < active.mean() < 1.0
        assert not active[:, 0].any()
        assert not active[:, -1].any()

    def test_split_partitions_all_shots(self, spec):
        shape = _bars_shape()
        plan = plan_tiles(shape, spec, 250.0)
        shots = [
            Rect(50.0, 60.0, 120.0, 100.0),     # far from both seams
            Rect(230.0, 60.0, 280.0, 100.0),    # straddles first seam
            Rect(700.0, 60.0, 710.0, 100.0),    # far from both seams
        ]
        movable, frozen = split_seam_shots(shots, plan, 10.0)
        assert len(movable) + len(frozen) == len(shots)
        assert shots[1] in movable
        assert shots[0] in frozen and shots[2] in frozen


class TestSeamWindows:
    """One window per seam band, merged where bands overlap or a shot
    is movable for two seams; the windows of a family never share a
    band pixel or a movable shot."""

    def _windows(self, spec, shots, tile_nm=250.0, axis="x"):
        shape = _bars_shape()
        plan = plan_tiles(shape, spec, tile_nm)
        return seam_windows(
            shots, plan, spec, shape.grid, axis, halo_nm(spec)
        )

    def test_one_window_per_seam_owning_its_shots(self, spec):
        shots = [
            Rect(50.0, 60.0, 120.0, 100.0),     # far from both seams
            Rect(230.0, 60.0, 280.0, 100.0),    # at the seam x = 270
            Rect(470.0, 60.0, 520.0, 100.0),    # at the seam x = 490
        ]
        windows = self._windows(spec, shots)
        assert [w.name for w in windows] == ["v0", "v1"]
        assert [w.owned for w in windows] == [(1,), (2,)]
        first, second = windows
        assert first.bands[0].stop <= second.bands[0].start
        for window in windows:
            (band,) = window.bands
            assert window.crop.start < band.start
            assert window.crop.stop > band.stop

    def test_shot_movable_for_two_seams_merges_them(self, spec):
        windows = self._windows(spec, [Rect(240.0, 60.0, 520.0, 100.0)])
        assert [w.name for w in windows] == ["v0"]
        assert windows[0].owned == (0,)
        assert len(windows[0].bands) == 2

    def test_overlapping_bands_merge(self, spec):
        # 150 nm tiles put the seams closer than a band is wide.
        windows = self._windows(
            spec, [Rect(230.0, 60.0, 280.0, 100.0)], tile_nm=150.0
        )
        assert len(windows) == 1
        assert len(windows[0].bands) == 4

    def test_window_without_shots_is_left_out(self, spec):
        windows = self._windows(spec, [Rect(470.0, 60.0, 520.0, 100.0)])
        assert [w.name for w in windows] == ["v1"]

    def test_family_without_seams_has_no_windows(self, spec):
        shots = [Rect(230.0, 60.0, 280.0, 100.0)]
        assert self._windows(spec, shots, axis="y") == []


class TestSeamHandoff:
    """An aligned pair of shots meeting across a seam becomes one shot,
    their union, when the window of their intersection stays inside
    the active mask; 250 nm tiles put the seams at x = 270 and 490."""

    def _merge(self, spec, shots):
        shape = _bars_shape()
        plan = plan_tiles(shape, spec, 250.0)
        active, _ = seam_band_masks(shape, plan, spec)
        return merge_seam_pairs(shots, plan, spec, shape.grid, active)

    @pytest.mark.parametrize(
        "right", [Rect(250.0, 58.0, 350.0, 102.0), Rect(300.0, 58.0, 350.0, 102.0)],
        ids=["overlapping", "touching"],
    )
    def test_aligned_pair_merges(self, spec, right):
        far = Rect(600.0, 140.0, 640.0, 170.0)
        left = Rect(200.0, 58.0, 300.0, 102.0)
        assert self._merge(spec, [far, left, right]) == (
            [far, Rect(200.0, 58.0, 350.0, 102.0)], 1,
        )

    def test_extents_one_pixel_apart_do_not_merge(self, spec):
        shots = [Rect(200.0, 58.0, 300.0, 102.0), Rect(250.0, 58.0, 350.0, 103.0)]
        assert self._merge(spec, shots) == (shots, 0)

    def test_chain_across_two_seams_collapses(self, spec):
        shots = [
            Rect(480.0, 58.0, 560.0, 102.0),    # owned right of x = 490
            Rect(200.0, 58.0, 300.0, 102.0),    # owned left of x = 270
            Rect(260.0, 58.0, 500.0, 102.0),    # owned between the seams
        ]
        assert self._merge(spec, shots) == ([Rect(200.0, 58.0, 560.0, 102.0)], 2)

    def test_intersection_window_leaving_the_mask_blocks_the_merge(self, spec):
        # The pair meets across x = 270, but the dose reach of its
        # 150 nm intersection runs past the band's left edge.
        shots = [Rect(100.0, 58.0, 300.0, 102.0), Rect(150.0, 58.0, 400.0, 102.0)]
        assert self._merge(spec, shots) == (shots, 0)

    def test_dose_falls_by_the_intersection(self, spec):
        from repro.ebeam.intensity_map import IntensityMap

        a, b = Rect(200.0, 58.0, 300.0, 102.0), Rect(250.0, 58.0, 350.0, 102.0)
        merged, count = self._merge(spec, [a, b])
        assert count == 1

        def dose(shots):
            imap = IntensityMap(_bars_shape().grid, spec.sigma)
            for shot in shots:
                imap.add(shot)
            return imap.total

        expected = dose([a, b]) - dose([a.intersection(b)])
        assert np.allclose(dose(merged), expected, rtol=0.0, atol=1e-7)


class TestMutationGuard:
    """Region-restricted refinement must not mutate dose outside the
    active mask — the invariant that keeps seam stitching sound."""

    def _restricted_state(self, rect_shape, spec):
        mask = np.zeros(rect_shape.grid.shape, dtype=bool)
        mask[:, :10] = True  # active region far from the shot below
        shot = Rect(20.0, 20.0, 40.0, 40.0)
        state = RefinementState(
            rect_shape, spec, [shot], active_mask=mask
        )
        return state, shot

    def test_edge_move_forbidden_outside_mask(self, rect_shape, spec):
        state, _ = self._restricted_state(rect_shape, spec)
        assert not state.apply_edge_move(0, "right", spec.pitch)
        assert state.edge_move_delta_cost(0, "right", spec.pitch) is None
        assert state.make_edge_move_candidate(0, "right", spec.pitch) is None

    def test_gather_excludes_forbidden_moves(self, rect_shape, spec):
        state, _ = self._restricted_state(rect_shape, spec)
        assert state.gather_edge_moves(state.cost_integral()) == []

    def test_unrestricted_allows_everything(self, rect_shape, spec):
        state = RefinementState(
            rect_shape, spec, [Rect(20.0, 20.0, 40.0, 40.0)]
        )
        assert state.mutation_allowed(
            (slice(0, state.shape.grid.ny), slice(0, state.shape.grid.nx))
        )
        assert state.apply_edge_move(0, "right", spec.pitch)

    def test_bias_skips_out_of_mask_shots(self, rect_shape, spec):
        from repro.fracture.bias import bias_all_shots

        state, shot = self._restricted_state(rect_shape, spec)
        bias_all_shots(state, state.report())
        assert state.shots == [shot]

    def test_remove_skips_out_of_mask_shots(self, rect_shape, spec):
        from repro.fracture.add_remove import remove_shot

        state, shot = self._restricted_state(rect_shape, spec)
        report = state.report()
        if report.count_off:
            assert remove_shot(state, report) is None
        assert state.shots == [shot]
