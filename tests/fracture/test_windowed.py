"""Unit tests for tiled (divide-and-stitch) fracturing."""

import time

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


def chip_shape(tiles_x: int, tiles_y: int) -> MaskShape:
    """Rows of 40 nm bar segments, staggered so several cross each
    vertical seam, alternating with rows of 26 nm contact islands, over
    a ``tiles_x × tiles_y`` grid of 300 nm tiles.  Every component is a
    rectangle, so tiles converge quickly and a run measures the tiled
    executor, not the inner method."""
    margin = 40  # px, at least FractureSpec().grid_margin
    width, height = tiles_x * 300, tiles_y * 300
    grid = PixelGrid(0.0, 0.0, 1.0, width + 2 * margin, height + 2 * margin)
    mask = np.zeros(grid.shape, dtype=bool)
    bar_h, island, row_pitch = 40, 26, 75
    row, y = 0, margin + 20
    while y + bar_h <= margin + height - 10:
        if row % 2 == 0:
            seg, gap = 250, 40
            x = margin + 10 + (row // 2 % 3) * 90
            while x < margin + width - 30:
                x_hi = min(x + seg, margin + width - 10)
                if x_hi - x >= 30:
                    mask[y : y + bar_h, x:x_hi] = True
                x = x_hi + gap
        else:
            x = margin + 45 + (row % 3) * 60
            while x + island < margin + width - 30:
                mask[y : y + island, x : x + island] = True
                x += 170
        y += row_pitch
        row += 1
    return MaskShape.from_mask(mask, grid, name=f"chip-{tiles_x}x{tiles_y}")


def stepped_at_seams(shape: MaskShape, window_nm: float, step: int = 4) -> MaskShape:
    """``shape`` with every feature in every other tile column grown
    ``step`` px at its top edge, so each feature that crosses a
    vertical seam steps in width there.  A 4 px step is below L_min, so
    neither tile splits its shot at the step: the two tiles' shots of
    one bar differ in height, the seam handoff leaves them alone, and
    the seam still needs its stitch window."""
    from repro.fracture.tiling import plan_tiles
    from repro.mask.constraints import FractureSpec

    seams = plan_tiles(shape, FractureSpec(), window_nm).seam_xs
    grid = shape.grid
    centres = grid.x0 + (np.arange(grid.nx) + 0.5) * grid.pitch
    odd = np.searchsorted(seams, centres, side="right") % 2 == 1
    mask = shape.inside.copy()
    grown = mask.copy()
    for k in range(1, step + 1):
        grown[k:] |= mask[:-k]
    mask[:, odd] = grown[:, odd]
    return MaskShape.from_mask(mask, grid, name=f"{shape.name}-stepped")


def transposed(shape: MaskShape) -> MaskShape:
    """``shape`` mirrored about the diagonal."""
    grid = shape.grid
    return MaskShape.from_mask(
        shape.inside.T.copy(),
        PixelGrid(grid.y0, grid.x0, grid.pitch, grid.ny, grid.nx),
        name=f"{shape.name}-transposed",
    )


@pytest.fixture(scope="module")
def chip_3x1():
    return chip_shape(3, 1)


@pytest.fixture(scope="module")
def chip_transposed():
    """``chip_shape(3, 2)`` mirrored about the diagonal: vertical bars
    cut by horizontal seams over 2×3 tiles."""
    return transposed(chip_shape(3, 2))


@pytest.fixture(scope="module")
def stepped_bar_field(bar_field):
    """``bar_field`` with both long bars stepping in width at their
    seams, so both seams run a stitch window."""
    return stepped_at_seams(bar_field, 250.0)


@pytest.fixture(scope="module")
def stepped_chip_3x1():
    """``chip_3x1`` with its bars stepping in width at both seams, so
    both windows, ``v0`` and ``v1``, run."""
    return stepped_at_seams(chip_shape(3, 1), 300.0)


@pytest.fixture(scope="module")
def stepped_chip_transposed():
    """``chip_transposed`` with its vertical bars stepping in width at
    the horizontal seams, so the horizontal seam family carries most
    failing band pixels and must run first."""
    return transposed(stepped_at_seams(chip_shape(3, 2), 300.0))


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

    def test_multi_tile_feasible_and_near_direct(
        self, bar_field, chip_3x1, spec_module
    ):
        """Tiled execution on an easy multi-component layout is feasible
        and lands within a bounded shot-count delta of direct fracture
        of the individual components."""
        from repro.geometry.labeling import component_masks
        from repro.mask.constraints import check_solution

        inner = _inner(nmax=120)
        for shape, window_nm in ((bar_field, 250.0), (chip_3x1, 300.0)):
            windowed = WindowedFracturer(inner, window_nm=window_nm)
            shots = windowed.fracture_shots(shape, spec_module)
            report = check_solution(shots, shape, spec_module)
            assert report.total_failing == 0, shape.name
            direct = sum(
                len(inner.fracture_shots(
                    MaskShape.from_mask(component, shape.grid, name=f"c{k}"),
                    spec_module,
                ))
                for k, component in enumerate(component_masks(shape.inside))
            )
            # Tiling cuts bars across seams and may pay a bounded premium.
            assert len(shots) <= direct + 4, (shape.name, len(shots), direct)

    def test_deterministic_across_worker_counts(
        self, bar_field, chip_3x1, spec_module
    ):
        """A pool reproduces workers=1 bit for bit — the merge order is
        row-major tile order either way."""
        inner = _inner(nmax=120)
        for shape, window_nm, workers in (
            (bar_field, 250.0, 4), (chip_3x1, 300.0, 2)
        ):
            serial = WindowedFracturer(
                inner, window_nm=window_nm, workers=1
            ).fracture_shots(shape, spec_module)
            parallel = WindowedFracturer(
                inner, window_nm=window_nm, workers=workers
            ).fracture_shots(shape, spec_module)
            assert serial == parallel, shape.name

    def test_stitch_candidates_restricted_to_seam_bands(
        self, stepped_bar_field, spec_module
    ):
        """On the same merged tile shots, a region-restricted greedy
        pass must gather strictly fewer pricing candidates than an
        unrestricted one — the stitch cost scales with seam area.  The
        bars step in width at the seams, so the stitch runs its windows
        instead of handing the seams off."""
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
        plan = plan_tiles(stepped_bar_field, spec_module, 250.0)
        collected = []
        for tile in plan.tiles:
            subs = extract_tile_shapes(stepped_bar_field, tile)
            if subs:
                collected.extend(fracture_tile(inner, tile, subs, spec_module))

        full = RefinementState(stepped_bar_field, spec_module, collected)
        n_full = len(full.gather_edge_moves(full.cost_integral()))

        active, movable_nm = seam_band_masks(
            stepped_bar_field, plan, spec_module
        )
        movable, frozen = split_seam_shots(collected, plan, movable_nm)
        assert movable and frozen
        restricted = RefinementState(
            stepped_bar_field, spec_module, movable,
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
                stepped_bar_field, spec_module
            )
        assert recorder.counters.get("windowed.stitch_windows", 0) > 0
        assert recorder.counters["windowed.stitch_candidates_priced"] > 0
        assert recorder.counters.get("windowed.frozen_shots", 0) > 0

    def test_telemetry_merged_from_workers(self, bar_field, spec_module):
        """Per-tile telemetry from pool workers lands in the parent
        recorder via the cross-process merge."""
        from repro.obs import TelemetryRecorder, recording

        inner = _inner(nmax=120)
        windowed = WindowedFracturer(inner, window_nm=250.0, workers=2)
        recorder = TelemetryRecorder()
        with recording(recorder):
            traced = windowed.fracture_shots(bar_field, spec_module)
        assert recorder.counters.get("windowed.tiles", 0) >= 2
        assert recorder.counters.get("refine.moves_priced", 0) > 0
        assert traced == windowed.fracture_shots(bar_field, spec_module)

    def test_tracing_overhead_under_5_percent(
        self, stepped_chip_3x1, spec_module
    ):
        """Telemetry on a pooled tiled run costs < 5 % of the run.

        A direct traced/untraced A/B at 5 % sits inside run-to-run
        noise, so the cost is estimated as in the null-recorder bound:
        the records a traced run emits (its workers' merged ones
        included), times the measured cost of a span + incr pair on a
        live recorder, against the untraced run's wall time.  The
        layout's seams run windows, so the traced window path counts.
        """
        from repro.obs import TelemetryRecorder, recording

        windowed = WindowedFracturer(
            _inner(nmax=120), window_nm=300.0, workers=2
        )
        recorder = TelemetryRecorder()
        with recording(recorder):
            traced = windowed.fracture_shots(stepped_chip_3x1, spec_module)
        start = time.perf_counter()
        untraced = windowed.fracture_shots(stepped_chip_3x1, spec_module)
        runtime = time.perf_counter() - start
        assert traced == untraced
        assert recorder.counters.get("windowed.stitch_windows", 0) > 0
        records = len(recorder.records)
        assert records > 0

        live = TelemetryRecorder()
        reps = 5_000
        batches = []
        for _ in range(3):  # best of 3: a batch hit by a pause misleads
            start = time.perf_counter()
            for _ in range(reps):
                with live.span("x", a=1):
                    pass
                live.incr("c", 1)
            batches.append((time.perf_counter() - start) / reps)
        overhead = records * min(batches)
        assert overhead < 0.05 * runtime, (
            f"{records} records cost {overhead * 1e3:.2f} ms against a "
            f"{runtime * 1e3:.0f} ms run (>5 %)"
        )


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



def _tile_shots(shape, spec, window_nm):
    """The merged tile shots a stitch starts from, and the tile plan."""
    from repro.fracture.runtime import fracture_tile
    from repro.fracture.tiling import extract_tile_shapes, halo_nm, plan_tiles

    inner = _inner(nmax=120)
    plan = plan_tiles(shape, spec, window_nm)
    shots = []
    for tile in plan.tiles:
        subs = extract_tile_shapes(shape, tile, pad_nm=halo_nm(spec))
        if subs:
            shots.extend(fracture_tile(inner, tile, subs, spec))
    return shots, plan


class TestStitchWindows:
    def test_transposed_chip_runs_horizontal_family_first(
        self, stepped_chip_transposed, spec_module
    ):
        """Vertical bars cut by horizontal seams: the horizontal family
        holds more failing band pixels, goes first, and the run ends
        feasible within the tiling tolerance of direct fracture."""
        from repro.geometry.labeling import component_masks

        inner = _inner(nmax=120)
        windowed = WindowedFracturer(inner, window_nm=300.0)
        result = windowed.fracture(stepped_chip_transposed, spec_module)
        assert result.extra["stitch_order"] == ["h", "v"]
        assert result.extra["stitch_windows"]
        assert all(
            name.startswith("h") for name in result.extra["stitch_windows"]
        )
        assert result.report.total_failing == 0
        direct = sum(
            len(inner.fracture_shots(
                MaskShape.from_mask(
                    component, stepped_chip_transposed.grid, name=f"c{k}"
                ),
                spec_module,
            ))
            for k, component in enumerate(
                component_masks(stepped_chip_transposed.inside)
            )
        )
        assert result.shot_count <= direct + 4

    def test_shots_identical_for_workers_1_2_4(
        self, bar_field, chip_3x1, chip_transposed, stepped_chip_3x1,
        stepped_chip_transposed, spec_module
    ):
        """Both the layouts whose seams the handoff resolves and the
        stepped ones whose seams run windows."""
        inner = _inner(nmax=120)
        for shape, window_nm in (
            (bar_field, 250.0), (chip_3x1, 300.0), (chip_transposed, 300.0),
            (stepped_chip_3x1, 300.0), (stepped_chip_transposed, 300.0),
        ):
            runs = [
                WindowedFracturer(
                    inner, window_nm=window_nm, workers=workers
                ).fracture_shots(shape, spec_module)
                for workers in (1, 2, 4)
            ]
            assert runs[0] == runs[1] == runs[2], shape.name

    @pytest.mark.parametrize(
        ("layout", "window_nm"),
        [
            ("stepped_bar_field", 250.0),
            ("stepped_chip_3x1", 300.0),
            ("stepped_chip_transposed", 300.0),
        ],
    )
    def test_resumed_run_replays_to_the_same_shots(
        self, request, spec_module, layout, window_nm, tmp_path
    ):
        """A run resumed from the store a finished run filled replays
        every tile and every window, and returns the same shots."""
        from repro.fracture.cache import FractureCache
        from repro.fracture.runtime import RuntimePolicy

        shape = request.getfixturevalue(layout)

        def run(workers):
            policy = RuntimePolicy(store=FractureCache(persist_dir=tmp_path))
            return WindowedFracturer(
                _inner(nmax=120), window_nm=window_nm, workers=workers,
                runtime=policy,
            ).fracture(shape, spec_module)

        first = run(workers=1)
        resumed = run(workers=2)
        windows = len(first.extra["stitch_windows"])
        assert windows
        assert resumed.shots == first.shots
        assert resumed.extra["tiles_replayed"] == resumed.extra["tiles_used"]
        assert resumed.extra["windows_replayed"] == windows

    def test_window_crop_matches_full_grid_restricted_state(
        self, chip_3x1, spec_module
    ):
        """A window refines on its crop what the full-grid restricted
        state sees on its band: same failure counts, same cost."""
        from repro.fracture.state import RefinementState
        from repro.fracture.tiling import halo_nm, seam_windows

        shots, plan = _tile_shots(chip_3x1, spec_module, 300.0)
        windows = seam_windows(
            shots, plan, spec_module, chip_3x1.grid, "x", halo_nm(spec_module)
        )
        assert len(windows) == 2
        windowed = WindowedFracturer(_inner(), window_nm=300.0)
        for window in windows:
            job = windowed._window_job(chip_3x1, spec_module, shots, window)
            cropped = RefinementState(
                job.shape, spec_module, list(job.movable),
                background=job.background, active_mask=job.active,
            )
            active = np.zeros(chip_3x1.grid.shape, dtype=bool)
            for band in window.bands:
                active[:, band] = True
            owned = set(window.owned)
            full = RefinementState(
                chip_3x1, spec_module, list(job.movable),
                background=[s for i, s in enumerate(shots) if i not in owned],
                active_mask=active,
            )
            assert cropped.report() == full.report(), window.name
            assert cropped.report().total_failing > 0

    def test_partly_deleted_window_store_replays_the_rest(
        self, stepped_chip_3x1, spec_module, tmp_path
    ):
        import json

        from repro.fracture.cache import FractureCache
        from repro.fracture.runtime import RuntimePolicy
        from repro.obs import TelemetryRecorder, recording

        def run(workers):
            policy = RuntimePolicy(store=FractureCache(persist_dir=tmp_path))
            recorder = TelemetryRecorder()
            with recording(recorder):
                shots = WindowedFracturer(
                    _inner(nmax=120), window_nm=300.0, workers=workers,
                    runtime=policy,
                ).fracture_shots(stepped_chip_3x1, spec_module)
            return shots, recorder.counters

        first, _ = run(workers=1)
        windows = sorted(
            (entry["window"], path)
            for path in tmp_path.glob("*.json")
            if "window" in (entry := json.loads(path.read_text()))
        )
        assert len(windows) == 2
        windows[0][1].unlink()
        resumed, counters = run(workers=2)
        assert resumed == first
        assert counters.get("windowed.windows_replayed") == 1
        assert counters.get("windowed.tiles_replayed") == 3

    def test_a_stop_in_the_window_family_counts_windows(
        self, stepped_chip_3x1, spec_module
    ):
        """A stop that lands after the tile pass stops the first window
        family, and the interrupt names windows, not tiles."""
        from repro.fracture.runtime import RunInterrupted, RuntimePolicy
        from repro.obs import TelemetryRecorder, recording

        recorder = TelemetryRecorder()
        policy = RuntimePolicy(
            stop_check=lambda: recorder.gauges.get("windowed.tiles_done") == 3
        )
        with recording(recorder), pytest.raises(RunInterrupted) as stopped:
            WindowedFracturer(
                _inner(nmax=120), window_nm=300.0, runtime=policy
            ).fracture_shots(stepped_chip_3x1, spec_module)
        assert (stopped.value.label, stopped.value.done, stopped.value.total) \
            == ("window", 0, 2)
        assert str(stopped.value) == \
            "run interrupted by shutdown hook after 0/2 windows"
        assert [
            (e["job_kind"], e["done"], e["total"])
            for e in recorder.export()["events"]
            if e["name"] == "run_interrupted"
        ] == [("window", 0, 2)]

    def test_crashed_window_retries_to_the_same_shots(
        self, stepped_chip_3x1, spec_module, monkeypatch
    ):
        import repro.fracture.runtime as runtime
        from repro.fracture.runtime import FaultPlan, RuntimePolicy
        from repro.obs import TelemetryRecorder, recording

        monkeypatch.setattr(runtime, "BACKOFF_S", 0.0)
        inner = _inner(nmax=120)
        clean = WindowedFracturer(inner, window_nm=300.0).fracture_shots(
            stepped_chip_3x1, spec_module
        )
        policy = RuntimePolicy(fault_plan=FaultPlan.parse(["v0:crash"]))
        recorder = TelemetryRecorder()
        with recording(recorder):
            shots = WindowedFracturer(
                inner, window_nm=300.0, workers=2, runtime=policy
            ).fracture_shots(stepped_chip_3x1, spec_module)
        assert shots == clean
        assert recorder.counters.get("windowed.pool_respawns", 0) >= 1
        assert recorder.counters.get("windowed.window_retries", 0) >= 1
        assert recorder.counters.get("windowed.window_fallbacks", 0) == 0

    def test_no_negative_self_time_with_two_workers(
        self, stepped_chip_3x1, spec_module
    ):
        """Concurrent worker grafts are subtracted by the time they
        cover, not by their summed wall time: the tiles' under the
        ``tiled`` phase, the pooled windows' under ``stitch``."""
        from repro.obs import TelemetryRecorder, phase_breakdown, recording

        recorder = TelemetryRecorder()
        with recording(recorder):
            result = WindowedFracturer(
                _inner(nmax=120), window_nm=300.0, workers=2
            ).fracture(stepped_chip_3x1, spec_module)
        assert len(result.extra["stitch_windows"]) == 2
        phases = phase_breakdown(recorder.export())
        assert {p["phase"] for p in phases} >= {"tiled", "stitch"}
        assert all(p["self_s"] >= 0.0 for p in phases), phases

    def test_tile_extraction_traces_no_polygon(
        self, chip_3x1, spec_module, monkeypatch
    ):
        """Tile sub-shapes trace their polygon where they are fractured,
        so extracting them traces nothing."""
        from repro.fracture.tiling import extract_tile_shapes, halo_nm, plan_tiles
        from repro.mask import shape as shape_module

        calls = []
        monkeypatch.setattr(
            shape_module, "trace_boundary", lambda *args: calls.append(args)
        )
        plan = plan_tiles(chip_3x1, spec_module, 300.0)
        subs = [
            sub
            for tile in plan.tiles
            for sub in extract_tile_shapes(
                chip_3x1, tile, pad_nm=halo_nm(spec_module)
            )
        ]
        assert subs
        assert calls == []


@pytest.fixture(scope="module")
def straight_bar(spec_module):
    """A 500 × 40 nm bar: 4 × 1 tiles at 150 nm, every seam cuts it."""
    polygon = Polygon([(0, 0), (500, 0), (500, 40), (0, 40)])
    return MaskShape.from_polygon(
        polygon, margin=spec_module.grid_margin, name="bar"
    )


def _fresh_check_matches(result, shape, spec):
    from repro.mask.constraints import check_solution

    fresh = check_solution(result.shots, shape, spec)
    report = result.report
    assert np.array_equal(report.fail_on, fresh.fail_on)
    assert np.array_equal(report.fail_off, fresh.fail_off)
    assert (report.cost, report.undersize_shots, report.total_failing) == (
        fresh.cost, fresh.undersize_shots, fresh.total_failing,
    )


class TestSeamHandoff:
    """Where the seams cut only straight bars, each tile pair's shots of
    one bar are aligned: the handoff merges them all, so no window runs
    and the run ends feasible with fewer shots than the tiles gave."""

    @pytest.mark.parametrize(
        ("layout", "window_nm"),
        [
            ("bar_field", 250.0),
            ("chip_3x1", 300.0),
            ("chip_transposed", 300.0),
            ("straight_bar", 150.0),
        ],
    )
    def test_aligned_seams_run_no_window(
        self, request, spec_module, layout, window_nm, tmp_path
    ):
        """Workers 1, 2 and 4 run fresh, workers 1 into a store; a
        fourth run resumes from that store, replaying every tile.  The
        merge count reaches the counter and the manifest record."""
        from repro.fracture.cache import FractureCache
        from repro.fracture.runtime import RuntimePolicy
        from repro.obs import TelemetryRecorder, recording

        shape = request.getfixturevalue(layout)
        inner = _inner(nmax=120)

        def run(workers, stored):
            policy = RuntimePolicy(
                store=FractureCache(persist_dir=tmp_path)
            ) if stored else None
            return WindowedFracturer(
                inner, window_nm=window_nm, workers=workers, runtime=policy
            ).fracture(shape, spec_module)

        recorder = TelemetryRecorder()
        with recording(recorder):
            first = run(1, stored=True)
        fresh = [run(workers, stored=False) for workers in (2, 4)]
        resumed = run(2, stored=True)
        assert resumed.extra["tiles_replayed"] == resumed.extra["tiles_used"]
        assert all(other.shots == first.shots for other in (*fresh, resumed))
        merges = first.extra["seam_merges"]
        assert merges >= 1
        assert recorder.counters["windowed.seam_merges"] == merges
        (record,) = recorder.export()["manifest"]["fault_tolerance"]
        assert record["seam_merges"] == merges
        assert first.extra["stitch_windows"] == []
        assert first.shot_count < first.extra["pre_stitch_shots"]
        assert first.feasible


class TestOneFinalCheck:
    """A tiled run's verdict is one full-grid check of its final shots:
    the stitch's last check when nothing changed the shots after it."""

    def _checked(self, monkeypatch):
        """Record the shot list of every full-grid check, wherever run."""
        import repro.fracture.base as base
        import repro.fracture.windowed as windowed
        from repro.mask.constraints import check_solution

        seen = []

        def spy(shots, shape, spec):
            seen.append(list(shots))
            return check_solution(shots, shape, spec)

        monkeypatch.setattr(base, "check_solution", spy)
        monkeypatch.setattr(windowed, "check_solution", spy)
        return seen

    def test_reused_verdict_equals_a_fresh_check(
        self, chip_3x1, spec_module, monkeypatch
    ):
        seen = self._checked(monkeypatch)
        result = WindowedFracturer(
            _inner(nmax=120), window_nm=300.0
        ).fracture(chip_3x1, spec_module)
        assert result.extra["stitch_windows"] == []
        assert seen == [result.shots]
        _fresh_check_matches(result, chip_3x1, spec_module)

    def test_run_with_windows_checks_its_final_shots(
        self, stepped_chip_3x1, spec_module, monkeypatch
    ):
        seen = self._checked(monkeypatch)
        result = WindowedFracturer(
            _inner(nmax=120), window_nm=300.0
        ).fracture(stepped_chip_3x1, spec_module)
        assert result.extra["stitch_windows"]
        assert len(seen) >= 2
        assert seen[-1] == result.shots
        _fresh_check_matches(result, stepped_chip_3x1, spec_module)
