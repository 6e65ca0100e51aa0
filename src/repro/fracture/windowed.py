"""Tiled fracturing: 2-D halo-tile decomposition for very large shapes.

The paper fractures clip-sized shapes (hundreds of nanometres).  A
production flow meets individual polygons spanning many micrometres —
too large for the O(|C|²) compatibility graph and the full-grid
refinement.  :class:`WindowedFracturer` wraps any inner fracturer with
the tiled execution architecture of :mod:`repro.fracture.tiling`:

1. split the mask plane into a deterministic 2-D grid of tiles with
   blur-derived halos; every connected component owning pixels in a
   tile's core is extracted as its own sub-problem (none is dropped);
2. fracture every tile independently — serially or on a process pool
   (``workers``) — keeping each shot with the tile that owns its centre
   under a half-open rule, so the merged shot list is identical for any
   worker count;
3. repair the tile boundaries with a *seam-band* stitch: first every
   exactly aligned pair of shots that one feature got from the two
   tiles of a seam becomes one shot, their union
   (:func:`~repro.fracture.tiling.merge_seam_pairs`); then only shots
   within one halo width of a seam move (everything else is frozen
   background dose), only pixels inside the seam bands are scored, and
   any mutation whose dose reach would leave the bands is forbidden —
   so the stitch costs ~O(seam area), not O(chip area).  The stitch
   runs one seam family at a time (vertical seams, horizontal seams),
   the family with more failing band pixels first; each family is cut
   into independent windows (:func:`~repro.fracture.tiling.seam_windows`)
   that are refined on their own crops, at the same time, as jobs of
   the tile runner, and only where band pixels still fail.

Tile and window execution is fault-tolerant
(:mod:`repro.fracture.runtime`): a worker crash, hang or failing job is
retried with backoff, the pool is respawned when it breaks, a tile that
exhausts its retries degrades to the deterministic partition baseline
and a window to its input shots (flagged, never fatal), and an optional
store (``--fracture-cache DIR``) lets an interrupted run resume
bit-identically: run it again against the same store, and settled tiles
and windows replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.fracture.base import Fracturer
from repro.fracture.cache import window_fingerprint
from repro.fracture.refine import RefineParams, refine
from repro.fracture.runtime import JobKind, RunStats, RuntimePolicy, run_tiles
from repro.fracture.tiling import (
    SeamWindow,
    Tile,
    TilePlan,
    dose_reach_nm,
    extract_tile_shapes,
    halo_nm,
    merge_seam_pairs,
    plan_tiles,
    seam_band_masks,
    seam_bands,
    seam_windows,
    split_seam_shots,
)
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec, check_solution
from repro.mask.shape import MaskShape
from repro.obs import get_recorder


@dataclass(frozen=True)
class StitchWindow:
    """One seam window's refinement: a job of the :data:`WINDOWS` kind.

    ``shape`` is the target cropped to the window (its bands' hull plus
    the blur reach, carrying the whole shape's pixel classes), ``active``
    the window's band mask on that crop, ``movable`` the shots it may
    move and ``background`` every other shot whose dose reaches the
    crop, both in shot-list order.
    """

    name: str
    shape: MaskShape
    active: np.ndarray
    movable: tuple[Rect, ...]
    background: tuple[Rect, ...]
    params: RefineParams


def _window_name(window: StitchWindow) -> str:
    return window.name


def _window_describe(window: StitchWindow) -> str:
    return f"{len(window.movable)} movable shots"


def _refine_window(
    inner: Any, spec: FractureSpec, window: StitchWindow
) -> tuple[list[Rect], dict]:
    refined, trace = refine(
        window.shape, spec, list(window.movable), window.params,
        background=window.background, active_mask=window.active,
    )
    return refined, {
        "iterations": trace.iterations,
        "converged": trace.converged,
        "candidates_priced": trace.candidates_priced,
    }


def _window_key(inner: Any, spec: FractureSpec, window: StitchWindow) -> str:
    return window_fingerprint(spec, window)


def _window_fallback(window: StitchWindow, spec: FractureSpec) -> list[Rect]:
    return list(window.movable)


#: Seam-stitch windows: a window that exhausts its retries keeps its
#: input shots (flagged; the safety net below still checks them).
WINDOWS = JobKind(
    "window", _window_name, _window_describe, _refine_window, _window_key,
    _window_fallback,
)


class WindowedFracturer(Fracturer):
    """Tile-decomposed fracturing around any inner method.

    ``window_nm`` is the tile size along both axes; ``workers`` the
    process-pool width of the tile executor (1 = run tiles inline);
    ``stitch_params`` the iteration budget of the seam-band stitch and
    of the bounded full-shape repair refinement that runs as a safety
    net when the stitched solution still has failing pixels (rare;
    ``nmax=0`` skips both, not the seam handoff).  The final verdict is
    always a from-scratch :func:`check_solution` of the shots returned:
    the stitch's last one when it saw exactly those shots, else the one
    :meth:`Fracturer.fracture` runs.

    ``runtime`` is the fault-tolerant execution layer's
    :class:`~repro.fracture.runtime.RuntimePolicy`: attempts per tile,
    the per-tile deadline, fault injection, the tile store, the worker
    heartbeat and the stop check.  ``None`` means the default policy:
    three attempts, no deadline, no store and no injected faults.
    """

    name = "WINDOWED"

    def __init__(
        self,
        inner: Fracturer,
        window_nm: float = 300.0,
        stitch_params: RefineParams | None = None,
        workers: int = 1,
        runtime: RuntimePolicy | None = None,
    ):
        if window_nm <= 0.0:
            raise ValueError("window size must be positive")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.inner = inner
        self.window_nm = window_nm
        # None-sentinel construction: a shared default instance would be
        # one object across every WindowedFracturer (see the dataclass-
        # default audit in DESIGN.md).
        self.stitch_params = (
            stitch_params if stitch_params is not None
            else RefineParams(nmax=200, nh=3)
        )
        self.workers = workers
        self.runtime = runtime if runtime is not None else RuntimePolicy()
        self._last_extra: dict = {}
        # Cache keys match the service's scheme: the *inner* method name
        # plus the window size — a tiled result only substitutes for an
        # identically windowed run of the same inner method.
        self.cache_window_nm = window_nm
        self.cache_method = getattr(inner, "cache_method", None) or inner.name

    # -- execution ----------------------------------------------------------

    def fracture_shots(self, shape: MaskShape, spec: FractureSpec) -> list[Rect]:
        obs = get_recorder()
        plan = plan_tiles(shape, spec, self.window_nm)
        if len(plan) == 1:
            # Fits in one tile (with slack): bit-identical to the inner
            # method — no decomposition, no stitch.
            shots = self.inner.fracture_shots(shape, spec)
            self._last_extra = {
                "tiles": 1, "tiles_x": 1, "tiles_y": 1,
                "stitch_iterations": 0,
            }
            return shots
        with obs.span(
            "tiled", tiles=len(plan), tiles_x=plan.tiles_x,
            tiles_y=plan.tiles_y, workers=self.workers,
        ):
            # The tile jobs' sub-shapes are dropped once their shots are
            # in: the stitch does not need them.
            collected, exec_info, record = self._execute(
                shape, spec, self._plan_jobs(shape, spec, plan)
            )
            obs.incr("windowed.tiles", len(plan))
            obs.incr("windowed.tiles_used", exec_info["tiles_used"])
            stitched, stitch_info = self._stitch(shape, spec, plan, collected)
        # One pool_respawns count for the tiles and the windows.
        window_stats = stitch_info.pop("window_stats")
        exec_info["pool_respawns"] += window_stats.pop("pool_respawns")
        obs.manifest_section("fault_tolerance", [{
            **record,
            "pool_respawns": exec_info["pool_respawns"],
            "windows": len(stitch_info["stitch_windows"]),
            "fallback_windows": stitch_info["fallback_windows"],
            "replayed_windows": stitch_info["replayed_windows"],
            "seam_merges": stitch_info["seam_merges"],
            **window_stats,
        }])
        self._last_extra = {
            "tiles": len(plan),
            "tiles_x": plan.tiles_x,
            "tiles_y": plan.tiles_y,
            "workers": self.workers,
            "pre_stitch_shots": len(collected),
            **exec_info,
            **window_stats,
            **stitch_info,
        }
        return stitched

    def _plan_jobs(
        self, shape: MaskShape, spec: FractureSpec, plan: TilePlan
    ) -> list[tuple[Tile, list[MaskShape]]]:
        """Extract every tile's owned sub-shapes (row-major tile order).

        Sub-shapes are cropped to their component's bounding box padded
        by the halo width, so each tile sub-problem pays for its own
        geometry, not the whole tile window.
        """
        jobs: list[tuple[Tile, list[MaskShape]]] = []
        for tile in plan.tiles:
            subs = extract_tile_shapes(shape, tile, pad_nm=halo_nm(spec))
            if subs:
                jobs.append((tile, subs))
        return jobs

    def _execute(
        self,
        shape: MaskShape,
        spec: FractureSpec,
        jobs: list[tuple[Tile, list[MaskShape]]],
    ) -> tuple[list[Rect], dict, dict]:
        """Fracture all tile jobs and merge owned shots in tile order.

        Execution goes through the fault-tolerant runtime layer
        (:func:`repro.fracture.runtime.run_tiles`): per-tile retries,
        deadlines, pool recovery, fallback degradation and the tile
        store all live there.  The merge is deterministic
        regardless of worker count, retries or resume: outcomes come
        back in row-major tile order and each tile's output depends
        only on its own sub-shapes.  Returns the merged shots, the
        tile part of the run's info and of its ``fault_tolerance``
        manifest record.
        """
        obs = get_recorder()
        outcomes, stats = run_tiles(
            jobs, inner=self.inner, spec=spec, workers=self.workers,
            policy=self.runtime,
        )
        collected: list[Rect] = []
        for outcome in outcomes:
            collected.extend(outcome.shots)
        fallback_tiles = [o.tile_name for o in outcomes if o.fallback]
        retried = {o.tile_name: o.attempts for o in outcomes if o.attempts > 1}
        info = {
            "tiles_used": len(jobs),
            "tile_sub_shapes": sum(len(subs) for _, subs in jobs),
            "fallback_tiles": fallback_tiles,
            **stats.as_dict(),
        }
        record = {
            "shape": shape.name,
            "tiles": len(jobs),
            "fallback_tiles": fallback_tiles,
            "retried": retried,
            "replayed": [o.tile_name for o in outcomes if o.replayed],
            **stats.as_dict(),
        }
        return collected, info, record

    # -- stitching ----------------------------------------------------------

    def _stitch(
        self,
        shape: MaskShape,
        spec: FractureSpec,
        plan: TilePlan,
        collected: list[Rect],
    ) -> tuple[list[Rect], dict]:
        """Seam-band repair of the merged tile solutions.

        The seam handoff (:func:`merge_seam_pairs`) first merges every
        aligned pair of shots that meet across a seam, under the same
        active-mask guard as every stitch move; ``seam_merges`` in the
        info and the ``windowed.seam_merges`` counter count the merges.
        Then shots within one halo width of an interior tile boundary
        are refined; the rest contribute frozen background dose.  Cost
        and failures are evaluated only inside the seam bands, and
        mutations whose dose reach would leave them are forbidden, so
        the priced candidate count scales with seam area.

        The seam families run one after the other, the one with more
        failing band pixels at stitch start first (the other family then
        refines against its result); a family's windows run at the same
        time through :func:`run_tiles` (:data:`WINDOWS`), and their
        results merge in window order, so any worker count gives the
        same shots.  A window whose bands hold no failing pixel when its
        family starts is not run: its refinement would return its shots
        unchanged.  ``stitch_iterations`` and
        ``stitch_candidates_priced`` in the info are sums over the
        windows run, taken from their refinement traces, so they are
        the same with telemetry on or off; the
        ``windowed.stitch_candidates_priced`` counter repeats the
        latter.  ``window_stats`` holds the window runs'
        :meth:`RunStats.as_dict` counts, summed.  When no full repair
        follows, the stitch's last ``check_solution`` saw exactly the
        shots returned, and it becomes the run's verdict
        (``_last_check``, read by :meth:`Fracturer.fracture`).
        """
        obs = get_recorder()
        active_mask, movable_nm = seam_band_masks(shape, plan, spec)
        collected, merges = merge_seam_pairs(
            collected, plan, spec, shape.grid, active_mask
        )
        obs.incr("windowed.seam_merges", merges)
        movable, frozen = split_seam_shots(collected, plan, movable_nm)
        obs.incr("windowed.seam_shots", len(movable))
        obs.incr("windowed.frozen_shots", len(frozen))
        # Stitch work scales with the seam bands, not the grid; record
        # both areas so the scaling is visible in traces and manifests.
        seam_px = int(np.count_nonzero(active_mask))
        grid_px = int(active_mask.size)
        obs.gauge("windowed.seam_px", float(seam_px))
        obs.gauge("windowed.grid_px", float(grid_px))
        info: dict = {
            "seam_merges": merges,
            "seam_shots": len(movable),
            "frozen_shots": len(frozen),
            "seam_px": seam_px,
            "grid_px": grid_px,
            "stitch_order": [],
            "full_repair": False,
        }
        shots = list(collected)
        outcomes: list = []
        window_stats = RunStats(label="window").as_dict()
        if movable and self.stitch_params.nmax > 0:
            grid = shape.grid
            with obs.span("stitch", seam_shots=len(movable)):
                report = check_solution(shots, shape, spec)
                failing = _failure_profiles(report)
                families = sorted(
                    (axis for axis, seams in
                     (("x", plan.seam_xs), ("y", plan.seam_ys)) if seams),
                    key=lambda axis: -_band_failures(
                        failing[axis],
                        seam_bands(plan, spec, grid, axis, movable_nm),
                    ),
                )
                for axis in families:
                    info["stitch_order"].append("v" if axis == "x" else "h")
                    # A crop without target pixels has nothing to print;
                    # the safety net below covers it.
                    windows = [
                        window
                        for window in seam_windows(
                            shots, plan, spec, grid, axis, movable_nm
                        )
                        if _band_failures(failing[axis], window.bands)
                        and shape.inside[_crop_slices(window, grid)].any()
                    ]
                    if not windows:
                        continue
                    family, stats = run_tiles(
                        [self._window_job(shape, spec, shots, w) for w in windows],
                        inner=self.inner, spec=spec, workers=self.workers,
                        policy=self.runtime, kind=WINDOWS,
                    )
                    run = {i for window in windows for i in window.owned}
                    shots = [s for i, s in enumerate(shots) if i not in run]
                    for outcome in family:
                        shots.extend(outcome.shots)
                    outcomes += family
                    for key, value in stats.as_dict().items():
                        window_stats[key] += value
                    report = check_solution(shots, shape, spec)
                    failing = _failure_profiles(report)
            if report.total_failing > 0:
                # Failures outside the stitch's jurisdiction: the
                # mutation guard keeps the stitch from damaging anything
                # beyond the bands, so what remains is either in-band
                # residue the budget didn't clear or tile-interior
                # residue the inner method left behind.  One bounded
                # full-shape refinement goes after both.
                obs.incr("windowed.full_repairs")
                with obs.span("stitch_full_repair"):
                    shots, repair_trace = refine(
                        shape, spec, shots, self.stitch_params
                    )
                info["full_repair"] = True
                info["full_repair_iterations"] = repair_trace.iterations
            else:
                # The last check saw exactly the shots returned: it is
                # the run's verdict (see Fracturer.fracture).
                self._last_check = (list(shots), report)
        info.update(
            stitch_windows=[o.tile_name for o in outcomes],
            stitch_iterations=sum(o.info.get("iterations", 0) for o in outcomes),
            stitch_converged=all(o.info.get("converged") for o in outcomes),
            stitch_candidates_priced=sum(
                o.info.get("candidates_priced", 0) for o in outcomes
            ),
            fallback_windows=[o.tile_name for o in outcomes if o.fallback],
            replayed_windows=[o.tile_name for o in outcomes if o.replayed],
            window_stats=window_stats,
        )
        obs.incr("windowed.stitch_windows", len(outcomes))
        obs.incr(
            "windowed.stitch_candidates_priced", info["stitch_candidates_priced"]
        )
        return shots, info

    def _window_job(
        self,
        shape: MaskShape,
        spec: FractureSpec,
        shots: list[Rect],
        window: SeamWindow,
    ) -> StitchWindow:
        """The refinement job of one window, on its crop of the grid."""
        grid = shape.grid
        rows, cols = _crop_slices(window, grid)
        crop = shape.crop(rows, cols, name=f"{shape.name}@{window.name}")
        active = np.zeros(crop.grid.shape, dtype=bool)
        lo = window.crop.start
        for band in window.bands:
            span = slice(band.start - lo, band.stop - lo)
            if window.axis == "x":
                active[:, span] = True
            else:
                active[span, :] = True
        owned = set(window.owned)
        # Shots whose dose reaches the crop: every other shot adds
        # nothing to any crop pixel.
        reach = dose_reach_nm(spec)
        background = []
        for i, shot in enumerate(shots):
            if i in owned:
                continue
            if window.axis == "x":
                span = grid.x_span_to_slice(shot.xbl, shot.xtr, reach)
            else:
                span = grid.y_span_to_slice(shot.ybl, shot.ytr, reach)
            if span.start < window.crop.stop and span.stop > window.crop.start:
                background.append(shot)
        return StitchWindow(
            name=window.name,
            shape=crop,
            active=active,
            movable=tuple(shots[i] for i in window.owned),
            background=tuple(background),
            params=self.stitch_params,
        )


def _crop_slices(window: SeamWindow, grid) -> tuple[slice, slice]:
    """Row and column slices of a window's crop on the full grid."""
    if window.axis == "x":
        return slice(0, grid.ny), window.crop
    return window.crop, slice(0, grid.nx)


def _failure_profiles(report) -> dict[str, np.ndarray]:
    """Failing pixels per column (``"x"``) and per row (``"y"``)."""
    failing = report.fail_on | report.fail_off
    return {"x": failing.sum(axis=0), "y": failing.sum(axis=1)}


def _band_failures(profile: np.ndarray, bands) -> int:
    """Failing pixels inside the union of ``bands`` (full-length column
    or row ranges), from the family's failure profile."""
    inside = np.zeros(profile.size, dtype=bool)
    for band in bands:
        inside[band] = True
    return int(profile[inside].sum())
