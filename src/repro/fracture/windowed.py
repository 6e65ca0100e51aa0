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
3. repair the tile boundaries with a *seam-band* stitch: only shots
   within one halo width of a seam move (everything else is frozen
   background dose), only pixels inside the seam bands are scored, and
   any mutation whose dose reach would leave the bands is forbidden —
   so the stitch costs ~O(seam area), not O(chip area).

Tile execution is fault-tolerant (:mod:`repro.fracture.runtime`): a
worker crash, hang or infeasible tile is retried with backoff, the
pool is respawned when it breaks, a tile that exhausts its retries
degrades to the deterministic partition baseline (flagged, never
fatal), and an optional tile store (``--fracture-cache DIR``) lets an
interrupted run resume bit-identically: run it again against the same
store.
"""

from __future__ import annotations

import numpy as np

from repro.fracture.base import Fracturer
from repro.fracture.refine import RefineParams, refine
from repro.fracture.runtime import RuntimePolicy, run_tiles
from repro.fracture.tiling import (
    Tile,
    TilePlan,
    extract_tile_shapes,
    halo_nm,
    plan_tiles,
    seam_band_masks,
    split_seam_shots,
)
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec, check_solution
from repro.mask.shape import MaskShape
from repro.obs import get_recorder


class WindowedFracturer(Fracturer):
    """Tile-decomposed fracturing around any inner method.

    ``window_nm`` is the tile size along both axes; ``workers`` the
    process-pool width of the tile executor (1 = run tiles inline);
    ``stitch_params`` the iteration budget of the seam-band stitch and
    of the bounded full-shape repair refinement that runs as a safety
    net when the stitched solution still has failing pixels (rare;
    ``nmax=0`` skips both, and the final verdict always comes from the
    independent :meth:`Fracturer.fracture` check either way).

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
            jobs = self._plan_jobs(shape, spec, plan)
            collected, exec_info = self._execute(shape, spec, jobs)
            obs.incr("windowed.tiles", len(plan))
            obs.incr("windowed.tiles_used", exec_info["tiles_used"])
            stitched, stitch_info = self._stitch(shape, spec, plan, collected)
        self._last_extra = {
            "tiles": len(plan),
            "tiles_x": plan.tiles_x,
            "tiles_y": plan.tiles_y,
            "workers": self.workers,
            "pre_stitch_shots": len(collected),
            **exec_info,
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
    ) -> tuple[list[Rect], dict]:
        """Fracture all tile jobs and merge owned shots in tile order.

        Execution goes through the fault-tolerant runtime layer
        (:func:`repro.fracture.runtime.run_tiles`): per-tile retries,
        deadlines, pool recovery, fallback degradation and the tile
        store all live there.  The merge is deterministic
        regardless of worker count, retries or resume: outcomes come
        back in row-major tile order and each tile's output depends
        only on its own sub-shapes.
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
        obs.manifest_section("fault_tolerance", [{
            "shape": shape.name,
            "tiles": len(jobs),
            "fallback_tiles": fallback_tiles,
            "retried": retried,
            "replayed": [o.tile_name for o in outcomes if o.replayed],
            **stats.as_dict(),
        }])
        return collected, info

    # -- stitching ----------------------------------------------------------

    def _stitch(
        self,
        shape: MaskShape,
        spec: FractureSpec,
        plan: TilePlan,
        collected: list[Rect],
    ) -> tuple[list[Rect], dict]:
        """Seam-band repair of the merged tile solutions.

        Shots within one halo width of an interior tile boundary are
        refined; the rest contribute frozen background dose.  Cost and
        failures are evaluated only inside the seam-band active mask,
        and mutations whose dose reach would leave the mask are
        forbidden, so the priced candidate count scales with seam area.
        The refinement trace counts it, so ``stitch_candidates_priced``
        in the info is the same with telemetry on or off; the
        ``windowed.stitch_candidates_priced`` counter repeats it.
        """
        obs = get_recorder()
        active_mask, movable_nm = seam_band_masks(shape, plan, spec)
        movable, frozen = split_seam_shots(collected, plan, movable_nm)
        obs.incr("windowed.seam_shots", len(movable))
        obs.incr("windowed.frozen_shots", len(frozen))
        # Stitch cost-field work scales with the seam-band bounding box
        # (and the pricing tables with the rows and columns that carry
        # cost), not the grid; record both areas so the scaling is
        # visible in traces and manifests.
        seam_px = int(np.count_nonzero(active_mask))
        grid_px = int(active_mask.size)
        obs.gauge("windowed.seam_px", float(seam_px))
        obs.gauge("windowed.grid_px", float(grid_px))
        info: dict = {
            "seam_shots": len(movable),
            "frozen_shots": len(frozen),
            "seam_px": seam_px,
            "grid_px": grid_px,
            "stitch_iterations": 0,
            "stitch_converged": True,
            "stitch_candidates_priced": 0,
            "full_repair": False,
        }
        if not movable:
            return list(collected), info
        with obs.span("stitch", seam_shots=len(movable)):
            refined, trace = refine(
                shape, spec, movable, self.stitch_params,
                background=frozen, active_mask=active_mask,
            )
        obs.incr("windowed.stitch_candidates_priced", trace.candidates_priced)
        stitched = frozen + refined
        info.update(
            stitch_iterations=trace.iterations,
            stitch_converged=trace.converged,
            stitch_candidates_priced=trace.candidates_priced,
        )
        if self.stitch_params.nmax > 0:
            report = check_solution(stitched, shape, spec)
            if report.total_failing > 0:
                # Failures outside the stitch's jurisdiction: the
                # mutation guard keeps the stitch from damaging anything
                # beyond the bands, so what remains is either in-band
                # residue the budget didn't clear or tile-interior
                # residue the inner method left behind.  One bounded
                # full-shape refinement goes after both.
                obs.incr("windowed.full_repairs")
                with obs.span("stitch_full_repair"):
                    stitched, repair_trace = refine(
                        shape, spec, stitched, self.stitch_params
                    )
                info["full_repair"] = True
                info["full_repair_iterations"] = repair_trace.iterations
        return stitched, info

