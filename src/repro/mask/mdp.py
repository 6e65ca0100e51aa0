"""Multi-shape mask data preparation pipeline: the one clip loop.

A full-field mask contains billions of polygons; each is fractured
independently (paper §2).  :meth:`MdpPipeline.run` is the batch loop
every front end runs over its clips — ``fracture`` and ``mdp`` on the
CLI, daemon jobs (:mod:`repro.service.executor`) and the e2e
benchmark: fracture every shape, verify, persist each solution as it
finishes, and aggregate shot counts and write-time/cost projections.

Work avoidance is the :class:`~repro.fracture.cache.FractureCache` on
the fracturer (``fracturer.cache``): the CLI's ``--fracture-cache DIR``
or the daemon's warm result cache.  Repeated geometry inside one
batch, across batches, or already fractured by another front end hits
by canonical content hash, costs a fingerprint and no raster, and is
served by exact shot translation.  Every finished shape is stored as
soon as it finishes, so with a persisted cache an interrupted batch
resumes by re-running against the same directory: finished shapes
replay bit-identically and only the remainder is fractured.  The key
holds geometry, spec, method and window, so a changed spec, method or
clip never replays a stale result.  Parallel runs consult the cache in
the parent loop and ship only misses to the worker pool.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.fracture.base import FractureResult, Fracturer
from repro.mask.constraints import FractureSpec
from repro.mask.cost import MaskCostModel
from repro.mask.io import save_solution
from repro.mask.shape import MaskShape
from repro.obs import TelemetryRecorder, get_logger, get_recorder, recording

logger = get_logger(__name__)


@dataclass(slots=True)
class MdpReport:
    """Aggregate outcome of an MDP batch run."""

    results: list[FractureResult] = field(default_factory=list)

    @property
    def total_shots(self) -> int:
        return sum(r.shot_count for r in self.results)

    @property
    def total_runtime_s(self) -> float:
        return sum(r.runtime_s for r in self.results)

    @property
    def feasible_count(self) -> int:
        return sum(1 for r in self.results if r.feasible)

    @property
    def all_feasible(self) -> bool:
        return self.feasible_count == len(self.results)

    def shots_per_shape(self) -> float:
        if not self.results:
            return 0.0
        return self.total_shots / len(self.results)

    def summary(self) -> str:
        lines = [r.summary() for r in self.results]
        lines.append(
            f"total: {self.total_shots} shots over {len(self.results)} shapes, "
            f"{self.feasible_count} feasible, {self.total_runtime_s:.1f}s"
        )
        return "\n".join(lines)


class MdpPipeline:
    """Fracture a batch of shapes and aggregate mask-level economics."""

    def __init__(
        self,
        fracturer: Fracturer,
        spec: FractureSpec = FractureSpec(),
        cost_model: MaskCostModel = MaskCostModel(),
    ):
        self.fracturer = fracturer
        self.spec = spec
        self.cost_model = cost_model

    def run(
        self,
        shapes: Sequence[MaskShape],
        output_dir: str | Path | None = None,
        verbose: bool = False,
        workers: int = 1,
        before_clip: Callable[[str], None] | None = None,
    ) -> MdpReport:
        """Fracture every shape; optionally persist per-shape solutions.

        ``workers > 1`` fractures shapes in parallel processes — the
        per-shape independence of mask fracturing (paper §2) makes the
        batch embarrassingly parallel.  Results keep input order either
        way.  When a telemetry recorder is installed, each worker
        collects its own buffer and the parent merges them on join, so
        parallel runs lose no observability.

        ``before_clip(name)`` runs before each shape is looked up or
        fractured; what it raises stops the batch there (the daemon's
        stop check).  Each shape emits ``clip_start`` and ``clip_done``
        events.  Each solution is written, and each fresh result stored
        in the fracturer's cache, as soon as it finishes, so a batch
        stopped part way keeps every finished shape.
        """
        obs = get_recorder()
        out = Path(output_dir) if output_dir is not None else None
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        results: list[FractureResult | None] = [None] * len(shapes)

        def finish(index: int, result: FractureResult) -> None:
            shape = shapes[index]
            results[index] = result
            obs.event(
                "clip_done", clip=shape.name,
                cached=bool(result.extra.get("cache_hit")),
                shots=result.shot_count, feasible=result.feasible,
            )
            if verbose:
                logger.info("%s", result.summary())
            if out is not None:
                save_solution(
                    result.shots,
                    self.spec,
                    out / f"{shape.name or 'shape'}.solution.json",
                    clip_name=shape.name,
                    metadata={
                        "method": result.method,
                        "runtime_s": result.runtime_s,
                        "failing_pixels": result.report.total_failing,
                    },
                )

        parallel = workers > 1 and len(shapes) > 1
        with obs.span("mdp.batch", shapes=len(shapes), workers=workers):
            pending: list[int] = []
            for index, shape in enumerate(shapes):
                if before_clip is not None:
                    before_clip(shape.name)
                obs.event("clip_start", clip=shape.name)
                if not parallel:
                    # The cache hook stays attached, so within-batch
                    # duplicates hit as soon as their first instance
                    # finishes.
                    with obs.span("mdp.shape", shape=shape.name):
                        finish(index, self.fracturer.fracture(shape, self.spec))
                    continue
                # Parallel dispatch pre-consults so known work never
                # ships to the pool.
                hit = self.fracturer.fracture_cached(shape, self.spec)
                if hit is None:
                    pending.append(index)
                else:
                    finish(index, hit)
            fresh = self._run_parallel([shapes[i] for i in pending], workers)
            for index, result in zip(pending, fresh):
                finish(index, result)
        if self.fracturer.cache is not None:
            hits = sum(1 for r in results if r.extra.get("cache_hit"))
            obs.manifest_section(
                "mdp_batch",
                {"shapes": len(shapes), "fresh": len(shapes) - hits,
                 "cache_hits": hits},
            )
        return MdpReport(results=list(results))

    def _run_parallel(
        self, shapes: Sequence[MaskShape], workers: int
    ) -> Iterator[FractureResult]:
        """Each shape's fresh result, in order, as the pool yields it."""
        from concurrent.futures import ProcessPoolExecutor

        obs = get_recorder()
        # The cache holds a lock (unpicklable) and would be copied per
        # worker anyway; the parent loop already consulted it, so ship
        # a bare copy of the fracturer and store each result here as
        # the pool yields it — a shape that fails later cannot cost the
        # shapes that finished before it.
        bare = copy.copy(self.fracturer)
        bare.cache = None
        jobs = [(bare, shape, self.spec, obs.enabled) for shape in shapes]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = pool.map(_fracture_job, jobs)
            for shape, (result, telemetry) in zip(shapes, outcomes):
                if telemetry is not None:
                    obs.merge_child(telemetry, label=shape.name or "shape")
                self.fracturer.store_cached(shape, self.spec, result)
                yield result

    def projected_saving(
        self, baseline: MdpReport, improved: MdpReport
    ) -> dict[str, float]:
        """Mask-level economics of an improved fracturing flow.

        Extrapolates the per-shape average shot reduction to a full mask
        using the cost model (paper §1: 10 % fewer shots ≈ 2 % mask cost).
        """
        base = baseline.total_shots
        new = improved.total_shots
        if base <= 0:
            raise ValueError("baseline has no shots")
        reduction = 1.0 - new / base
        return {
            "shot_reduction": reduction,
            "mask_cost_saving_fraction": self.cost_model.cost_saving_fraction(
                reduction
            ),
            "mask_set_saving_usd": self.cost_model.mask_set_saving_usd(reduction),
        }


def _fracture_job(job: tuple) -> tuple[FractureResult, list[dict] | None]:
    """Module-level worker so ProcessPoolExecutor can pickle the call.

    When the parent had telemetry enabled, the worker records into a
    fresh per-process recorder and ships its records back alongside the
    result for the parent to merge — recorders themselves never cross
    the process boundary.
    """
    fracturer, shape, spec, telemetry_enabled = job
    if not telemetry_enabled:
        return fracturer.fracture(shape, spec), None
    worker_recorder = TelemetryRecorder()
    with recording(worker_recorder):
        result = fracturer.fracture(shape, spec)
    worker_recorder.emit_metrics()
    return result, worker_recorder.records
