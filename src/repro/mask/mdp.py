"""Multi-shape mask data preparation pipeline: the one clip loop.

A full-field mask contains billions of polygons; each is fractured
independently (paper §2).  :meth:`MdpPipeline.run` is the batch loop
every front end runs over its clips — ``fracture`` and ``mdp`` on the
CLI, daemon jobs (:mod:`repro.service.executor`), a GDSII layout's
templates (:func:`repro.mask.hierarchy.fracture_layout`) and the e2e
benchmark: fracture every shape, verify, persist each solution as it
finishes, and aggregate shot counts and write-time/cost projections.

Work avoidance is the loop's own store, the
:class:`~repro.fracture.cache.FractureCache` passed as
``MdpPipeline(..., cache=...)``: the CLI's ``--fracture-cache DIR`` or
the daemon's warm result cache.  The loop looks every shape up before
fracturing it and stores every fresh result as soon as it finishes, on
one path for one worker and for the pool.  Repeated geometry inside
one batch, across batches, or already fractured by another front end
hits by canonical content hash, costs a fingerprint and no raster, and
is served by exact shot translation; a shape whose geometry is already
being fractured in this batch waits for that result instead of being
fractured twice.  With a persisted store an interrupted batch resumes
by re-running against the same directory: finished shapes replay
bit-identically and only the remainder is fractured.  The key holds
geometry, spec, method and window, so a changed spec, method or clip
never replays a stale result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.fracture.base import FractureResult, Fracturer
from repro.fracture.cache import (
    FractureCache,
    fingerprint_polygon,
    result_from_payload,
    result_to_payload,
)
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
    """Fracture a batch of shapes and aggregate mask-level economics.

    ``cache`` is the batch's result store (``None`` fractures every
    shape); entries are keyed by the fracturer's ``cache_method`` (or
    ``name``) and ``cache_window_nm``.
    """

    def __init__(
        self,
        fracturer: Fracturer,
        spec: FractureSpec = FractureSpec(),
        cost_model: MaskCostModel = MaskCostModel(),
        cache: FractureCache | None = None,
    ):
        self.fracturer = fracturer
        self.spec = spec
        self.cost_model = cost_model
        self.cache = cache

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
        in :attr:`cache`, as soon as it finishes, so a batch stopped
        part way keeps every finished shape.
        """
        obs = get_recorder()
        out = Path(output_dir) if output_dir is not None else None
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        results: list[FractureResult | None] = [None] * len(shapes)
        method = self.fracturer.cache_method or self.fracturer.name
        window_nm = self.fracturer.cache_window_nm
        # Store key and frame of each shape, and the later shapes that
        # wait on a key whose first shape is being fractured.
        keys: list[tuple[str, tuple[float, float]]] = []
        waiting: dict[str, list[int]] = {}

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

        def lookup(index: int, start: float) -> bool:
            """Finish shape ``index`` from the store; false on a miss."""
            key, frame = keys[index]
            payload = self.cache.get(key)
            if payload is None:
                obs.incr("cache.fracture.misses")
                return False
            result = result_from_payload(
                payload, shape_name=shapes[index].name, frame=frame,
                lookup_s=time.perf_counter() - start,
            )
            obs.incr("cache.fracture.hits")
            obs.incr("fracture.shapes")
            obs.observe("fracture.shots", result.shot_count)
            finish(index, result)
            return True

        def misses() -> Iterator[int]:
            """Each shape the store cannot serve, as ``_fracture`` pulls it."""
            for index, shape in enumerate(shapes):
                if before_clip is not None:
                    before_clip(shape.name)
                obs.event("clip_start", clip=shape.name)
                if self.cache is None:
                    yield index
                    continue
                start = time.perf_counter()
                keys.append(fingerprint_polygon(
                    shape.polygon, self.spec, method, window_nm
                ))
                key = keys[index][0]
                if key in waiting:
                    waiting[key].append(index)
                elif not lookup(index, start):
                    waiting[key] = []
                    yield index

        with obs.span("mdp.batch", shapes=len(shapes), workers=workers):
            for index, result in self._fracture(shapes, misses(), workers):
                if self.cache is None:
                    finish(index, result)
                    continue
                key, frame = keys[index]
                self.cache.put(key, result_to_payload(result, frame=frame))
                finish(index, result)
                for duplicate in waiting.pop(key):
                    lookup(duplicate, time.perf_counter())
        if self.cache is not None:
            hits = sum(1 for r in results if r.extra.get("cache_hit"))
            obs.manifest_section(
                "mdp_batch",
                {"shapes": len(shapes), "fresh": len(shapes) - hits,
                 "cache_hits": hits},
            )
        return MdpReport(results=list(results))

    def _fracture(
        self, shapes: Sequence[MaskShape], indices: Iterable[int], workers: int
    ) -> Iterator[tuple[int, FractureResult]]:
        """``(index, fresh result)`` for each of ``indices``, in order.

        One worker, or a batch of one shape, fractures each shape as it
        is pulled, so the lookup of the next shape sees every result
        stored before it; the pool pulls every index up front and yields
        each result as it lands.
        """
        obs = get_recorder()
        if workers <= 1 or len(shapes) <= 1:
            for index in indices:
                with obs.span("mdp.shape", shape=shapes[index].name):
                    result = self.fracturer.fracture(shapes[index], self.spec)
                yield index, result
            return
        from concurrent.futures import ProcessPoolExecutor

        indices = list(indices)
        jobs = [
            (self.fracturer, shapes[index], self.spec, obs.enabled)
            for index in indices
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = pool.map(_fracture_job, jobs)
            for index, (result, telemetry) in zip(indices, outcomes):
                if telemetry is not None:
                    obs.merge_child(telemetry, label=shapes[index].name or "shape")
                yield index, result

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
