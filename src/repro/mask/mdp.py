"""Multi-shape mask data preparation pipeline.

A full-field mask contains billions of polygons; each is fractured
independently (paper §2).  :class:`MdpPipeline` is the batch driver a
downstream user runs over a clip library: fracture every shape, verify,
aggregate shot counts and write-time/cost projections, and optionally
persist the solutions.

Two layers of work avoidance compose on top of the batch loop:

* a :class:`~repro.fracture.cache.FractureCache` on the fracturer
  (``fracturer.cache``) — repeated geometry inside one batch, across
  batches (on-disk cache), or already fractured by the service hits by
  canonical content hash and is served by exact shot translation; the
  pipeline consults it in the parent loop so parallel runs only ship
  cache *misses* to the worker pool;
* a cross-shape **batch journal** (``journal=``/``resume=``) — a JSONL
  index of finished shapes keyed by the same canonical fingerprint.
  ``resume=True`` replays completed shapes from the journal and
  fractures only the remainder, so an interrupted ``mdp`` batch picks
  up where it stopped even for non-windowed methods (the windowed
  per-tile checkpoints from PR 4 cover interruption *within* a shape;
  the journal covers interruption *between* shapes).  Entries are
  fingerprint-validated — a changed spec, method or clip geometry
  silently invalidates the stale entry — and a torn final line (crash
  mid-append) is ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.fracture.base import FractureResult, Fracturer
from repro.fracture.cache import (
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


class BatchJournal:
    """Cross-shape resume index for an MDP batch run.

    One JSON line per finished shape: the shape's canonical fingerprint
    (geometry + spec + method + window — everything that could change
    the shots) plus the full result payload.  Loading tolerates a torn
    trailing line; replay only uses an entry whose fingerprint matches
    the *current* request, so edited clips or parameter changes can
    never replay stale shots.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[str, dict[str, Any]] = {}

    @property
    def entries(self) -> dict[str, dict[str, Any]]:
        return self._entries

    def load(self) -> int:
        """Read the journal from disk; returns the usable entry count."""
        self._entries = {}
        try:
            text = self.path.read_text()
        except OSError:
            return 0
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # Torn tail from a crash mid-append: everything before
                # it is intact (appends are line-atomic in practice and
                # validated here regardless).
                continue
            if (
                isinstance(record, dict)
                and record.get("v") == 1
                and "fingerprint" in record
                and "payload" in record
            ):
                self._entries[record["fingerprint"]] = record["payload"]
        return len(self._entries)

    def get(self, fingerprint: str) -> dict[str, Any] | None:
        return self._entries.get(fingerprint)

    def append(
        self, fingerprint: str, shape_name: str, payload: dict[str, Any]
    ) -> None:
        record = {
            "v": 1,
            "shape": shape_name,
            "fingerprint": fingerprint,
            "payload": payload,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
            fh.flush()
        self._entries[fingerprint] = payload


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

    def _fingerprint(self, shape: MaskShape) -> tuple[str, tuple[float, float]]:
        method = self.fracturer.cache_method or self.fracturer.name
        return fingerprint_polygon(
            shape.polygon, self.spec, method, self.fracturer.cache_window_nm
        )

    def run(
        self,
        shapes: Sequence[MaskShape],
        output_dir: str | Path | None = None,
        verbose: bool = False,
        workers: int = 1,
        journal: str | Path | None = None,
        resume: bool = False,
    ) -> MdpReport:
        """Fracture every shape; optionally persist per-shape solutions.

        ``workers > 1`` fractures shapes in parallel processes — the
        per-shape independence of mask fracturing (paper §2) makes the
        batch embarrassingly parallel.  Results keep input order either
        way.  When a telemetry recorder is installed, each worker
        collects its own buffer and the parent merges them on join, so
        parallel runs lose no observability.

        With a fracture cache on the fracturer, hits are served in the
        parent loop and only misses are dispatched.  ``journal`` points
        at a cross-shape JSONL index (:class:`BatchJournal`): every
        finished shape is appended, and ``resume=True`` replays
        fingerprint-matching entries instead of re-fracturing.
        """
        obs = get_recorder()
        report = MdpReport()
        out = Path(output_dir) if output_dir is not None else None
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        batch_journal = BatchJournal(journal) if journal is not None else None
        if batch_journal is not None and resume:
            replayable = batch_journal.load()
            obs.event("mdp.journal_loaded", entries=replayable)
        cache = self.fracturer.cache
        need_fp = cache is not None or batch_journal is not None
        results: list[FractureResult | None] = [None] * len(shapes)
        fingerprints: list[tuple[str, tuple[float, float]] | None] = [None] * len(shapes)
        resumed = 0
        with obs.span("mdp.batch", shapes=len(shapes), workers=workers):
            pending: list[tuple[int, MaskShape]] = []
            for index, shape in enumerate(shapes):
                if need_fp:
                    fingerprints[index] = self._fingerprint(shape)
                if batch_journal is not None and resume:
                    fingerprint, offset = fingerprints[index]
                    payload = batch_journal.get(fingerprint)
                    if payload is not None:
                        results[index] = result_from_payload(
                            payload, shape_name=shape.name, frame=offset
                        )
                        results[index].extra["resumed"] = True
                        resumed += 1
                        obs.incr("mdp.journal_replays")
                        continue
                if cache is not None and workers > 1:
                    # Parallel dispatch pre-consults so known work never
                    # ships to the pool; the serial path below leaves the
                    # hook attached instead, so within-batch duplicates
                    # hit as soon as their first instance finishes.
                    hit = self.fracturer.fracture_cached(shape, self.spec)
                    if hit is not None:
                        results[index] = hit
                        continue
                pending.append((index, shape))
            if workers > 1 and len(pending) > 1:
                fresh = self._run_parallel([s for _, s in pending], workers)
            else:
                fresh = []
                for _, shape in pending:
                    with obs.span("mdp.shape", shape=shape.name):
                        fresh.append(self.fracturer.fracture(shape, self.spec))
            for (index, shape), result in zip(pending, fresh):
                results[index] = result
                if not need_fp:
                    continue
                fingerprint, offset = fingerprints[index]
                payload = result_to_payload(result, frame=offset)
                if cache is not None and not result.extra.get("cache_hit"):
                    cache.put(fingerprint, payload)
                if batch_journal is not None and batch_journal.get(fingerprint) is None:
                    batch_journal.append(fingerprint, shape.name, payload)
        if need_fp:
            stats = {
                "shapes": len(shapes),
                "fresh": sum(
                    1
                    for r in results
                    if r is not None
                    and not r.extra.get("cache_hit")
                    and not r.extra.get("resumed")
                ),
                "cache_hits": sum(
                    1
                    for r in results
                    if r is not None
                    and r.extra.get("cache_hit")
                    and not r.extra.get("resumed")
                ),
                "journal_replays": resumed,
            }
            obs.manifest_section("mdp_batch", stats)
        for shape, result in zip(shapes, results):
            report.results.append(result)
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
        return report

    def _run_parallel(
        self, shapes: Sequence[MaskShape], workers: int
    ) -> list[FractureResult]:
        from concurrent.futures import ProcessPoolExecutor

        obs = get_recorder()
        # The cache holds a lock (unpicklable) and would be copied per
        # worker anyway; the parent loop already consulted it, so ship
        # the fracturer bare and let the parent store the results.
        cache = self.fracturer.cache
        self.fracturer.cache = None
        try:
            jobs = [
                (self.fracturer, shape, self.spec, obs.enabled)
                for shape in shapes
            ]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_fracture_job, jobs))
        finally:
            self.fracturer.cache = cache
        results = []
        for shape, (result, telemetry) in zip(shapes, outcomes):
            if telemetry is not None:
                obs.merge_child(telemetry, label=shape.name or "shape")
            results.append(result)
        return results

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
