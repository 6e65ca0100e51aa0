"""Job execution: one job, one worker thread, isolated telemetry.

:func:`execute_job` is the bridge between the asyncio server and the
synchronous fracturing library.  It runs inside a thread-pool worker
and composes the pieces the earlier PRs built:

* a per-job :class:`~repro.obs.TelemetryRecorder` installed via
  ``thread_recording`` — thread-scoped, so concurrent jobs never mix
  spans or counters — streaming live to the job's ``stream.jsonl``,
  the job's one telemetry file (append mode on resumed attempts: one
  stream, and so one folded payload, tells the whole story);
* the one clip loop, :meth:`~repro.mask.mdp.MdpPipeline.run`, which
  ``fracture`` and ``mdp`` run too, with a ``before_clip`` hook for
  the stop check and the heartbeat task;
* the shared :class:`~repro.service.caches.WarmCaches` — its result
  cache is the batch loop's store (unless the job sets
  ``use_result_cache: false``), so a clip is looked up as in a CLI
  run: a hit skips rasterization, fracture *and* verification and
  counts as ``cache.fracture.hits``; and every ``IntensityMap`` built
  on a miss attaches to the warm profile bank automatically;
* the fault-tolerant tiled runtime — windowed jobs get their own tile
  store under the job directory and a ``stop_check`` wired to the
  daemon's shutdown/cancel events, so SIGTERM stops mid-clip and the
  next attempt replays the settled tiles bit-identically.  The store
  is per job, not the shared result cache: resume works without
  ``serve --fracture-cache``, and tile entries never churn the warm
  result cache.  The tile runner takes the job's trace id from the
  job's recorder, which this thread has installed.

Cancellation and interruption surface as typed exceptions
(:class:`JobCancelled`, :class:`JobInterrupted`) so the server can map
them onto the job state machine without string matching.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any

from repro.fracture.base import FractureResult
from repro.fracture.cache import FractureCache, result_to_payload
from repro.fracture.runtime import RunInterrupted, RuntimePolicy
from repro.fracture.windowed import WindowedFracturer
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.mask.constraints import FractureSpec
from repro.mask.io import spec_from_dict, spec_to_dict
from repro.mask.mdp import MdpPipeline, PolygonShapes
from repro.methods import make_fracturer
from repro.obs import (
    HeartbeatWriter,
    TelemetryRecorder,
    TelemetryStream,
    atomic_write_text,
    ensure_disk_space,
    thread_recording,
)
from repro.service.caches import WarmCaches
from repro.service.jobs import JobPaths, JobRecord

__all__ = [
    "JOB_HEARTBEAT_INTERVAL_S",
    "JobCancelled",
    "JobControl",
    "JobInterrupted",
    "execute_job",
]

#: Per-job heartbeat publish interval; the daemon's ``stats`` op treats
#: a file older than a few intervals as ``no_heartbeat``.
JOB_HEARTBEAT_INTERVAL_S = 2.0


class JobCancelled(Exception):
    """The job was cancelled by a client while running."""


class JobInterrupted(Exception):
    """The daemon is shutting down; the job stopped and can resume."""


class JobControl:
    """Stop flags the server shares with a running job's thread.

    ``cancel`` targets one job (client ``cancel`` op); ``stop`` is the
    daemon-wide shutdown flag (SIGTERM with interrupt semantics).  Both
    are polled by the tiled runtime between tile settlements and by the
    executor between clips, so reaction latency is one tile / one clip.

    ``limits`` carries the daemon's :class:`ServiceLimits` (or ``None``
    outside a guarded daemon) into the worker thread — the executor
    reads the disk floor from it.  ``over_budget`` is set by the
    server's watchdog *before* it flips ``cancel``, so the server can
    tell a budget kill (typed ``over_budget`` failure, optionally
    degraded and requeued) from a client cancellation.
    """

    def __init__(
        self,
        stop: threading.Event | None = None,
        limits: "ServiceLimits | None" = None,  # noqa: F821 — lazy type
    ):
        self.cancel = threading.Event()
        self.stop = stop if stop is not None else threading.Event()
        self.limits = limits
        self.over_budget: str | None = None

    def should_stop(self) -> bool:
        return self.cancel.is_set() or self.stop.is_set()

    def raise_if_stopped(self) -> None:
        if self.cancel.is_set():
            raise JobCancelled()
        if self.stop.is_set():
            raise JobInterrupted()

    @property
    def disk_floor_bytes(self) -> int | None:
        return self.limits.disk_floor_bytes if self.limits is not None else None


def _build_spec(fields: dict[str, float]) -> FractureSpec:
    base = spec_to_dict(FractureSpec())
    base.update(fields)
    return spec_from_dict(base)


def _make_runner(job: dict[str, Any], paths: JobPaths, control: JobControl):
    """Instantiate the fracturer a job asked for (windowed when sized).

    A windowed job stores its settled tiles in its own store under the
    job directory, whatever the attempt: entries are content-keyed, so
    a later attempt replays exactly the tiles whose inputs are unchanged.
    """
    inner = make_fracturer(job["method"])
    window_nm = job.get("window_nm")
    if window_nm is None:
        return inner
    runtime = RuntimePolicy(
        store=FractureCache(
            persist_dir=paths.checkpoint_dir,
            min_free_bytes=control.disk_floor_bytes,
        ),
        stop_check=control.should_stop,
    )
    return WindowedFracturer(
        inner,
        window_nm=float(window_nm),
        workers=int(job.get("tile_workers", 1)),
        runtime=runtime,
    )


def _clip_payload(result: FractureResult) -> dict[str, Any]:
    """One clip's ``result.json`` entry: the flat keys of its cache payload."""
    payload = result_to_payload(result)
    return {
        key: payload[key]
        for key in (
            "shots", "shot_count", "feasible", "failing_px", "runtime_s",
            "extra", "method",
        )
    }


def execute_job(
    record: JobRecord,
    paths: JobPaths,
    caches: WarmCaches | None = None,
    control: JobControl | None = None,
) -> dict[str, Any]:
    """Run one job to completion; returns the ``result.json`` payload.

    Raises :class:`JobCancelled` / :class:`JobInterrupted` when stopped
    (telemetry stream detached, settled tiles stored) and propagates any
    other exception as a job failure after closing the stream with
    ``status="error"``.
    """
    control = control if control is not None else JobControl()
    job = record.spec
    paths.ensure()
    resume = bool(record.resume)
    stream = TelemetryStream(paths.stream, append=resume)
    recorder = TelemetryRecorder(
        manifest={
            "job_id": record.job_id,
            "attempt": record.attempts,
            "resume": resume,
            "method": job["method"],
            "priority": record.priority,
        },
        stream=stream,
        trace=record.trace,
    )
    # Per-job heartbeat: the writer's daemon thread keeps publishing
    # even when the work loop wedges inside one clip, so the daemon's
    # ``stats`` op can tell a *stuck* job (fresh beat, ancient task)
    # from a *dead* one (stale file).  Unlinked on every exit path —
    # a lingering file means the executor thread itself died.
    heartbeat = HeartbeatWriter(
        paths.heartbeats_dir,
        interval_s=JOB_HEARTBEAT_INTERVAL_S,
        name=record.job_id,
        meta={
            "job_id": record.job_id,
            "attempt": record.attempts,
            **(
                {"trace_id": record.trace["trace_id"]}
                if record.trace and record.trace.get("trace_id")
                else {}
            ),
        },
    ).start()
    status = "error"
    try:
        with thread_recording(recorder):
            payload = _run_clips(
                record, paths, caches, control, recorder, heartbeat
            )
        status = "ok"
        return payload
    except JobCancelled:
        status = "cancelled"
        raise
    except JobInterrupted:
        status = "interrupted"
        raise
    finally:
        heartbeat.stop(unlink=True)
        recorder.emit_metrics()
        if status == "interrupted":
            # The resumed attempt appends to this stream; the terminal
            # record must come from the attempt that finishes the job.
            recorder.event("job_interrupted")
            stream.detach()
        else:
            stream.close(status)


def _run_clips(
    record: JobRecord,
    paths: JobPaths,
    caches: WarmCaches | None,
    control: JobControl,
    recorder: TelemetryRecorder,
    heartbeat: HeartbeatWriter | None = None,
) -> dict[str, Any]:
    job = record.spec
    spec = _build_spec(job.get("spec", {}))
    runner = _make_runner(job, paths, control)
    # The resolved spec and registry method name match the library's
    # cache keys exactly, so a clip fractured by an `mdp
    # --fracture-cache` run warms the daemon and vice versa — and a
    # *translated* clip of known geometry hits too, served by exact
    # shot translation.
    store = (
        caches.results
        if caches is not None and job.get("use_result_cache", True)
        else None
    )
    recorder.event(
        "job_start",
        job_id=record.job_id,
        attempt=record.attempts,
        resume=bool(record.resume),
        clips=len(job["clips"]),
        method=job["method"],
    )
    names = sorted(job["clips"])
    # Each clip is rasterized as the loop reaches it and freed after, so
    # a job holds one clip's raster at a time.
    shapes = PolygonShapes(
        [
            (name, Polygon(Point(x, y) for x, y in job["clips"][name]))
            for name in names
        ],
        pitch=spec.pitch, margin=spec.grid_margin,
    )

    def before_clip(name: str) -> None:
        control.raise_if_stopped()
        if heartbeat is not None:
            heartbeat.set_task(name, record.attempts)

    started = time.perf_counter()
    try:
        report = MdpPipeline(runner, spec, cache=store).run(
            shapes, before_clip=before_clip
        )
    except RunInterrupted as stopped:
        # The tiled runtime stops for either flag; map back to the
        # one that fired (cancel wins: it is job-specific intent).  The
        # clip is the one the last `clip_start` event names; the counts
        # are of the job kind that was running (tiles or windows).
        recorder.event(
            "clip_interrupted", job_kind=stopped.label,
            tiles_done=stopped.done, tiles_total=stopped.total,
        )
        control.raise_if_stopped()
        raise  # stop_check stale trip with no flag set: real error
    if heartbeat is not None:
        heartbeat.clear_task()
    clips_out = {
        name: {**_clip_payload(result),
               "cached": bool(result.extra.get("cache_hit"))}
        for name, result in zip(names, report.results)
    }
    wall_s = time.perf_counter() - started
    if caches is not None:
        stats = caches.stats()
        recorder.gauge("cache.profile.layouts", stats["profile"]["layouts"])
        recorder.gauge("cache.profile.profiles", stats["profile"]["profiles"])
        recorder.gauge("cache.result.entries", stats["result"]["entries"])
        # Surface the full unified cache stats in the run manifest too,
        # so offline trace/metrics tooling sees the same numbers the
        # daemon's ``stats`` op reports.
        recorder.manifest_section("caches", stats)
    payload = {
        "schema": "repro.service.result/v1",
        "job_id": record.job_id,
        "name": job.get("name", ""),
        "method": job["method"],
        "spec": spec_to_dict(spec),
        "window_nm": job.get("window_nm"),
        "attempts": record.attempts,
        "resumed": bool(record.resume),
        "wall_s": wall_s,
        "clips": clips_out,
        "totals": {
            "clips": len(clips_out),
            "shots": sum(c["shot_count"] for c in clips_out.values()),
            "feasible": all(c["feasible"] for c in clips_out.values()),
            "cached_clips": sum(1 for c in clips_out.values() if c["cached"]),
        },
    }
    # Refuse to start the result write when the disk floor is breached:
    # DiskFullError propagates as a typed job failure and the atomic
    # tmp+replace below never leaves a torn result.json behind.
    ensure_disk_space(paths.root, control.disk_floor_bytes)
    atomic_write_text(paths.result_json, json.dumps(payload))
    return payload
