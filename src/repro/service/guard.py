"""Defense-in-depth for the fracture daemon: admission, budgets, disk.

The daemon of PR 6 trusts its clients: any parseable submission is
enqueued, any admitted job runs until it finishes, and every write
assumes the disk has room.  That is fine on a workstation socket and
fatal under untrusted traffic.  This module is the guard layer the
server threads through every request:

* **Admission control** — :class:`ServiceLimits` bounds everything a
  client can make the daemon do (line size, clip count, vertex count,
  coordinate magnitude, spec ranges, window/worker/priority ranges),
  and :func:`validate_admission` turns a violation into a typed
  :class:`AdmissionError` the server answers as a ``job_rejected``
  response — *before* a queue slot, a job directory, or a worker
  thread is spent on it.
* **Rate limiting** — :class:`ClientRateLimiter` is a per-client token
  bucket (keyed on the client-declared id, anonymous traffic shares
  one bucket) with a fair-share cap on queued jobs per client, layered
  on top of the queue's bounded-depth backpressure.
* **Resource governance** — :class:`JobWatchdog` enforces a per-job
  wall-clock budget and an RSS budget read from the existing per-job
  heartbeat files (:mod:`repro.obs.resources`).  A thread of the
  daemon writes those files, so their RSS is the daemon process's, not
  the job's: tile-pool workers are not counted, and crossing the RSS
  budget flags every running job at once.  An over-budget job is
  cancelled within
  one watchdog interval and surfaces as a typed ``over_budget``
  failure — or, when ``degrade_over_budget`` is set and the job asked
  for an expensive method, is requeued once on the deterministic
  ``partition`` baseline (PR 4's degradation ladder, service-level).
* **Disk guard** — an on-disk
  :class:`~repro.fracture.cache.FractureCache` store frees space
  LRU-by-mtime (:func:`repro.fracture.cache.evict_lru`) when free
  space falls under the floor, then skips the write — the shared
  result cache and each windowed job's tile store alike.  The result
  writer calls :func:`repro.obs.ensure_disk_space`, so a full disk
  fails the affected job loudly instead of leaving torn files.

Everything here is synchronous and event-loop-agnostic; the server owns
the scheduling (the watchdog runs as an asyncio task calling
:meth:`JobWatchdog.tick`), and tests drive every piece directly.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "AdmissionError",
    "ClientRateLimiter",
    "JobOverBudget",
    "JobWatchdog",
    "ServiceLimits",
    "TokenBucket",
    "validate_admission",
]


class AdmissionError(ValueError):
    """A submission refused by the admission validator (typed).

    ``reason`` is a stable machine slug (``too_many_clips``,
    ``clip_too_complex``, ``coords_out_of_range``, ...); the message is
    the human half.  The server answers these with a ``job_rejected``
    response carrying both.
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class JobOverBudget(Exception):
    """A running job exceeded its wall-clock or RSS budget."""

    def __init__(self, job_id: str, reason: str, detail: str):
        super().__init__(f"{job_id} over budget ({reason}): {detail}")
        self.job_id = job_id
        self.reason = reason  # "wall" | "rss"
        self.detail = detail


#: Per-field sane ranges for client-supplied spec overrides.  All spec
#: fields are physical lengths/ratios: zero or negative values would
#: divide-by-zero or spin the refinement loop, and absurdly large ones
#: allocate absurd grids.
SPEC_RANGES: dict[str, tuple[float, float]] = {
    "sigma": (1e-3, 1e4),
    "gamma": (0.0, 1e4),
    "pitch": (1e-3, 1e5),
    "rho": (1e-6, 1.0),
    "lmin": (0.0, 1e6),
}


@dataclass
class ServiceLimits:
    """Everything the daemon will let one client / one job consume.

    ``None`` disables an individual guard; the defaults bound a hostile
    client without getting in the way of the benchmark suite.  Use
    :meth:`validated` after hand-construction — the CLI funnels every
    ``repro serve --...`` flag through it so nonsense (negative
    budgets, zero timeouts) is rejected at argparse level with a clear
    message instead of surfacing as weird daemon behaviour.
    """

    # -- admission: request shape bounds ------------------------------------
    max_line_bytes: int = 32 * 1024 * 1024
    max_clips: int = 1024
    max_clip_vertices: int = 100_000
    max_total_vertices: int = 1_000_000
    max_abs_coord: float = 1e9
    max_tile_workers: int = 64
    max_window_nm: float = 1e7
    priority_min: int = -100
    priority_max: int = 100
    # -- connection hygiene --------------------------------------------------
    read_deadline_s: float | None = 30.0
    idle_timeout_s: float | None = 300.0
    # -- rate limiting / fair share ------------------------------------------
    rate_per_s: float | None = None  # tokens per second per client
    rate_burst: int = 20
    queue_share: float | None = None  # max fraction of queue per client
    # -- per-job budgets -----------------------------------------------------
    job_wall_budget_s: float | None = None
    job_rss_budget_bytes: int | None = None
    watchdog_interval_s: float = 1.0
    degrade_over_budget: bool = False
    # -- disk ----------------------------------------------------------------
    disk_floor_bytes: int | None = None

    def validated(self) -> "ServiceLimits":
        """Self, after rejecting impossible values with clear messages."""
        positive = [
            "max_line_bytes", "max_clips", "max_clip_vertices",
            "max_total_vertices", "max_abs_coord", "max_tile_workers",
            "max_window_nm", "watchdog_interval_s",
        ]
        for name in positive:
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        optional_positive = [
            "read_deadline_s", "idle_timeout_s", "rate_per_s",
            "job_wall_budget_s", "job_rss_budget_bytes",
        ]
        for name in optional_positive:
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(
                    f"{name} must be positive (or unset), got {value}"
                )
        if self.rate_burst < 1:
            raise ValueError(
                f"rate_burst must be at least 1, got {self.rate_burst}"
            )
        if self.queue_share is not None and not 0.0 < self.queue_share <= 1.0:
            raise ValueError(
                f"queue_share must be in (0, 1], got {self.queue_share}"
            )
        if self.priority_min > self.priority_max:
            raise ValueError(
                f"priority_min {self.priority_min} exceeds "
                f"priority_max {self.priority_max}"
            )
        if self.disk_floor_bytes is not None and self.disk_floor_bytes < 0:
            raise ValueError(
                f"disk_floor_bytes must be non-negative, "
                f"got {self.disk_floor_bytes}"
            )
        return self

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _reject(message: str, reason: str) -> AdmissionError:
    return AdmissionError(message, reason)


def validate_admission(
    spec: dict[str, Any], limits: ServiceLimits
) -> dict[str, Any]:
    """Bounds-check an already-*shape*-validated submission spec.

    Runs after :func:`repro.service.jobs.validate_submission` (which
    owns structural validation and defaulting) and raises a typed
    :class:`AdmissionError` when the well-formed request asks for more
    than the daemon's limits allow.  Returns the spec unchanged on
    success so the server can chain the two validators.
    """
    clips = spec["clips"]
    if len(clips) > limits.max_clips:
        raise _reject(
            f"too many clips: {len(clips)} > limit {limits.max_clips}",
            "too_many_clips",
        )
    total_vertices = 0
    for name, verts in clips.items():
        if len(verts) > limits.max_clip_vertices:
            raise _reject(
                f"clip {name!r}: {len(verts)} vertices > limit "
                f"{limits.max_clip_vertices}",
                "clip_too_complex",
            )
        total_vertices += len(verts)
        for x, y in verts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise _reject(
                    f"clip {name!r}: non-finite coordinate",
                    "coords_out_of_range",
                )
            if abs(x) > limits.max_abs_coord or abs(y) > limits.max_abs_coord:
                raise _reject(
                    f"clip {name!r}: |coordinate| > {limits.max_abs_coord}",
                    "coords_out_of_range",
                )
    if total_vertices > limits.max_total_vertices:
        raise _reject(
            f"job totals {total_vertices} vertices > limit "
            f"{limits.max_total_vertices}",
            "too_many_vertices",
        )
    for key, value in spec.get("spec", {}).items():
        lo, hi = SPEC_RANGES.get(key, (-math.inf, math.inf))
        if not math.isfinite(value) or not lo <= value <= hi:
            raise _reject(
                f"spec field {key}={value} outside sane range "
                f"[{lo}, {hi}]",
                "spec_out_of_range",
            )
    window = spec.get("window_nm")
    if window is not None and not (
        math.isfinite(window) and 0 < window <= limits.max_window_nm
    ):
        raise _reject(
            f"window_nm={window} outside (0, {limits.max_window_nm}]",
            "window_out_of_range",
        )
    if spec["tile_workers"] > limits.max_tile_workers:
        raise _reject(
            f"tile_workers={spec['tile_workers']} > limit "
            f"{limits.max_tile_workers}",
            "too_many_tile_workers",
        )
    if not limits.priority_min <= spec["priority"] <= limits.priority_max:
        raise _reject(
            f"priority={spec['priority']} outside "
            f"[{limits.priority_min}, {limits.priority_max}]",
            "priority_out_of_range",
        )
    return spec


# -- rate limiting -----------------------------------------------------------


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    def __init__(self, rate: float, burst: int):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last = time.monotonic()

    def allow(self, now: float | None = None) -> bool:
        now = time.monotonic() if now is None else now
        elapsed = max(0.0, now - self._last)
        self._last = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class ClientRateLimiter:
    """Per-client token buckets with a bounded client table.

    Clients identify themselves with a free-form ``client_id`` on the
    submit request; anonymous submissions share the ``""`` bucket, so a
    flood that does not even bother to claim an identity is throttled
    collectively.  The table is bounded (LRU eviction of the
    longest-untouched bucket) so an attacker cycling ids cannot grow
    daemon memory.
    """

    def __init__(self, rate: float, burst: int, max_clients: int = 1024):
        self.rate = float(rate)
        self.burst = int(burst)
        self.max_clients = max_clients
        self._buckets: dict[str, TokenBucket] = {}

    def __len__(self) -> int:
        return len(self._buckets)

    def allow(self, client_id: str, now: float | None = None) -> bool:
        bucket = self._buckets.pop(client_id, None)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst)
            while len(self._buckets) >= self.max_clients:
                oldest = next(iter(self._buckets))
                del self._buckets[oldest]
        self._buckets[client_id] = bucket  # re-insert = touch (LRU order)
        return bucket.allow(now)


# -- per-job budgets ---------------------------------------------------------


class JobWatchdog:
    """Wall-clock / RSS budget enforcement over running jobs.

    The server gives the watchdog a view of the running set (callables,
    so no shared mutable state is captured) and an ``over_budget``
    callback; :meth:`tick` is invoked by an asyncio loop every
    ``limits.watchdog_interval_s`` — and directly by tests with a fake
    ``now``.  RSS comes from the per-job heartbeat file the executor
    already publishes (``hb-<job-id>.json``), so a wedged job that
    stops cooperating is still measured.  That file is written by a
    thread of the daemon, so its ``rss_bytes`` is the daemon process's
    RSS (``/proc/self/status``), not the job's own: tile-pool workers
    are separate processes and are not counted, and once the daemon
    crosses the budget every running job is flagged at once.
    """

    def __init__(
        self,
        limits: ServiceLimits,
        heartbeats_dir: str | Path,
        running: Callable[[], dict[str, float]],
        over_budget: Callable[[JobOverBudget], None],
    ):
        self.limits = limits
        self.heartbeats_dir = Path(heartbeats_dir)
        self._running = running  # job_id -> started_unix
        self._over_budget = over_budget
        self._flagged: set[str] = set()

    @property
    def enabled(self) -> bool:
        return (
            self.limits.job_wall_budget_s is not None
            or self.limits.job_rss_budget_bytes is not None
        )

    def forget(self, job_id: str) -> None:
        """Drop the flagged marker once a job leaves the running set."""
        self._flagged.discard(job_id)

    def _job_rss(self, job_id: str) -> int | None:
        path = self.heartbeats_dir / f"hb-{job_id}.json"
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        rss = record.get("rss_bytes")
        return int(rss) if isinstance(rss, (int, float)) else None

    def tick(self, now: float | None = None) -> list[JobOverBudget]:
        """One enforcement pass; returns the violations it reported."""
        now = time.time() if now is None else now
        wall_budget = self.limits.job_wall_budget_s
        rss_budget = self.limits.job_rss_budget_bytes
        violations: list[JobOverBudget] = []
        for job_id, started_unix in self._running().items():
            if job_id in self._flagged:
                continue
            verdict: JobOverBudget | None = None
            if wall_budget is not None and started_unix is not None:
                wall = now - started_unix
                if wall > wall_budget:
                    verdict = JobOverBudget(
                        job_id, "wall",
                        f"ran {wall:.1f}s > budget {wall_budget:.1f}s",
                    )
            if verdict is None and rss_budget is not None:
                rss = self._job_rss(job_id)
                if rss is not None and rss > rss_budget:
                    verdict = JobOverBudget(
                        job_id, "rss",
                        f"rss {rss} bytes > budget {rss_budget}",
                    )
            if verdict is not None:
                self._flagged.add(job_id)
                violations.append(verdict)
                self._over_budget(verdict)
        return violations

