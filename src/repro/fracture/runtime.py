"""Fault-tolerant execution layer for the tiled fracturing executor.

A full-chip run covers thousands of tiles and hours of wall time; one
worker crash, hang or infeasible tile must not abort the run and lose
every completed tile.  This module wraps the pooled work of
:class:`repro.fracture.windowed.WindowedFracturer` — its tiles and its
seam-stitch windows, two :class:`JobKind` s of one runner, each with
its own task, store key and fallback — with:

* **job-identity-preserving result envelopes** — a worker answers
  ``("ok", name, shots, …)`` or ``("error", name, kind, message, …)``
  with ``kind`` one of ``"crash"``, ``"hang"`` or ``"error"``; a dead
  pool settles its in-flight tiles as ``"crash"`` and an overrun
  deadline as ``"hang"``, so every failure is charged to its tile, and
  :class:`PoolBroken` ends the run when the pool cannot be kept alive;
* **per-tile retry** with capped exponential backoff
  (:data:`BACKOFF_S`, :data:`BACKOFF_FACTOR`, :data:`BACKOFF_CAP_S`) and
  **per-tile deadlines** enforced by ``submit``-based scheduling;
* **pool recovery** — a ``BrokenProcessPool`` respawns the pool,
  requeues the tiles that were in flight and *quarantines* the suspects
  to inline (in-parent) execution for their next attempt, so one
  poisonous tile cannot kill worker after worker;
* a **degradation ladder** — a tile that exhausts its retries falls
  back to the deterministic geometric :class:`PartitionFracturer`
  baseline (:func:`partition_fallback`) for that tile, and a stitch
  window to its input shots; either is flagged
  (``windowed.tile_fallbacks`` / ``windowed.window_fallbacks``, the run
  manifest, :attr:`TileOutcome.fallback`) instead of failing the run;
* a **store** (:attr:`RuntimePolicy.store`, a
  :class:`~repro.fracture.cache.FractureCache`): every job whose run
  succeeds is stored under its exact content key
  (:func:`~repro.fracture.cache.tile_fingerprint`,
  :func:`~repro.fracture.cache.window_fingerprint`), so running an
  interrupted run again against the same store replays the settled
  tiles and windows bit-identically and re-executes only the rest;
* a **deterministic failure-injection hook** (:class:`FaultPlan`):
  crash / hang / raise on named tiles, armed per attempt, with a
  seeded random-subset constructor — usable from tests and the CLI
  (``--inject-fault``).

:class:`RuntimePolicy` holds the six settings callers vary; the values
no caller varies are the module constants below, which tests patch.
The trace context and the telemetry switch come from the installed
recorder (:func:`repro.obs.get_recorder`), read once per run.

Determinism: jobs are pure, so a retried attempt reproduces the
original result exactly, and outcomes are returned in job order
regardless of completion order.  Retries, resume and any worker count
therefore keep the merged shot list bit-identical to a fault-free
single-worker run; only fallback jobs deviate, and those are explicitly
flagged.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.fracture.cache import FractureCache, tile_fingerprint
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec
from repro.mask.io import rect_from_list, rect_to_list
from repro.mask.shape import MaskShape
from repro.obs import TelemetryRecorder, get_recorder, recording
from repro.obs.resources import HeartbeatMonitor, HeartbeatWriter

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "InjectedFault",
    "InjectedHang",
    "JobKind",
    "PoolBroken",
    "RunInterrupted",
    "RunStats",
    "RuntimePolicy",
    "TILES",
    "TileOutcome",
    "backoff",
    "fracture_tile",
    "partition_fallback",
    "run_tiles",
]


#: Delay before the first retry of a tile, in seconds; each further
#: retry waits ``BACKOFF_FACTOR`` times longer, up to ``BACKOFF_CAP_S``.
BACKOFF_S = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_S = 2.0

#: Pool respawns one run may spend before it raises :class:`PoolBroken`.
MAX_POOL_RESPAWNS = 8


def backoff(attempt: int) -> float:
    """Delay before the retry that follows failed attempt ``attempt``."""
    raw = BACKOFF_S * BACKOFF_FACTOR ** max(0, attempt - 1)
    return min(raw, BACKOFF_CAP_S)


# -- errors ------------------------------------------------------------------


class PoolBroken(RuntimeError):
    """The process pool could not be kept alive within the respawn budget."""


class RunInterrupted(RuntimeError):
    """A graceful-shutdown hook stopped the run between tile settlements.

    Raised when :attr:`RuntimePolicy.stop_check` returns true.  The run
    stops at a *clean* point: every settled tile is already in the
    store (when there is one), no tile is half-recorded, and the pool
    is torn down by the normal cleanup path — so running again against
    the same store replays the completed tiles bit-identically and
    executes only the rest.  ``done`` / ``total`` report how far the
    run got.
    """

    def __init__(self, done: int, total: int):
        super().__init__(
            f"run interrupted by shutdown hook after {done}/{total} tiles"
        )
        self.done = done
        self.total = total


class InjectedFault(RuntimeError):
    """Raised by :class:`FaultPlan` for the ``raise`` action."""


class InjectedCrash(InjectedFault):
    """Inline stand-in for a worker hard-crash (see :meth:`FaultPlan.fire`)."""


class InjectedHang(InjectedFault):
    """Inline stand-in for a worker hang / surfaced after a survived hang."""


# -- policies ----------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: ``action`` fires on the first ``times`` attempts."""

    action: str  # "crash" | "hang" | "raise"
    times: int = 1


_FAULT_ACTIONS = ("crash", "hang", "raise")


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic failure injection for named jobs.

    ``faults`` maps job names — tiles (``t0,1``) or seam-stitch windows
    (``v0``, ``h1``) — to :class:`FaultSpec`; a fault is armed for
    attempts ``1..times`` of its job, so retried attempts succeed.
    In a pool worker ``crash`` hard-kills the process (``os._exit``) and
    ``hang`` sleeps ``hang_s`` seconds; executed inline (serial path or
    quarantined attempt) both are simulated by raising
    :class:`InjectedCrash` / :class:`InjectedHang` instead — a real
    SIGKILL or hang in the parent would take down the run the layer is
    protecting.
    """

    faults: dict[str, FaultSpec] = field(default_factory=dict)
    hang_s: float = 3600.0

    @classmethod
    def parse(cls, specs: Sequence[str], hang_s: float = 3600.0) -> "FaultPlan":
        """Build a plan from CLI specs ``TILE:ACTION[:TIMES]``.

        Example: ``t0,0:crash`` or ``t1,2:raise:2``.
        """
        faults: dict[str, FaultSpec] = {}
        for spec in specs:
            parts = spec.rsplit(":", 2)
            if len(parts) >= 2 and parts[-1].isdigit() and parts[-2] in _FAULT_ACTIONS:
                tile, action, times = ":".join(parts[:-2]), parts[-2], int(parts[-1])
            elif len(parts) >= 2 and parts[-1] in _FAULT_ACTIONS:
                tile, action, times = ":".join(parts[:-1]), parts[-1], 1
            else:
                raise ValueError(
                    f"bad fault spec {spec!r}: expected TILE:ACTION[:TIMES] "
                    f"with ACTION one of {_FAULT_ACTIONS}"
                )
            if not tile:
                raise ValueError(f"bad fault spec {spec!r}: empty tile name")
            faults[tile] = FaultSpec(action, times)
        return cls(faults=faults, hang_s=hang_s)

    @classmethod
    def seeded(
        cls,
        tile_names: Sequence[str],
        seed: int,
        action: str = "crash",
        fraction: float = 0.3,
        times: int = 1,
        hang_s: float = 3600.0,
    ) -> "FaultPlan":
        """Inject ``action`` on a seeded random subset of ``tile_names``."""
        if action not in _FAULT_ACTIONS:
            raise ValueError(f"unknown fault action {action!r}")
        rng = random.Random(seed)
        chosen = [name for name in tile_names if rng.random() < fraction]
        return cls(
            faults={name: FaultSpec(action, times) for name in chosen},
            hang_s=hang_s,
        )

    def fire(self, tile_name: str, attempt: int, inline: bool) -> None:
        """Execute the fault armed for ``(tile_name, attempt)``, if any."""
        spec = self.faults.get(tile_name)
        if spec is None or attempt > spec.times:
            return
        detail = f"injected {spec.action} on tile {tile_name} (attempt {attempt})"
        if spec.action == "raise":
            raise InjectedFault(detail)
        if spec.action == "crash":
            if inline:
                raise InjectedCrash(detail)
            os._exit(13)
        if spec.action == "hang":
            if inline:
                raise InjectedHang(detail)
            time.sleep(self.hang_s)
            # Only reached when no deadline killed the worker: surface
            # the hang as a retryable failure rather than fake success.
            raise InjectedHang(detail)


@dataclass
class RuntimePolicy:
    """The tile runner's settings: everything beyond the happy path.

    ``max_attempts`` counts the first execution: 3 means one run plus
    two retries before the degradation ladder engages.
    ``tile_deadline_s`` is enforced by killing and respawning the pool,
    so it needs ``workers > 1``; inline (serial) execution cannot be
    preempted.  ``fault_plan`` injects failures (:class:`FaultPlan`).

    ``heartbeat_s`` enables the worker heartbeat channel
    (:mod:`repro.obs.resources`) on the pooled path: each worker
    publishes liveness/tile/RSS/CPU every ``heartbeat_s`` seconds and
    the parent folds the beats into ``windowed.*`` gauges, emitting
    ``worker_stalled`` events for workers that stop beating (3
    heartbeats) or sit on one tile suspiciously long (half the tile
    deadline, when one is set).  ``None`` disables the channel entirely
    (zero overhead).

    ``stop_check`` is the graceful-shutdown hook: a zero-argument
    callable polled between tile settlements.  When it returns true the
    runner raises :class:`RunInterrupted` at the next clean point —
    after the in-flight settlements are stored, before new work is
    started — so a daemon draining on SIGTERM can requeue the job and
    resume it bit-identically later.

    ``store`` is where settled tiles go and where a run looks them up
    first: each tile whose model run succeeded is stored under its
    exact content key; fallback tiles are never stored, so a store
    shared across runs holds only results a fault-free run would
    produce.  ``None`` runs every tile.
    """

    max_attempts: int = 3
    tile_deadline_s: float | None = None
    fault_plan: FaultPlan | None = None
    store: FractureCache | None = None
    heartbeat_s: float | None = None
    stop_check: Callable[[], bool] | None = None


# -- outcomes ----------------------------------------------------------------


@dataclass
class TileOutcome:
    """Identity-preserving result envelope of one job's execution.

    ``tile_name`` is the job's name (a tile's or a stitch window's);
    ``info`` is what the job's task reported besides its shots (empty
    for tiles, the refinement's counts for stitch windows).
    """

    index: int
    tile_name: str
    ok: bool
    shots: list[Rect]
    attempts: int
    fallback: bool = False
    replayed: bool = False
    error: str | None = None
    telemetry: list[dict] | None = None  # the worker recorder's records
    worker_pid: int | None = None
    info: dict[str, Any] = field(default_factory=dict)

    def to_record(self, label: str = "tile") -> dict[str, Any]:
        """JSON-serializable per-job outcome (manifest / events)."""
        record: dict[str, Any] = {
            label: self.tile_name,
            "ok": self.ok,
            "attempts": self.attempts,
            "shots": len(self.shots),
            "fallback": self.fallback,
            "replayed": self.replayed,
        }
        if self.error:
            record["error"] = self.error
        if self.worker_pid is not None:
            record["worker_pid"] = self.worker_pid
        return record


@dataclass
class RunStats:
    """Aggregate fault-layer activity of one :func:`run_tiles` call.

    The attributes count jobs of whatever kind the call ran; ``label``
    (the kind's, see :class:`JobKind`) names them in :meth:`as_dict`.
    """

    tile_retries: int = 0
    tile_timeouts: int = 0
    pool_respawns: int = 0
    tile_fallbacks: int = 0
    tiles_replayed: int = 0
    label: str = "tile"

    def as_dict(self) -> dict[str, int]:
        label = self.label
        return {
            f"{label}_retries": self.tile_retries,
            f"{label}_timeouts": self.tile_timeouts,
            "pool_respawns": self.pool_respawns,
            f"{label}_fallbacks": self.tile_fallbacks,
            f"{label}s_replayed": self.tiles_replayed,
        }


# -- tile work ---------------------------------------------------------------


def fracture_tile(
    inner: Any, tile: Any, subs: list[MaskShape], spec: FractureSpec
) -> list[Rect]:
    """Fracture one tile's sub-shapes, keeping centre-owned shots only."""
    owned: list[Rect] = []
    for sub in subs:
        for shot in inner.fracture_shots(sub, spec):
            centre = shot.center
            if tile.owns(centre.x, centre.y):
                owned.append(shot)
    return owned


def partition_fallback(
    tile: Any, subs: list[MaskShape], spec: FractureSpec
) -> list[Rect]:
    """Degradation-ladder terminal: deterministic geometric fracturing.

    The :class:`PartitionFracturer` baseline is model-free and cannot
    hang or diverge, so a tile whose model-based attempts are exhausted
    still ships *valid coverage* — at a shot-count premium the run
    manifest flags.
    """
    from repro.baselines.partition_fracture import PartitionFracturer

    return fracture_tile(PartitionFracturer(), tile, subs, spec)


# -- job kinds ---------------------------------------------------------------


@dataclass(frozen=True)
class JobKind:
    """How the runner names, runs, keys and degrades one kind of job.

    ``label`` names the kind in spans, events, counters, store entries
    and :meth:`RunStats.as_dict` (``"tile"``, ``"window"``).  The
    callables are module-level functions, so a pool ships them by
    reference:

    * ``name(job)`` — the job's name (fault plans and heartbeats use it);
    * ``describe(job)`` — a short size note for error messages;
    * ``run(inner, spec, job)`` — the pure task, ``(shots, info)`` with
      ``info`` a JSON-able dict stored and replayed with the shots;
    * ``key(inner, spec, job)`` — the job's exact store key;
    * ``fallback(job, spec)`` — the shots a job that exhausted its
      retries ships, flagged.

    ``progress`` turns on the ``progress`` events and the
    ``windowed.tiles_done`` / ``windowed.shots_done`` gauges, which
    describe the tile pass.
    """

    label: str
    name: Callable[[Any], str]
    describe: Callable[[Any], str]
    run: Callable[[Any, FractureSpec, Any], tuple[list[Rect], dict]]
    key: Callable[[Any, FractureSpec, Any], str]
    fallback: Callable[[Any, FractureSpec], list[Rect]]
    progress: bool = False


def _tile_name(job: tuple) -> str:
    return job[0].name


def _tile_describe(job: tuple) -> str:
    return f"{len(job[1])} sub-shapes"


def _tile_run(inner: Any, spec: FractureSpec, job: tuple) -> tuple:
    tile, subs = job
    return fracture_tile(inner, tile, subs, spec), {}


def _tile_key(inner: Any, spec: FractureSpec, job: tuple) -> str:
    method = getattr(inner, "cache_method", None) or inner.name
    return tile_fingerprint(method, spec, *job)


def _tile_fallback(job: tuple, spec: FractureSpec) -> list[Rect]:
    # Looked up at call time, so tests can patch partition_fallback.
    return partition_fallback(*job, spec)


#: Tile jobs: ``(tile, sub-shapes)`` pairs, fractured by the inner method.
TILES = JobKind(
    "tile", _tile_name, _tile_describe, _tile_run, _tile_key,
    _tile_fallback, progress=True,
)


# -- worker side -------------------------------------------------------------

_WORKER_CTX: tuple | None = None


def _worker_init(
    inner: Any,
    spec: FractureSpec,
    telemetry_enabled: bool,
    fault_plan: FaultPlan | None,
    heartbeat_dir: str | None = None,
    heartbeat_s: float = 1.0,
    trace: dict[str, Any] | None = None,
) -> None:
    """Pool initializer: ship the inner fracturer once per worker process.

    Payloads then carry only ``(kind, job, attempt)`` — the inner
    method (with whatever caches/config it holds) is not re-pickled
    into every job.  With ``heartbeat_dir`` the worker also starts
    a :class:`HeartbeatWriter` daemon thread that publishes liveness,
    the current job/attempt and an RSS/CPU sample every
    ``heartbeat_s`` seconds for the parent's stall monitor.  ``trace``
    is the run's trace context: it stamps the worker's heartbeats and
    the manifest of every worker-side recorder, so cross-process span
    merges keep the one trace_id.
    """
    global _WORKER_CTX
    heartbeat = None
    if heartbeat_dir is not None:
        meta = (
            {"trace_id": trace["trace_id"]}
            if trace and trace.get("trace_id") else None
        )
        try:
            heartbeat = HeartbeatWriter(
                heartbeat_dir, heartbeat_s, meta=meta
            ).start()
        except OSError:
            heartbeat = None  # liveness publishing is best effort
    _WORKER_CTX = (inner, spec, telemetry_enabled, fault_plan, heartbeat, trace)


def _kind_of(error: BaseException) -> str:
    if isinstance(error, InjectedHang):
        return "hang"
    if isinstance(error, InjectedCrash):
        return "crash"
    return "error"


def _failure_message(
    kind: JobKind, job: Any, attempt: int, error: BaseException
) -> str:
    return (
        f"{kind.label} {kind.name(job)} ({kind.describe(job)}, attempt "
        f"{attempt}): {type(error).__name__}: {error}"
    )


def _job_task(kind: JobKind, job: Any, attempt: int) -> tuple:
    """Worker entry point: returns a job-identity-preserving envelope.

    ``("ok", name, shots, info, telemetry | None, meta)`` on success;
    ``("error", name, kind, message, meta)`` when the computation raised
    (the pool stays healthy and the parent knows exactly which job was
    involved).  ``meta`` carries the worker pid so outcomes can be
    attributed to the heartbeat channel.  A hard crash (injected or
    real) never returns — the parent sees ``BrokenProcessPool``.
    """
    inner, spec, telemetry_enabled, fault_plan, heartbeat, trace = _WORKER_CTX
    meta = {"pid": os.getpid()}
    name = kind.name(job)
    if heartbeat is not None:
        # Mark the job *before* any injected fault fires, so a crash or
        # hang leaves a heartbeat file attributing the stall to it.
        heartbeat.set_task(name, attempt)
    try:
        if fault_plan is not None:
            fault_plan.fire(name, attempt, inline=False)
        if not telemetry_enabled:
            shots, info = kind.run(inner, spec, job)
            return ("ok", name, shots, info, None, meta)
        recorder = TelemetryRecorder(trace=trace)
        with recording(recorder):
            with recorder.span(kind.label, **{kind.label: name}):
                shots, info = kind.run(inner, spec, job)
        recorder.emit_metrics()
        return ("ok", name, shots, info, recorder.records, meta)
    except Exception as error:  # noqa: BLE001 — envelope, not policy
        message = _failure_message(kind, job, attempt, error)
        if not isinstance(error, InjectedFault):
            message += "\n" + traceback.format_exc()
        return ("error", name, _kind_of(error), message, meta)
    finally:
        if heartbeat is not None:
            heartbeat.clear_task()


# -- the runner --------------------------------------------------------------


@dataclass
class _Pending:
    """One tile attempt waiting to run."""

    idx: int
    attempt: int
    eligible_at: float
    inline: bool = False  # quarantined to in-parent execution
    started: float = 0.0  # monotonic start of the current attempt


class _TileRunner:
    """Shared state of one :func:`run_tiles` call (serial or pooled)."""

    def __init__(
        self,
        jobs: list[Any],
        *,
        inner: Any,
        spec: FractureSpec,
        workers: int,
        policy: RuntimePolicy,
        kind: JobKind,
    ):
        self.jobs = jobs
        self.inner = inner
        self.spec = spec
        self.workers = workers
        self.policy = policy
        self.kind = kind
        self.names = [kind.name(job) for job in jobs]
        # The run's recorder decides both whether workers record and
        # which trace id stamps stored tiles, heartbeats and worker
        # spans: the CLI's per-invocation trace or the daemon job's.
        self.obs = get_recorder()
        self.trace = getattr(self.obs, "trace", None)
        self.stats = RunStats(label=kind.label)
        self.outcomes: list[TileOutcome | None] = [None] * len(jobs)
        self.pending: list[_Pending] = []
        # Store keys, computed here in the parent only: pool workers
        # never see the store.  Jobs of one run cover different regions
        # (tile cores, seam bands), so no two share a key and completion
        # order cannot change a replay.
        store = policy.store
        self.keys = [
            kind.key(inner, spec, job) if store is not None else None
            for job in jobs
        ]
        for idx, name in enumerate(self.names):
            stored = store.get(self.keys[idx]) if store is not None else None
            if stored is not None:
                self.outcomes[idx] = TileOutcome(
                    index=idx,
                    tile_name=name,
                    ok=True,
                    shots=[rect_from_list(v) for v in stored["shots"]],
                    attempts=int(stored.get("attempts", 1)),
                    replayed=True,
                    info=dict(stored.get("info", {})),
                )
                self.stats.tiles_replayed += 1
                self.obs.incr(f"windowed.{kind.label}s_replayed")
            else:
                self.pending.append(_Pending(idx, 1, 0.0))
        # Progress/ETA tracking: replayed tiles count as done up front so
        # a resumed run's ETA covers only the work actually remaining.
        self._t0 = time.monotonic()
        self._done = self.stats.tiles_replayed
        self._done_at_start = self._done
        self._shots_done = sum(
            len(o.shots) for o in self.outcomes if o is not None
        )
        self._tile_wall_ewma: float | None = None

    # -- progress -----------------------------------------------------------

    def _note_progress(self, outcome: TileOutcome, wall_s: float | None) -> None:
        """Fold one settled tile into the progress/ETA picture."""
        self._done += 1
        if not self.kind.progress:
            return
        self._shots_done += len(outcome.shots)
        if wall_s is not None and wall_s > 0:
            # EWMA over per-tile wall time; alpha=0.2 smooths transient
            # slow tiles without hiding a sustained slowdown.
            if self._tile_wall_ewma is None:
                self._tile_wall_ewma = wall_s
            else:
                self._tile_wall_ewma = 0.2 * wall_s + 0.8 * self._tile_wall_ewma
        total = len(self.jobs)
        elapsed = max(1e-9, time.monotonic() - self._t0)
        fresh = self._done - self._done_at_start
        eta_s: float | None = None
        if fresh > 0 and self._done < total:
            # Throughput-based ETA: done/elapsed already folds worker
            # parallelism in, unlike ewma * remaining.
            eta_s = (total - self._done) / (fresh / elapsed)
        self.obs.gauge("windowed.tiles_done", self._done)
        self.obs.gauge("windowed.shots_done", self._shots_done)
        if self._tile_wall_ewma is not None:
            self.obs.gauge(
                "windowed.tile_wall_ewma_s", round(self._tile_wall_ewma, 4)
            )
        fields: dict[str, Any] = {
            "tiles_done": self._done,
            "tiles_total": total,
            "shots": self._shots_done,
        }
        if self._tile_wall_ewma is not None:
            fields["tile_wall_ewma_s"] = round(self._tile_wall_ewma, 4)
        if eta_s is not None:
            fields["eta_s"] = round(eta_s, 2)
        self.obs.event("progress", **fields)

    # -- settlement ---------------------------------------------------------

    def _settle_ok(
        self,
        p: _Pending,
        shots: list[Rect],
        info: dict[str, Any],
        telemetry: list[dict] | None,
        worker_pid: int | None = None,
    ) -> None:
        label = self.kind.label
        outcome = TileOutcome(
            index=p.idx,
            tile_name=self.names[p.idx],
            ok=True,
            shots=shots,
            attempts=p.attempt,
            telemetry=telemetry,
            worker_pid=worker_pid,
            info=info,
        )
        self.outcomes[p.idx] = outcome
        if self.policy.store is not None:
            entry = {
                label: outcome.tile_name,
                "shots": [rect_to_list(shot) for shot in shots],
                "attempts": p.attempt,
                "trace_id": (self.trace or {}).get("trace_id"),
            }
            if info:
                entry["info"] = info
            self.policy.store.put(self.keys[p.idx], entry)
        if p.attempt > 1:
            self.obs.event(f"{label}_recovered", **outcome.to_record(label))
        wall_s = time.monotonic() - p.started if p.started else None
        self._note_progress(outcome, wall_s)

    def _settle_failure(self, p: _Pending, kind: str, message: str) -> None:
        """Retry with backoff, or engage the degradation ladder."""
        label = self.kind.label
        if kind == "hang":
            self.stats.tile_timeouts += 1
            self.obs.incr(f"windowed.{label}_timeouts")
        if p.attempt < self.policy.max_attempts:
            self.stats.tile_retries += 1
            self.obs.incr(f"windowed.{label}_retries")
            self.obs.event(
                f"{label}_retry",
                **{label: self.names[p.idx]},
                attempt=p.attempt,
                kind=kind,
                error=message.splitlines()[0],
            )
            quarantine = p.inline or kind == "crash"
            self.pending.append(
                _Pending(
                    p.idx,
                    p.attempt + 1,
                    time.monotonic() + backoff(p.attempt),
                    inline=quarantine,
                )
            )
            return
        self._run_fallback(p, message)

    def _run_fallback(self, p: _Pending, reason: str) -> None:
        label = self.kind.label
        name = self.names[p.idx]
        self.stats.tile_fallbacks += 1
        self.obs.incr(f"windowed.{label}_fallbacks")
        started = time.monotonic()
        with self.obs.span(f"{label}_fallback", **{label: name}):
            shots = self.kind.fallback(self.jobs[p.idx], self.spec)
        outcome = TileOutcome(
            index=p.idx,
            tile_name=name,
            ok=True,
            shots=shots,
            attempts=p.attempt,
            fallback=True,
            error=reason.splitlines()[0],
        )
        self.outcomes[p.idx] = outcome
        self.obs.event(f"{label}_fallback", **outcome.to_record(label))
        self._note_progress(outcome, time.monotonic() - started)

    def _attempt_inline(self, p: _Pending) -> None:
        """One in-parent attempt (serial path or quarantined job)."""
        kind = self.kind
        job = self.jobs[p.idx]
        name = self.names[p.idx]
        p.started = time.monotonic()
        try:
            if self.policy.fault_plan is not None:
                self.policy.fault_plan.fire(name, p.attempt, inline=True)
            with self.obs.span(kind.label, **{kind.label: name}):
                shots, info = kind.run(self.inner, self.spec, job)
        except Exception as error:  # noqa: BLE001 — envelope, not policy
            message = _failure_message(kind, job, p.attempt, error)
            self._settle_failure(p, _kind_of(error), message)
            return
        self._settle_ok(p, shots, info, telemetry=None)

    def _settle_envelope(self, p: _Pending, envelope: tuple) -> None:
        if envelope[0] == "ok":
            _ok, _name, shots, info, telemetry, meta = envelope
            self._settle_ok(p, shots, info, telemetry, worker_pid=meta.get("pid"))
        else:
            kind, message = envelope[2], envelope[3]
            self._settle_failure(p, kind, message)

    # -- graceful shutdown --------------------------------------------------

    def _check_interrupt(self) -> None:
        """Raise :class:`RunInterrupted` when the shutdown hook fires.

        Only called between settlements, so every completed tile is
        already stored and no partial state escapes.
        """
        stop_check = self.policy.stop_check
        if stop_check is not None and stop_check():
            self.obs.event(
                "run_interrupted", done=self._done, total=len(self.jobs)
            )
            raise RunInterrupted(self._done, len(self.jobs))

    # -- serial path --------------------------------------------------------

    def run_serial(self) -> None:
        while self.pending:
            self._check_interrupt()
            p = self.pending.pop(0)
            delay = p.eligible_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self._attempt_inline(p)

    # -- pooled path --------------------------------------------------------

    def run_pool(self) -> None:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        policy = self.policy
        deadline_s = policy.tile_deadline_s
        hb_dir: Path | None = None
        monitor: HeartbeatMonitor | None = None
        if policy.heartbeat_s is not None and policy.heartbeat_s > 0:
            hb_dir = Path(tempfile.mkdtemp(prefix="repro-hb-"))
            # A hung worker's heartbeat *thread* keeps beating, so file
            # age alone cannot catch hangs; the slow-task check fires at
            # half the tile deadline — strictly before the deadline kill.
            monitor = HeartbeatMonitor(
                hb_dir,
                self.obs,
                interval_s=policy.heartbeat_s,
                slow_task_after_s=(
                    0.5 * deadline_s if deadline_s is not None else None
                ),
            )

        def spawn() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init,
                initargs=(
                    self.inner, self.spec,
                    self.obs.enabled, policy.fault_plan,
                    str(hb_dir) if hb_dir is not None else None,
                    policy.heartbeat_s if policy.heartbeat_s else 1.0,
                    self.trace,
                ),
            )

        def kill(pool: ProcessPoolExecutor) -> None:
            procs = list(getattr(pool, "_processes", {}).values())
            for proc in procs:
                proc.kill()
            pool.shutdown(wait=False, cancel_futures=True)
            if hb_dir is not None:
                # Deliberately killed workers are not stalls: retire
                # their heartbeat files so the monitor does not flag
                # the parent's own deadline enforcement.
                for proc in procs:
                    try:
                        (hb_dir / f"hb-{proc.pid}.json").unlink()
                    except OSError:
                        pass

        pool = spawn()
        if monitor is not None:
            monitor.start()
        respawns = 0
        inflight: dict[Any, tuple[_Pending, float]] = {}

        def respawn_pool(reason: str) -> ProcessPoolExecutor:
            nonlocal respawns
            respawns += 1
            self.stats.pool_respawns += 1
            self.obs.incr("windowed.pool_respawns")
            self.obs.event("pool_respawn", reason=reason, respawns=respawns)
            if respawns > MAX_POOL_RESPAWNS:
                raise PoolBroken(
                    f"process pool died {respawns} times "
                    f"(budget {MAX_POOL_RESPAWNS}); giving up: {reason}"
                )
            return spawn()

        try:
            while self.pending or inflight:
                self._check_interrupt()
                now = time.monotonic()
                later: list[_Pending] = []
                due_inline: list[_Pending] = []
                submit: list[_Pending] = []
                next_eligible: float | None = None
                for p in self.pending:
                    if p.eligible_at > now:
                        later.append(p)
                        if next_eligible is None or p.eligible_at < next_eligible:
                            next_eligible = p.eligible_at
                    elif p.inline:
                        due_inline.append(p)
                    elif len(inflight) + len(submit) < self.workers:
                        submit.append(p)
                    else:
                        later.append(p)
                self.pending = later
                broken: list[_Pending] = []
                pool_is_broken = False
                for p in submit:
                    try:
                        future = pool.submit(
                            _job_task, self.kind, self.jobs[p.idx], p.attempt
                        )
                    except Exception:  # BrokenProcessPool / RuntimeError
                        pool_is_broken = True
                        broken.append(p)
                        continue
                    p.started = time.monotonic()
                    inflight[future] = (p, p.started)
                for p in due_inline:
                    self._attempt_inline(p)
                if pool_is_broken:
                    broken.extend(p for p, _t in inflight.values())
                    inflight.clear()
                    pool = respawn_pool("submit failed: pool already broken")
                    for p in broken:
                        self._settle_failure(
                            p, "crash", "worker process died (BrokenProcessPool)"
                        )
                    continue
                if not inflight:
                    if self.pending and next_eligible is not None:
                        time.sleep(max(0.0, next_eligible - time.monotonic()))
                    continue
                timeouts: list[float] = []
                now = time.monotonic()
                if deadline_s is not None:
                    for _p, started in inflight.values():
                        timeouts.append(started + deadline_s - now)
                if next_eligible is not None:
                    timeouts.append(next_eligible - now)
                timeout = max(0.0, min(timeouts)) if timeouts else None
                if policy.stop_check is not None:
                    # Poll the shutdown hook even while every worker is
                    # deep inside a long tile.
                    timeout = 0.2 if timeout is None else min(timeout, 0.2)
                done, _not_done = wait(
                    set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                failed_with_pool: list[_Pending] = []
                for future in done:
                    p, _started = inflight.pop(future)
                    try:
                        envelope = future.result()
                    except BrokenProcessPool:
                        pool_is_broken = True
                        failed_with_pool.append(p)
                        continue
                    except Exception as error:  # noqa: BLE001
                        self._settle_failure(
                            p, "error",
                            f"tile result unavailable: "
                            f"{type(error).__name__}: {error}",
                        )
                        continue
                    self._settle_envelope(p, envelope)
                if pool_is_broken:
                    # Everything still in flight died with the pool;
                    # requeue it all — suspects are quarantined inline by
                    # the "crash" settlement path.
                    failed_with_pool.extend(p for p, _t in inflight.values())
                    inflight.clear()
                    pool = respawn_pool("worker process died abruptly")
                    for p in failed_with_pool:
                        self._settle_failure(
                            p, "crash", "worker process died (BrokenProcessPool)"
                        )
                    continue
                if deadline_s is not None and inflight:
                    now = time.monotonic()
                    overdue = [
                        future
                        for future, (_p, started) in inflight.items()
                        if now - started >= deadline_s
                    ]
                    if overdue:
                        # A hung worker cannot be preempted individually:
                        # kill the pool, respawn, requeue the innocent
                        # in-flight tiles without penalty and charge the
                        # overdue ones a timeout.
                        overdue_set = set(overdue)
                        victims = list(inflight.items())
                        inflight.clear()
                        kill(pool)
                        pool = respawn_pool("tile deadline exceeded")
                        for future, (p, started) in victims:
                            if future in overdue_set:
                                self._settle_failure(
                                    p, "hang",
                                    f"{self.kind.label} {self.names[p.idx]} "
                                    f"exceeded deadline "
                                    f"{deadline_s:.3g}s "
                                    f"(attempt {p.attempt})",
                                )
                            else:
                                self.pending.append(
                                    _Pending(p.idx, p.attempt, 0.0, p.inline)
                                )
        finally:
            if monitor is not None:
                monitor.stop(final_tick=False)
            if inflight:
                kill(pool)  # hung/dead workers: do not wait on them
            else:
                pool.shutdown(wait=True, cancel_futures=True)
            if hb_dir is not None:
                shutil.rmtree(hb_dir, ignore_errors=True)

    # -- finish -------------------------------------------------------------

    def finish(self) -> list[TileOutcome]:
        label = self.kind.label
        outcomes: list[TileOutcome] = []
        for idx, outcome in enumerate(self.outcomes):
            if outcome is None:  # pragma: no cover — defensive
                raise PoolBroken(
                    f"{label} {self.names[idx]} never produced an outcome"
                )
            if outcome.telemetry is not None:
                self.obs.merge_child(outcome.telemetry, label=outcome.tile_name)
                outcome.telemetry = None
            self.obs.event(f"{label}_outcome", **outcome.to_record(label))
            outcomes.append(outcome)
        return outcomes


def run_tiles(
    jobs: list[Any],
    *,
    inner: Any,
    spec: FractureSpec,
    workers: int = 1,
    policy: RuntimePolicy | None = None,
    kind: JobKind = TILES,
) -> tuple[list[TileOutcome], RunStats]:
    """Execute ``jobs`` of one ``kind`` fault-tolerantly; outcomes in job order.

    ``kind`` defaults to :data:`TILES`, whose jobs are ``(tile,
    sub-shapes)`` pairs; the tiled executor also runs its seam-stitch
    windows here, as a second kind with its own task, store key and
    fallback.  ``policy`` defaults to :class:`RuntimePolicy` ``()``:
    three attempts, no deadline, no store, no injected faults, no
    heartbeats.

    The contract the tiled executor's determinism rests on: outcomes are
    returned (and their telemetry merged) in row-major job order no
    matter the worker count, completion order, retries or resume — and
    each job is pure, so any successful attempt yields the same shots.
    The heartbeat channel and the progress events are observational
    only, so enabling them cannot change the merged shot list.
    """
    runner = _TileRunner(
        jobs,
        inner=inner,
        spec=spec,
        workers=workers,
        policy=policy if policy is not None else RuntimePolicy(),
        kind=kind,
    )
    if workers == 1 or len(runner.pending) <= 1:
        runner.run_serial()
    else:
        runner.run_pool()
    return runner.finish(), runner.stats
