"""The fracture daemon: asyncio front end, threaded fracturing back end.

:class:`FractureService` is a single-process, single-event-loop daemon:

* **Front end** — a Unix-domain socket server speaking the JSON-lines
  protocol of :mod:`repro.service.protocol`.  Every connection is one
  coroutine; all daemon state (job map, queue, running set) is touched
  only on the event-loop thread, so there are no locks on the control
  plane.
* **Back end** — a small ``ThreadPoolExecutor``.  Each admitted job
  runs :func:`repro.service.executor.execute_job` on a worker thread
  with a thread-scoped recorder, the shared warm caches, and a
  :class:`~repro.service.executor.JobControl` whose events the control
  plane flips for cancel / shutdown.
* **Durability** — every job state transition is persisted to the
  job's ``job.json`` *before* it takes effect in memory.  On startup
  the daemon scans ``<state>/jobs/*/job.json``: settled jobs are
  indexed for ``status``/``result``, queued jobs re-enter the queue
  with their original (priority, seq) so pre-crash FIFO order
  survives, and jobs found ``running`` (the daemon died under them)
  are requeued with ``resume`` — their tile stores replay the settled
  tiles bit-identically.

Shutdown modes: ``drain`` stops admissions and finishes running jobs;
``interrupt`` (the SIGTERM/SIGINT default) additionally flips the
stop event so running jobs stop at the next tile boundary and go back
to ``queued`` with ``resume`` set.  Either way queued jobs
stay queued on disk for the next daemon.

A stale ``daemon.json`` (pid no longer alive — SIGKILL, OOM) is
reclaimed automatically; a live one refuses the second daemon.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable

from repro.obs import (
    DiskFullError,
    pid_alive,
    sample_resources,
    summarize_heartbeats,
)
from repro.obs.metrics import MetricSample, render_prometheus
from repro.obs.trace import TraceContext, mint_trace
from repro.service.caches import WarmCaches
from repro.service.executor import (
    JOB_HEARTBEAT_INTERVAL_S,
    JobCancelled,
    JobControl,
    JobInterrupted,
    execute_job,
)
from repro.service.guard import (
    AdmissionError,
    ClientRateLimiter,
    JobOverBudget,
    JobWatchdog,
    ServiceLimits,
    validate_admission,
)
from repro.service.jobs import (
    JobPaths,
    JobRecord,
    JobState,
    job_fingerprint,
    new_job_id,
    validate_submission,
)
from repro.service.protocol import (
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_SCHEMA,
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
    ok_response,
)
from repro.service.queue import PriorityJobQueue, QueueFull

__all__ = ["DEFAULT_STATE_DIR", "FractureService", "daemon_info"]

DEFAULT_STATE_DIR = ".repro-service"

#: A running job whose current clip exceeds this age, in seconds, is
#: reported as ``slow_task`` by the stats op: wedged, not merely slow.
STALL_CLIP_S = 120.0


class _IdleTimeout(Exception):
    """No request started within ``idle_timeout_s`` (quiet close)."""


class _ReadTimeout(Exception):
    """A started request stalled past ``read_deadline_s`` (torn frame)."""


def daemon_info(state_dir: str | Path) -> dict[str, Any] | None:
    """The ``daemon.json`` of a *live* daemon under ``state_dir``.

    Returns ``None`` when there is no daemon file, it is unreadable, or
    the recorded pid is dead (a stale file from a killed daemon).
    """
    path = Path(state_dir) / "daemon.json"
    try:
        info = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(info, dict) or not pid_alive(int(info.get("pid", 0))):
        return None
    return info


class FractureService:
    """See module docstring.  All public state lives on the loop thread.

    ``job_runner`` is injectable for tests: anything with the signature
    of :func:`~repro.service.executor.execute_job` — stub runners let
    the queue/lifecycle tests exercise the control plane in
    milliseconds without fracturing anything.
    """

    def __init__(
        self,
        state_dir: str | Path = DEFAULT_STATE_DIR,
        *,
        workers: int = 2,
        max_queue_depth: int = 64,
        caches: WarmCaches | None = None,
        job_runner: Callable[..., dict[str, Any]] | None = None,
        limits: ServiceLimits | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.state_dir = Path(state_dir)
        self.limits = (limits if limits is not None else ServiceLimits())
        self.limits.validated()
        self.workers = workers
        self.socket_path = self.state_dir / "daemon.sock"
        self.daemon_json = self.state_dir / "daemon.json"
        self.caches = caches if caches is not None else WarmCaches()
        self.job_runner = job_runner if job_runner is not None else execute_job
        self.queue = PriorityJobQueue(max_depth=max_queue_depth)
        self.jobs: dict[str, JobRecord] = {}
        self.running: set[str] = set()
        self.controls: dict[str, JobControl] = {}
        self.started_unix = time.time()
        self._settled: dict[str, asyncio.Event] = {}
        self._tasks: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._connections: set[asyncio.StreamWriter] = set()
        self._executor: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stopping = False
        self._stop_threads = None  # threading.Event, shared by JobControls
        self._shutdown_mode: str | None = None
        self._shutdown_requested: asyncio.Event | None = None
        self.recovered: dict[str, int] = {"queued": 0, "resumed": 0}
        # -- guard state ------------------------------------------------------
        self.guard_counters: dict[str, int] = {
            "rejected": 0, "rate_limited": 0, "fair_share_deferred": 0,
            "deduplicated": 0, "read_timeouts": 0, "idle_closed": 0,
            "over_budget": 0, "disk_full": 0, "degraded": 0,
        }
        self.rate_limiter = (
            ClientRateLimiter(self.limits.rate_per_s, self.limits.rate_burst)
            if self.limits.rate_per_s is not None else None
        )
        self.watchdog = JobWatchdog(
            self.limits,
            self.state_dir / "heartbeats",
            running=self._running_started,
            over_budget=self._on_over_budget,
        )
        #: request fingerprint -> job_id for idempotent resubmission;
        #: rebuilt from job records on recovery.
        self._by_fingerprint: dict[str, str] = {}
        #: client_id -> live queued-job count (fair-share accounting).
        self._queued_by_client: dict[str, int] = {}
        #: priority -> submit-to-settled latency summary
        #: (count/sum/min/max), fed by ``_run_one`` and exposed by the
        #: ``metrics`` op as ``repro_service_latency_seconds``.
        self._latency_by_priority: dict[int, dict[str, float]] = {}

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Claim the state directory, recover jobs, open the socket."""
        import threading

        info = daemon_info(self.state_dir)
        if info is not None:
            raise RuntimeError(
                f"a daemon is already running (pid {info['pid']}) "
                f"on {self.state_dir}"
            )
        self.state_dir.mkdir(parents=True, exist_ok=True)
        (self.state_dir / "jobs").mkdir(exist_ok=True)
        self.socket_path.unlink(missing_ok=True)  # stale socket reclaim
        self._stop_threads = threading.Event()
        self._shutdown_requested = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="fracture-job"
        )
        self.caches.install()
        self._recover_jobs()
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=str(self.socket_path),
            limit=min(MAX_LINE_BYTES, self.limits.max_line_bytes),
        )
        self.started_unix = time.time()
        self.daemon_json.write_text(json.dumps({
            "schema": PROTOCOL_SCHEMA,
            "pid": os.getpid(),
            "socket": str(self.socket_path),
            "started_unix": self.started_unix,
        }, indent=1))
        self._install_signal_handlers()
        if self.watchdog.enabled:
            task = asyncio.get_running_loop().create_task(
                self._watchdog_loop()
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        self._pump()

    def _install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → interrupt-mode shutdown (best effort).

        ``add_signal_handler`` only works on a main-thread loop; tests
        run daemons on side threads, so failures are silently accepted
        (the test drives shutdown through the protocol instead).
        """
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, self.request_shutdown, "interrupt"
                )
            except (NotImplementedError, RuntimeError, ValueError):
                return

    def _recover_jobs(self) -> None:
        """Rebuild the job map and queue from ``<state>/jobs/*/job.json``."""
        max_seq = -1
        recovered: list[JobRecord] = []
        for job_json in sorted(self.state_dir.glob("jobs/*/job.json")):
            try:
                record = JobRecord.load(JobPaths(job_json.parent))
            except (OSError, ValueError, KeyError):
                continue  # torn write of a crashed daemon; job dir remains
            self.jobs[record.job_id] = record
            max_seq = max(max_seq, record.seq)
            if record.request_fp and not (
                record.state.settled and record.state is not JobState.DONE
            ):
                # Rebuild the idempotency index for live/done jobs; a
                # failed or cancelled job should not absorb a resubmit.
                self._by_fingerprint[record.request_fp] = record.job_id
            if record.state is JobState.QUEUED:
                recovered.append(record)
                self.recovered["queued"] += 1
            elif record.state is JobState.RUNNING:
                # The previous daemon died mid-job.  Its tile store is
                # intact (one atomic, fsynced file per tile), so requeue
                # with resume; the next attempt replays settled tiles.
                record.state = JobState.QUEUED
                record.resume = True
                record.started_unix = None
                record.save(JobPaths(job_json.parent))
                recovered.append(record)
                self.recovered["resumed"] += 1
        self.queue.advance_seq(max_seq)
        # Original (priority, seq) order — pre-crash FIFO survives.
        for record in sorted(recovered, key=lambda r: (-r.priority, r.seq)):
            self.queue.push(record.job_id, record.priority, record.seq)
            self._track_queued(record, +1)

    async def run_until_shutdown(self) -> None:
        """Serve until a signal or ``shutdown`` op, then stop cleanly."""
        assert self._shutdown_requested is not None
        await self._shutdown_requested.wait()
        await self.stop(self._shutdown_mode or "interrupt")

    def request_shutdown(self, mode: str = "interrupt") -> None:
        """Flag shutdown from a signal handler or protocol op."""
        self._shutdown_mode = mode
        self._stopping = True
        if mode == "interrupt" and self._stop_threads is not None:
            self._stop_threads.set()
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def stop(self, mode: str = "interrupt") -> None:
        """Stop the daemon: ``drain`` finishes running jobs, ``interrupt``
        stops and requeues them.  Queued jobs stay queued on disk."""
        self._stopping = True
        if mode == "interrupt" and self._stop_threads is not None:
            self._stop_threads.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Hang up on idle connections so their handler coroutines exit
        # cleanly before the loop closes (a blocked readline sees EOF);
        # cancel any still parked in a long server-side ``wait`` op.
        for writer in list(self._connections):
            writer.close()
        if self._conn_tasks:
            _, pending = await asyncio.wait(
                list(self._conn_tasks), timeout=2.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.caches.uninstall()
        self.socket_path.unlink(missing_ok=True)
        self.daemon_json.unlink(missing_ok=True)

    # -- scheduling ---------------------------------------------------------

    def _track_queued(self, record: JobRecord, delta: int) -> None:
        """Maintain the per-client queued-job count (fair share)."""
        count = self._queued_by_client.get(record.client_id, 0) + delta
        if count > 0:
            self._queued_by_client[record.client_id] = count
        else:
            self._queued_by_client.pop(record.client_id, None)

    def _pump(self) -> None:
        """Start queued jobs while worker capacity remains."""
        if self._stopping:
            return
        while len(self.running) < self.workers:
            job_id = self.queue.pop()
            if job_id is None:
                return
            record = self.jobs[job_id]
            self._track_queued(record, -1)
            record.state = JobState.RUNNING
            record.started_unix = time.time()
            record.attempts += 1
            record.save(self._paths(job_id))
            control = JobControl(stop=self._stop_threads, limits=self.limits)
            self.controls[job_id] = control
            self.running.add(job_id)
            task = asyncio.get_running_loop().create_task(
                self._run_one(record, control)
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_one(self, record: JobRecord, control: JobControl) -> None:
        loop = asyncio.get_running_loop()
        paths = self._paths(record.job_id)
        settled = True
        try:
            payload = await loop.run_in_executor(
                self._executor,
                self.job_runner, record, paths, self.caches, control,
            )
            record.state = JobState.DONE
            record.summary = dict(payload.get("totals", {}))
        except JobCancelled:
            if control.over_budget is not None:
                settled = self._settle_over_budget(record, control)
            else:
                record.state = JobState.CANCELLED
        except JobInterrupted:
            # Back to the queue with resume; the *next* daemon (or a
            # later pump, if this was a lone cancelled-stop) replays
            # the stored tiles.  Not settled: waiters keep waiting.
            record.state = JobState.QUEUED
            record.resume = True
            record.started_unix = None
            settled = False
        except DiskFullError as error:
            # The disk guard refused the result write: typed failure,
            # no torn files on disk.
            record.state = JobState.FAILED
            record.error = str(error)
            record.error_code = "disk_full"
            self.guard_counters["disk_full"] += 1
        except Exception as error:  # job bug or bad geometry — never fatal
            record.state = JobState.FAILED
            record.error = f"{type(error).__name__}: {error}"
        if settled:
            record.finished_unix = time.time()
            self._observe_latency(record)
        record.save(paths)
        self.running.discard(record.job_id)
        self.controls.pop(record.job_id, None)
        self.watchdog.forget(record.job_id)
        if settled:
            if record.request_fp and record.state is not JobState.DONE:
                # A failed/cancelled job must not absorb resubmissions.
                self._by_fingerprint.pop(record.request_fp, None)
            self._settled_event(record.job_id).set()
        self._pump()

    def _settle_over_budget(
        self, record: JobRecord, control: JobControl
    ) -> bool:
        """Map a watchdog kill onto the record; returns ``settled``.

        Default: typed ``over_budget`` failure.  With
        ``degrade_over_budget`` set and the job on a non-baseline
        method, the job is instead requeued *once* on the deterministic
        ``partition`` baseline (fresh run: the old method's stored tiles
        are keyed by method, so none of them replay).
        """
        self.guard_counters["over_budget"] += 1
        reason = control.over_budget
        degradable = (
            self.limits.degrade_over_budget
            and record.spec.get("method") != "partition"
            and "degraded_from" not in record.spec
        )
        if degradable:
            try:
                self.queue.push(record.job_id, record.priority, record.seq)
            except QueueFull:
                degradable = False  # no room to retry: fail typed
        if degradable:
            record.spec["degraded_from"] = record.spec["method"]
            record.spec["method"] = "partition"
            record.state = JobState.QUEUED
            record.resume = False
            record.started_unix = None
            record.error = (
                f"over budget ({reason}); degraded to partition baseline"
            )
            self.guard_counters["degraded"] += 1
            self._track_queued(record, +1)
            return False
        record.state = JobState.FAILED
        record.error = f"cancelled by watchdog: over budget ({reason})"
        record.error_code = "over_budget"
        return True

    def _observe_latency(self, record: JobRecord) -> None:
        """Fold one settled job into the per-priority latency summary."""
        latency = record.latency_s
        if latency is None:
            return
        summary = self._latency_by_priority.setdefault(
            record.priority,
            {"count": 0.0, "sum": 0.0, "min": latency, "max": latency},
        )
        summary["count"] += 1.0
        summary["sum"] += latency
        summary["min"] = min(summary["min"], latency)
        summary["max"] = max(summary["max"], latency)

    def _running_started(self) -> dict[str, float]:
        """Watchdog view: running job ids with their start times."""
        return {
            job_id: self.jobs[job_id].started_unix or self.started_unix
            for job_id in self.running
        }

    def _on_over_budget(self, violation: JobOverBudget) -> None:
        """Watchdog callback: flag and cancel the offending job only."""
        control = self.controls.get(violation.job_id)
        if control is not None and control.over_budget is None:
            control.over_budget = violation.reason
            control.cancel.set()

    async def _watchdog_loop(self) -> None:
        """Budget enforcement pass every ``watchdog_interval_s``."""
        while not self._stopping:
            try:
                self.watchdog.tick()
            except Exception:  # never let enforcement kill the daemon
                pass
            await asyncio.sleep(self.limits.watchdog_interval_s)

    def _paths(self, job_id: str) -> JobPaths:
        return JobPaths.for_job(self.state_dir, job_id)

    def _settled_event(self, job_id: str) -> asyncio.Event:
        event = self._settled.get(job_id)
        if event is None:
            event = asyncio.Event()
            self._settled[job_id] = event
            if self.jobs[job_id].state.settled:
                event.set()
        return event

    # -- protocol front end -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                try:
                    line = await self._read_request_line(reader)
                except _IdleTimeout:
                    # Parked connection with no request in flight:
                    # reclaim the handler without a protocol error.
                    self.guard_counters["idle_closed"] += 1
                    break
                except _ReadTimeout:
                    # Torn frame: bytes arrived, then the client
                    # stalled mid-line past the read deadline.
                    self.guard_counters["read_timeouts"] += 1
                    writer.write(encode_line(error_response(
                        "read deadline exceeded mid-request",
                        "bad_request", reason="read_timeout")))
                    await writer.drain()
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode_line(error_response(
                        "request line too long", "bad_request")))
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    request = decode_line(line)
                except ProtocolError as error:
                    response = error_response(str(error), "bad_request")
                else:
                    response = await self._dispatch(request)
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request_line(self, reader: asyncio.StreamReader) -> bytes:
        """One request line under the connection-hygiene timeouts.

        Two-stage read: the *first byte* may take up to
        ``idle_timeout_s`` (a parked-but-healthy client), but once a
        request has started arriving the *rest of the line* must land
        within ``read_deadline_s`` — a client that stalls mid-frame
        cannot pin a handler coroutine indefinitely.  Either timeout
        disabled (``None``) waits forever, preserving pre-guard
        behaviour.
        """
        if self.limits.idle_timeout_s is not None:
            try:
                first = await asyncio.wait_for(
                    reader.read(1), self.limits.idle_timeout_s
                )
            except asyncio.TimeoutError:
                raise _IdleTimeout() from None
        else:
            first = await reader.read(1)
        if not first or first == b"\n":
            return first  # EOF, or a bare keepalive newline
        if self.limits.read_deadline_s is not None:
            try:
                rest = await asyncio.wait_for(
                    reader.readline(), self.limits.read_deadline_s
                )
            except asyncio.TimeoutError:
                raise _ReadTimeout() from None
        else:
            rest = await reader.readline()
        return first + rest

    async def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if op not in OPS:
            return error_response(f"unknown op {op!r}", "unknown_op")
        handler = getattr(self, f"_op_{op}")
        try:
            return await handler(request)
        except Exception as error:  # daemon must survive any request
            return error_response(
                f"{type(error).__name__}: {error}", "internal"
            )

    def _get_job(self, request: dict[str, Any]) -> JobRecord:
        job_id = request.get("job_id")
        record = self.jobs.get(job_id) if isinstance(job_id, str) else None
        if record is None:
            raise KeyError(job_id)
        return record

    async def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return ok_response(
            schema=PROTOCOL_SCHEMA,
            pid=os.getpid(),
            uptime_s=time.time() - self.started_unix,
            state_dir=str(self.state_dir),
        )

    async def _op_submit(self, request: dict[str, Any]) -> dict[str, Any]:
        if self._stopping:
            return error_response(
                "daemon is shutting down", "shutting_down"
            )
        client_id = str(request.get("client_id", "") or "")
        # Trace context rides at the request top level (the job payload
        # is whitelisted).  Untrusted input: a malformed context is
        # dropped and a fresh trace minted — observability never
        # rejects work.
        trace = TraceContext.from_dict(request.get("trace"))
        if trace is None:
            trace = mint_trace()
        # Cheapest guard first: a flood is shed before any validation,
        # queue slot, or job directory is spent on it.
        if self.rate_limiter is not None and not self.rate_limiter.allow(
            client_id
        ):
            self.guard_counters["rate_limited"] += 1
            return error_response(
                f"client {client_id or '<anonymous>'} exceeded "
                f"{self.limits.rate_per_s}/s submit rate",
                "rate_limited", reason="token_bucket",
            )
        try:
            spec = validate_submission(request.get("job"))
        except ValueError as error:
            return error_response(str(error), "bad_request")
        try:
            validate_admission(spec, self.limits)
        except AdmissionError as rejected:
            self.guard_counters["rejected"] += 1
            return error_response(
                str(rejected), "job_rejected", reason=rejected.reason
            )
        # Idempotent resubmission: a client that lost the ack retries
        # with the same content fingerprint and gets the original job
        # back instead of double-running it.  Only an *explicit*
        # ``request_fp`` dedupes — identical payloads without one are
        # distinct jobs by design.
        fingerprint = str(request.get("request_fp", "") or "")
        if fingerprint:
            existing = self.jobs.get(self._by_fingerprint.get(fingerprint, ""))
            if existing is not None:
                self.guard_counters["deduplicated"] += 1
                return ok_response(
                    job_id=existing.job_id,
                    state=existing.state.value,
                    queued=len(self.queue),
                    stream=str(self._paths(existing.job_id).stream),
                    deduplicated=True,
                    trace_id=(existing.trace or {}).get("trace_id"),
                )
        if self.limits.queue_share is not None:
            cap = max(
                1, int(self.limits.queue_share * self.queue.max_depth)
            )
            if self._queued_by_client.get(client_id, 0) >= cap:
                self.guard_counters["fair_share_deferred"] += 1
                return error_response(
                    f"client {client_id or '<anonymous>'} already holds "
                    f"{cap} queued jobs (fair share of depth "
                    f"{self.queue.max_depth})",
                    "rate_limited", reason="fair_share",
                )
        record = JobRecord(
            job_id=new_job_id(),
            spec=spec,
            priority=spec["priority"],
            seq=self.queue.next_seq(),
            request_fp=fingerprint
            or job_fingerprint(spec, exclude=("name", "priority")),
            client_id=client_id,
            trace=trace.to_dict(),
        )
        try:
            self.queue.push(record.job_id, record.priority, record.seq)
        except QueueFull as full:
            return error_response(str(full), "queue_full")
        # Persist before acknowledging: an acked job survives a crash.
        record.save(self._paths(record.job_id))
        self.jobs[record.job_id] = record
        self._track_queued(record, +1)
        if fingerprint:
            self._by_fingerprint[fingerprint] = record.job_id
        self._pump()
        return ok_response(
            job_id=record.job_id,
            state=record.state.value,
            queued=len(self.queue),
            stream=str(self._paths(record.job_id).stream),
            trace_id=trace.trace_id,
        )

    async def _op_status(self, request: dict[str, Any]) -> dict[str, Any]:
        try:
            record = self._get_job(request)
        except KeyError:
            return error_response("no such job", "unknown_job")
        return ok_response(job=record.public_view())

    async def _op_list(self, request: dict[str, Any]) -> dict[str, Any]:
        records = sorted(
            self.jobs.values(), key=lambda r: r.seq, reverse=True
        )
        return ok_response(jobs=[r.public_view() for r in records])

    async def _op_result(self, request: dict[str, Any]) -> dict[str, Any]:
        try:
            record = self._get_job(request)
        except KeyError:
            return error_response("no such job", "unknown_job")
        if record.state is not JobState.DONE:
            detail = f" ({record.error})" if record.error else ""
            return error_response(
                f"job is {record.state.value}{detail}", "not_done"
            )
        paths = self._paths(record.job_id)
        payload = json.loads(paths.result_json.read_text("utf-8"))
        return ok_response(result=payload)

    async def _op_cancel(self, request: dict[str, Any]) -> dict[str, Any]:
        try:
            record = self._get_job(request)
        except KeyError:
            return error_response("no such job", "unknown_job")
        if record.state is JobState.QUEUED and self.queue.remove(record.job_id):
            self._track_queued(record, -1)
            if record.request_fp:
                self._by_fingerprint.pop(record.request_fp, None)
            record.state = JobState.CANCELLED
            record.finished_unix = time.time()
            record.save(self._paths(record.job_id))
            self._settled_event(record.job_id).set()
            return ok_response(job_id=record.job_id, state=record.state.value)
        if record.state is JobState.RUNNING:
            control = self.controls.get(record.job_id)
            if control is not None:
                control.cancel.set()
            # Still 'running' until the worker reaches a stop point.
            return ok_response(
                job_id=record.job_id, state=record.state.value,
                cancelling=True,
            )
        return ok_response(job_id=record.job_id, state=record.state.value)

    async def _op_wait(self, request: dict[str, Any]) -> dict[str, Any]:
        try:
            record = self._get_job(request)
        except KeyError:
            return error_response("no such job", "unknown_job")
        timeout_s = request.get("timeout_s", 60.0)
        event = self._settled_event(record.job_id)
        timed_out = False
        try:
            await asyncio.wait_for(event.wait(), timeout=float(timeout_s))
        except asyncio.TimeoutError:
            timed_out = True
        return ok_response(job=record.public_view(), timed_out=timed_out)

    async def _op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        by_state: dict[str, int] = {}
        for record in self.jobs.values():
            by_state[record.state.value] = by_state.get(record.state.value, 0) + 1
        return ok_response(
            uptime_s=time.time() - self.started_unix,
            queued=len(self.queue),
            queue_order=self.queue.snapshot(),
            running=sorted(self.running),
            workers=self.workers,
            jobs_by_state=by_state,
            recovered=dict(self.recovered),
            caches=self.caches.stats(),
            resources=sample_resources(),
            heartbeats=summarize_heartbeats(
                self.state_dir / "heartbeats",
                stall_after_s=5.0 * JOB_HEARTBEAT_INTERVAL_S,
                slow_task_after_s=STALL_CLIP_S,
            ),
            guard={
                "limits": self.limits.to_dict(),
                "counters": dict(self.guard_counters),
                "watchdog_enabled": self.watchdog.enabled,
                "rate_limited_clients": (
                    0 if self.rate_limiter is None else len(self.rate_limiter)
                ),
            },
        )

    async def _op_metrics(self, request: dict[str, Any]) -> dict[str, Any]:
        """Daemon gauges as Prometheus exposition text.

        The same numbers ``stats`` returns as JSON, flattened into the
        ``repro_*`` metric families of :mod:`repro.obs.metrics` — plus
        the per-priority submit-to-settled latency summaries only this
        op exposes.  ``{"text": ...}`` parses with
        :func:`repro.obs.metrics.parse_prometheus` (CI asserts this).
        """
        samples: list[MetricSample] = [
            MetricSample("service.uptime_seconds",
                         time.time() - self.started_unix, type="gauge"),
            MetricSample("service.queue_depth", len(self.queue),
                         type="gauge"),
            MetricSample("service.running_jobs", len(self.running),
                         type="gauge"),
            MetricSample("service.workers", self.workers, type="gauge"),
        ]
        by_state: dict[str, int] = {}
        for record in self.jobs.values():
            by_state[record.state.value] = by_state.get(record.state.value, 0) + 1
        for state, count in sorted(by_state.items()):
            samples.append(MetricSample(
                "service.jobs", count, labels={"state": state}, type="gauge"
            ))
        for name, count in sorted(self.guard_counters.items()):
            samples.append(MetricSample(
                f"service.guard.{name}_total", count, type="counter"
            ))
        for name, value in sorted(self.caches.counters().items()):
            samples.append(MetricSample(f"{name}_total", value,
                                        type="counter"))
        for priority, summary in sorted(self._latency_by_priority.items()):
            labels = {"priority": str(priority)}
            samples.append(MetricSample(
                "service.latency_seconds_count", summary["count"],
                labels=labels, type="counter",
            ))
            samples.append(MetricSample(
                "service.latency_seconds_sum", summary["sum"],
                labels=labels, type="counter",
            ))
            samples.append(MetricSample(
                "service.latency_seconds_min", summary["min"],
                labels=labels, type="gauge",
            ))
            samples.append(MetricSample(
                "service.latency_seconds_max", summary["max"],
                labels=labels, type="gauge",
            ))
        beats = summarize_heartbeats(
            self.state_dir / "heartbeats",
            stall_after_s=5.0 * JOB_HEARTBEAT_INTERVAL_S,
            slow_task_after_s=STALL_CLIP_S,
        )
        samples.append(MetricSample(
            "service.heartbeats_alive", beats.get("alive", 0), type="gauge"
        ))
        samples.append(MetricSample(
            "service.heartbeats_stalled", beats.get("stalled", 0),
            type="gauge",
        ))
        resources = sample_resources()
        for key in ("rss_bytes", "cpu_s"):
            value = resources.get(key)
            if isinstance(value, (int, float)):
                samples.append(MetricSample(
                    f"service.{key}", value, type="gauge"
                ))
        return ok_response(text=render_prometheus(samples))

    async def _op_shutdown(self, request: dict[str, Any]) -> dict[str, Any]:
        mode = request.get("mode", "interrupt")
        if mode not in ("drain", "interrupt"):
            return error_response(
                "shutdown mode must be 'drain' or 'interrupt'", "bad_request"
            )
        # Acknowledge first; the connection handler flushes the reply
        # before the server socket closes underneath it.
        asyncio.get_running_loop().call_soon(self.request_shutdown, mode)
        return ok_response(mode=mode, running=len(self.running))
