"""Resource sampling and worker heartbeats (standard library only).

Two halves of the live-telemetry picture:

* :func:`sample_resources` — a cheap RSS/CPU sample of the calling
  process (``/proc/self/status`` on Linux, ``resource.getrusage`` peak
  RSS as the fallback; ``None`` where neither exists).
* the **heartbeat channel** between pool workers and the parent of the
  tiled executor.  Each worker runs a :class:`HeartbeatWriter` daemon
  thread that publishes a small JSON file (atomic tmp + rename, so the
  parent never reads a torn record) with its pid, liveness timestamp,
  current tile/attempt and resource sample.  The parent runs a
  :class:`HeartbeatMonitor` thread that folds the beats into
  ``windowed.*`` gauges, emits ``worker_heartbeat`` events through the
  active recorder (and therefore into the live stream), and flags
  stalled workers: a worker whose file stops refreshing (killed or
  frozen — ``no_heartbeat``) or whose current tile has been running
  suspiciously long (hung worker whose heartbeat thread still beats —
  ``slow_task``).  Both fire *before* the per-tile deadline, which is
  the point: the deadline is the rescue, the stall event is the alarm.

The channel is files-on-disk rather than a queue so a SIGKILLed or
SIGSTOPped worker — precisely the case worth observing — needs no
cooperation to be noticed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any

__all__ = [
    "DiskFullError",
    "HeartbeatMonitor",
    "HeartbeatWriter",
    "disk_free_bytes",
    "ensure_disk_space",
    "pid_alive",
    "read_heartbeats",
    "rss_bytes",
    "sample_resources",
    "set_disk_free_override",
    "summarize_heartbeats",
]


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe, best effort).

    Used by the service daemon to detect a stale state directory: a
    ``daemon.json`` whose pid is gone means the previous daemon died
    without cleanup and its socket/lease can be reclaimed.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


class DiskFullError(OSError):
    """Free disk space under a configured floor — the write was refused.

    Raised *before* any bytes hit the file, so callers never leave a
    torn result file behind; the job carrying the write
    fails loudly with a typed error instead.
    """

    def __init__(self, path: str | Path, free: int, floor: int):
        super().__init__(
            f"disk floor breached at {path}: {free} bytes free "
            f"< floor {floor}"
        )
        self.path = str(path)
        self.free = free
        self.floor = floor


#: Test/chaos shim: when set, :func:`disk_free_bytes` reports this value
#: instead of asking the filesystem.  The env var lets chaos suites
#: inject disk-full into daemon *subprocesses* too.
_DISK_FREE_OVERRIDE: int | None = None
DISK_FREE_ENV = "REPRO_CHAOS_DISK_FREE"


def set_disk_free_override(free: int | None) -> None:
    """Force :func:`disk_free_bytes` to report ``free`` (``None`` resets)."""
    global _DISK_FREE_OVERRIDE
    _DISK_FREE_OVERRIDE = free


def disk_free_bytes(path: str | Path) -> int | None:
    """Free bytes on the filesystem holding ``path`` (best effort).

    Honors the chaos override (:func:`set_disk_free_override` or the
    ``REPRO_CHAOS_DISK_FREE`` env var) so disk-full behaviour is
    testable without actually filling a disk.  Returns ``None`` when
    the filesystem cannot be queried.
    """
    if _DISK_FREE_OVERRIDE is not None:
        return _DISK_FREE_OVERRIDE
    env = os.environ.get(DISK_FREE_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            pass
    probe = Path(path)
    while not probe.exists():
        parent = probe.parent
        if parent == probe:
            break
        probe = parent
    try:
        stat = os.statvfs(probe)
    except (OSError, AttributeError):
        return None
    return stat.f_bavail * stat.f_frsize


def ensure_disk_space(
    path: str | Path, floor_bytes: int | None, need_bytes: int = 0
) -> None:
    """Refuse (``DiskFullError``) a write that would breach the floor.

    ``floor_bytes`` of ``None`` disables the guard; an unqueryable
    filesystem passes (the guard must never fail a healthy job on an
    exotic mount).
    """
    if floor_bytes is None:
        return
    free = disk_free_bytes(path)
    if free is None:
        return
    if free - need_bytes < floor_bytes:
        raise DiskFullError(path, free, floor_bytes)


def rss_bytes() -> int | None:
    """Resident set size of this process in bytes (best effort)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return peak_kb * 1024 if peak_kb < 1 << 40 else peak_kb
    except (ImportError, OSError, ValueError):
        return None


def sample_resources() -> dict[str, Any]:
    """One RSS/CPU sample: ``{"t", "rss_bytes", "cpu_s"}``."""
    return {
        "t": time.time(),
        "rss_bytes": rss_bytes(),
        "cpu_s": time.process_time(),
    }


class HeartbeatWriter:
    """Worker-side heartbeat publisher (one JSON file per process).

    ``start()`` writes an immediate first beat, then a daemon thread
    re-publishes every ``interval_s``.  :meth:`set_task` /
    :meth:`clear_task` bracket the tile currently being executed so the
    parent can attribute a stall to a specific tile and attempt.

    ``name`` overrides the pid in the file name (one file per *job*
    instead of per process — the service daemon's executor threads all
    share a pid); ``meta`` is a dict merged into every record (e.g.
    ``{"job_id": ...}``) so a reader can attribute the beat.
    """

    def __init__(
        self,
        directory: str | Path,
        interval_s: float = 1.0,
        *,
        name: str | None = None,
        meta: dict[str, Any] | None = None,
    ):
        self.directory = Path(directory)
        self.interval_s = max(0.01, float(interval_s))
        stem = f"hb-{name}" if name else f"hb-{os.getpid()}"
        self.path = self.directory / f"{stem}.json"
        self._tmp = self.directory / f"{stem}.tmp"
        self._meta = dict(meta) if meta else {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._task: dict[str, Any] | None = None
        self._beats = 0

    def set_task(self, tile: str, attempt: int) -> None:
        with self._lock:
            self._task = {
                "tile": tile,
                "attempt": attempt,
                "task_started_t": time.time(),
            }
        self.beat()

    def clear_task(self) -> None:
        with self._lock:
            self._task = None
        self.beat()

    def beat(self) -> None:
        """Publish one heartbeat record atomically (tmp + rename)."""
        with self._lock:
            self._beats += 1
            record: dict[str, Any] = {
                "pid": os.getpid(),
                "beats": self._beats,
                **self._meta,
                **sample_resources(),
            }
            if self._task is not None:
                record.update(self._task)
            try:
                self._tmp.write_text(json.dumps(record), encoding="utf-8")
                os.replace(self._tmp, self.path)
            except OSError:
                # The parent may have torn the directory down already
                # (run finished); liveness publishing is best effort.
                pass

    def start(self) -> "HeartbeatWriter":
        self.directory.mkdir(parents=True, exist_ok=True)
        self.beat()
        self._thread = threading.Thread(
            target=self._run, name="heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.beat()

    def stop(self, unlink: bool = False) -> None:
        """Stop beating; ``unlink=True`` also removes the file (a clean
        finish should not linger as a ``no_heartbeat`` corpse)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        if unlink:
            for path in (self.path, self._tmp):
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass


def read_heartbeats(directory: str | Path) -> list[dict[str, Any]]:
    """All readable heartbeat records under ``directory`` (pid order)."""
    directory = Path(directory)
    beats = []
    try:
        files = sorted(directory.glob("hb-*.json"))
    except OSError:
        return []
    for path in files:
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(record, dict) and "pid" in record:
            beats.append(record)
    return beats


def summarize_heartbeats(
    directory: str | Path,
    *,
    stall_after_s: float = 10.0,
    slow_task_after_s: float | None = None,
    now: float | None = None,
) -> dict[str, Any]:
    """Fold the heartbeat files under ``directory`` into one status dict.

    The one stall classifier: pull-style surfaces (the service daemon's
    ``stats`` op) call it directly, and :class:`HeartbeatMonitor` adds
    its recorder events and episode tracking on top.  Per writer the
    status is ``alive`` (fresh beat), ``slow_task`` (fresh beat but the
    current task has run longer than ``slow_task_after_s`` — a *wedged*
    job: the writer's daemon thread keeps beating while the work loop
    is stuck, so only the task age gives it away) or ``no_heartbeat``
    (stale file: killed/frozen process or a crashed executor thread
    that never unlinked).
    """
    now = time.time() if now is None else now
    workers: list[dict[str, Any]] = []
    alive = 0
    stalled = 0
    for hb in read_heartbeats(directory):
        age = max(0.0, now - float(hb.get("t", now)))
        fresh = age <= stall_after_s
        task = hb.get("tile")
        task_age = None
        if task is not None:
            task_age = max(0.0, now - float(hb.get("task_started_t", now)))
        if not fresh:
            status = "no_heartbeat"
        elif (
            slow_task_after_s is not None
            and task_age is not None
            and task_age > slow_task_after_s
        ):
            status = "slow_task"
        else:
            status = "alive"
        if status == "alive":
            alive += 1
        else:
            stalled += 1
        entry: dict[str, Any] = {
            "pid": hb.get("pid"),
            "status": status,
            "age_s": round(age, 3),
            "task": task,
            "rss_bytes": hb.get("rss_bytes"),
            "cpu_s": hb.get("cpu_s"),
        }
        if task_age is not None:
            entry["task_age_s"] = round(task_age, 3)
        for passthrough in ("attempt", "job_id", "trace_id"):
            if passthrough in hb:
                entry[passthrough] = hb[passthrough]
        workers.append(entry)
    return {"workers": workers, "alive": alive, "stalled": stalled}


class HeartbeatMonitor:
    """Parent-side heartbeat reader / stall detector.

    Every ``interval_s`` the monitor classifies the heartbeat directory
    with :func:`summarize_heartbeats` and:

    * sets the gauges ``windowed.workers_alive`` (every fresh worker,
      ``slow_task`` ones included), ``windowed.workers_stalled``,
      ``windowed.worker_rss_peak_bytes`` and
      ``windowed.worker_cpu_s_total``;
    * emits one ``worker_heartbeat`` event per live worker (these reach
      the live stream via the recorder's stream hook);
    * emits a ``worker_stalled`` event (once per episode, counted by
      ``windowed.worker_stalls``) when a worker's file stops refreshing
      for ``stall_after_s`` (``no_heartbeat``) or its current tile has
      run longer than ``slow_task_after_s`` (``slow_task``);
    * asks the recorder for a metrics snapshot so the stream shows
      counters/gauges moving while the run is alive.

    ``tick()`` is separable from the thread for deterministic tests.
    """

    def __init__(
        self,
        directory: str | Path,
        recorder: Any,
        *,
        interval_s: float = 1.0,
        stall_after_s: float | None = None,
        slow_task_after_s: float | None = None,
        heartbeat_events: bool = True,
    ):
        self.directory = Path(directory)
        self.recorder = recorder
        self.interval_s = max(0.01, float(interval_s))
        self.stall_after_s = (
            stall_after_s if stall_after_s is not None else 3.0 * self.interval_s
        )
        self.slow_task_after_s = (
            slow_task_after_s
            if slow_task_after_s is not None
            else 10.0 * self.interval_s
        )
        self.heartbeat_events = heartbeat_events
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._stalled: dict[int, str] = {}  # pid -> stall kind
        self._rss_peak = 0

    def tick(self, now: float | None = None) -> list[dict[str, Any]]:
        """One monitoring pass; returns the stall events it emitted."""
        rec = self.recorder
        summary = summarize_heartbeats(
            self.directory,
            stall_after_s=self.stall_after_s,
            slow_task_after_s=self.slow_task_after_s,
            now=now,
        )
        stalls: list[dict[str, Any]] = []
        alive = 0
        cpu_total = 0.0
        for worker in summary["workers"]:
            pid = worker["pid"]
            kind = worker["status"]
            if kind != "no_heartbeat":
                alive += 1
                cpu_total += float(worker["cpu_s"] or 0.0)
                rss = worker["rss_bytes"]
                if isinstance(rss, (int, float)):
                    self._rss_peak = max(self._rss_peak, int(rss))
                if self.heartbeat_events:
                    rec.event(
                        "worker_heartbeat",
                        pid=pid,
                        tile=worker["task"],
                        attempt=worker.get("attempt"),
                        rss_bytes=worker["rss_bytes"],
                        cpu_s=worker["cpu_s"],
                        age_s=worker["age_s"],
                    )
            if kind == "alive":
                self._stalled.pop(pid, None)
                continue
            if self._stalled.get(pid) == kind:
                continue  # already flagged this episode
            self._stalled[pid] = kind
            stall = {
                "pid": pid,
                "kind": kind,
                "tile": worker["task"],
                "attempt": worker.get("attempt"),
                "age_s": (
                    worker["age_s"] if kind == "no_heartbeat"
                    else worker["task_age_s"]
                ),
            }
            stalls.append(stall)
            rec.incr("windowed.worker_stalls")
            rec.event("worker_stalled", **stall)
        rec.gauge("windowed.workers_alive", alive)
        rec.gauge("windowed.workers_stalled", len(self._stalled))
        if self._rss_peak:
            rec.gauge("windowed.worker_rss_peak_bytes", self._rss_peak)
        if cpu_total:
            rec.gauge("windowed.worker_cpu_s_total", round(cpu_total, 3))
        emit_metrics = getattr(rec, "emit_metrics", None)
        if emit_metrics is not None:
            emit_metrics()
        return stalls

    def start(self) -> "HeartbeatMonitor":
        self._thread = threading.Thread(
            target=self._run, name="heartbeat-monitor", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.tick()
            except Exception:  # pragma: no cover — monitoring must not kill runs
                pass

    def stop(self, final_tick: bool = True) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        if final_tick:
            try:
                self.tick()
            except Exception:  # pragma: no cover — same contract as _run
                pass
