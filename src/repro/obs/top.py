"""``repro top``: a live terminal dashboard over daemon + job telemetry.

One refreshing view folds together the three live surfaces a running
daemon already exposes:

* the ``stats`` op — queue depth/order, worker slots, jobs by state,
  warm-cache hit rates, guard counters, heartbeat summary;
* each active job's JSONL stream — last ``progress`` event (tiles
  done/total, shots, ETA), stalls, current phase (innermost open span);
* the job list — state, priority, queue wait / run wall.

The module is renderer-first: :func:`render_top` is a pure function
from snapshot dicts to a string, so tests (and ``repro top --once``)
exercise the exact frame a terminal would show, without a daemon or a
TTY.  The CLI loop just alternates gather → render → clear-screen.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from repro.obs.stream import parse_record

__all__ = ["gather_job_progress", "render_top", "tail_records"]

#: States worth a live row, in display order.
_ACTIVE_STATES = ("running", "queued", "cancelling")


def tail_records(
    path: str | Path, *, max_bytes: int = 65536
) -> list[dict[str, Any]]:
    """Parse the last complete records of a (possibly live) stream file.

    Reads only the trailing ``max_bytes`` — a dashboard refreshing
    every second must not re-read multi-hour streams end to end.  The
    first (possibly torn) line of the window and any torn tail are
    dropped by the stream readers' own line parse
    (:func:`repro.obs.stream.parse_record`).
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            if size > max_bytes:
                fh.seek(size - max_bytes)
            window = fh.read().decode("utf-8", errors="replace")
    except OSError:
        return []
    lines = window.splitlines()
    if size > max_bytes and lines:
        lines = lines[1:]  # first line of the window is likely torn
    records = (parse_record(line) for line in lines)
    return [record for record in records if record is not None]


def gather_job_progress(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold a stream tail into one progress snapshot for the dashboard.

    The phase is the innermost span still open: spans are tracked by
    ``id``, and a ``stream_header`` (a resumed attempt) starts afresh.
    """
    progress: dict[str, Any] = {}
    open_spans: dict[Any, str] = {}
    stalls = 0
    for record in records:
        kind = record.get("type")
        if kind == "span_open":
            open_spans[record.get("id")] = str(record.get("name", "?"))
        elif kind == "span_close":
            open_spans.pop(record.get("id"), None)
        elif kind == "stream_header":
            open_spans.clear()
        elif kind == "event":
            name = record.get("name")
            if name == "progress":
                progress = {
                    "tiles_done": record.get("tiles_done"),
                    "tiles_total": record.get("tiles_total"),
                    "shots": record.get("shots"),
                    "eta_s": record.get("eta_s"),
                }
            elif name == "worker_stalled":
                stalls += 1
        elif kind == "stream_gap":
            progress["gap"] = True
    progress["phase"] = next(reversed(open_spans.values()), "")
    progress["stalls"] = stalls
    return progress


def _hit_rate(stats: Mapping[str, Any]) -> str:
    hits = float(stats.get("hits", 0))
    misses = float(stats.get("misses", 0))
    total = hits + misses
    if total <= 0:
        return "-"
    return f"{hits / total:.0%}"


def _fmt_eta(eta: Any) -> str:
    if not isinstance(eta, (int, float)):
        return "-"
    eta = int(eta)
    if eta >= 3600:
        return f"{eta // 3600}h{(eta % 3600) // 60:02d}m"
    if eta >= 60:
        return f"{eta // 60}m{eta % 60:02d}s"
    return f"{eta}s"


def render_top(
    stats: Mapping[str, Any],
    jobs: list[Mapping[str, Any]],
    progress_by_job: Mapping[str, Mapping[str, Any]] | None = None,
    *,
    max_rows: int = 20,
) -> str:
    """One dashboard frame as a plain multi-line string."""
    progress_by_job = progress_by_job or {}
    caches = stats.get("caches") or {}
    result = caches.get("result") or {}
    profile = caches.get("profile") or {}
    heartbeats = stats.get("heartbeats") or {}
    guard = stats.get("guard") or {}
    guard_counters = guard.get("counters") or {}
    by_state = stats.get("jobs_by_state") or {}
    # The stats op reports ``running`` as the list of job ids; offline
    # callers may pass a plain count.  Render both as a count.
    running = stats.get("running", 0)
    if isinstance(running, (list, tuple)):
        running = len(running)
    lines = [
        (
            f"repro top — uptime {float(stats.get('uptime_s', 0.0)):.0f}s  "
            f"queue {stats.get('queued', 0)}  "
            f"running {running}/{stats.get('workers', '?')}  "
            f"workers alive {heartbeats.get('alive', 0)} "
            f"stalled {heartbeats.get('stalled', 0)}"
        ),
        (
            f"jobs: "
            + "  ".join(
                f"{state}={by_state.get(state, 0)}"
                for state in ("queued", "running", "done", "failed",
                              "cancelled")
            )
        ),
        (
            f"caches: result {_hit_rate(result)} hit "
            f"({result.get('entries', 0)} entries)  "
            f"profile bank {profile.get('layouts', 0)} layouts/"
            f"{profile.get('profiles', 0)} profiles "
            f"(warm attach {profile.get('warm_attaches', 0)})"
        ),
    ]
    fired = {
        name: count for name, count in guard_counters.items() if count
    }
    if fired:
        lines.append(
            "guard: " + "  ".join(
                f"{name}={count}" for name, count in sorted(fired.items())
            )
        )
    lines.append("")
    header = (
        f"{'JOB':<14} {'STATE':<10} {'PRI':>3} {'PHASE':<12} "
        f"{'TILES':>9} {'SHOTS':>8} {'ETA':>7} {'STALL':>5} {'WAIT':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))

    def sort_key(job: Mapping[str, Any]) -> tuple[int, float]:
        state = str(job.get("state", ""))
        rank = (
            _ACTIVE_STATES.index(state)
            if state in _ACTIVE_STATES else len(_ACTIVE_STATES)
        )
        return (rank, -float(job.get("submitted_unix") or 0.0))

    for job in sorted(jobs, key=sort_key)[:max_rows]:
        job_id = str(job.get("job_id", "?"))
        state = str(job.get("state", "?"))
        prog = progress_by_job.get(job_id, {})
        done, total = prog.get("tiles_done"), prog.get("tiles_total")
        tiles = f"{done}/{total}" if done is not None else "-"
        phase = str(prog.get("phase") or "")[:12]
        queue_wait = job.get("queue_wait_s")
        wait = (
            f"{float(queue_wait):.1f}s"
            if isinstance(queue_wait, (int, float)) else "-"
        )
        flags = " GAP" if prog.get("gap") else ""
        lines.append(
            f"{job_id:<14} {state:<10} {int(job.get('priority') or 0):>3} "
            f"{phase:<12} {tiles:>9} {str(prog.get('shots', '-')):>8} "
            f"{_fmt_eta(prog.get('eta_s')):>7} "
            f"{prog.get('stalls', 0):>5} {wait:>7}{flags}"
        )
    if not jobs:
        lines.append("(no jobs)")
    return "\n".join(lines)
