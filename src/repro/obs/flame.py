"""Flame-graph exporters: chrome://tracing and speedscope formats.

``trace export --format chrome|speedscope`` turns a recorded run into a
file that standard trace viewers open directly:

* **chrome** — the Trace Event Format (``chrome://tracing`` /
  Perfetto): one ``X`` (complete) event per span, merged pool workers
  on their own thread lanes, worker heartbeats and stalls on one lane
  per worker pid, other recorder events as instant markers on the main
  lane.  Every event carries ``args.trace_id`` so a flame graph can be
  joined back to the service job / CLI run that produced it.
* **speedscope** — the speedscope.app "evented" profile: open/close
  frame events per lane, for flame-chart reading of long runs.

Both read a ``repro.obs/v1`` payload — a ``--telemetry`` export or the
fold of a ``--stream`` file / daemon job stream
(:func:`repro.obs.load_telemetry`).  Each span node keeps the wall-clock
time its ``span_open`` was recorded (``t``), so the chrome timeline
is real time; spans a crash or a restart left open render with
``status=aborted`` instead of disappearing.

:func:`validate_chrome_trace` is the structural gate used by CI: every
event must carry the run's trace id and nest cleanly inside its parent
on the same lane.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

__all__ = [
    "chrome_from_payload",
    "speedscope_from_payload",
    "validate_chrome_trace",
]

_US = 1e6  # seconds → trace-event microseconds

#: Events drawn on a lane of their own per worker pid.
_PID_LANE_EVENTS = ("worker_heartbeat", "worker_stalled")


def _trace_args(trace: Mapping[str, Any] | None) -> dict[str, Any]:
    args: dict[str, Any] = {}
    if trace:
        for key in ("trace_id", "span_id", "parent_span_id"):
            if trace.get(key):
                args[key] = trace[key]
    return args


def _thread_meta(pid: int, tid: int, name: str) -> dict[str, Any]:
    return {
        "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
        "args": {"name": name},
    }


def _is_worker(node: Mapping[str, Any]) -> bool:
    name = str(node.get("name", ""))
    return name.startswith("worker:") or name == "worker"


def _walk(node: Mapping[str, Any]) -> Iterator[Mapping[str, Any]]:
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


class _ChromeLayout:
    """Span tree → ``X`` events, one lane per merged worker."""

    def __init__(self, t0: float | None, base_args: dict[str, Any]):
        self.t0 = t0
        self.base_args = base_args
        self.pid = 1
        self.events: list[dict[str, Any]] = []
        self.lanes: list[dict[str, Any]] = [_thread_meta(1, 1, "main")]
        self._next_tid = 2

    def span(
        self, node: Mapping[str, Any], start_us: float, tid: int
    ) -> float:
        """Emit one span subtree; returns the span's end in µs.

        The span starts at its recorded time ``t`` but never before
        ``start_us`` — its parent's start, or its previous sibling's end
        on the same lane — and ends no earlier than its children, so
        lanes nest even where the wall clock and the span timers differ
        by microseconds.  A node without ``t`` is laid out sequentially.
        ``worker:<label>`` wrappers switch to a fresh lane and keep
        their own start, so concurrent workers render side by side.
        """
        name = str(node.get("name", "?"))
        if _is_worker(node):
            tid = self._next_tid
            self._next_tid += 1
            self.lanes.append(_thread_meta(self.pid, tid, name))
        t = node.get("t")
        if self.t0 is not None and isinstance(t, (int, float)):
            start_us = max(start_us, (t - self.t0) * _US)
        end_us = start_us + max(float(node.get("wall_s", 0.0)), 0.0) * _US
        cursor = start_us
        for child in node.get("children", ()):
            if _is_worker(child):
                end_us = max(end_us, self.span(child, start_us, tid))
            else:
                cursor = self.span(child, cursor, tid)
                end_us = max(end_us, cursor)
        args = dict(self.base_args)
        for key, value in (node.get("attrs") or {}).items():
            if isinstance(value, (str, int, float, bool)):
                args[key] = value
        if node.get("open") and "status" not in args:
            args["status"] = "aborted"
        self.events.append({
            "name": name, "ph": "X", "ts": round(start_us, 3),
            "dur": round(end_us - start_us, 3), "pid": self.pid,
            "tid": tid, "cat": "span", "args": args,
        })
        return end_us

    def instant(self, record: Mapping[str, Any], ts_us: float) -> None:
        name = str(record.get("name", "event"))
        tid = 1
        worker_pid = record.get("pid")
        if name in _PID_LANE_EVENTS and isinstance(worker_pid, int):
            tid = worker_pid
            if all(lane["tid"] != tid for lane in self.lanes):
                self.lanes.append(
                    _thread_meta(self.pid, tid, f"worker pid={tid}")
                )
        args = dict(self.base_args)
        for key, value in record.items():
            if key != "name" and isinstance(value, (str, int, float, bool)):
                args[key] = value
        self.events.append({
            "name": name, "ph": "i", "ts": round(ts_us, 3),
            "pid": self.pid, "tid": tid, "s": "t", "cat": "event",
            "args": args,
        })


def chrome_from_payload(payload: Mapping[str, Any]) -> dict[str, Any]:
    """A ``repro.obs/v1`` payload as a Trace Event Format document.

    Timestamps are µs since the earliest recorded span start.  Events
    carry no timestamps in the payload, so they follow the spans in
    record order, 1 µs apart.
    """
    manifest = payload.get("manifest") or {}
    trace = manifest.get("trace") or {}
    root = payload.get("spans") or {"name": "run"}
    starts = [
        node["t"] for node in _walk(root)
        if isinstance(node.get("t"), (int, float))
    ]
    layout = _ChromeLayout(min(starts) if starts else None, _trace_args(trace))
    cursor = layout.span(root, 0.0, 1)
    for record in payload.get("events", ()):
        layout.instant(record, cursor)
        cursor += 1.0
    return {
        "traceEvents": layout.lanes + layout.events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": "repro.obs.chrome/v1",
            "trace": dict(trace),
            "counters": dict(payload.get("counters") or {}),
            "profile": manifest.get("profile") or {},
        },
    }


# -- speedscope --------------------------------------------------------------


def speedscope_from_payload(payload: Mapping[str, Any]) -> dict[str, Any]:
    """A ``repro.obs/v1`` payload as a speedscope "evented" profile."""
    frames: list[dict[str, str]] = []
    frame_index: dict[str, int] = {}

    def frame(name: str) -> int:
        if name not in frame_index:
            frame_index[name] = len(frames)
            frames.append({"name": name})
        return frame_index[name]

    events: list[dict[str, Any]] = []

    def emit(
        node: Mapping[str, Any], start_s: float, out: list[dict[str, Any]]
    ) -> float:
        name = str(node.get("name", "?"))
        dur_s = max(float(node.get("wall_s", 0.0)), 0.0)
        index = frame(name)
        child_events: list[dict[str, Any]] = []
        cursor = start_s
        for child in node.get("children", ()):
            cursor += emit(child, cursor, child_events)
        dur_s = max(dur_s, cursor - start_s)
        out.append({"type": "O", "frame": index, "at": start_s})
        out.extend(child_events)
        out.append({"type": "C", "frame": index, "at": start_s + dur_s})
        return dur_s

    root = payload.get("spans") or {"name": "run"}
    total_s = emit(root, 0.0, events)
    trace = (payload.get("manifest") or {}).get("trace") or {}
    name = "repro run"
    if trace.get("trace_id"):
        name = f"repro trace {trace['trace_id']}"
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [{
            "type": "evented",
            "name": name,
            "unit": "seconds",
            "startValue": 0.0,
            "endValue": total_s,
            "events": events,
        }],
        "exporter": "repro.obs.flame",
    }


# -- validation (CI gate) ----------------------------------------------------

_VALID_PH = {"X", "i", "I", "M", "B", "E"}
_EPS_US = 0.51  # timestamps are rounded to 3 decimals; allow that slack


def validate_chrome_trace(
    doc: Mapping[str, Any], *, expect_trace_id: str | None = None
) -> dict[str, Any]:
    """Structural gate for an exported chrome trace.

    Checks, raising :class:`ValueError` on the first violation:

    * ``traceEvents`` is a list of well-formed events (name/ph/pid/tid,
      ``ts`` + nonnegative ``dur`` where applicable);
    * every non-metadata event carries ``args.trace_id``, all equal
      (and equal to ``expect_trace_id`` when given) — the end-to-end
      correlation invariant;
    * complete events nest: on each (pid, tid) lane, every span lies
      within its enclosing span's interval, so parent links resolve by
      containment.

    Returns summary stats (event/span/lane counts, the trace id).
    """
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents missing or empty")
    trace_ids: set[str] = set()
    spans_by_lane: dict[tuple[Any, Any], list[dict[str, Any]]] = {}
    n_spans = n_instant = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {index}: not an object")
        ph = event.get("ph")
        if ph not in _VALID_PH:
            raise ValueError(f"event {index}: bad ph {ph!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"event {index}: missing name")
        if "pid" not in event or "tid" not in event:
            raise ValueError(f"event {index}: missing pid/tid")
        if ph == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)):
            raise ValueError(f"event {index}: missing ts")
        args = event.get("args")
        if not isinstance(args, dict) or not args.get("trace_id"):
            raise ValueError(f"event {index}: missing args.trace_id")
        trace_ids.add(args["trace_id"])
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event {index}: X event needs dur >= 0")
            lane = (event["pid"], event["tid"])
            spans_by_lane.setdefault(lane, []).append(event)
            n_spans += 1
        else:
            n_instant += 1
    if len(trace_ids) != 1:
        raise ValueError(f"expected one trace_id, found {sorted(trace_ids)}")
    trace_id = next(iter(trace_ids))
    if expect_trace_id is not None and trace_id != expect_trace_id:
        raise ValueError(
            f"trace_id {trace_id} != expected {expect_trace_id}"
        )
    for lane, spans in spans_by_lane.items():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[float] = []  # enclosing span end timestamps
        for event in spans:
            start, end = event["ts"], event["ts"] + event["dur"]
            while stack and stack[-1] <= start + _EPS_US:
                stack.pop()
            if stack and end > stack[-1] + _EPS_US:
                raise ValueError(
                    f"lane {lane}: span {event['name']!r} "
                    f"[{start}, {end}] escapes its parent (ends "
                    f"{stack[-1]})"
                )
            stack.append(end)
    return {
        "trace_id": trace_id,
        "spans": n_spans,
        "instants": n_instant,
        "lanes": len(spans_by_lane),
    }
