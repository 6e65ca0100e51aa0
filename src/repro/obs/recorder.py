"""Recorders: the core of the observability subsystem.

Two implementations share one duck-typed interface:

* :class:`NullRecorder` — the process-wide default.  Every method is a
  no-op and :meth:`NullRecorder.span` returns a shared do-nothing
  context manager, so instrumented library code costs essentially
  nothing when telemetry is off (asserted by ``tests/obs``).
* :class:`TelemetryRecorder` — appends every span open/close, event,
  convergence record and manifest section to one list of stream records
  (forwarding each to a live :class:`~repro.obs.TelemetryStream` when
  one is attached) and keeps counters / gauges / histograms as running
  aggregates.  :meth:`TelemetryRecorder.export` is
  :func:`~repro.obs.stream.stream_to_payload` over that list, so a run's
  payload and the fold of its stream file are the same thing.

Thread safety: each thread keeps its own span stack (``threading.local``)
so concurrently open spans never corrupt each other; the record list
and the aggregates are guarded by a single lock.  Process safety: worker
processes install their *own* recorder and return its records, and the
parent re-emits them under a ``worker:<label>`` span via
:meth:`TelemetryRecorder.merge_child` — the pattern used by the
parallel MDP pipeline and the tile pool.

The active recorder is resolved through :func:`get_recorder` at call
time, so installing a recorder mid-process (the CLI ``--telemetry``
flag) retroactively covers every instrumented module.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from typing import Any, Iterator

from repro.obs.stream import merge_metrics, stream_to_payload

__all__ = [
    "NullRecorder",
    "SpanNode",
    "TelemetryRecorder",
    "get_recorder",
    "recording",
    "set_recorder",
    "thread_recording",
]


class _NullSpan:
    """Shared do-nothing context manager returned by the null recorder."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Default recorder: every operation is a no-op (see module docstring)."""

    __slots__ = ()

    enabled = False
    stream = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def incr(self, name: str, value: int | float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def convergence(self, **fields: Any) -> None:
        pass

    def manifest_section(self, section: str, value: Any) -> None:
        pass

    def merge_child(self, records: list, label: str = "") -> None:
        pass


class SpanNode:
    """Read-side view of one node of a payload's span tree.

    ``closed`` is false for a span that was still open when its records
    ended (``"open": true`` in the payload): a live run, or a writer
    that died mid-span.  ``t`` is the unix time the span opened, or
    ``None`` when the payload does not carry it.
    """

    __slots__ = ("name", "attrs", "t", "wall_s", "cpu_s", "children", "closed")

    def __init__(self, node: dict[str, Any]):
        self.name: str = node.get("name", "?")
        self.attrs: dict[str, Any] = dict(node.get("attrs") or {})
        t = node.get("t")
        self.t = float(t) if isinstance(t, (int, float)) else None
        self.wall_s = float(node.get("wall_s", 0.0))
        self.cpu_s = float(node.get("cpu_s", 0.0))
        self.closed = not node.get("open", False)
        self.children = [SpanNode(child) for child in node.get("children", ())]

    def walk(self) -> Iterator["SpanNode"]:
        """Depth-first iteration over this node and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()


class _SpanContext:
    """Context manager that records one span's open and close."""

    __slots__ = ("_rec", "name", "attrs", "id", "_late", "_t0", "_c0")

    def __init__(self, rec: "TelemetryRecorder", name: str, attrs: dict):
        self._rec = rec
        self.name = name
        self.attrs = attrs
        self._late: dict[str, Any] = {}

    def __enter__(self) -> "_SpanContext":
        rec = self._rec
        stack = rec._stack()
        self.id = next(rec._ids)
        record = {
            "type": "span_open",
            "id": self.id,
            "parent": stack[-1].id if stack else None,
            "name": self.name,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        stack.append(self)
        rec._publish_path(stack)
        rec._record(record)
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, *exc: object) -> bool:
        record = {
            "type": "span_close",
            "id": self.id,
            "name": self.name,
            "wall_s": time.perf_counter() - self._t0,
            "cpu_s": time.process_time() - self._c0,
        }
        if self._late:
            record["attrs"] = dict(self._late)
        stack = self._rec._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._rec._publish_path(stack)
        self._rec._record(record)
        return False

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes discovered after the span was opened."""
        self._late.update(attrs)


class TelemetryRecorder:
    """Collecting recorder (see module docstring for the data model)."""

    enabled = True

    def __init__(
        self,
        manifest: dict[str, Any] | None = None,
        stream: Any | None = None,
        trace: Any | None = None,
    ):
        manifest = dict(manifest) if manifest else {}
        # Trace context (repro.obs.trace.TraceContext or its dict form):
        # recorded in the manifest and pushed down to the stream so every
        # emitted line carries the run's trace_id.
        if trace is not None:
            trace_dict = trace.to_dict() if hasattr(trace, "to_dict") else dict(trace)
            manifest.setdefault("trace", trace_dict)
        elif getattr(stream, "trace_id", None):
            manifest.setdefault("trace", {"trace_id": stream.trace_id})
        self.trace: dict[str, Any] | None = manifest.get("trace")
        self.stream = stream  # live TelemetryStream sink, or None
        if self.trace and stream is not None:
            stream.set_trace(self.trace.get("trace_id"))
        #: Every record of the run, in stream order (the payload's source).
        self.records: list[dict[str, Any]] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, dict[str, float]] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        # Mirror of each thread's open-span path, readable from *other*
        # threads: the sampling profiler attributes main-thread stack
        # samples from its own sampler thread, where the thread-local
        # stack above is invisible.
        self._path_by_thread: dict[int, str] = {}
        self._record({"type": "manifest", **manifest})

    def _record(self, record: dict[str, Any]) -> None:
        """Stamp ``t``, keep the record and forward it to the stream."""
        record["t"] = round(time.time(), 6)
        with self._lock:
            self.records.append(record)
            if self.stream is not None:
                self.stream.emit(record)

    # -- span context --------------------------------------------------------

    def _stack(self) -> list[_SpanContext]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a nested span; use as ``with rec.span("refine"): ...``."""
        thread = threading.current_thread()
        if thread is not threading.main_thread():
            attrs.setdefault("thread", thread.name)
        return _SpanContext(self, name, attrs)

    def _publish_path(self, stack: list[_SpanContext]) -> None:
        path = "/".join(ctx.name for ctx in stack)
        thread_id = threading.get_ident()
        if path:
            self._path_by_thread[thread_id] = path
        else:
            self._path_by_thread.pop(thread_id, None)

    def current_path(self, thread_id: int | None = None) -> str:
        """Slash-joined names of the spans open on a thread.

        Without ``thread_id``, the calling thread's own path.  With one,
        the last published path of *that* thread — how the sampling
        profiler labels main-thread samples from its sampler thread.
        """
        if thread_id is not None:
            return self._path_by_thread.get(thread_id, "")
        return "/".join(ctx.name for ctx in self._stack())

    # -- metrics -------------------------------------------------------------

    def incr(self, name: str, value: int | float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Add one sample to the named histogram (count/sum/min/max)."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = {
                    "count": 0, "sum": 0.0,
                    "min": math.inf, "max": -math.inf,
                }
                self.histograms[name] = hist
            hist["count"] += 1
            hist["sum"] += value
            hist["min"] = min(hist["min"], value)
            hist["max"] = max(hist["max"], value)

    # -- structured records --------------------------------------------------

    def event(self, name: str, **fields: Any) -> None:
        self._record({
            "type": "event", "name": name, "span": self.current_path(),
            **fields,
        })

    def convergence(self, **fields: Any) -> None:
        """Record one per-iteration record of the refinement loop."""
        self._record(
            {"type": "convergence", "span": self.current_path(), **fields}
        )

    def manifest_section(self, section: str, value: Any) -> None:
        """Record one manifest section: a dict updates the section, a
        list extends it, anything else replaces it."""
        self._record(
            {"type": "manifest_update", "section": section, "value": value}
        )

    def snapshot_metrics(self) -> dict[str, Any]:
        """A consistent copy of the current counters, gauges, histograms."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {
                    name: dict(hist) for name, hist in self.histograms.items()
                },
            }

    def emit_metrics(self) -> None:
        """Record a metrics snapshot (and stream it, if a stream is on)."""
        self._record({"type": "metrics", **self.snapshot_metrics()})

    # -- export / merge ------------------------------------------------------

    def export(self) -> dict[str, Any]:
        """The run's payload: the fold of its records and current metrics."""
        with self._lock:
            records = list(self.records)
        records.append({"type": "metrics", **self.snapshot_metrics()})
        return stream_to_payload(records)

    @property
    def manifest(self) -> dict[str, Any]:
        return self.export()["manifest"]

    @property
    def root(self) -> SpanNode:
        return SpanNode(self.export()["spans"])

    @property
    def events(self) -> list[dict[str, Any]]:
        return self.export()["events"]

    @property
    def convergence_records(self) -> list[dict[str, Any]]:
        return self.export()["convergence"]

    def merge_child(
        self, records: list[dict[str, Any]], label: str = ""
    ) -> None:
        """Re-emit a child-process recorder's records under this one.

        The child's spans hang under a ``worker:<label>`` span in the
        *current* span context, with ids remapped into this recorder's
        id space; its events and convergence records are tagged with
        the worker label.  The child's last metrics snapshot merges into
        the aggregates: counters sum, histograms merge, gauges adopt the
        child's value.  Everything is recorded, and streamed, in one
        batch.

        Spans the child never closed (it crashed, or returned its
        records mid-span) are closed here with an explicit
        ``status=aborted`` attribute — a crash must leave a visible
        mark in the merged tree, not a dangling or missing span.  The
        child's trace context, if it carried one, is stamped on the
        wrapper so the graft stays joinable to the job's trace_id.
        """
        # A recorder's first record is its manifest.
        child_trace = (records[0].get("trace") if records else None)
        trace_id = (child_trace or self.trace or {}).get("trace_id")
        stack = self._stack()
        name = f"worker:{label}" if label else "worker"
        wrapper = next(self._ids)
        ids: dict[Any, int] = {}
        unclosed: dict[Any, str] = {}
        top_level: set[Any] = set()
        wall_s = cpu_s = 0.0
        snapshot = None
        merged: list[dict[str, Any]] = []
        n_events = 0
        for record in records:
            kind = record.get("type")
            if kind == "span_open":
                child_id = record.get("id")
                parent = ids.get(record.get("parent"))
                if parent is None:
                    parent = wrapper
                    top_level.add(child_id)
                ids[child_id] = next(self._ids)
                unclosed[child_id] = record.get("name", "?")
                merged.append(
                    {**record, "id": ids[child_id], "parent": parent}
                )
            elif kind == "span_close" and record.get("id") in unclosed:
                child_id = record["id"]
                del unclosed[child_id]
                if child_id in top_level:
                    wall_s += record.get("wall_s", 0.0)
                    cpu_s += record.get("cpu_s", 0.0)
                merged.append({**record, "id": ids[child_id]})
            elif kind in ("event", "convergence"):
                n_events += kind == "event"
                merged.append({**record, "worker": label})
            elif kind == "metrics":
                snapshot = record
        stamp = {"trace_id": trace_id} if trace_id else {}
        for child_id in reversed(list(unclosed)):
            merged.append({
                "type": "span_close", "id": ids[child_id],
                "name": unclosed[child_id], "wall_s": 0.0, "cpu_s": 0.0,
                "attrs": {"status": "aborted", **stamp},
            })
        opened = {
            "type": "span_open", "id": wrapper,
            "parent": stack[-1].id if stack else None, "name": name,
        }
        if stamp:
            opened["attrs"] = stamp
        if merged and "t" in merged[0]:
            opened["t"] = merged[0]["t"]  # the worker's own start time
        summary = {
            "type": "worker_merged", "label": label,
            "wall_s": wall_s, "events": n_events,
        }
        if unclosed:
            summary["aborted_spans"] = len(unclosed)
        batch = [
            opened,
            *merged,
            {"type": "span_close", "id": wrapper, "name": name,
             "wall_s": wall_s, "cpu_s": cpu_s},
            summary,
        ]
        now = round(time.time(), 6)
        with self._lock:
            if snapshot is not None:
                merge_metrics(
                    {"counters": self.counters, "gauges": self.gauges,
                     "histograms": self.histograms},
                    snapshot,
                )
            for record in batch:
                record.setdefault("t", now)
            self.records.extend(batch)
            if self.stream is not None:
                self.stream.emit_many(batch)


_RECORDER: NullRecorder | TelemetryRecorder = NullRecorder()

# Per-thread recorder override.  The service daemon runs several jobs
# concurrently in worker threads of one process; each job installs its
# own recorder for its thread only, so two jobs' spans, counters and
# streams never mix.  Library code keeps calling get_recorder() and is
# oblivious to which scope the recorder came from.
_THREAD_RECORDER = threading.local()


def get_recorder() -> NullRecorder | TelemetryRecorder:
    """The active recorder: this thread's override, else the process one."""
    override = getattr(_THREAD_RECORDER, "recorder", None)
    if override is not None:
        return override
    return _RECORDER


def set_recorder(
    recorder: NullRecorder | TelemetryRecorder | None,
) -> NullRecorder | TelemetryRecorder:
    """Install ``recorder`` process-wide (``None`` restores the null default)."""
    global _RECORDER
    _RECORDER = recorder if recorder is not None else NullRecorder()
    return _RECORDER


class recording:
    """Temporarily install a recorder: ``with recording(rec): ...``."""

    def __init__(self, recorder: NullRecorder | TelemetryRecorder | None):
        self._recorder = recorder

    def __enter__(self) -> NullRecorder | TelemetryRecorder:
        self._previous = get_recorder()
        return set_recorder(self._recorder)

    def __exit__(self, *exc: object) -> bool:
        set_recorder(self._previous)
        return False


class thread_recording:
    """Install a recorder for the *current thread* only.

    ``with thread_recording(rec): ...`` — concurrent job threads of the
    service daemon each get an isolated recorder while the process-wide
    default stays untouched for everyone else.  Nestable; restores the
    previous thread override (or none) on exit.
    """

    def __init__(self, recorder: NullRecorder | TelemetryRecorder | None):
        self._recorder = recorder if recorder is not None else NullRecorder()

    def __enter__(self) -> NullRecorder | TelemetryRecorder:
        self._previous = getattr(_THREAD_RECORDER, "recorder", None)
        _THREAD_RECORDER.recorder = self._recorder
        return self._recorder

    def __exit__(self, *exc: object) -> bool:
        _THREAD_RECORDER.recorder = self._previous
        return False
