"""The telemetry stream: the one on-disk telemetry format.

:class:`TelemetryStream` is the write side: an append-only JSONL file to
which the recorder emits one self-describing record per line as things
happen (span open/close, events, convergence records, metric snapshots,
manifest sections, merged worker records).  A multi-hour tiled
``fracture --window-nm --workers`` job is therefore observable *while
it runs* (``trace tail --follow``, ``repro top``), and the finished file
is the run's complete telemetry: every ``repro.obs/v1`` payload — the
recorder's own :meth:`~repro.obs.TelemetryRecorder.export` included —
is :func:`stream_to_payload` folded over the run's records.

Durability contract: records are serialized to whole lines and
written with a single ``write`` call followed by a flush, so concurrent
writer threads interleave at line granularity and a crash tears at
most the trailing line.  Readers
(:func:`read_stream`, :func:`follow_stream`) skip torn or undecodable
lines instead of raising.  The stream is *observational only* — nothing
in the fracturing pipeline reads it back, so enabling it cannot change
results (the determinism contract of the tiled executor is preserved).

Record types (``"type"`` field, schema ``repro.obs.stream/v1``):

===================  ====================================================
``stream_header``    first line of each attempt: schema, pid, creation
                     time (a resumed daemon job appends another one)
``manifest``         the run manifest (params, git SHA, host, trace)
``manifest_update``  one manifest ``section`` and its ``value`` (dicts
                     update, lists extend, anything else replaces)
``span_open``        a span started (``id``, ``parent``, ``name``,
                     ``attrs``)
``span_close``       a span finished (``id``, ``name``, ``wall_s``,
                     ``cpu_s``, ``attrs`` set by ``annotate()``)
``event``            a recorder event (``tile_outcome``, ``progress``,
                     ``worker_heartbeat``, ``worker_stalled``, …)
``convergence``      one per-iteration refinement record
``metrics``          a counters/gauges/histograms snapshot
``worker_merged``    a pool worker's records were re-emitted under its
                     ``worker:<label>`` span
``stream_end``       last line: run status
===================  ====================================================

Every record carries ``seq`` (monotonic per attempt) and ``t`` (unix
time, stamped once by the recorder).  Span ids are scoped to one
attempt: a resumed job's ids restart after its ``stream_header``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "STREAM_SCHEMA",
    "StreamFormatter",
    "TelemetryStream",
    "follow_stream",
    "merge_metrics",
    "parse_record",
    "read_stream",
    "stream_to_payload",
]

STREAM_SCHEMA = "repro.obs.stream/v1"

#: One shared encoder: ``json.dumps(..., default=str)`` builds a new
#: encoder per call, a third of the cost of a short record.
_ENCODER = json.JSONEncoder(default=str)


class TelemetryStream:
    """Append-only JSONL event sink with atomic line writes.

    ``fsync`` per line is off by default: the stream is an observability
    artifact, not a recovery journal, and the torn-tail-tolerant readers
    make the flush-only mode safe for everything but a full OS crash.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: bool = False,
        append: bool = False,
        trace_id: str | None = None,
    ):
        """Open a stream at ``path``; ``append`` continues an earlier one.

        Append mode is the per-job stream routing of the service daemon:
        a resumed job attempt keeps writing the *same* stream file, so a
        ``trace tail --follow`` attached across a daemon restart sees the
        whole job history.  Each attempt contributes its own
        ``stream_header`` (readers tolerate repeats), and an interrupted
        attempt's torn tail is skipped by the torn-line-tolerant readers.

        ``trace_id`` (also settable later via :meth:`set_trace`) stamps
        every emitted record, the header included — the correlation
        contract of :mod:`repro.obs.trace`.
        """
        self.path = Path(path)
        if self.path.parent != Path():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._lock = threading.Lock()
        self._seq = 0
        self._closed = False
        self._trace_id = trace_id
        mode = "a" if append else "w"
        self._fh = open(self.path, mode, encoding="utf-8")
        if append and self._fh.tell() > 0:
            # An interrupted writer may have torn the trailing line;
            # start our records on a fresh line so they stay parseable.
            self._fh.write("\n")
        self.emit({
            "type": "stream_header",
            "schema": STREAM_SCHEMA,
            "pid": os.getpid(),
            "created_unix": time.time(),
            "resumed": bool(append),
        })

    def set_trace(self, trace_id: str | None) -> None:
        """Stamp all *subsequent* records with ``trace_id``.

        Installing the id after the header has gone out is fine for
        correlation — readers join on any stamped record — but callers
        that know the id up front should pass it to the constructor so
        the header carries it too.
        """
        with self._lock:
            self._trace_id = trace_id

    @property
    def trace_id(self) -> str | None:
        return self._trace_id

    def emit(self, record: dict[str, Any]) -> None:
        """Append one record as a single atomic line (no-op when closed)."""
        self.emit_many((record,))

    def emit_many(self, records: Iterable[dict[str, Any]]) -> None:
        """Append records as whole lines with one ``write`` and one flush.

        A record that already carries ``t`` keeps it: the recorder
        stamps each record once, so the stream and the in-memory fold
        agree on every timestamp.
        """
        with self._lock:
            if self._closed:
                return
            lines = [self._line(record) for record in records]
            self._fh.write("".join(lines))
            self._fh.flush()
            if self._fsync:
                os.fsync(self._fh.fileno())

    def _line(self, record: dict[str, Any]) -> str:
        record = {**record, "seq": self._seq}
        if "t" not in record:
            record["t"] = round(time.time(), 6)
        if self._trace_id and "trace_id" not in record:
            record["trace_id"] = self._trace_id
        self._seq += 1
        try:
            return _ENCODER.encode(record) + "\n"
        except (TypeError, ValueError):
            return json.dumps({
                "type": "stream_error",
                "seq": record["seq"],
                "t": record["t"],
                "error": "unserializable record dropped",
            }) + "\n"

    def close(self, status: str = "ok") -> None:
        """Emit the terminal ``stream_end`` record and close the file."""
        self.emit({"type": "stream_end", "status": status})
        with self._lock:
            if not self._closed:
                self._closed = True
                self._fh.close()

    def detach(self) -> None:
        """Close the file *without* the terminal record.

        The graceful-interrupt path of the service daemon: the job will
        resume and append to this same stream, so the one ``stream_end``
        must come from the attempt that actually finishes — otherwise a
        ``trace tail --follow`` attached across the restart would stop
        at a mid-file terminal record.
        """
        with self._lock:
            if not self._closed:
                self._closed = True
                self._fh.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "TelemetryStream":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> bool:
        self.close(status="ok" if exc_type is None else "error")
        return False


def follow_stream(
    path: str | Path,
    *,
    follow: bool = False,
    poll_s: float = 0.2,
    timeout_s: float | None = None,
    stop: Callable[[], bool] | None = None,
) -> Iterator[dict[str, Any]]:
    """Yield records from a stream file, torn-tail and torn-line tolerant.

    Without ``follow`` the generator drains the file and returns (a
    trailing partial line is silently dropped).  With ``follow`` it
    keeps polling for appended records until it sees ``stream_end``,
    ``stop()`` returns true, or ``timeout_s`` elapses — the behaviour
    behind ``trace tail --follow``.

    Torn or corrupt mid-file lines are not silently papered over: the
    writer numbers every record (``seq``), so a discontinuity yields a
    synthetic ``{"type": "stream_gap", ...}`` record naming how many
    records went missing before the next good one.  A ``stream_header``
    legitimately restarts the numbering (each attempt of a resumed job
    writes its own), so headers reset the expectation instead of
    flagging a gap.
    """
    path = Path(path)
    deadline = time.monotonic() + timeout_s if timeout_s is not None else None
    expected_seq: int | None = None

    def expired() -> bool:
        if stop is not None and stop():
            return True
        return deadline is not None and time.monotonic() >= deadline

    while not path.exists():
        if not follow:
            raise FileNotFoundError(f"no telemetry stream at {path}")
        if expired():
            return
        time.sleep(poll_s)
    buffer = ""
    with open(path, "r", encoding="utf-8") as fh:
        while True:
            chunk = fh.readline()
            if chunk:
                buffer += chunk
                if not buffer.endswith("\n"):
                    # Torn mid-record: wait for the writer to finish the
                    # line (or drop it at EOF in non-follow mode).
                    continue
                record, buffer = parse_record(buffer), ""
                if record is None:
                    continue
                seq = record.get("seq")
                if isinstance(seq, int):
                    is_header = record.get("type") == "stream_header"
                    if (
                        expected_seq is not None
                        and seq != expected_seq
                        and not is_header
                    ):
                        gap: dict[str, Any] = {
                            "type": "stream_gap",
                            "expected_seq": expected_seq,
                            "got_seq": seq,
                            "missing": max(seq - expected_seq, 1),
                        }
                        if record.get("trace_id"):
                            gap["trace_id"] = record["trace_id"]
                        yield gap
                    expected_seq = seq + 1
                yield record
                if follow and record.get("type") == "stream_end":
                    return
            else:
                if not follow or expired():
                    return
                time.sleep(poll_s)


def parse_record(line: str) -> dict[str, Any] | None:
    """One stream line as a record, or ``None`` if blank, torn or not
    an object — the one torn-line-tolerant parse every reader shares."""
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


def read_stream(path: str | Path) -> list[dict[str, Any]]:
    """All complete records of a (possibly torn) stream file."""
    return list(follow_stream(path, follow=False))


#: Keys the writer stamps on every record; not part of a folded body.
_ENVELOPE = ("type", "seq", "t", "trace_id")


def merge_metrics(into: dict[str, Any], snapshot: dict[str, Any]) -> None:
    """Add a counters/gauges/histograms snapshot into ``into``.

    Counters sum, gauges take the snapshot's value and histograms merge
    count/sum/min/max.  ``into`` must hold the three dicts.
    """
    counters = into["counters"]
    for name, value in (snapshot.get("counters") or {}).items():
        counters[name] = counters.get(name, 0) + value
    into["gauges"].update(snapshot.get("gauges") or {})
    histograms = into["histograms"]
    for name, hist in (snapshot.get("histograms") or {}).items():
        mine = histograms.get(name)
        if mine is None:
            histograms[name] = dict(hist)
        else:
            mine["count"] += hist["count"]
            mine["sum"] += hist["sum"]
            mine["min"] = min(mine["min"], hist["min"])
            mine["max"] = max(mine["max"], hist["max"])


def _merge_section(manifest: dict[str, Any], section: str, value: Any) -> None:
    """Apply one ``manifest_update``: dicts update, lists extend, else
    replace — into new containers, so the records stay untouched."""
    current = manifest.get(section)
    if isinstance(current, dict) and isinstance(value, dict):
        value = {**current, **value}
    elif isinstance(current, list) and isinstance(value, list):
        value = current + value
    manifest[section] = value


def stream_to_payload(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Fold stream records into a ``repro.obs/v1`` payload.

    The fold every payload comes from: spans link into a tree by
    ``id``/``parent`` (each node keeps its open time ``t``), the
    manifest is the ``manifest`` record plus its ``manifest_update``
    sections, and counters/gauges/histograms are the last ``metrics``
    snapshot of each attempt, summed across attempts.  Events and
    convergence records carry over without the stream envelope;
    convergence records are renumbered (``seq``) in fold order.

    Each ``stream_header`` starts an attempt with its own span ids.
    Spans an earlier attempt left open were cut off by the restart and
    are closed with ``attrs.status = "aborted"``; spans still open at
    the end of the records keep ``"open": true`` (a live run, or a
    writer that died).  A ``span_close`` whose ``span_open`` was lost to
    a torn line lands under the root, and undecodable records are
    skipped.
    """
    manifest: dict[str, Any] = {}
    root: dict[str, Any] = {"name": "run", "wall_s": 0.0, "cpu_s": 0.0}
    open_spans: dict[Any, dict[str, Any]] = {}
    totals: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    snapshot: dict[str, Any] | None = None
    events: list[dict[str, Any]] = []
    convergence: list[dict[str, Any]] = []
    header_trace = None
    gaps = 0
    for record in records:
        if not isinstance(record, dict):
            continue
        kind = record.get("type")
        if kind == "span_open":
            node = {
                "name": record.get("name", "?"), "t": record.get("t"),
                "wall_s": 0.0, "cpu_s": 0.0, "open": True,
            }
            if record.get("attrs"):
                node["attrs"] = dict(record["attrs"])
            parent = open_spans.get(record.get("parent"), root)
            parent.setdefault("children", []).append(node)
            if record.get("id") is not None:
                open_spans[record["id"]] = node
        elif kind == "span_close":
            node = open_spans.pop(record.get("id"), None)
            if node is None:
                node = {"name": record.get("name", "?")}
                root.setdefault("children", []).append(node)
            node.pop("open", None)
            node["wall_s"] = record.get("wall_s", 0.0)
            node["cpu_s"] = record.get("cpu_s", 0.0)
            if record.get("attrs"):
                node["attrs"] = {**node.get("attrs", {}), **record["attrs"]}
        elif kind == "event":
            events.append(_body(record))
        elif kind == "convergence":
            convergence.append({**_body(record), "seq": len(convergence)})
        elif kind == "metrics":
            snapshot = record
        elif kind == "manifest":
            manifest.update(_body(record))
        elif kind == "manifest_update" and record.get("section"):
            _merge_section(manifest, record["section"], record.get("value"))
        elif kind == "stream_header":
            for node in open_spans.values():
                node.pop("open", None)
                node["attrs"] = {**node.get("attrs", {}), "status": "aborted"}
            open_spans.clear()
            if snapshot is not None:
                merge_metrics(totals, snapshot)
                snapshot = None
            header_trace = header_trace or record.get("trace_id")
        elif kind == "stream_gap":
            gaps += 1
    if snapshot is not None:
        merge_metrics(totals, snapshot)
    if gaps:
        totals["counters"]["stream.gaps"] = (
            totals["counters"].get("stream.gaps", 0) + gaps
        )
    if header_trace and "trace" not in manifest:
        manifest["trace"] = {"trace_id": header_trace}
    top = root.get("children", ())
    root["wall_s"] = sum(child["wall_s"] for child in top)
    root["cpu_s"] = sum(child["cpu_s"] for child in top)
    return {
        "schema": "repro.obs/v1",
        "manifest": manifest,
        "spans": root,
        **totals,
        "events": events,
        "convergence": convergence,
    }


def _body(record: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in record.items() if k not in _ENVELOPE}


# -- human-readable rendering (``trace tail``) -------------------------------


def _kv(fields: dict[str, Any], skip: tuple[str, ...] = ()) -> str:
    parts = []
    for key, value in fields.items():
        if key in skip or value is None:
            continue
        if isinstance(value, float):
            value = f"{value:.4g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def _mb(n_bytes: Any) -> str:
    try:
        return f"{float(n_bytes) / 1e6:.0f}MB"
    except (TypeError, ValueError):
        return "?"


class StreamFormatter:
    """One-line-per-record rendering of a telemetry stream.

    Stateful: the first record anchors ``t=0`` so every line leads with
    the relative run time, and open spans are tracked by id so each
    ``span_open`` line shows its full path.
    """

    def __init__(self) -> None:
        self._t0: float | None = None
        self._paths: dict[Any, str] = {}

    def format(self, record: dict[str, Any]) -> str:
        t = record.get("t")
        if self._t0 is None and isinstance(t, (int, float)):
            self._t0 = float(t)
        rel = (
            f"{float(t) - self._t0:10.3f}s"
            if isinstance(t, (int, float)) and self._t0 is not None
            else " " * 11
        )
        kind = str(record.get("type", "?"))
        return f"{rel}  {self._body(kind, record)}"

    def _body(self, kind: str, record: dict[str, Any]) -> str:
        skip = ("type", "seq", "t", "trace_id")
        if kind == "stream_header":
            self._paths.clear()  # span ids restart with each attempt
            trace = record.get("trace_id")
            trace_txt = f" trace={trace}" if trace else ""
            return (
                f"stream {record.get('schema', '?')} "
                f"pid={record.get('pid', '?')}{trace_txt}"
            )
        if kind == "stream_gap":
            return (
                f"GAP   {record.get('missing', '?')} record(s) missing "
                f"(expected seq {record.get('expected_seq', '?')}, "
                f"got {record.get('got_seq', '?')})"
            )
        if kind == "stream_end":
            return f"stream end status={record.get('status', '?')}"
        if kind == "manifest":
            params = record.get("params") or {}
            return f"manifest {_kv(params)}".rstrip()
        if kind == "span_open":
            parent = self._paths.get(record.get("parent"))
            name = str(record.get("name", "?"))
            path = f"{parent}/{name}" if parent else name
            self._paths[record.get("id")] = path
            attrs = record.get("attrs") or {}
            return f"span  > {path} {_kv(attrs)}".rstrip()
        if kind == "span_close":
            self._paths.pop(record.get("id"), None)
            return (
                f"span  < {record.get('name', '?')} "
                f"wall={record.get('wall_s', 0.0):.3f}s "
                f"cpu={record.get('cpu_s', 0.0):.3f}s"
            )
        if kind == "convergence":
            return f"conv  {_kv(record, skip + ('span',))}"
        if kind == "metrics":
            counters = record.get("counters") or {}
            gauges = record.get("gauges") or {}
            return f"metrics  {len(counters)} counters, {len(gauges)} gauges"
        if kind == "worker_merged":
            return f"merged worker:{record.get('label', '?')}"
        if kind == "resources":
            return (
                f"rsrc  rss={_mb(record.get('rss_bytes'))} "
                f"cpu={record.get('cpu_s', 0.0):.1f}s"
            )
        if kind == "event":
            return self._event_body(record)
        return f"{kind}  {_kv(record, skip)}".rstrip()

    def _event_body(self, record: dict[str, Any]) -> str:
        name = str(record.get("name", "?"))
        skip = ("type", "seq", "t", "name", "span", "worker", "trace_id")
        if name == "progress":
            done = record.get("tiles_done", "?")
            total = record.get("tiles_total", "?")
            eta = record.get("eta_s")
            eta_txt = f" eta={eta:.0f}s" if isinstance(eta, (int, float)) else ""
            ewma = record.get("tile_wall_ewma_s")
            ewma_txt = (
                f" ewma={ewma:.2f}s" if isinstance(ewma, (int, float)) else ""
            )
            return (
                f"prog  {done}/{total} tiles "
                f"{record.get('shots', '?')} shots{ewma_txt}{eta_txt}"
            )
        if name == "worker_heartbeat":
            tile = record.get("tile")
            task = f" tile={tile} attempt={record.get('attempt')}" if tile else " idle"
            return (
                f"hb    pid={record.get('pid', '?')}"
                f"{task} rss={_mb(record.get('rss_bytes'))} "
                f"cpu={record.get('cpu_s', 0.0):.1f}s"
            )
        if name == "worker_stalled":
            return (
                f"STALL pid={record.get('pid', '?')} "
                f"kind={record.get('kind', '?')} "
                f"tile={record.get('tile', '-')} "
                f"age={record.get('age_s', 0.0):.1f}s"
            )
        if name == "tile_outcome":
            flags = []
            if record.get("fallback"):
                flags.append("fallback")
            if record.get("replayed"):
                flags.append("replayed")
            suffix = f" [{','.join(flags)}]" if flags else ""
            return (
                f"tile  {record.get('tile', '?')} "
                f"ok={record.get('ok', '?')} "
                f"shots={record.get('shots', '?')} "
                f"attempts={record.get('attempts', '?')}{suffix}"
            )
        return f"event {name} {_kv(record, skip)}".rstrip()
