"""Telemetry payload serialization: JSON, JSONL and CSV.

The format is chosen by file extension:

* ``.json`` — the nested payload verbatim (the lossless default).
* ``.jsonl`` — one flat record per line (``manifest`` / ``span`` /
  ``counter`` / ``gauge`` / ``histogram`` / ``event`` / ``convergence``)
  for streaming consumers; span records carry ``id``/``parent`` links so
  the tree is reconstructable.
* ``.csv`` — the per-iteration convergence table only (the thing a
  spreadsheet plot actually wants).

``load_telemetry`` round-trips the JSON and JSONL forms.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "load_telemetry",
    "payload_to_records",
    "records_to_payload",
    "write_telemetry",
]

_CONVERGENCE_COLUMNS = (
    "seq", "span", "worker", "iteration", "cost", "failing", "shots",
    "operator",
)


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` via tmp + fsync + rename so a crash mid-export can
    never leave a torn file at ``path`` (the checkpoint-journal durability
    contract, applied to the telemetry export)."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def write_telemetry(payload: dict[str, Any], path: str | Path) -> Path:
    """Write ``payload`` (from ``TelemetryRecorder.export``) to ``path``."""
    path = Path(path)
    if path.parent != Path():
        path.parent.mkdir(parents=True, exist_ok=True)
    suffix = path.suffix.lower()
    if suffix == ".jsonl":
        lines = (json.dumps(record) for record in payload_to_records(payload))
        _atomic_write_text(path, "\n".join(lines) + "\n")
    elif suffix == ".csv":
        _atomic_write_text(path, _convergence_csv(payload))
    else:
        _atomic_write_text(
            path, json.dumps(payload, indent=2, default=str) + "\n"
        )
    return path


def load_telemetry(path: str | Path) -> dict[str, Any]:
    """Load a ``.json`` or ``.jsonl`` telemetry file back into a payload."""
    path = Path(path)
    if path.suffix.lower() == ".jsonl":
        records = []
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                # Torn trailing line of an interrupted writer — same
                # tolerance as the checkpoint journal and the stream.
                continue
        return records_to_payload(records)
    if path.suffix.lower() == ".csv":
        raise ValueError(
            "CSV telemetry holds only the convergence table and cannot be "
            "summarized; export .json or .jsonl instead"
        )
    return json.loads(path.read_text())


def payload_to_records(payload: dict[str, Any]) -> Iterator[dict[str, Any]]:
    """Flatten a payload into typed records (the JSONL line stream)."""
    yield {"type": "manifest", **payload.get("manifest", {})}
    yield from _flatten_spans(payload.get("spans"))
    for name, value in payload.get("counters", {}).items():
        yield {"type": "counter", "name": name, "value": value}
    for name, value in payload.get("gauges", {}).items():
        yield {"type": "gauge", "name": name, "value": value}
    for name, hist in payload.get("histograms", {}).items():
        yield {"type": "histogram", "name": name, **hist}
    for event in payload.get("events", ()):
        yield {"type": "event", **event}
    for record in payload.get("convergence", ()):
        yield {"type": "convergence", **record}


def _flatten_spans(
    node: dict[str, Any] | None,
    parent: int | None = None,
    counter: list[int] | None = None,
) -> Iterator[dict[str, Any]]:
    if node is None:
        return
    if counter is None:
        counter = [0]
    span_id = counter[0]
    counter[0] += 1
    record: dict[str, Any] = {
        "type": "span",
        "id": span_id,
        "parent": parent,
        "name": node.get("name", "?"),
        "wall_s": node.get("wall_s", 0.0),
        "cpu_s": node.get("cpu_s", 0.0),
    }
    if node.get("attrs"):
        record["attrs"] = node["attrs"]
    yield record
    for child in node.get("children", ()):
        yield from _flatten_spans(child, span_id, counter)


def records_to_payload(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Rebuild the nested payload from a JSONL record stream.

    Tolerant of partial streams: a span record whose parent is missing
    (lost to a torn write) reattaches under the root instead of raising,
    and records without an ``id`` are skipped.
    """
    payload: dict[str, Any] = {
        "schema": "repro.obs/v1",
        "manifest": {},
        "spans": {"name": "run", "wall_s": 0.0, "cpu_s": 0.0},
        "counters": {},
        "gauges": {},
        "histograms": {},
        "events": [],
        "convergence": [],
    }
    nodes: dict[int, dict[str, Any]] = {}
    for record in records:
        if not isinstance(record, dict):
            continue
        kind = record.get("type")
        body = {k: v for k, v in record.items() if k != "type"}
        if kind == "manifest":
            payload["manifest"] = body
        elif kind == "span":
            if "id" not in body:
                continue
            node = {
                "name": body.get("name", "?"),
                "wall_s": body.get("wall_s", 0.0),
                "cpu_s": body.get("cpu_s", 0.0),
            }
            if body.get("attrs"):
                node["attrs"] = body["attrs"]
            nodes[body["id"]] = node
            parent = body.get("parent")
            if parent is None:
                payload["spans"] = node
            elif parent in nodes:
                nodes[parent].setdefault("children", []).append(node)
            else:
                # Orphaned by a lost parent record: keep the timing data
                # visible under the root rather than dropping it.
                payload["spans"].setdefault("children", []).append(node)
        elif kind == "counter":
            if "name" in body:
                payload["counters"][body["name"]] = body.get("value", 0)
        elif kind == "gauge":
            if "name" in body:
                payload["gauges"][body["name"]] = body.get("value", 0)
        elif kind == "histogram":
            name = body.pop("name", None)
            if name is not None:
                payload["histograms"][name] = body
        elif kind == "event":
            payload["events"].append(body)
        elif kind == "convergence":
            payload["convergence"].append(body)
    return payload


def _convergence_csv(payload: dict[str, Any]) -> str:
    records = payload.get("convergence", ())
    extra = sorted(
        {
            key
            for record in records
            for key in record
            if key not in _CONVERGENCE_COLUMNS
        }
    )
    columns = [*_CONVERGENCE_COLUMNS, *extra]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    for record in records:
        writer.writerow({column: record.get(column, "") for column in columns})
    return buffer.getvalue()
