"""Telemetry files: the payload as JSON or CSV, the one loader, and
the one atomic file writer (:func:`atomic_write_text`).

The stream (:mod:`repro.obs.stream`) is the only on-disk record format;
``--telemetry`` writes its fold, chosen by file extension:

* ``.json`` — the ``repro.obs/v1`` payload from
  ``TelemetryRecorder.export`` (the fold of the run's records);
* ``.csv`` — the per-iteration convergence table only (the thing a
  spreadsheet plot actually wants).

:func:`load_telemetry` reads a payload back from a ``.json`` payload or
folds a ``.jsonl`` stream with :func:`~repro.obs.stream.stream_to_payload`.
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
from pathlib import Path
from typing import Any

from repro.obs.stream import read_stream, stream_to_payload

__all__ = ["atomic_write_text", "load_telemetry", "write_telemetry"]

_CONVERGENCE_COLUMNS = (
    "seq", "span", "worker", "iteration", "cost", "failing", "shots",
    "operator",
)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` via tmp + fsync + rename.

    A crash, an interrupt or an ``OSError`` (a full disk) mid-write
    leaves the previous file at ``path`` intact, never a torn one; a
    failed write also removes its temp file.  The temp name is unique
    per process and thread, so concurrent writers of one path never
    share a temp file: each rename lands a complete file, the last one
    wins.
    """
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_telemetry(payload: dict[str, Any], path: str | Path) -> Path:
    """Write ``payload`` (from ``TelemetryRecorder.export``) to ``path``."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".jsonl":
        raise ValueError(
            "JSONL telemetry is the live stream; attach a TelemetryStream "
            "to the recorder instead of exporting a payload"
        )
    if path.parent != Path():
        path.parent.mkdir(parents=True, exist_ok=True)
    if suffix == ".csv":
        atomic_write_text(path, _convergence_csv(payload))
    else:
        atomic_write_text(
            path, json.dumps(payload, indent=2, default=str) + "\n"
        )
    return path


def load_telemetry(path: str | Path) -> dict[str, Any]:
    """A payload from a ``.json`` export or the fold of a ``.jsonl`` stream."""
    path = Path(path)
    if path.suffix.lower() == ".jsonl":
        return stream_to_payload(read_stream(path))
    if path.suffix.lower() == ".csv":
        raise ValueError(
            "CSV telemetry holds only the convergence table and cannot be "
            "summarized; load the .json export or the .jsonl stream instead"
        )
    return json.loads(path.read_text())


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
