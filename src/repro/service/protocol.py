"""Wire protocol of the fracture service: JSON lines over a local socket.

One request per line, one response per line, UTF-8 JSON.  A request is
``{"op": <name>, ...fields}``; a response is ``{"ok": true, ...}`` or
``{"ok": false, "error": <message>, "code": <machine code>}``.  The
transport is a Unix-domain socket inside the daemon's state directory,
so filesystem permissions are the access control and no port can leak
or collide.

Operations (``OPS``):

==============  ========================================================
``ping``        liveness + daemon identity (pid, uptime, schema)
``submit``      enqueue a job; returns ``job_id`` (``queue_full`` /
                ``shutting_down`` errors are the backpressure surface)
``status``      one job's full record
``list``        summaries of all known jobs (newest first)
``result``      a finished job's result payload
``cancel``      cancel a queued job or request stop of a running one
``wait``        block (server side, with timeout) until a job settles
``stats``       daemon-level gauges: queue depth, running, warm-cache
                hit rates, RSS/CPU of the daemon process
``metrics``     the same gauges plus latency histograms rendered as
                Prometheus exposition text (``{"text": ...}``) for
                scrapers — see :mod:`repro.obs.metrics`
``shutdown``    stop the daemon (``"drain"`` finishes running jobs,
                ``"interrupt"`` stops and requeues them)
==============  ========================================================

Error codes: ``bad_request``, ``unknown_op``, ``unknown_job``,
``queue_full``, ``not_done``, ``shutting_down``, ``internal`` — plus
the guard layer's typed rejections: ``job_rejected`` (admission
bounds: oversized/degenerate geometry, out-of-range spec/priority/
window/workers, with a machine ``reason`` slug), ``rate_limited``
(per-client token bucket or fair-share queue cap) and, on job
*records* rather than responses, ``over_budget`` / ``disk_full``
failure codes set by the watchdog and the disk guard.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_SCHEMA",
    "REJECTION_CODES",
    "ProtocolError",
    "decode_line",
    "encode_line",
    "error_response",
    "ok_response",
]

PROTOCOL_SCHEMA = "repro.service/v1"

OPS = (
    "ping",
    "submit",
    "status",
    "list",
    "result",
    "cancel",
    "wait",
    "stats",
    "metrics",
    "shutdown",
)

#: Hard per-line bound: a submission carries clip vertices inline, which
#: is kilobytes for realistic clips; 32 MiB leaves headroom for very
#: large clip batches while still bounding a runaway/hostile writer.
#: ``ServiceLimits.max_line_bytes`` can lower (never raise) this per
#: daemon.
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Error codes a *well-formed* request can earn from the guard layer.
#: Clients treat these as permanent for the request as sent (retrying
#: the identical payload cannot succeed), unlike ``queue_full`` /
#: ``rate_limited`` / ``no_daemon``, which are transient.
REJECTION_CODES = ("job_rejected", "bad_request", "unknown_op")


class ProtocolError(ValueError):
    """A malformed request or response line."""


def encode_line(payload: dict[str, Any]) -> bytes:
    """One protocol message as a single newline-terminated JSON line."""
    return (json.dumps(payload, default=str) + "\n").encode("utf-8")


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one protocol line; :class:`ProtocolError` when malformed."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty protocol line")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("protocol message must be a JSON object")
    return payload


def ok_response(**fields: Any) -> dict[str, Any]:
    return {"ok": True, **fields}


def error_response(
    message: str, code: str = "bad_request", **fields: Any
) -> dict[str, Any]:
    """Error payload; ``fields`` carries typed detail (e.g. the guard
    layer's machine ``reason`` slug on ``job_rejected`` responses)."""
    return {"ok": False, "error": message, "code": code, **fields}
