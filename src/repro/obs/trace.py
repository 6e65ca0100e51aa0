"""Trace context: one correlation id from submit to the last tile.

The observability pieces — spans (:mod:`repro.obs.recorder`), JSONL
streams (:mod:`repro.obs.stream`), heartbeats
(:mod:`repro.obs.resources`), stored tiles
(:mod:`repro.fracture.runtime`) — each record *their* process's view of
a run.  What joins them is a :class:`TraceContext`: a ``trace_id``
minted once at the outermost caller (the CLI command or
``ServiceClient.submit``) and carried through every hop:

* the ``repro.service/v1`` submit request (top-level ``trace`` field,
  next to ``client_id``),
* the durable :class:`~repro.service.jobs.JobRecord` (so the id
  survives daemon restarts and joins both attempts of a resumed job),
* the executor's recorder manifest, live stream (every line is stamped
  ``trace_id``), heartbeat files and stored tile entries,
* pool-worker initializers, so worker-side heartbeats and merged
  worker span trees carry the same id.

``span_id`` / ``parent_span_id`` give the hops themselves an identity:
each process boundary crossed mints a :meth:`TraceContext.child`, so an
exported trace can show *which* hop produced a span even though all of
them share one ``trace_id``.

Ids are random (not derived from job content): two submissions of the
same geometry are different traces.  Everything here is observational —
no fracturing decision ever reads a trace id — so propagation cannot
change shot output.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["TraceContext", "mint_trace", "valid_trace_id"]

#: Hex ids: 32 chars for the trace, 16 for spans (W3C traceparent sizes).
_TRACE_ID_BYTES = 16
_SPAN_ID_BYTES = 8

#: Accepted wire format for ids arriving from untrusted clients.
_ID_RE = re.compile(r"^[0-9a-f]{8,64}$")

#: Keys a serialized context may carry; anything else is dropped.
_FIELDS = ("trace_id", "span_id", "parent_span_id")


def _hex_id(n_bytes: int) -> str:
    return os.urandom(n_bytes).hex()


def valid_trace_id(value: Any) -> bool:
    """True when ``value`` is a plausible lowercase-hex trace/span id."""
    return isinstance(value, str) and bool(_ID_RE.match(value))


@dataclass(frozen=True)
class TraceContext:
    """Immutable (trace_id, span_id, parent_span_id) triple."""

    trace_id: str = field(default_factory=lambda: _hex_id(_TRACE_ID_BYTES))
    span_id: str = field(default_factory=lambda: _hex_id(_SPAN_ID_BYTES))
    parent_span_id: str | None = None

    def child(self) -> "TraceContext":
        """A new hop in the same trace: fresh span_id, this one as parent."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_hex_id(_SPAN_ID_BYTES),
            parent_span_id=self.span_id,
        )

    def to_dict(self) -> dict[str, str]:
        out = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_span_id:
            out["parent_span_id"] = self.parent_span_id
        return out

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any] | None
    ) -> "TraceContext | None":
        """Rebuild a context from an (untrusted) mapping.

        Unknown keys are ignored and malformed ids rejected — a garbage
        ``trace`` field on a submit request degrades to "no context"
        (the server then mints a fresh one) instead of failing the job:
        observability must never reject work.
        """
        if not isinstance(payload, Mapping):
            return None
        trace_id = payload.get("trace_id")
        if not valid_trace_id(trace_id):
            return None
        span_id = payload.get("span_id")
        if not valid_trace_id(span_id):
            span_id = _hex_id(_SPAN_ID_BYTES)
        parent = payload.get("parent_span_id")
        if not valid_trace_id(parent):
            parent = None
        return cls(trace_id=trace_id, span_id=span_id, parent_span_id=parent)


def mint_trace() -> TraceContext:
    """A fresh root context (new trace_id, no parent)."""
    return TraceContext()
