"""``repro.obs`` — tracing, metrics and run-manifest observability.

The measurement substrate for the fracturing pipeline:

* hierarchical **spans** (wall + CPU time, nestable, thread- and
  process-safe) — :class:`TelemetryRecorder`, :func:`get_recorder`;
* **counters / gauges / histograms** (``refine.moves_accepted``,
  ``cache.lut.hits``, ``coloring.colors_used``, the namespaced cache
  counters ``cache.<name>.hits/misses/evictions``, and the tiled
  fault-layer counters ``windowed.tile_retries``,
  ``windowed.tile_timeouts``, ``windowed.pool_respawns``,
  ``windowed.tile_fallbacks``, ``windowed.tiles_replayed``, …);
* a per-iteration **convergence recorder** for Algorithm 1;
* a **run manifest** (γ/σ/Δp/ρ/L_min, seed, git SHA, host);
* one on-disk format, the append-only JSONL **stream**
  (:mod:`repro.obs.stream`): every payload is the fold of a run's
  stream records, written as ``.json`` (or a convergence ``.csv``) by
  ``--telemetry`` and rendered by ``trace summarize``;
* a **trace context** (:class:`TraceContext`) correlating every span,
  stream line, heartbeat and stored tile of one logical run
  across processes and daemon restarts, with chrome-trace / speedscope
  exporters (:mod:`repro.obs.flame`) and Prometheus text exposition
  (:mod:`repro.obs.metrics`).

The default recorder is a no-op (:class:`NullRecorder`), so the
instrumentation scattered through the library costs ~nothing until a
:class:`TelemetryRecorder` is installed — e.g. by the CLI's
``--telemetry`` flag::

    python -m repro fracture --clip ILT-1 --telemetry out.json
    python -m repro trace summarize out.json

Dependency-free by design (standard library only) so every other
package may import it without layering concerns.
"""

from repro.obs.diff import (
    DiffResult,
    DiffThresholds,
    diff_payloads,
    format_diff,
    payload_metrics,
)
from repro.obs.export import atomic_write_text, load_telemetry, write_telemetry
from repro.obs.flame import (
    chrome_from_payload,
    speedscope_from_payload,
    validate_chrome_trace,
)
from repro.obs.logs import enable_console_logging, get_logger
from repro.obs.manifest import git_sha, run_manifest
from repro.obs.metrics import (
    MetricSample,
    parse_prometheus,
    payload_samples,
    render_prometheus,
)
from repro.obs.profile import SamplingProfiler
from repro.obs.recorder import (
    NullRecorder,
    SpanNode,
    TelemetryRecorder,
    get_recorder,
    recording,
    set_recorder,
    thread_recording,
)
from repro.obs.resources import (
    DiskFullError,
    HeartbeatMonitor,
    HeartbeatWriter,
    disk_free_bytes,
    ensure_disk_space,
    pid_alive,
    read_heartbeats,
    rss_bytes,
    sample_resources,
    set_disk_free_override,
    summarize_heartbeats,
)
from repro.obs.stream import (
    STREAM_SCHEMA,
    StreamFormatter,
    TelemetryStream,
    follow_stream,
    read_stream,
    stream_to_payload,
)
from repro.obs.summarize import (
    format_clip_breakdown,
    format_summary,
    phase_breakdown,
)
from repro.obs.top import gather_job_progress, render_top, tail_records
from repro.obs.trace import TraceContext, mint_trace, valid_trace_id

__all__ = [
    "DiffResult",
    "DiffThresholds",
    "DiskFullError",
    "HeartbeatMonitor",
    "HeartbeatWriter",
    "MetricSample",
    "NullRecorder",
    "STREAM_SCHEMA",
    "SamplingProfiler",
    "SpanNode",
    "StreamFormatter",
    "TelemetryRecorder",
    "TelemetryStream",
    "TraceContext",
    "atomic_write_text",
    "chrome_from_payload",
    "diff_payloads",
    "disk_free_bytes",
    "enable_console_logging",
    "ensure_disk_space",
    "follow_stream",
    "format_clip_breakdown",
    "format_diff",
    "format_summary",
    "gather_job_progress",
    "get_logger",
    "get_recorder",
    "git_sha",
    "load_telemetry",
    "mint_trace",
    "parse_prometheus",
    "payload_metrics",
    "payload_samples",
    "phase_breakdown",
    "pid_alive",
    "read_heartbeats",
    "read_stream",
    "recording",
    "render_prometheus",
    "render_top",
    "rss_bytes",
    "run_manifest",
    "sample_resources",
    "set_disk_free_override",
    "speedscope_from_payload",
    "summarize_heartbeats",
    "set_recorder",
    "tail_records",
    "thread_recording",
    "stream_to_payload",
    "valid_trace_id",
    "validate_chrome_trace",
    "write_telemetry",
]
