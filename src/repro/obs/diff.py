"""Regression diff of two telemetry runs.

``trace diff base.json head.json`` turns two runs into one verdict:

1. each input is turned into a set of named numeric metrics — a
   ``repro.obs/v1`` telemetry payload contributes per-phase wall/CPU
   time (via :func:`repro.obs.summarize.phase_breakdown`), every
   counter and gauge, and the total shot count of its ``tile_outcome``
   events; a telemetry *stream* (``repro.obs.stream/v1`` JSONL) is
   folded into a payload first (:func:`repro.obs.stream.stream_to_payload`).
   Any other document is refused with a :class:`ValueError`;
2. metrics present in both are compared; a metric **regresses** when

   * *time* (``…wall_s``): head exceeds base by more than
     ``time_rel`` relatively **and** ``time_abs_floor_s`` absolutely
     (CPU time is reported but never gates — shared CI runners make it
     too noisy);
   * *quality count* (name containing ``shots`` / ``failing`` /
     ``fallback`` / ``undersize`` / ``stall``): head exceeds base by
     more than ``count_rel`` relatively and by at least 1;
   * everything else is informational.

The CLI exits nonzero when any metric regresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.obs.summarize import phase_breakdown

__all__ = [
    "DiffThresholds",
    "MetricDelta",
    "DiffResult",
    "diff_payloads",
    "format_diff",
    "payload_metrics",
]

KIND_TIME = "time"
KIND_COUNT = "count"
KIND_INFO = "info"

_COUNT_MARKERS = ("shots", "failing", "fallback", "undersize", "stall")


@dataclass(frozen=True)
class DiffThresholds:
    """Regression thresholds (see module docstring for the rules)."""

    time_rel: float = 0.30
    time_abs_floor_s: float = 0.05
    count_rel: float = 0.01


@dataclass
class MetricDelta:
    name: str
    base: float
    head: float
    kind: str
    regressed: bool

    @property
    def delta(self) -> float:
        return self.head - self.base

    @property
    def rel(self) -> float:
        if self.base:
            return self.delta / abs(self.base)
        return math.inf if self.delta > 0 else (-math.inf if self.delta < 0 else 0.0)


@dataclass
class DiffResult:
    deltas: list[MetricDelta] = field(default_factory=list)
    only_base: list[str] = field(default_factory=list)
    only_head: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)


def classify_metric(name: str) -> str:
    """Kind of a metric from its dotted name (time / count / info)."""
    lowered = name.lower()
    if lowered.endswith("wall_s"):
        return KIND_TIME
    if "eta" in lowered or "ewma" in lowered:
        return KIND_INFO
    if any(marker in lowered for marker in _COUNT_MARKERS):
        return KIND_COUNT
    return KIND_INFO


def payload_metrics(payload: Any) -> dict[str, float]:
    """Named numeric metrics of one telemetry payload."""
    if not (
        isinstance(payload, dict)
        and str(payload.get("schema", "")).startswith("repro.obs")
    ):
        raise ValueError(
            "not a telemetry payload: trace diff takes a --telemetry "
            ".json export or a --stream .jsonl file"
        )
    out: dict[str, float] = {}
    for entry in phase_breakdown(payload):
        prefix = f"phase.{entry['phase']}"
        out[f"{prefix}.wall_s"] = float(entry["wall_s"])
        out[f"{prefix}.cpu_s"] = float(entry["cpu_s"])
        out[f"{prefix}.calls"] = float(entry["count"])
    for name, value in (payload.get("counters") or {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"counter.{name}"] = float(value)
    for name, value in (payload.get("gauges") or {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"gauge.{name}"] = float(value)
    shots = 0
    tiles = 0
    for event in payload.get("events") or ():
        if isinstance(event, dict) and event.get("name") == "tile_outcome":
            tiles += 1
            value = event.get("shots")
            if isinstance(value, (int, float)):
                shots += value
    if tiles:
        out["tiles.count"] = float(tiles)
        out["tiles.shots"] = float(shots)
    return out


def _regresses(
    kind: str, base: float, head: float, thresholds: DiffThresholds
) -> bool:
    delta = head - base
    if delta <= 0:
        return False
    if kind == KIND_TIME:
        if delta <= thresholds.time_abs_floor_s:
            return False
        return base <= 0 or delta / base > thresholds.time_rel
    if kind == KIND_COUNT:
        if delta < 1.0 - 1e-9:
            return False
        return base <= 0 or delta / base > thresholds.count_rel
    return False


def diff_payloads(
    base: Any,
    head: Any,
    thresholds: DiffThresholds | None = None,
) -> DiffResult:
    """Compare two telemetry payloads metric by metric."""
    thresholds = thresholds if thresholds is not None else DiffThresholds()
    base_metrics = payload_metrics(base)
    head_metrics = payload_metrics(head)
    result = DiffResult(
        only_base=sorted(set(base_metrics) - set(head_metrics)),
        only_head=sorted(set(head_metrics) - set(base_metrics)),
    )
    for name in sorted(set(base_metrics) & set(head_metrics)):
        b, h = base_metrics[name], head_metrics[name]
        kind = classify_metric(name)
        result.deltas.append(
            MetricDelta(
                name=name,
                base=b,
                head=h,
                kind=kind,
                regressed=_regresses(kind, b, h, thresholds),
            )
        )
    return result


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def _fmt_rel(delta: MetricDelta) -> str:
    if math.isinf(delta.rel):
        return "new" if delta.rel > 0 else "gone"
    return f"{delta.rel:+.1%}"


def format_diff(
    result: DiffResult,
    base_label: str = "base",
    head_label: str = "head",
    max_rows: int = 60,
    show_all: bool = False,
) -> str:
    """Plain-text report: changed metrics, regressions, verdict."""
    lines = [f"trace diff: {base_label} -> {head_label}"]
    changed = [
        d for d in result.deltas
        if show_all or d.regressed or abs(d.rel) > 1e-3
    ]
    changed.sort(key=lambda d: (not d.regressed, -abs(min(d.rel, 1e9))))
    if changed:
        rows = [["metric", "kind", base_label, head_label, "delta", "rel", ""]]
        for d in changed[:max_rows]:
            rows.append([
                d.name,
                d.kind,
                _fmt(d.base),
                _fmt(d.head),
                f"{d.delta:+.4g}",
                _fmt_rel(d),
                "REGRESSED" if d.regressed else "",
            ])
        lines += _render_table(rows)
        if len(changed) > max_rows:
            lines.append(f"  (+{len(changed) - max_rows} more changed metrics)")
    else:
        lines.append("  (no metric changed beyond 0.1%)")
    if result.only_base:
        lines.append(
            f"only in {base_label}: {len(result.only_base)} metrics "
            f"(e.g. {', '.join(result.only_base[:3])})"
        )
    if result.only_head:
        lines.append(
            f"only in {head_label}: {len(result.only_head)} metrics "
            f"(e.g. {', '.join(result.only_head[:3])})"
        )
    regressions = result.regressions
    if regressions:
        lines.append(
            f"verdict: REGRESSED — {len(regressions)} metric(s) past threshold:"
        )
        for d in regressions:
            lines.append(f"  {d.name}: {_fmt(d.base)} -> {_fmt(d.head)} ({_fmt_rel(d)})")
    else:
        lines.append("verdict: OK — no metric past threshold")
    return "\n".join(lines)


def _render_table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append(
            "  " + "  ".join(
                cell.ljust(width) if col == 0 else cell.rjust(width)
                for col, (cell, width) in enumerate(zip(row, widths))
            ).rstrip()
        )
        if i == 0:
            lines.append("  " + "  ".join("-" * width for width in widths))
    return lines
