"""Human-readable summaries of a telemetry payload.

``python -m repro trace summarize out.json`` renders:

* the manifest header (params, git SHA, host);
* a per-phase table — spans aggregated by name with call count, total
  wall time, *self* wall time (total minus instrumented children — the
  number that tells you where time actually goes), CPU time and share of
  the run;
* counters / gauges / histograms;
* a convergence digest per refinement series (iterations, first → final
  cost, final failing-pixel and shot counts, operator mix).
"""

from __future__ import annotations

from typing import Any

from repro.obs.recorder import SpanNode

__all__ = ["format_clip_breakdown", "format_summary", "phase_breakdown"]


def phase_breakdown(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """Aggregate the span tree by span name, heaviest wall time first.

    A span's self time is its wall time minus the time its children
    cover (:func:`covered_s`).
    """
    root = SpanNode(payload.get("spans") or {"name": "run"})
    phases: dict[str, dict[str, Any]] = {}
    for node in root.walk():
        if node is root:
            continue
        entry = phases.setdefault(
            node.name,
            {"phase": node.name, "count": 0, "wall_s": 0.0,
             "self_s": 0.0, "cpu_s": 0.0},
        )
        entry["count"] += 1
        entry["wall_s"] += node.wall_s
        entry["cpu_s"] += node.cpu_s
        entry["self_s"] += node.wall_s - covered_s(node)
    return sorted(phases.values(), key=lambda entry: -entry["wall_s"])


def covered_s(node: SpanNode) -> float:
    """Wall time during which at least one child of ``node`` was open.

    Children a span opens itself run one after another on its thread, so
    their wall times add up exactly.  Worker grafts (``worker:*``, see
    :meth:`TelemetryRecorder.merge_child`) ran in pool processes,
    alongside each other and the parent, so summing them would count
    one second of wall time once per worker.  A span with grafts among
    its children therefore covers the union of its children's
    ``[t, t + wall_s]`` intervals, measured from the earliest open time
    so that unix-time magnitudes cost no precision.
    """
    children = node.children
    if not any(c.name.startswith("worker:") for c in children) or any(
        c.t is None for c in children
    ):
        return sum(c.wall_s for c in children)
    base = min(c.t for c in children)
    covered = 0.0
    lo = hi = None
    for start, end in sorted(
        (c.t - base, c.t - base + c.wall_s) for c in children
    ):
        if hi is None or start > hi:
            if hi is not None:
                covered += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        covered += hi - lo
    return covered


def format_summary(payload: dict[str, Any]) -> str:
    """The full ``trace summarize`` report as plain text.

    Tolerant of partial payloads (an interrupted export, a stream fold,
    a merged-child-only trace): every section degrades to an informative
    placeholder instead of raising.
    """
    lines: list[str] = []
    lines += _manifest_lines(payload.get("manifest") or {})
    phases = phase_breakdown(payload)
    spans = payload.get("spans") or {}
    total_wall = sum(
        child.get("wall_s", 0.0)
        for child in spans.get("children", ())
        if isinstance(child, dict)
    )
    lines.append("")
    lines.append(f"per-phase breakdown (run wall time {total_wall:.3f}s):")
    rows = [["phase", "count", "wall s", "self s", "cpu s", "% run"]]
    for entry in phases:
        share = 100.0 * entry["wall_s"] / total_wall if total_wall > 0 else 0.0
        rows.append([
            entry["phase"],
            str(entry["count"]),
            f"{entry['wall_s']:.3f}",
            f"{entry['self_s']:.3f}",
            f"{entry['cpu_s']:.3f}",
            f"{share:.1f}",
        ])
    lines += _render_rows(rows)
    if not phases:
        lines.append("  (no spans recorded)")
    lines += _metric_lines(payload)
    convergence = payload.get("convergence")
    lines += _convergence_lines(convergence if isinstance(convergence, list) else ())
    return "\n".join(lines)


def format_clip_breakdown(payload: dict[str, Any]) -> str:
    """Per-clip, per-method phase table from a ``bench`` telemetry run.

    One row per ``fracture`` span found under each ``bench.clip`` span:
    init / refine / polish / verify wall time plus the total.  Methods
    without internal phases (the baselines) fill only the total column.
    """
    root = SpanNode(payload.get("spans") or {"name": "run"})
    rows = [["clip", "method", "init s", "refine s", "polish s",
             "verify s", "total s"]]
    for clip_node in root.walk():
        if clip_node.name != "bench.clip":
            continue
        clip = str(clip_node.attrs.get("clip", "?"))
        for node in clip_node.children:
            if node.name != "fracture":
                continue
            timings = {"init": 0.0, "refine": 0.0, "polish": 0.0,
                       "verify": 0.0}
            for sub in node.walk():
                for phase in timings:
                    if sub.name == phase or sub.name.startswith(phase + "."):
                        timings[phase] += sub.wall_s
            rows.append([
                clip,
                str(node.attrs.get("method", "?")),
                *(f"{timings[phase]:.3f}" for phase in
                  ("init", "refine", "polish", "verify")),
                f"{node.wall_s:.3f}",
            ])
    if len(rows) == 1:
        return "(no bench.clip spans in this telemetry file)"
    return "\n".join(_render_rows(rows))


def _manifest_lines(manifest: Any) -> list[str]:
    lines = ["manifest:"]
    if not manifest or not isinstance(manifest, dict):
        return lines + ["  (empty)"]
    simple = {
        key: value
        for key, value in manifest.items()
        if key not in ("params", "host", "argv")
    }
    for key in sorted(simple):
        lines.append(f"  {key}: {simple[key]}")
    if "argv" in manifest:
        lines.append(f"  argv: {' '.join(map(str, manifest['argv']))}")
    params = manifest.get("params")
    if isinstance(params, dict) and params:
        rendered = ", ".join(f"{k}={v}" for k, v in params.items())
        lines.append(f"  params: {rendered}")
    host = manifest.get("host")
    if isinstance(host, dict) and host:
        rendered = ", ".join(f"{k}={v}" for k, v in host.items())
        lines.append(f"  host: {rendered}")
    return lines


def _metric_lines(payload: dict[str, Any]) -> list[str]:
    lines: list[str] = []
    counters = payload.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name}: {counters[name]}")
    gauges = payload.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name}: {gauges[name]}")
    histograms = payload.get("histograms") or {}
    if histograms:
        lines.append("")
        lines.append("histograms:")
        for name in sorted(histograms):
            hist = histograms[name] or {}
            count = hist.get("count", 0)
            mean = hist.get("sum", 0.0) / count if count else 0.0
            lines.append(
                f"  {name}: n={count} mean={mean:.4g} "
                f"min={hist.get('min', 0.0):.4g} max={hist.get('max', 0.0):.4g}"
            )
    return lines


def _convergence_lines(records: Any) -> list[str]:
    records = [record for record in records if isinstance(record, dict)]
    if not records:
        return []
    series: dict[tuple, list[dict]] = {}
    for record in records:
        key = (record.get("worker", ""), record.get("span", ""))
        series.setdefault(key, []).append(record)
    lines = ["", f"convergence ({len(records)} records, "
                 f"{len(series)} refinement series):"]
    rows = [["series", "iters", "first cost", "final cost", "failing",
             "shots", "operators"]]
    for (worker, span), recs in series.items():
        label = f"{worker}:{span}" if worker else span
        operators: dict[str, int] = {}
        for record in recs:
            op = str(record.get("operator", "?"))
            operators[op] = operators.get(op, 0) + 1
        mix = " ".join(
            f"{op}×{count}" for op, count in sorted(operators.items())
        )
        first, last = recs[0], recs[-1]
        rows.append([
            label[-48:],
            str(len(recs)),
            f"{first.get('cost', 0.0):.3f}",
            f"{last.get('cost', 0.0):.3f}",
            str(last.get("failing", "?")),
            str(last.get("shots", "?")),
            mix,
        ])
    return lines + _render_rows(rows)


def _render_rows(rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(rows[0]))
    ]
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
