"""Optional sampling profiler: stack samples attached to spans.

``--profile`` on the run commands starts a :class:`SamplingProfiler`
next to the telemetry recorder: a daemon thread that periodically
snapshots the main thread's Python stack (``sys._current_frames``) and
folds it — tagged with the recorder's *currently open span path* — into
an aggregated ``{span_path: {collapsed_stack: count}}`` table.  On stop
the table is recorded as the ``profile`` manifest section, so it rides
the stream and the export, and ``trace export`` can ship it alongside
the flame graph.

Aggregation (not per-sample events) keeps the cost flat: a multi-hour
run produces a bounded table, not millions of stream records, and the
sampler never touches the fracturing pipeline — purely observational,
like everything else in :mod:`repro.obs`.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any

__all__ = ["SamplingProfiler"]

#: Frames from these modules are noise at the top of every sample.
_SKIP_PREFIXES = ("threading", "contextlib")

#: Hard bound on distinct (span, stack) cells kept per run.
_MAX_CELLS = 4096


def _collapse(frame: Any, max_depth: int = 40) -> str:
    """One sample as a semicolon-joined ``module.function`` stack."""
    parts: list[str] = []
    while frame is not None and len(parts) < max_depth:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        if not str(module).startswith(_SKIP_PREFIXES):
            parts.append(f"{module}.{code.co_name}")
        frame = frame.f_back
    return ";".join(reversed(parts))


class SamplingProfiler:
    """Periodic main-thread stack sampler feeding a telemetry recorder.

    ``with SamplingProfiler(recorder, interval_s=0.01): ...`` — on exit
    the aggregated samples become the recorder's ``profile`` manifest
    section.
    """

    def __init__(self, recorder: Any, *, interval_s: float = 0.01):
        self._recorder = recorder
        self._interval_s = max(float(interval_s), 0.001)
        self._target_id = threading.get_ident()
        self._samples: dict[str, dict[str, int]] = {}
        self._dropped = 0
        self._n_samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _span_path(self) -> str:
        # current_path() is thread-scoped; ask for the *target* thread's
        # path — from this sampler thread the recorder's own stack is
        # empty.
        return self._recorder.current_path(self._target_id) or "(no span)"

    def _loop(self) -> None:
        while not self._stop.wait(self._interval_s):
            frame = sys._current_frames().get(self._target_id)
            if frame is None:
                continue
            stack = _collapse(frame)
            if not stack:
                continue
            span = self._span_path()
            cell = self._samples.setdefault(span, {})
            if stack not in cell and self._total_cells() >= _MAX_CELLS:
                self._dropped += 1
                continue
            cell[stack] = cell.get(stack, 0) + 1
            self._n_samples += 1

    def _total_cells(self) -> int:
        return sum(len(stacks) for stacks in self._samples.values())

    def start(self) -> "SamplingProfiler":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> dict[str, Any]:
        """Stop sampling and publish the table as the ``profile``
        manifest section (once, however often ``stop`` is called)."""
        self._stop.set()
        running = self._thread is not None
        if running:
            self._thread.join(timeout=2.0)
            self._thread = None
        table = {
            "interval_s": self._interval_s,
            "samples": self._n_samples,
            "dropped_stacks": self._dropped,
            "by_span": {
                span: dict(
                    sorted(stacks.items(), key=lambda kv: -kv[1])
                )
                for span, stacks in self._samples.items()
            },
        }
        if running:
            self._recorder.manifest_section("profile", table)
        return table

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False
