"""Common interface shared by the proposed method and all baselines."""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any

from repro.geometry.rect import Rect
from repro.mask.constraints import FailureReport, FractureSpec, check_solution
from repro.mask.shape import MaskShape
from repro.obs import get_recorder


@dataclass(slots=True)
class FractureResult:
    """Outcome of fracturing one target shape.

    ``shots`` is the e-beam shot list; ``report`` the authoritative
    feasibility verdict (recomputed from scratch, not the fracturer's
    internal incremental state); ``runtime_s`` the wall time the paper's
    tables report; ``extra`` free-form per-method diagnostics (iteration
    counts, initial shot counts, …).
    """

    method: str
    shape_name: str
    shots: list[Rect]
    runtime_s: float
    report: FailureReport
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def shot_count(self) -> int:
        return len(self.shots)

    @property
    def feasible(self) -> bool:
        return self.report.feasible

    def summary(self) -> str:
        status = "ok" if self.feasible else f"{self.report.total_failing} failing px"
        return (
            f"{self.method:>12s}  {self.shape_name:<10s}  "
            f"{self.shot_count:3d} shots  {self.runtime_s:7.2f}s  {status}"
        )


class Fracturer(abc.ABC):
    """A mask fracturing method: target shape + spec → shot list.

    A fracturer only fractures.  Result stores belong to the two loops
    that call it — :class:`~repro.mask.mdp.MdpPipeline` for shapes and
    a layout's templates, and the tile runner
    (:mod:`repro.fracture.runtime`) for tiles and stitch windows — which
    key their entries by :attr:`cache_method`, and shapes also by
    :attr:`cache_window_nm`.
    """

    #: Short name used in benchmark tables.
    name: str = "abstract"

    #: Registry name used in cache keys (falls back to ``name``) — set by
    #: :func:`repro.methods.make_fracturer` so aliased registrations key
    #: consistently.
    cache_method: str | None = None

    #: Window size folded into cache keys by windowed wrappers (a tiled
    #: run is only interchangeable with an identically windowed one).
    cache_window_nm: float | None = None

    @abc.abstractmethod
    def fracture_shots(self, shape: MaskShape, spec: FractureSpec) -> list[Rect]:
        """Produce the shot list for ``shape``.  Implemented by subclasses."""

    def fracture(self, shape: MaskShape, spec: FractureSpec) -> FractureResult:
        """Run the method, time it, and verify the result independently.

        The verdict is :func:`check_solution` of the shots returned.  A
        fracturer whose last step already ran that check on exactly
        those shots leaves it in ``_last_check`` as ``(shots, report)``,
        and the report is used as is rather than computed twice.
        """
        obs = get_recorder()
        self._last_extra: dict[str, Any] = {}
        self._last_check: tuple[list[Rect], FailureReport] | None = None
        with obs.span("fracture", method=self.name, shape=shape.name) as span:
            start = time.perf_counter()
            shots = self.fracture_shots(shape, spec)
            runtime = time.perf_counter() - start
            checked, self._last_check = self._last_check, None
            if checked is not None and checked[0] == shots:
                report = checked[1]
            else:
                with obs.span("verify"):
                    report = check_solution(shots, shape, spec)
            span.annotate(shots=len(shots), feasible=report.feasible)
        obs.incr("fracture.shapes")
        obs.observe("fracture.runtime_s", runtime)
        obs.observe("fracture.shots", len(shots))
        return FractureResult(
            method=self.name,
            shape_name=shape.name,
            shots=shots,
            runtime_s=runtime,
            report=report,
            extra=dict(getattr(self, "_last_extra", {})),
        )
