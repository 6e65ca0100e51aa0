"""PROTO-EDA stand-in: an industrial-style model-based MDP heuristic.

The paper benchmarks against a *prototype version of capability within a
commercial EDA tool for e-beam mask shot decomposition* (PROTO-EDA).
That binary is closed; per DESIGN.md (substitution 1) we model it as a
member of the same algorithm family with deliberately conservative
settings, matching its published behaviour: comparable runtime to the
proposed method, ~20–25 % more shots on ILT shapes, and early
termination that leaves 1–2 % failing pixels on the hard wavy benchmark
shapes instead of grinding to feasibility.

Concretely: the same corner-point/coloring initialization but with a
stricter overlap rule (fragmenting the cliques into more shots), natural
vertex-order coloring, and a refinement loop with a small iteration
budget, no cycle detection and a loose failing-pixel termination
threshold.
"""

from __future__ import annotations

from repro.fracture.base import Fracturer
from repro.fracture.add_remove import add_shot, remove_shot
from repro.fracture.bias import bias_all_shots
from repro.fracture.edge_adjust import greedy_shot_edge_adjustment
from repro.fracture.graph_color import GraphBuildConfig, approximate_fracture
from repro.fracture.merge import merge_shots
from repro.fracture.state import RefinementState
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec
from repro.mask.shape import MaskShape

_DEFAULT_GRAPH = GraphBuildConfig(
    min_overlap=0.92,
    align_tolerance_factor=0.3,
    coloring_strategy="given",
)


class ProtoEdaFracturer(Fracturer):
    """Conservative model-based MDP heuristic (PROTO-EDA proxy)."""

    name = "PROTO-EDA"

    def __init__(
        self,
        graph: GraphBuildConfig = _DEFAULT_GRAPH,
        nmax: int = 150,
        nh: int = 3,
        failing_fraction_stop: float = 0.0,
    ):
        self.graph = graph
        self.nmax = nmax
        self.nh = nh
        self.failing_fraction_stop = failing_fraction_stop
        self._last_extra: dict = {}

    def fracture_shots(self, shape: MaskShape, spec: FractureSpec) -> list[Rect]:
        initial, diagnostics = approximate_fracture(shape, spec, self.graph)
        state = RefinementState(shape, spec, initial)
        pixels = shape.pixels(spec.gamma)
        # Loose termination: stop once failing pixels drop below a
        # fraction of the shape's own pixel count (the "different
        # termination criteria" the paper notes for PROTO-EDA).
        stop_at = max(0, int(self.failing_fraction_stop * pixels.count_on) - 1)
        best_shots = state.snapshot()
        best_failing = None
        costs: list[float] = []
        iterations = 0
        for iterations in range(1, self.nmax + 1):
            report = state.report()
            if best_failing is None or report.total_failing < best_failing:
                best_failing = report.total_failing
                best_shots = state.snapshot()
            if report.total_failing <= stop_at:
                break
            costs.append(report.cost)
            stagnant = len(costs) > self.nh and (
                costs[-self.nh - 1] - costs[-1] < 1e-6
            )
            if stagnant:
                if report.count_on > report.count_off:
                    add_shot(state, report)
                else:
                    remove_shot(state, report)
                merge_shots(state)
            else:
                if greedy_shot_edge_adjustment(state) == 0:
                    bias_all_shots(state, report)
        self._last_extra = {
            **diagnostics,
            "iterations": iterations,
            "stop_threshold": stop_at,
        }
        return best_shots
