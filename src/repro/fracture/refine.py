"""Iterative shot refinement — Algorithm 1 of the paper.

Drives the move modules until every CD violation is fixed or the
iteration budget runs out, tracking the best solution seen (fewest
failing pixels, cost as tie-break).  The driving cost is Eq. 5 — the
summed intensity gap at failing pixels — which is continuous and hence a
more sensitive progress signal than the failing-pixel count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fracture.add_remove import add_shot, remove_shot
from repro.fracture.bias import bias_all_shots
from repro.fracture.edge_adjust import greedy_shot_edge_adjustment
from repro.fracture.merge import merge_shots
from repro.fracture.state import RefinementState
from repro.obs import get_recorder
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec
from repro.mask.shape import MaskShape

_COST_EPS = 1e-6


@dataclass(frozen=True, slots=True)
class RefineParams:
    """Algorithm 1 knobs: ``Nmax`` iteration budget and the ``NH``
    stagnation horizon after which shots are added/removed."""

    nmax: int = 400
    nh: int = 3

    def __post_init__(self) -> None:
        if self.nmax < 0:
            raise ValueError("nmax must be non-negative")
        if self.nh < 1:
            raise ValueError("nh must be at least 1")


@dataclass(slots=True)
class RefineTrace:
    """Diagnostics of one refinement run (used by ablations and figures)."""

    iterations: int = 0
    cost_history: list[float] = field(default_factory=list)
    failing_history: list[int] = field(default_factory=list)
    edge_moves: int = 0
    candidates_priced: int = 0
    bias_steps: int = 0
    shots_added: int = 0
    shots_removed: int = 0
    shots_merged: int = 0
    converged: bool = False


def refine(
    shape: MaskShape,
    spec: FractureSpec,
    initial_shots: list[Rect],
    params: RefineParams = RefineParams(),
    *,
    background: tuple[Rect, ...] | list[Rect] = (),
    active_mask=None,
) -> tuple[list[Rect], RefineTrace]:
    """Run Algorithm 1 and return the best shot list found plus a trace.

    On top of the paper's loop we detect exact state revisits (the moves
    are deterministic, so a revisited shot configuration means a limit
    cycle) and break them by inverting the add/remove decision — the
    best-so-far tracking makes this strictly safe.

    ``background`` and ``active_mask`` select the region-restricted mode
    used for seam stitching (see :class:`RefinementState`): background
    shots contribute dose but are frozen, and cost/failures are counted
    only inside the active mask.  The returned list holds the refined
    *movable* shots only — the caller re-attaches the frozen set.
    """
    obs = get_recorder()
    with obs.span("refine", initial_shots=len(initial_shots)) as span:
        state = RefinementState(
            shape, spec, initial_shots,
            background=background, active_mask=active_mask,
        )
        trace = RefineTrace()
        best_shots = state.snapshot()
        best_key: tuple[int, float] | None = None
        visits: dict[tuple, int] = {}

        for iteration in range(params.nmax):
            report = state.report()
            key = (report.total_failing, report.cost)
            if best_key is None or key < best_key:
                best_key = key
                best_shots = state.snapshot()
            trace.cost_history.append(report.cost)
            trace.failing_history.append(report.total_failing)
            trace.iterations = iteration + 1
            if report.total_failing == 0:
                trace.converged = True
                obs.convergence(
                    iteration=iteration, cost=report.cost, failing=0,
                    shots=len(state.shots), operator="converged",
                )
                break

            state_key = _state_hash(state.shots, spec.pitch)
            times_seen = visits.get(state_key, 0) + 1
            visits[state_key] = times_seen
            cycling = times_seen > 1

            if cycling or _stagnated(trace.cost_history, params.nh):
                # Escalate: change the shot count (paper lines 5–11).  When a
                # limit cycle is detected, alternate the decision so repeated
                # visits take different exits.
                prefer_add = report.count_on > report.count_off
                if cycling and times_seen > 2:
                    prefer_add = times_seen % 2 == 0
                if prefer_add:
                    operator = "add"
                    if add_shot(state, report) is not None:
                        trace.shots_added += 1
                        obs.incr("refine.shots_added")
                else:
                    operator = "remove"
                    if remove_shot(state, report) is not None:
                        trace.shots_removed += 1
                        obs.incr("refine.shots_removed")
                merged = merge_shots(state)
                trace.shots_merged += merged
                if merged:
                    obs.incr("refine.shots_merged", merged)
                    operator += "+merge"
            else:
                moved = greedy_shot_edge_adjustment(state)
                trace.edge_moves += moved
                if moved == 0:
                    bias_all_shots(state, report)
                    trace.bias_steps += 1
                    obs.incr("refine.bias_steps")
                    operator = "bias"
                else:
                    operator = "edge_adjust"
            obs.convergence(
                iteration=iteration, cost=report.cost,
                failing=report.total_failing, shots=len(state.shots),
                operator=operator,
            )
            # Profile-cache lifecycle: the cache is keyed purely by
            # geometry so it never needs invalidating, but its fill level
            # per iteration is the signal for tuning the size bound.
            obs.gauge(
                "cache.profile.size", state.imap.profile_cache_size
            )

        if not trace.converged and params.nmax > 0:
            # Budget exhausted: report the best solution seen, re-checked.
            state.restore(best_shots)
            final = state.report()
            if best_key is not None and (final.total_failing, final.cost) <= best_key:
                best_shots = state.snapshot()
        elif trace.converged:
            best_shots = state.snapshot()
        trace.candidates_priced = state.candidates_priced
        span.annotate(
            iterations=trace.iterations, converged=trace.converged,
            final_shots=len(best_shots),
        )
        obs.observe("refine.iterations", trace.iterations)
    return best_shots, trace


def _stagnated(cost_history: list[float], nh: int) -> bool:
    """True when the cost has not improved by > 1e-6 over the last NH
    iterations (Algorithm 1, line 5)."""
    if len(cost_history) <= nh:
        return False
    return cost_history[-nh - 1] - cost_history[-1] < _COST_EPS


def _state_hash(shots: list[Rect], pitch: float) -> tuple:
    """Order-insensitive fingerprint of a shot configuration.

    Coordinates are quantized to a tenth of a pixel so float drift from
    incremental updates cannot mask a revisit.
    """
    quantum = pitch / 10.0
    return tuple(
        sorted(
            tuple(round(c / quantum) for c in shot.as_tuple()) for shot in shots
        )
    )


def reduce_shot_count(
    shape: MaskShape,
    spec: FractureSpec,
    shots: list[Rect],
    repair_params: RefineParams = RefineParams(nmax=80, nh=3),
    max_attempts: int = 8,
    overlap_threshold: float = 0.5,
) -> tuple[list[Rect], int]:
    """Post-refinement shot-count polish: try-remove-and-repair.

    Shots whose area is mostly covered by the other shots are redundancy
    suspects.  Each suspect (most-overlapped first) is removed and a
    short repair refinement runs; the removal sticks only when the result
    is feasible with strictly fewer shots.  Returns the polished shot
    list and the number of removals that stuck.

    This is an extension beyond Algorithm 1 (the paper controls count
    only through MergeShots); it is enabled by default and can be turned
    off via ``RefineConfig(polish=False)`` for paper-faithful ablations.
    """
    obs = get_recorder()
    with obs.span("polish", initial_shots=len(shots)) as span:
        current = list(shots)
        removed_total = 0
        attempts = 0
        improved = True
        while improved and attempts < max_attempts:
            improved = False
            suspects = _redundancy_suspects(current, overlap_threshold)
            for index in suspects:
                if attempts >= max_attempts:
                    break
                attempts += 1
                trial = current[:index] + current[index + 1 :]
                repaired, trace = refine(shape, spec, trial, repair_params)
                if trace.converged and len(repaired) < len(current):
                    removed_total += len(current) - len(repaired)
                    current = repaired
                    improved = True
                    break
        span.annotate(attempts=attempts, polished_away=removed_total)
        obs.incr("polish.attempts", attempts)
        obs.incr("polish.shots_removed", removed_total)
    return current, removed_total


def _redundancy_suspects(shots: list[Rect], threshold: float) -> list[int]:
    """Indices of shots mostly overlapped by other shots, most-covered first.

    Pairwise overlap areas are summed as a cheap upper estimate of the
    covered fraction (double counting only makes a shot *more* suspect).
    """
    scored: list[tuple[float, int]] = []
    for i, shot in enumerate(shots):
        if shot.area <= 0.0:
            scored.append((1.0, i))
            continue
        covered = sum(
            shot.intersection_area(other)
            for j, other in enumerate(shots)
            if j != i
        )
        fraction = covered / shot.area
        if fraction >= threshold:
            scored.append((fraction, i))
    scored.sort(key=lambda item: -item[0])
    return [index for _, index in scored]
