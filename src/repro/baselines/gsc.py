"""Greedy set cover fracturing (Jiang & Zakhor [14]).

Model-based greedy covering: while P_on pixels fail, propose candidate
shots around the failing clusters — the maximal rectangle inside the
drawn shape through the cluster seed, and a minimum-size patch shot on
the cluster — score each by how many failing pixels it would actually
fix under the proximity model, and add the best.  Stops when no candidate
reduces the failing count (or at the shot cap).

This mirrors the published GSC behaviour: greedy, add-only, no shot-edge
optimization.  Curvy ILT boundaries force it to pile up small patch
shots in every scalloped corner, which is why its shot counts trail the
coloring + refinement method by a wide margin (paper Table 2).
"""

from __future__ import annotations

import numpy as np

from repro.fracture.base import Fracturer
from repro.fracture.state import RefinementState
from repro.geometry.labeling import bounding_boxes, label_components
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec
from repro.mask.shape import MaskShape

_MAX_SHOTS = 400
_MAX_CLUSTERS_PER_ROUND = 4


class GreedySetCoverFracturer(Fracturer):
    """GSC baseline; see module docstring."""

    name = "GSC"

    def __init__(self, max_shots: int = _MAX_SHOTS):
        self.max_shots = max_shots
        self._last_extra: dict = {}

    def fracture_shots(self, shape: MaskShape, spec: FractureSpec) -> list[Rect]:
        # Candidate rectangles are confined to the drawn shape — the
        # geometric set-cover formulation of [14]; overlap between shots
        # is what fixes corners, not edge moves.
        allowed = shape.inside
        state = RefinementState(shape, spec, [])
        rounds = 0
        while len(state.shots) < self.max_shots:
            report = state.report()
            if report.count_on == 0:
                break
            candidates = _candidate_shots(
                allowed, shape, spec, state.failing_on()
            )
            best_shot = None
            best_gain = 0
            for shot in candidates:
                gain = _net_gain(state, shot)
                if gain > best_gain:
                    best_gain = gain
                    best_shot = shot
            if best_shot is None:
                break
            state.add_shot(best_shot)
            rounds += 1
        self._last_extra = {"cover_rounds": rounds}
        return state.shots


def _candidate_shots(
    allowed: np.ndarray,
    shape: MaskShape,
    spec: FractureSpec,
    fail_on: np.ndarray,
) -> list[Rect]:
    """Candidate shots for this round, derived from the failing clusters."""
    labels, count = label_components(fail_on)
    boxes = bounding_boxes(labels, count, shape.grid)
    candidates: list[Rect] = []
    for box, _pixels in boxes[:_MAX_CLUSTERS_PER_ROUND]:
        seed = shape.grid.index_of(box.center)
        seed = _snap_to_cluster(fail_on, labels, seed)
        if seed is not None:
            maximal = _grow_max_rect(allowed, shape, seed, spec.lmin)
            if maximal is not None:
                candidates.append(maximal)
        # Small clusters (corner crescents the maximal rectangles cannot
        # serve) also get a patch shot: the cluster bounding box grown to
        # the minimum shot size.  Net-gain scoring rejects it when the
        # patch would overexpose more P_off than it fixes.
        if box.width <= 2.0 * spec.lmin and box.height <= 2.0 * spec.lmin:
            cx, cy = box.center.x, box.center.y
            half_w = max(box.width, spec.lmin) / 2.0
            half_h = max(box.height, spec.lmin) / 2.0
            candidates.append(Rect(cx - half_w, cy - half_h, cx + half_w, cy + half_h))
    return candidates


def _snap_to_cluster(
    fail_on: np.ndarray, labels: np.ndarray, seed: tuple[int, int]
) -> tuple[int, int] | None:
    """Move a box-centre seed onto an actual failing pixel of its cluster."""
    iy, ix = seed
    if fail_on[iy, ix]:
        return seed
    ys, xs = np.nonzero(fail_on)
    if len(ys) == 0:
        return None
    d2 = (ys - iy) ** 2 + (xs - ix) ** 2
    k = int(np.argmin(d2))
    return int(ys[k]), int(xs[k])


def _net_gain(state: RefinementState, shot: Rect) -> int:
    """Failing P_on pixels fixed minus new failing P_off pixels created.

    Adding a shot only changes intensity inside its influence window, so
    both terms are window-local.
    """
    window, patch = state.imap.shot_patch(shot)
    rho = state.spec.rho
    before = state.imap.total[window]
    after = before + patch
    on = state.pixels.on[window]
    off = state.pixels.off[window]
    fixed_on = int((on & (before < rho) & (after >= rho)).sum())
    new_off = int((off & (before < rho) & (after >= rho)).sum())
    return fixed_on - new_off


def _grow_max_rect(
    allowed: np.ndarray,
    shape: MaskShape,
    seed: tuple[int, int],
    lmin: float,
) -> Rect | None:
    """Greedy maximal rectangle in ``allowed`` containing the seed pixel.

    Expands one pixel at a time in round-robin order while the swept row/
    column stays fully allowed, then converts to mask-plane coordinates
    and enforces the minimum shot size.
    """
    ny, nx = allowed.shape
    iy, ix = seed
    if not allowed[iy, ix]:
        return None
    y_lo = y_hi = iy
    x_lo = x_hi = ix
    active = {"up", "down", "left", "right"}
    while active:
        if "up" in active:
            if y_hi + 1 < ny and allowed[y_hi + 1, x_lo : x_hi + 1].all():
                y_hi += 1
            else:
                active.discard("up")
        if "down" in active:
            if y_lo - 1 >= 0 and allowed[y_lo - 1, x_lo : x_hi + 1].all():
                y_lo -= 1
            else:
                active.discard("down")
        if "left" in active:
            if x_lo - 1 >= 0 and allowed[y_lo : y_hi + 1, x_lo - 1].all():
                x_lo -= 1
            else:
                active.discard("left")
        if "right" in active:
            if x_hi + 1 < nx and allowed[y_lo : y_hi + 1, x_hi + 1].all():
                x_hi += 1
            else:
                active.discard("right")
    grid = shape.grid
    rect = Rect(
        grid.x0 + x_lo * grid.pitch,
        grid.y0 + y_lo * grid.pitch,
        grid.x0 + (x_hi + 1) * grid.pitch,
        grid.y0 + (y_hi + 1) * grid.pitch,
    )
    if rect.width < lmin:
        cx = rect.center.x
        rect = Rect(cx - lmin / 2.0, rect.ybl, cx + lmin / 2.0, rect.ytr)
    if rect.height < lmin:
        cy = rect.center.y
        rect = Rect(rect.xbl, cy - lmin / 2.0, rect.xtr, cy + lmin / 2.0)
    return rect
