"""Shot addition and removal (paper §4.3 / §4.4).

AddShot: merge neighbouring failing P_on pixels into connected
components, expand each component's bounding box to the minimum shot
size, and add the box covering the most failing pixels.  One shot per
refinement iteration.  Only the bounding box of the failing P_on pixels
is labeled: every component lies inside it.

RemoveShot: pick the shot with the most failing P_off pixels within
distance σ of it — the shot's own intensity exceeds 0.5 inside that
band, so removing it likely clears those violations (at the price of new
P_on violations that later iterations repair).  Each shot counts them
over its own σ-window: no pixel outside it can be that close.

Both moves honour :meth:`RefinementState.mutation_allowed`: in a
region-restricted refinement, a shot is only added or removed when its
full dose-effect window lies inside the active mask.
"""

from __future__ import annotations

import numpy as np

from repro.fracture.state import RefinementState, StateReport
from repro.geometry.labeling import bounding_boxes, label_components
from repro.geometry.rect import Rect


def add_shot(state: RefinementState, report: StateReport) -> Rect | None:
    """Add one shot over the worst cluster of failing P_on pixels."""
    failing = state.failing_on_bbox() if report.count_on else None
    if failing is None:
        return None
    fail_on, r0, c0 = failing
    labels, count = label_components(fail_on)
    grid = state.shape.grid
    boxes = bounding_boxes(labels, count, grid, origin=(r0, c0))
    h, w = fail_on.shape
    lmin = state.spec.lmin
    best_shot: Rect | None = None
    best_covered = -1
    for box, _pixel_count in boxes:
        shot = _expand_to_min_size(box, lmin)
        if not state.mutation_allowed(state.imap.window_of(shot)):
            continue
        # Failing pixels whose centres the shot covers; none lie outside
        # the labeled box, so the window is clipped to it.
        ys, xs = grid.rect_to_slices(shot)
        covered = int(
            fail_on[
                min(max(ys.start - r0, 0), h) : max(ys.stop - r0, 0),
                min(max(xs.start - c0, 0), w) : max(xs.stop - c0, 0),
            ].sum()
        )
        if covered > best_covered:
            best_covered = covered
            best_shot = shot
    if best_shot is None:
        return None
    state.add_shot(best_shot)
    return best_shot


def remove_shot(state: RefinementState, report: StateReport) -> Rect | None:
    """Remove the shot blamed for the most nearby failing P_off pixels."""
    if not state.shots or not report.count_off:
        return None
    grid = state.shape.grid
    sigma = state.spec.sigma
    # One pixel wider than σ, so rounding in the window bounds can never
    # drop a pixel the distance test below would count.
    margin = sigma + grid.pitch
    best_index = -1
    best_count = -1
    for index, shot in enumerate(state.shots):
        if not state.mutation_allowed(state.imap.window_of(shot)):
            continue
        window = grid.rect_to_slices(shot, margin=margin)
        ys, xs = np.nonzero(state.failing_off(window))
        count = 0
        if ys.size:
            px = grid.x0 + (xs + window[1].start + 0.5) * grid.pitch
            py = grid.y0 + (ys + window[0].start + 0.5) * grid.pitch
            dx = np.maximum(np.maximum(shot.xbl - px, px - shot.xtr), 0.0)
            dy = np.maximum(np.maximum(shot.ybl - py, py - shot.ytr), 0.0)
            count = int(((dx * dx + dy * dy) < sigma * sigma).sum())
        if count > best_count:
            best_count = count
            best_index = index
    if best_index < 0:
        return None
    return state.remove_shot(best_index)


def _expand_to_min_size(box: Rect, lmin: float) -> Rect:
    """Grow a bounding box symmetrically to the minimum shot size."""
    xbl, ybl, xtr, ytr = box.as_tuple()
    if box.width < lmin:
        cx = (xbl + xtr) / 2.0
        xbl, xtr = cx - lmin / 2.0, cx + lmin / 2.0
    if box.height < lmin:
        cy = (ybl + ytr) / 2.0
        ybl, ytr = cy - lmin / 2.0, cy + lmin / 2.0
    return Rect(xbl, ybl, xtr, ytr)
