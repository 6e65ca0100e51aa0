"""Windowed failure bookkeeping against whole-grid references.

``RefinementState`` keeps the Eq. 4 failure counts and the clamped Eq. 5
field current over each mutation's window, AddShot labels only the
bounding box of the failing P_on pixels, and RemoveShot counts each
shot's failing P_off pixels over its own σ-window.  The references below
redo all of it over the whole grid, from I_tot, on every call; the
``scalar_references`` fixture routes whole runs through them.  The
property drives random shot sets, without a mask, under a 1-D seam band,
under a 2-D seam lattice and inside a thin frame, through random
sequences of edge moves, adds, removes, replacements, bias steps and
restores, and requires ``report()`` to equal the reference bit for bit
after every step, and AddShot and RemoveShot to pick the shot the
references pick.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fracture.add_remove import _expand_to_min_size, add_shot, remove_shot
from repro.fracture.bias import bias_all_shots
from repro.fracture.state import RefinementState, StateReport
from repro.geometry import labeling
from repro.geometry.polygon import Polygon
from repro.geometry.rect import EDGES, Rect
from repro.mask.constraints import FractureSpec
from repro.mask.shape import MaskShape

# -- whole-grid references ------------------------------------------------------


def _reference_base(state: RefinementState) -> np.ndarray:
    """``S·I − S·ρ`` over the whole grid, from I_tot."""
    return state._cost_sign * state.imap.total - state._cost_bias


def reference_report(state: RefinementState) -> StateReport:
    """Both failure masks rebuilt over the whole grid and counted, and
    the clamped field summed over the box (zeros outside it)."""
    base = _reference_base(state)
    r0, r1, c0, c1 = state._box
    return StateReport(
        int(np.count_nonzero(state.pixels.on & (base > 0.0))),
        int(np.count_nonzero(state.pixels.off & (base >= 0.0))),
        float(np.maximum(base[r0:r1, c0:c1], 0.0).sum()),
    )


def reference_add_pick(state: RefinementState) -> Rect | None:
    """The shot AddShot adds: whole-grid labeling of the failing P_on
    pixels, every box grown to L_min, most covered failing pixels wins."""
    fail_on = state.pixels.on & (_reference_base(state) > 0.0)
    if not fail_on.any():
        return None
    grid = state.shape.grid
    labels, count = labeling.label_components(fail_on)
    best_shot, best_covered = None, -1
    for box, _pixels in labeling.bounding_boxes(labels, count, grid):
        shot = _expand_to_min_size(box, state.spec.lmin)
        if not state.mutation_allowed(state.imap.window_of(shot)):
            continue
        covered = int(fail_on[grid.rect_to_slices(shot)].sum())
        if covered > best_covered:
            best_shot, best_covered = shot, covered
    return best_shot


def reference_remove_pick(state: RefinementState) -> int | None:
    """Index of the shot RemoveShot removes: every shot against every
    failing P_off pixel of the grid, by pixel-centre distance."""
    fail_off = state.pixels.off & (_reference_base(state) >= 0.0)
    ys, xs = np.nonzero(fail_off)
    if not state.shots or len(ys) == 0:
        return None
    grid = state.shape.grid
    px = grid.x0 + (xs + 0.5) * grid.pitch
    py = grid.y0 + (ys + 0.5) * grid.pitch
    sigma = state.spec.sigma
    best_index, best_count = -1, -1
    for index, shot in enumerate(state.shots):
        if not state.mutation_allowed(state.imap.window_of(shot)):
            continue
        dx = np.maximum(np.maximum(shot.xbl - px, px - shot.xtr), 0.0)
        dy = np.maximum(np.maximum(shot.ybl - py, py - shot.ytr), 0.0)
        count = int(((dx * dx + dy * dy) < sigma * sigma).sum())
        if count > best_count:
            best_index, best_count = index, count
    return best_index if best_index >= 0 else None


def reference_add_shot(state: RefinementState, report) -> Rect | None:
    shot = reference_add_pick(state)
    if shot is not None:
        state.add_shot(shot)
    return shot


def reference_remove_shot(state: RefinementState, report) -> Rect | None:
    index = reference_remove_pick(state)
    return None if index is None else state.remove_shot(index)


# -- the property ------------------------------------------------------------------

SPEC = FractureSpec()
_TARGET = MaskShape.from_polygon(
    Polygon([(0, 0), (90, 0), (90, 30), (50, 30), (50, 60), (0, 60)]),
    margin=SPEC.grid_margin, name="L",
)


def _active_mask(kind: str) -> np.ndarray | None:
    """No mask, a 1-D seam band, a 2-D seam lattice, or everything but a
    thin frame — wide enough that restricted AddShot and RemoveShot
    find allowed shots."""
    ny, nx = _TARGET.grid.shape
    if kind == "none":
        return None
    mask = np.zeros((ny, nx), dtype=bool)
    if kind == "frame":
        mask[3:-3, 3:-3] = True
        return mask
    mask[:, nx // 4 : 3 * nx // 4] = True
    if kind == "lattice":
        mask[ny // 4 : 3 * ny // 4, :] = True
    return mask


@st.composite
def rects(draw) -> Rect:
    x = draw(st.integers(-10, 80))
    y = draw(st.integers(-10, 50))
    w = draw(st.integers(int(SPEC.lmin), 60))
    h = draw(st.integers(int(SPEC.lmin), 50))
    return Rect(x, y, x + w, y + h)


_OPS = st.one_of(
    st.tuples(
        st.just("edge"), st.integers(0, 7), st.sampled_from(EDGES),
        st.sampled_from((1.0, -1.0)),
    ),
    st.tuples(st.just("add"), rects()),
    st.tuples(st.just("remove"), st.integers(0, 7)),
    st.tuples(st.just("replace"), st.integers(0, 7), rects()),
    st.tuples(st.just("bias")),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")),
    # The two moves under test, drawn twice as often as the rest.
    st.tuples(st.just("add_shot")),
    st.tuples(st.just("add_shot")),
    st.tuples(st.just("remove_shot")),
    st.tuples(st.just("remove_shot")),
)


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def _assert_matches_reference(state: RefinementState) -> None:
    report = state.report()
    expected = reference_report(state)
    # Plain ints: the counts go into JSON telemetry.
    assert type(report.count_on) is int and type(report.count_off) is int
    assert (report.count_on, report.count_off) == (
        expected.count_on, expected.count_off,
    )
    assert _bits(report.cost) == _bits(expected.cost)
    base = _reference_base(state)
    assert np.array_equal(state.failing_on(), state.pixels.on & (base > 0.0))
    assert np.array_equal(
        state.failing_off(), state.pixels.off & (base >= 0.0)
    )


def _apply(state: RefinementState, op: tuple, saved: list[Rect]) -> None:
    kind, n = op[0], len(state.shots)
    if kind == "edge" and n:
        state.apply_edge_move(op[1] % n, op[2], op[3] * SPEC.pitch)
    elif kind == "add":
        state.add_shot(op[1])
    elif kind == "remove" and n:
        state.remove_shot(op[1] % n)
    elif kind == "replace" and n:
        state.replace_shot(op[1] % n, op[2])
    elif kind == "bias":
        bias_all_shots(state, state.report())
    elif kind == "snapshot":
        saved[:] = state.snapshot()
    elif kind == "restore":
        state.restore(saved)
    elif kind == "add_shot":
        expected = reference_add_pick(state)
        assert add_shot(state, state.report()) == expected
    elif kind == "remove_shot":
        before = list(state.shots)
        index = reference_remove_pick(state)
        removed = remove_shot(state, state.report())
        if index is None:
            assert removed is None and state.shots == before
        else:
            assert removed == before[index]
            assert state.shots == before[:index] + before[index + 1 :]


class TestWindowedBookkeeping:
    @given(
        st.lists(rects(), max_size=5),
        st.sampled_from(("none", "band", "lattice", "frame")),
        st.lists(_OPS, min_size=1, max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_step_matches_whole_grid_reference(self, shots, kind, ops):
        state = RefinementState(
            _TARGET, SPEC, shots, active_mask=_active_mask(kind)
        )
        saved = state.snapshot()
        _assert_matches_reference(state)
        for op in ops:
            _apply(state, op, saved)
            _assert_matches_reference(state)

    def test_failing_bbox_holds_every_failing_on_pixel(self):
        state = RefinementState(_TARGET, SPEC, [Rect(0, 0, 40, 30)])
        fail_on = state.failing_on()
        assert fail_on.any()
        mask, r0, c0 = state.failing_on_bbox()
        h, w = mask.shape
        assert np.array_equal(mask, fail_on[r0 : r0 + h, c0 : c0 + w])
        assert mask.sum() == fail_on.sum() == state.report().count_on
        assert mask[0].any() and mask[-1].any()
        assert mask[:, 0].any() and mask[:, -1].any()

    def test_no_failing_on_pixel_no_bbox(self):
        state = RefinementState(_TARGET, SPEC, [Rect(-20, -20, 110, 80)])
        assert state.report().count_on == 0
        assert state.failing_on_bbox() is None
