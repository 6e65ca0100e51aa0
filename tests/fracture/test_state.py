"""Unit tests for the refinement working state."""

import numpy as np
import pytest

from repro.fracture.state import RefinementState
from repro.geometry.rect import Rect


@pytest.fixture()
def state(rect_shape, spec) -> RefinementState:
    return RefinementState(rect_shape, spec, [Rect(0, 0, 60, 40)])


class TestReports:
    def test_initial_report_consistent_with_check(self, state, rect_shape, spec):
        from repro.mask.constraints import check_solution

        internal = state.report()
        external = check_solution(state.shots, rect_shape, spec)
        assert internal.total_failing == external.total_failing
        assert np.isclose(internal.cost, external.cost)

    def test_window_cost_matches_global(self, state, spec):
        full_window = (slice(0, state.imap.total.shape[0]),
                       slice(0, state.imap.total.shape[1]))
        cost = state.window_cost(full_window, state.imap.total)
        assert np.isclose(cost, state.report().cost)


class TestEdgeMoves:
    def test_invalid_move_returns_none(self, state, spec):
        # Shrinking a min-size shot below Lmin is rejected.
        state.shots[0] = Rect(0, 0, spec.lmin, 40)
        state.imap.rebuild(state.shots)
        assert state.edge_move_delta_cost(0, "left", spec.pitch) is None

    def test_delta_cost_matches_committed_cost(self, state):
        before = state.report().cost
        delta = state.edge_move_delta_cost(0, "right", 1.0)
        assert delta is not None
        assert state.apply_edge_move(0, "right", 1.0)
        after = state.report().cost
        assert np.isclose(after - before, delta, atol=1e-6)

    def test_apply_edge_move_updates_shot(self, state):
        original = state.shots[0]
        state.apply_edge_move(0, "top", 1.0)
        assert state.shots[0].ytr == original.ytr + 1.0

    def test_apply_invalid_move_refused(self, state, spec):
        state.shots[0] = Rect(0, 0, spec.lmin, 40)
        state.imap.rebuild(state.shots)
        assert not state.apply_edge_move(0, "left", spec.pitch)


class TestMutators:
    def test_add_and_remove_roundtrip(self, state):
        baseline = state.imap.total.copy()
        extra = Rect(10, 10, 30, 30)
        state.add_shot(extra)
        assert len(state.shots) == 2
        removed = state.remove_shot(1)
        assert removed == extra
        assert np.max(np.abs(state.imap.total - baseline)) < 1e-9

    def test_replace_shot(self, state):
        new = Rect(5, 5, 55, 35)
        state.replace_shot(0, new)
        assert state.shots[0] == new
        reference = RefinementState(state.shape, state.spec, [new])
        assert np.max(np.abs(state.imap.total - reference.imap.total)) < 1e-7

    def test_snapshot_restore(self, state):
        snapshot = state.snapshot()
        state.apply_edge_move(0, "right", 1.0)
        state.add_shot(Rect(10, 10, 30, 30))
        state.restore(snapshot)
        assert state.shots == snapshot
        reference = RefinementState(state.shape, state.spec, snapshot)
        assert np.max(np.abs(state.imap.total - reference.imap.total)) < 1e-9


class TestMoveGeometryMemo:
    def test_memoized_geometry_equals_fresh_build(self, rect_shape, spec):
        """The per-state span memo is pure geometry: a state that has
        built geometry for many shots gives, for any shot, what a fresh
        state (empty memo) builds."""
        rng = np.random.default_rng(7)
        ny, nx = rect_shape.grid.shape

        def random_shot() -> Rect:
            x0 = float(rng.integers(-5, nx - 10))
            y0 = float(rng.integers(-5, ny - 10))
            w = float(rng.integers(8, 40))
            h = float(rng.integers(8, 40))
            return Rect(x0, y0, x0 + w, y0 + h)

        warm = RefinementState(rect_shape, spec, [Rect(0, 0, 60, 40)])
        for _ in range(300):
            warm._build_move_geometry(random_shot())
        assert warm._span_memo
        for _ in range(100):
            shot = random_shot()
            fresh = RefinementState(rect_shape, spec, [Rect(0, 0, 60, 40)])
            assert warm._build_move_geometry(shot) == \
                fresh._build_move_geometry(shot)
            for edge in ("left", "right", "bottom", "top"):
                assert warm.edge_pricing_window(shot, edge) == \
                    fresh.edge_pricing_window(shot, edge)
