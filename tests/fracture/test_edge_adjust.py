"""Unit tests for greedy shot edge adjustment (paper §4.1)."""

import pytest

from repro.fracture.edge_adjust import edge_segment, greedy_shot_edge_adjustment
from repro.fracture.state import RefinementState
from repro.geometry.rect import Rect


class TestEdgeSegment:
    def test_segments_are_degenerate_rects(self):
        shot = Rect(0, 0, 10, 20)
        assert edge_segment(shot, "left").as_tuple() == (0, 0, 0, 20)
        assert edge_segment(shot, "right").as_tuple() == (10, 0, 10, 20)
        assert edge_segment(shot, "bottom").as_tuple() == (0, 0, 10, 0)
        assert edge_segment(shot, "top").as_tuple() == (0, 20, 10, 20)

    def test_unknown_edge(self):
        with pytest.raises(ValueError):
            edge_segment(Rect(0, 0, 1, 1), "middle")


class TestAdjustment:
    def test_oversized_shot_shrinks_toward_target(self, rect_shape, spec):
        """A shot 3nm too big on every side must be pulled inward."""
        state = RefinementState(rect_shape, spec, [Rect(-3, -3, 63, 43)])
        cost_before = state.report().cost
        for _ in range(8):
            moved = greedy_shot_edge_adjustment(state)
            if moved == 0:
                break
        cost_after = state.report().cost
        assert cost_after < cost_before
        shot = state.shots[0]
        # Feasible fixed point: an edge may rest anywhere within the
        # γ band around the target boundary.
        assert -2.5 <= shot.xbl <= 2.5 and 57.5 <= shot.xtr <= 62.5

    def test_converges_to_zero_failing_on_rect(self, rect_shape, spec):
        state = RefinementState(rect_shape, spec, [Rect(-3, -3, 63, 43)])
        for _ in range(30):
            report = state.report()
            if report.total_failing == 0:
                break
            greedy_shot_edge_adjustment(state)
        assert state.report().total_failing == 0

    def test_no_moves_when_feasible_and_tight(self, rect_shape, spec):
        # A converged configuration should offer no improving move (or
        # only marginal ones); the pass must terminate.
        state = RefinementState(rect_shape, spec, [Rect(-3, -3, 63, 43)])
        for _ in range(40):
            report = state.report()
            if report.total_failing == 0:
                break
            greedy_shot_edge_adjustment(state)
        moved = greedy_shot_edge_adjustment(state)
        assert moved <= 2

    def test_min_size_never_violated(self, rect_shape, spec):
        state = RefinementState(rect_shape, spec, [Rect(0, 0, 11, 11)])
        for _ in range(10):
            greedy_shot_edge_adjustment(state)
        assert all(s.meets_min_size(spec.lmin) for s in state.shots)

    def test_blocking_limits_moves_on_small_shot(self, rect_shape, spec):
        """All four edges of a small shot are within 2σ of each other, so
        at most one edge may move per iteration."""
        state = RefinementState(rect_shape, spec, [Rect(20, 10, 31, 21)])
        moved = greedy_shot_edge_adjustment(state)
        assert moved <= 1

    def test_without_report_skip(self, rect_shape, spec):
        """A pass accepts only improving moves."""
        state = RefinementState(rect_shape, spec, [Rect(-3, -3, 63, 43)])
        before = state.report().cost
        greedy_shot_edge_adjustment(state)
        assert state.report().cost <= before
