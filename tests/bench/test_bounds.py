"""Unit tests for shot-count bounds."""

import pytest

from repro.bench.bounds import lower_bound_shots, upper_bound_shots
from repro.fracture.base import FractureResult
from repro.mask.constraints import FailureReport

import numpy as np


def _result(shots: int, feasible: bool) -> FractureResult:
    fail = np.zeros((2, 2), dtype=bool)
    if not feasible:
        fail = np.ones((2, 2), dtype=bool)
    from repro.geometry.rect import Rect

    return FractureResult(
        method="x",
        shape_name="s",
        shots=[Rect(0, 0, 10, 10)] * shots,
        runtime_s=0.0,
        report=FailureReport(fail_on=fail, fail_off=np.zeros_like(fail), cost=0.0),
    )


@pytest.fixture(scope="module")
def rgb_bounds(spec):
    """Each RGB clip's known optimum with its lower bound, computed once."""
    from repro.bench.shapes import rgb_suite

    return [(ko, lower_bound_shots(ko.shape, spec)) for ko in rgb_suite()]


class TestLowerBound:
    def test_rectangle_is_one(self, rect_shape, spec):
        assert lower_bound_shots(rect_shape, spec) == 1

    def test_l_shape_at_least_two(self, l_shape, spec):
        assert lower_bound_shots(l_shape, spec) >= 2

    def test_never_exceeds_feasible_solution(self, blob_shape, spec):
        """Soundness against an actual feasible solution."""
        from repro.fracture.pipeline import ModelBasedFracturer

        result = ModelBasedFracturer().fracture(blob_shape, spec)
        if result.feasible:
            lb = lower_bound_shots(blob_shape, spec)
            assert lb <= result.shot_count

    def test_generator_construction_soundness(self, rgb_bounds):
        """LB must not exceed the known construction count K."""
        for ko, lb in rgb_bounds:
            assert lb <= ko.optimal_shots

    def test_suite_bounds_pinned(self, spec, rgb_bounds):
        """Table 2's LB column on ILT-1…10, and the RGB-1…5 bounds: the
        vectorized pair test must keep every witness set."""
        from repro.bench.shapes import ilt_suite

        assert [lower_bound_shots(s, spec) for s in ilt_suite(spec.pitch)] == [
            1, 2, 2, 3, 3, 5, 3, 4, 6, 1,
        ]
        assert [lb for _ko, lb in rgb_bounds] == [5, 7, 5, 9, 6]


class TestUpperBound:
    def test_min_feasible_selected(self):
        results = [_result(5, True), _result(3, True), _result(2, False)]
        assert upper_bound_shots(results) == 3

    def test_all_infeasible_is_none(self):
        assert upper_bound_shots([_result(2, False)]) is None

    def test_empty_is_none(self):
        assert upper_bound_shots([]) is None
