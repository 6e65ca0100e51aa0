"""Hypothesis property tests for the analysis modules (latitude)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebeam.latitude import dose_window
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec
from repro.mask.shape import MaskShape

SPEC = FractureSpec()


class TestLatitudeProperties:
    @given(st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_window_ordering_consistent(self, bias):
        """For a single shot, the dose window ends move monotonically with
        shot bias: growing the shot lowers both s_min and s_max."""
        polygon = Polygon([(0, 0), (60, 0), (60, 40), (0, 40)])
        shape = MaskShape.from_polygon(polygon, margin=SPEC.grid_margin)
        small = dose_window([Rect(-1, -1, 61, 41)], shape, SPEC)
        biased = dose_window(
            [Rect(-1 - bias, -1 - bias, 61 + bias, 41 + bias)], shape, SPEC
        )
        if bias > 0:
            assert biased.s_min <= small.s_min + 1e-9
            assert biased.s_max <= small.s_max + 1e-9
        elif bias < 0:
            assert biased.s_min >= small.s_min - 1e-9
