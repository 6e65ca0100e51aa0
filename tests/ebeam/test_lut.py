"""Unit tests for the erf lookup table."""

import numpy as np
import pytest
from scipy.special import erf

from repro.ebeam.lut import ErfLookupTable, default_lut


class TestConstruction:
    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            ErfLookupTable(bound=0.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            ErfLookupTable(samples=1)


class TestAccuracy:
    def test_max_error_tiny(self):
        lut = ErfLookupTable()
        assert lut.max_abs_error() < 1e-7

    def test_saturation_outside_range(self):
        lut = ErfLookupTable(bound=4.0)
        assert np.isclose(lut(10.0), 1.0, atol=1e-6)
        assert np.isclose(lut(-10.0), -1.0, atol=1e-6)

    def test_odd_symmetry(self):
        lut = ErfLookupTable()
        xs = np.linspace(0, 4.5, 100)
        assert np.allclose(lut(xs), -lut(-xs), atol=1e-9)

    def test_scalar_and_array_inputs(self):
        lut = ErfLookupTable()
        assert np.isclose(float(lut(0.5)), erf(0.5), atol=1e-7)
        out = lut(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert out.shape == (2, 2)

    def test_scalar_returns_python_float(self):
        # Regression: scalar input used to come back as a 0-d ndarray,
        # which silently broke float formatting and equality in callers.
        lut = ErfLookupTable()
        for u in (0.0, -2.5, 7.0, np.float64(1.25)):
            result = lut(u)
            assert type(result) is float

    def test_upper_table_edge_interpolates_in_bounds(self):
        # Regression: an argument exactly at +bound maps to the last
        # table index; the base cell must clamp to samples - 2 so the
        # idx + 1 read stays in bounds and the value is the table edge.
        lut = ErfLookupTable(bound=3.0, samples=301)
        assert lut(3.0) == pytest.approx(float(erf(3.0)), abs=1e-9)
        arr = lut(np.array([2.99, 3.0, 3.5]))
        assert np.all(np.isfinite(arr))
        assert arr[1] == pytest.approx(float(erf(3.0)), abs=1e-9)
        assert arr[2] == pytest.approx(float(erf(3.0)), abs=1e-9)

    def test_monotone(self):
        lut = ErfLookupTable()
        xs = np.linspace(-4, 4, 1000)
        assert (np.diff(lut(xs)) >= 0).all()


class TestEvalConcat:
    def test_matches_per_array_evaluation_bitwise(self):
        lut = ErfLookupTable()
        rng = np.random.default_rng(7)
        segments = [rng.uniform(-6, 6, size=n) for n in (3, 17, 1, 64)]
        batched = lut.eval_concat(segments)
        assert len(batched) == len(segments)
        for segment, values in zip(segments, batched):
            assert values.shape == segment.shape
            assert np.array_equal(values, lut(segment))

    def test_empty_and_single_segment(self):
        lut = ErfLookupTable()
        assert lut.eval_concat([]) == []
        seg = np.linspace(-1, 1, 9)
        (values,) = lut.eval_concat([seg])
        assert np.array_equal(values, lut(seg))


class TestSharedInstance:
    def test_default_lut_is_cached(self):
        assert default_lut() is default_lut()
