"""Bit-identity gates for the fused pricing kernel.

The fused gather/scatter ``clamped_band_sums`` path — and both sides of
its adaptive band-size dispatch — must reproduce the per-candidate loop
(``RefinementState._price_edge_moves_loop``) bit for bit: same
elementwise operation sequence, same pairwise per-candidate sums, so
``np.array_equal`` (not approximate closeness) is the bar.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.fracture import state as state_module
from repro.fracture.graph_color import approximate_fracture
from repro.fracture.refine import RefineParams, refine
from repro.fracture.state import RefinementState, clamped_band_sums


def _loop_band_sums(row_vals, col_vals, rows, cols, y0, x0, col_off, sign, base):
    """Reference for :func:`clamped_band_sums`: each candidate's band
    scored in place, one candidate at a time."""
    out = np.zeros(rows.shape[0], dtype=np.float64)
    r_off = 0
    for i in range(rows.shape[0]):
        h, w = int(rows[i]), int(cols[i])
        rv = row_vals[r_off:r_off + h]
        cv = col_vals[col_off[i]:col_off[i] + w]
        r_off += h
        window = (slice(y0[i], y0[i] + h), slice(x0[i], x0[i] + w))
        patch = rv[:, None] * cv[None, :]
        patch *= sign[window]
        patch += base[window]
        np.maximum(patch, 0.0, out=patch)
        out[i] = patch.sum()
    return out


@pytest.fixture()
def priced_inputs(l_shape, spec):
    shots, _ = approximate_fracture(l_shape, spec)
    state = RefinementState(l_shape, spec, shots)
    cost_integral = state.cost_integral()
    active = state.active_pixels()
    candidates = state.gather_edge_moves(cost_integral)
    assert candidates, "expected candidates on an unrefined fracture"
    return state, candidates, cost_integral, active


class TestFusedBitIdentity:
    def test_fused_kernel_equals_loop(self, priced_inputs, monkeypatch):
        state, candidates, cost_integral, active = priced_inputs
        # Force the fused kernel for every batch.
        monkeypatch.setattr(state_module, "FUSED_BAND_LIMIT", sys.maxsize)
        fused = state.price_edge_moves(candidates, cost_integral, active)
        loop = state._price_edge_moves_loop(
            candidates, cost_integral, active
        )
        assert np.array_equal(fused, loop)

    def test_adaptive_fallback_equals_loop(self, priced_inputs, monkeypatch):
        state, candidates, cost_integral, active = priced_inputs
        # Force the in-place scoring branch for every batch.
        monkeypatch.setattr(state_module, "FUSED_BAND_LIMIT", 0)
        fallback = state.price_edge_moves(
            candidates, cost_integral, active
        )
        loop = state._price_edge_moves_loop(
            candidates, cost_integral, active
        )
        assert np.array_equal(fallback, loop)

    def test_public_dispatch_identical_across_backends(self, priced_inputs):
        state, candidates, cost_integral, active = priced_inputs
        priced = state.price_edge_moves(candidates, cost_integral, active)
        loop = state._price_edge_moves_loop(
            candidates, cost_integral, active
        )
        assert np.array_equal(priced, loop)

    def test_fused_matches_scalar_oracle(self, priced_inputs):
        state, candidates, cost_integral, active = priced_inputs
        priced = state.price_edge_moves(candidates, cost_integral, active)
        for candidate, value in zip(candidates, priced):
            oracle = state.edge_move_delta_cost(
                candidate.index,
                candidate.edge,
                candidate.delta,
                cost_integral,
                active,
            )
            assert oracle is not None
            assert abs(value - oracle) <= 1e-12


class TestSyntheticBandBatches:
    @pytest.mark.parametrize("band", [8, 40], ids=["thin", "bulky"])
    def test_fused_kernel_equals_loop(self, band):
        """200 random band×band windows on a 512² field; the thin and
        bulky bands sit on either side of ``FUSED_BAND_LIMIT``."""
        assert (band * band <= state_module.FUSED_BAND_LIMIT) == (band == 8)
        rng = np.random.default_rng(20150608)
        grid, ncand = 512, 200
        sign = rng.choice(np.array([-1.0, 0.0, 1.0]), size=(grid, grid))
        base = rng.normal(scale=0.2, size=(grid, grid))
        rows = np.full(ncand, band, dtype=np.int64)
        cols = np.full(ncand, band, dtype=np.int64)
        y0 = rng.integers(0, grid - band, ncand).astype(np.int64)
        x0 = rng.integers(0, grid - band, ncand).astype(np.int64)
        col_off = (np.cumsum(cols) - cols).astype(np.int64)
        row_vals = rng.normal(size=int(rows.sum()))
        col_vals = rng.normal(size=int(cols.sum()))
        args = (row_vals, col_vals, rows, cols, y0, x0, col_off, sign, base)
        assert np.array_equal(clamped_band_sums(*args), _loop_band_sums(*args))


class TestEndToEndAcrossBackends:
    @pytest.mark.parametrize("fixture", ["rect_shape", "l_shape", "blob_shape"])
    def test_refine_shots_identical(
        self, fixture, spec, request, scalar_references
    ):
        shape = request.getfixturevalue(fixture)
        initial, _ = approximate_fracture(shape, spec)

        def run():
            shots, trace = refine(shape, spec, initial, RefineParams(nmax=8))
            return [s.as_tuple() for s in shots], trace.iterations

        shipped = run()
        with scalar_references():
            assert run() == shipped
