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
from repro.fracture.state import RefinementState


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
