"""Bit-identity gates for batched edge-move pricing.

``RefinementState.price_edge_moves`` crops, gathers and scores one
candidate at a time with the exact operation sequence of the scalar
per-candidate oracle (``edge_move_delta_cost``), and whole refinements
must give identical shots when every hot spot runs its reference
(the ``scalar_references`` fixture).
"""

from __future__ import annotations

import numpy as np
import pytest

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


class TestBatchedPricing:
    def test_prices_equal_scalar_oracle(self, priced_inputs):
        state, candidates, cost_integral, active = priced_inputs
        priced = state.price_edge_moves(candidates, cost_integral, active)
        oracle = [
            state.edge_move_delta_cost(
                c.index, c.edge, c.delta, cost_integral, active
            )
            for c in candidates
        ]
        assert None not in oracle
        assert priced.tobytes() == np.array(oracle).tobytes()


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
