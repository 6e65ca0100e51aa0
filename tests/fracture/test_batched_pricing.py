"""Equivalence tests for the batched candidate-move pricing engine.

The batched engine must be a pure performance change: every Δcost it
produces matches the scalar per-candidate oracle to well below the
1e-12 improvement epsilon, the profile cache must never change I_tot,
and the interval-based blocked-zone index must accept exactly the moves
the brute-force scan accepted.
"""

import numpy as np
import pytest

from repro.ebeam.intensity_map import profile_caching
from repro.fracture import edge_adjust
from repro.fracture.edge_adjust import (
    BlockedZoneIndex,
    edge_segment,
    greedy_shot_edge_adjustment,
)
from repro.fracture.graph_color import approximate_fracture
from repro.fracture.refine import RefineParams, refine
from repro.fracture.state import RefinementState
from repro.geometry.rect import Rect
from repro.obs import TelemetryRecorder, recording


@pytest.fixture()
def fractured_state(l_shape, spec) -> RefinementState:
    shots, _ = approximate_fracture(l_shape, spec)
    return RefinementState(l_shape, spec, shots)


class TestBatchedMatchesScalar:
    def test_per_candidate_within_1e12(self, fractured_state):
        state = fractured_state
        cost_integral = state.cost_integral()
        active = state.active_pixels()
        candidates = state.gather_edge_moves(cost_integral)
        assert candidates, "expected candidates on an unrefined fracture"
        batched = state.price_edge_moves(candidates, cost_integral, active)
        for candidate, priced in zip(candidates, batched):
            oracle = state.edge_move_delta_cost(
                candidate.index,
                candidate.edge,
                candidate.delta,
                cost_integral,
                active,
            )
            assert oracle is not None
            assert abs(priced - oracle) <= 1e-12

    def test_property_style_over_shapes(self, rect_shape, l_shape, blob_shape, spec):
        # Same property on three target geometries, after a few greedy
        # passes so the shot list is no longer the pristine fracture.
        for shape in (rect_shape, l_shape, blob_shape):
            shots, _ = approximate_fracture(shape, spec)
            state = RefinementState(shape, spec, shots)
            for _ in range(3):
                greedy_shot_edge_adjustment(state)
            cost_integral = state.cost_integral()
            active = state.active_pixels()
            candidates = state.gather_edge_moves(cost_integral)
            batched = state.price_edge_moves(
                candidates, cost_integral, active
            )
            for candidate, priced in zip(candidates, batched):
                oracle = state.edge_move_delta_cost(
                    candidate.index,
                    candidate.edge,
                    candidate.delta,
                    cost_integral,
                    active,
                )
                assert abs(priced - oracle) <= 1e-12

    def test_crop_matches_uncropped_scoring(self, fractured_state):
        # Active-window cropping discards only pixels whose clamped cost
        # is exactly zero on both sides, so it must not move any Δcost by
        # more than accumulated float noise.
        state = fractured_state
        cost_integral = state.cost_integral()
        active = state.active_pixels()
        for candidate in state.gather_edge_moves(cost_integral):
            cropped = state.edge_move_delta_cost(
                candidate.index,
                candidate.edge,
                candidate.delta,
                cost_integral,
                active,
            )
            full = state.edge_move_delta_cost(
                candidate.index, candidate.edge, candidate.delta, cost_integral
            )
            assert abs(cropped - full) <= 1e-12


class TestEngineEquivalence:
    def test_batched_and_scalar_runs_are_identical(
        self, l_shape, spec, monkeypatch
    ):
        shots, _ = approximate_fracture(l_shape, spec)
        final_b, trace_b = refine(l_shape, spec, shots, RefineParams(nmax=25))
        monkeypatch.setattr(
            edge_adjust, "_batched_improving_moves",
            edge_adjust._scalar_improving_moves,
        )
        final_s, trace_s = refine(l_shape, spec, shots, RefineParams(nmax=25))
        assert trace_b.cost_history == trace_s.cost_history
        assert trace_b.failing_history == trace_s.failing_history
        assert final_b == final_s


class TestProfileCacheTransparency:
    def test_cache_never_changes_intensity(self, l_shape, spec):
        # A cache hit returns the exact array a fresh evaluation would
        # produce, so cached and uncached refinement runs must agree on
        # every intensity bit, not just approximately.
        shots, _ = approximate_fracture(l_shape, spec)
        cached = RefinementState(l_shape, spec, shots)
        with profile_caching(False):
            uncached = RefinementState(l_shape, spec, shots)
        assert np.array_equal(cached.imap.total, uncached.imap.total)
        for _ in range(5):
            greedy_shot_edge_adjustment(cached)
            greedy_shot_edge_adjustment(uncached)
        assert cached.shots == uncached.shots
        assert np.array_equal(cached.imap.total, uncached.imap.total)

    def test_hit_miss_counters(self, fractured_state):
        state = fractured_state
        recorder = TelemetryRecorder()
        with recording(recorder):
            cost_integral = state.cost_integral()
            active = state.active_pixels()
            candidates = state.gather_edge_moves(cost_integral)
            state.price_edge_moves(candidates, cost_integral, active)
            misses_first = recorder.counters.get("cache.profile.misses", 0)
            state.price_edge_moves(candidates, cost_integral, active)
            misses_second = recorder.counters.get("cache.profile.misses", 0)
            hits = recorder.counters.get("cache.profile.hits", 0)
        assert misses_first > 0
        assert misses_second == misses_first  # second sweep is all hits
        assert hits >= 3 * len(candidates)

    def test_eviction_bounds_cache_size(self, l_shape, spec, monkeypatch):
        shots, _ = approximate_fracture(l_shape, spec)
        state = RefinementState(l_shape, spec, shots)
        monkeypatch.setattr(
            "repro.ebeam.intensity_map._PROFILE_CACHE_LIMIT", 8
        )
        state.imap.clear_profile_cache()
        recorder = TelemetryRecorder()
        with recording(recorder):
            cost_integral = state.cost_integral()
            active = state.active_pixels()
            candidates = state.gather_edge_moves(cost_integral)
            state.price_edge_moves(candidates, cost_integral, active)
        assert state.imap.profile_cache_size <= 8
        assert recorder.counters.get("cache.profile.evictions", 0) > 0


class TestBlockedZoneIndex:
    @staticmethod
    def _random_rects(rng, n, span=200.0, size=30.0):
        rects = []
        for _ in range(n):
            x0, y0 = rng.uniform(0.0, span, size=2)
            w, h = rng.uniform(0.5, size, size=2)
            rects.append(Rect(x0, y0, x0 + w, y0 + h))
        return rects

    def test_intersects_matches_brute_force(self):
        rng = np.random.default_rng(11)
        zones = self._random_rects(rng, 40)
        queries = self._random_rects(rng, 200)
        index = BlockedZoneIndex()
        for zone in zones:
            index.add(zone)
        for query in queries:
            brute = any(zone.intersects(query) for zone in zones)
            assert index.intersects(query) == brute

    def test_accepted_move_sets_identical(self, l_shape, spec):
        # Replay the greedy acceptance loop (sorted moves, block-after-
        # accept) with both implementations and require the same set.
        rng = np.random.default_rng(3)
        segments = []
        for shot in self._random_rects(rng, 60):
            for edge in ("left", "right", "bottom", "top"):
                segments.append(edge_segment(shot, edge))
        margin = 2.0 * spec.sigma

        index = BlockedZoneIndex()
        accepted_index = []
        for i, segment in enumerate(segments):
            if not index.intersects(segment):
                accepted_index.append(i)
                index.add(segment.expanded(margin))

        zones: list[Rect] = []
        accepted_brute = []
        for i, segment in enumerate(segments):
            if not any(zone.intersects(segment) for zone in zones):
                accepted_brute.append(i)
                zones.append(segment.expanded(margin))

        assert accepted_index == accepted_brute
