"""Hypothesis properties of the greedy pass's pricing tables.

``RefinementState.cost_integral`` keeps prefix sums only over the rows
and columns that carry cost, and ``active_pixels`` crops candidate
windows from a boolean mask; both must answer exactly as their dense
references (``dense_cost_integral``, ``dense_active_pixels``) do — bit
for bit, on every grid corner and every gathered candidate, without an
active mask, with a 1-D seam band and with a crossing 2-D seam lattice
whose crop box is the whole grid, before and after committed moves.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fracture.edge_adjust import greedy_shot_edge_adjustment
from repro.fracture.graph_color import approximate_fracture
from repro.fracture.refine import RefineParams, refine
from repro.fracture.state import RefinementState
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec
from repro.mask.shape import MaskShape

SPEC = FractureSpec()
_TARGET = MaskShape.from_polygon(
    Polygon([(0, 0), (90, 0), (90, 60), (0, 60)]),
    margin=SPEC.grid_margin, name="t",
)
MASKS = ("none", "band", "lattice")


def _active_mask(kind: str) -> np.ndarray | None:
    ny, nx = _TARGET.grid.shape
    if kind == "none":
        return None
    mask = np.zeros((ny, nx), dtype=bool)
    mask[:, nx // 4 : 3 * nx // 4] = True
    if kind == "lattice":
        mask[ny // 4 : 3 * ny // 4, :] = True
    return mask


@st.composite
def shot_lists(draw) -> list[Rect]:
    n = draw(st.integers(min_value=1, max_value=5))
    shots = []
    for _ in range(n):
        x = draw(st.integers(-5, 70))
        y = draw(st.integers(-5, 40))
        w = draw(st.integers(int(SPEC.lmin), 70))
        h = draw(st.integers(int(SPEC.lmin), 50))
        shots.append(Rect(x, y, x + w, y + h))
    return shots


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def _assert_tables_match(state: RefinementState, rng) -> None:
    table = state.cost_integral()
    dense = state.dense_cost_integral()
    # Every dense corner, through the index maps.
    expanded = table.table[np.ix_(table.rows, table.cols)]
    assert expanded.tobytes() == dense.table.tobytes()
    # Window lookups: random ones, and ones that cross or lie past each
    # edge of the crop box.
    ny, nx = state.pixels.on.shape
    r0, r1, c0, c1 = state._box
    windows = []
    for _ in range(30):
        y0, y1 = sorted(rng.integers(0, ny + 1, 2))
        x0, x1 = sorted(rng.integers(0, nx + 1, 2))
        windows.append((int(y0), int(y1), int(x0), int(x1)))
    for lo, hi in ((0, c0), (max(c0 - 5, 0), min(c0 + 5, nx)),
                   (max(c1 - 5, 0), min(c1 + 5, nx)), (c1, nx)):
        windows.append((0, ny, lo, hi))
        windows.append((r0, r1, lo, hi))
    for lo, hi in ((0, r0), (max(r0 - 5, 0), min(r0 + 5, ny)),
                   (max(r1 - 5, 0), min(r1 + 5, ny)), (r1, ny)):
        windows.append((lo, hi, 0, nx))
        windows.append((lo, hi, c0, c1))
    for y0, y1, x0, x1 in windows:
        window = (slice(y0, y1), slice(x0, x1))
        assert _bits(state.window_cost_from_integral(table, window)) == _bits(
            state.window_cost_from_integral(dense, window)
        )
    # Gathering, cropping and pricing every candidate.
    candidates = state.gather_edge_moves(table)
    key = lambda c: (c.index, c.edge, c.delta, c.window)
    assert [key(c) for c in candidates] == [
        key(c) for c in state.gather_edge_moves(dense)
    ]
    active = state.active_pixels()
    reference = state.dense_active_pixels()
    for cand in candidates:
        assert active.crop(*cand.window) == reference.crop(*cand.window)
    priced = state.price_edge_moves(candidates, table, active)
    dense_priced = state.price_edge_moves(candidates, dense, reference)
    assert priced.tobytes() == dense_priced.tobytes()


class TestPricingTables:
    @given(
        shot_lists(),
        st.sampled_from(MASKS),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_tables_match_dense_references(self, shots, kind, passes, seed):
        state = RefinementState(_TARGET, SPEC, shots, active_mask=_active_mask(kind))
        rng = np.random.default_rng(seed)
        _assert_tables_match(state, rng)
        for _ in range(passes):
            greedy_shot_edge_adjustment(state)
            _assert_tables_match(state, rng)

    def test_masks_cover_the_cases(self):
        # The band's crop box is a strip; the lattice's is the whole grid.
        ny, nx = _TARGET.grid.shape
        band = RefinementState(_TARGET, SPEC, [], active_mask=_active_mask("band"))
        lattice = RefinementState(
            _TARGET, SPEC, [], active_mask=_active_mask("lattice")
        )
        assert band._box == (0, ny, nx // 4, 3 * nx // 4)
        assert lattice._box == (0, ny, 0, nx)

    def test_rounding_residue_matches_dense(self):
        # A region with cost rows but no cost column reads (A − B) − A + B
        # from the prefix sums, which need not round to 0.0; the gather
        # skip test must see the residue the dense table gives, not an
        # exact zero.
        state = RefinementState(_TARGET, SPEC, [Rect(30, 10, 60, 40)])
        state._cost_base[:] = 0.0
        state._cost_base[:, 0] = np.random.default_rng(4).random(
            state._cost_base.shape[0]
        )
        table = state.cost_integral()
        dense = state.dense_cost_integral()
        residues = []
        for edge in ("left", "right", "bottom", "top"):
            region = state.edge_pricing_window(state.shots[0], edge)
            value = state.window_cost_from_integral(table, region)
            assert _bits(value) == _bits(
                state.window_cost_from_integral(dense, region)
            )
            residues.append(value)
        assert max(residues) > 0.0
        assert state.gather_edge_moves(table)
        _assert_tables_match(state, np.random.default_rng(1))

    def test_converged_state_has_no_positive_pixel(self):
        initial, _ = approximate_fracture(_TARGET, SPEC)
        shots, trace = refine(_TARGET, SPEC, initial, RefineParams(nmax=60))
        assert trace.converged
        for kind in MASKS:
            state = RefinementState(
                _TARGET, SPEC, shots, active_mask=_active_mask(kind)
            )
            table = state.cost_integral()
            assert table.table.shape == (1, 1)
            _assert_tables_match(state, np.random.default_rng(0))
            assert state.gather_edge_moves(table) == []
