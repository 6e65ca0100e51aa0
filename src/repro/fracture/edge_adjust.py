"""Greedy shot edge adjustment with 2σ blocking (paper §4.1).

The workhorse of refinement: every shot edge is priced at ±Δp, the
improving moves are sorted best-first, and accepted greedily.  After a
move is accepted, no other edge within 2σ of the moved edge may move in
the same iteration — the paper's anti-cycling rule (shot intensity is
< 1e-6 beyond 2σ outside a shot, so farther edges are independent).

Candidate pricing gathers every candidate of the iteration, fills the
1-D profile cache with a single LUT evaluation, and scores all windowed
Eq. 5 Δcosts from cached profiles
(:meth:`RefinementState.price_edge_moves`).  :func:`_scalar_improving_moves`,
a per-candidate :meth:`RefinementState.edge_move_delta_cost` loop sharing
the same scorer and window cropping, is kept as the reference the
batched pricing is gated bit-identical against.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass

from repro.fracture.state import ActivePixels, CostIntegral, RefinementState
from repro.geometry.rect import EDGES, Rect
from repro.obs import get_recorder

_IMPROVEMENT_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class _Move:
    delta_cost: float
    index: int
    edge: str
    delta: float


class BlockedZoneIndex:
    """Interval index over 2σ blocked zones, sorted by zone left edge.

    Replaces the O(accepted × candidates) ``any(zone.intersects(...))``
    scan: zones are kept sorted by ``xbl``, a bisect prunes every zone
    strictly right of the query segment, and the survivors are checked
    with the same closed-interval overlap predicate
    :meth:`Rect.intersects` uses — accepted-move sets are identical by
    construction (asserted on the bench clips by the tests).
    """

    __slots__ = ("_xbl", "_xtr", "_ybl", "_ytr")

    def __init__(self) -> None:
        self._xbl: list[float] = []
        self._xtr: list[float] = []
        self._ybl: list[float] = []
        self._ytr: list[float] = []

    def __len__(self) -> int:
        return len(self._xbl)

    def add(self, zone: Rect) -> None:
        at = bisect_right(self._xbl, zone.xbl)
        insort(self._xbl, zone.xbl)
        self._xtr.insert(at, zone.xtr)
        self._ybl.insert(at, zone.ybl)
        self._ytr.insert(at, zone.ytr)

    def intersects(self, segment: Rect) -> bool:
        # Zones with xbl > segment.xtr can never overlap; bisect prunes
        # them wholesale.  Touching counts as overlap, as in Rect.intersects.
        stop = bisect_right(self._xbl, segment.xtr)
        xtr, ybl, ytr = self._xtr, self._ybl, self._ytr
        for i in range(stop):
            if (
                xtr[i] >= segment.xbl
                and ytr[i] >= segment.ybl
                and ybl[i] <= segment.ytr
            ):
                return True
        return False


def edge_segment(shot: Rect, edge: str) -> Rect:
    """The shot edge as a degenerate rectangle (for distance tests)."""
    if edge == "left":
        return Rect(shot.xbl, shot.ybl, shot.xbl, shot.ytr)
    if edge == "right":
        return Rect(shot.xtr, shot.ybl, shot.xtr, shot.ytr)
    if edge == "bottom":
        return Rect(shot.xbl, shot.ybl, shot.xtr, shot.ybl)
    if edge == "top":
        return Rect(shot.xbl, shot.ytr, shot.xtr, shot.ytr)
    raise ValueError(f"unknown edge {edge!r}")


def greedy_shot_edge_adjustment(state: RefinementState) -> int:
    """One §4.1 pass.  Returns the number of accepted edge moves.

    For each of the four edges of every shot, only the two moves ±Δp are
    considered; the one with the larger cost reduction enters the
    candidate list.  Candidates are applied best-first subject to the 2σ
    blocking rule and a one-move-per-edge-per-iteration rule.

    Edges whose pricing window carries no failure cost are skipped
    outright: a move can only *reduce* cost if its window already has
    positive cost (new cost ≥ 0, so Δcost < 0 needs old cost > 0).  The
    skip test reads the same cost integral that prices the old side of
    every move, so the batched pricing and its reference filter
    identically.
    """
    obs = get_recorder()
    with obs.span("pricing"):
        moves = _batched_improving_moves(
            state, state.cost_integral(), state.active_pixels()
        )
    moves.sort(key=lambda m: m.delta_cost)

    blocked_zones = BlockedZoneIndex()
    block_margin = 2.0 * state.spec.sigma
    accepted = 0
    blocked = 0
    for move in moves:
        segment = edge_segment(state.shots[move.index], move.edge)
        if blocked_zones.intersects(segment):
            blocked += 1
            continue
        if not state.apply_edge_move(move.index, move.edge, move.delta):
            continue
        accepted += 1
        moved_segment = edge_segment(state.shots[move.index], move.edge)
        blocked_zones.add(moved_segment.expanded(block_margin))
    obs.incr("refine.moves_priced", len(moves))
    obs.incr("refine.moves_accepted", accepted)
    obs.incr("refine.moves_blocked_2sigma", blocked)
    return accepted


def _edge_worth_pricing(
    state: RefinementState,
    shot: Rect,
    edge: str,
    cost_integral: CostIntegral,
) -> bool:
    window = state.edge_pricing_window(shot, edge)
    return state.window_cost_from_integral(cost_integral, window) > 0.0


def _batched_improving_moves(
    state: RefinementState,
    cost_integral: CostIntegral,
    active: ActivePixels,
) -> list[_Move]:
    """Gather all candidates, price them in one batch, keep the best ±Δp."""
    candidates = state.gather_edge_moves(cost_integral)
    state.candidates_priced += len(candidates)
    get_recorder().incr("refine.candidates_priced", len(candidates))
    costs = state.price_edge_moves(candidates, cost_integral, active)
    # Best improving move per (shot, edge); candidates arrive in
    # (index, edge, +Δp, −Δp) order, and dicts preserve insertion order,
    # so ties and final ordering match the scalar loop exactly.
    best: dict[tuple[int, str], _Move] = {}
    for candidate, dcost in zip(candidates, costs):
        dcost = float(dcost)
        if dcost >= -_IMPROVEMENT_EPS:
            continue
        key = (candidate.index, candidate.edge)
        incumbent = best.get(key)
        if incumbent is None or dcost < incumbent.delta_cost:
            best[key] = _Move(dcost, candidate.index, candidate.edge, candidate.delta)
    return list(best.values())


def _scalar_improving_moves(
    state: RefinementState,
    cost_integral: CostIntegral,
    active: ActivePixels,
) -> list[_Move]:
    """The per-candidate pricing loop: the reference that
    :func:`_batched_improving_moves` is gated bit-identical against."""
    pitch = state.spec.pitch
    moves: list[_Move] = []
    priced = 0
    for index in range(len(state.shots)):
        shot = state.shots[index]
        for edge in EDGES:
            if not _edge_worth_pricing(state, shot, edge, cost_integral):
                continue
            best: _Move | None = None
            for delta in (pitch, -pitch):
                dcost = state.edge_move_delta_cost(
                    index, edge, delta, cost_integral, active
                )
                if dcost is None:
                    continue
                priced += 1
                if dcost >= -_IMPROVEMENT_EPS:
                    continue
                if best is None or dcost < best.delta_cost:
                    best = _Move(dcost, index, edge, delta)
            if best is not None:
                moves.append(best)
    state.candidates_priced += priced
    get_recorder().incr("refine.candidates_priced", priced)
    return moves

