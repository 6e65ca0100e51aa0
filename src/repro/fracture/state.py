"""Mutable working state shared by the refinement moves (paper §4).

Holds the shot list, the incrementally maintained intensity map and the
pixel classification, and provides the *windowed* cost evaluation that
makes greedy edge adjustment affordable: the cost change of an edge move
only depends on pixels within the blur reach of the two shot versions.
The same holds for the Eq. 4 failure counts and the clamped Eq. 5 field,
so every mutation updates them over its own window and
:meth:`RefinementState.report` reads two integers and one sum; failure
masks are built only when a move asks for them, over a window.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.ebeam.intensity_map import IntensityMap, ProfileKey
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec
from repro.mask.pixels import PixelSets
from repro.mask.shape import MaskShape
from repro.obs import get_recorder


class EdgeMoveCandidate(NamedTuple):
    """One validated candidate edge move, ready for batched pricing.

    ``old``/``new`` are the shot before and after the move and ``window``
    the narrow index window where they differ — everything the pricing
    engine needs without touching the (mutable) shot list again.
    """

    index: int
    edge: str
    delta: float
    window: tuple[slice, slice]
    keys: tuple[ProfileKey, ProfileKey, ProfileKey]


class StateReport(NamedTuple):
    """Eq. 4 failure counts and Eq. 5 cost of a refinement state.

    Carries no pixel masks: a move that needs the failing pixels builds
    them from the state, over a window
    (:meth:`RefinementState.failing_on`, :meth:`RefinementState.failing_off`).
    """

    count_on: int
    count_off: int
    cost: float

    @property
    def total_failing(self) -> int:
        return self.count_on + self.count_off

    @property
    def feasible(self) -> bool:
        return self.total_failing == 0


class CostIntegral(NamedTuple):
    """Prefix sums of the Eq. 5 cost field, kept only where cost lives.

    ``table`` holds the 2-D prefix sums (zero first row and column) of
    the cost field restricted to the rows and columns that carry a
    positive pixel; ``rows[i]``/``cols[j]`` count those rows/columns
    below dense corner ``i``/``j``, so the dense prefix value at corner
    ``(i, j)`` is ``table[rows[i], cols[j]]`` for every corner of the
    grid, inside the crop box or past it.
    """

    table: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


_any_of = np.bitwise_or.reduce


class ActivePixels:
    """Pixels a ±Δp move could possibly affect, over the crop box.

    ``mask`` is ``base > −patch_bound`` on the box whose top-left pixel
    is ``(r0, c0)``; :meth:`crop` shrinks a candidate window (which lies
    inside the box) to the bounding box of its active pixels.
    """

    __slots__ = ("mask", "r0", "c0")

    def __init__(self, mask: np.ndarray, r0: int, c0: int):
        # Reduced as uint8: bitwise_or.reduce along rows runs about
        # twice as fast as bool any(), and this runs per candidate.
        self.mask = mask.view(np.uint8)
        self.r0 = r0
        self.c0 = c0

    def crop(self, ys: slice, xs: slice) -> tuple[int, int, int, int] | None:
        """Row/column sub-range of the window holding all active pixels.

        Returns ``(r0, r1, c0, c1)`` offsets within the window, or
        ``None`` when the window contains no active pixel (the move's
        Δcost is exactly zero).
        """
        sub = self.mask[
            ys.start - self.r0 : ys.stop - self.r0,
            xs.start - self.c0 : xs.stop - self.c0,
        ]
        rows = _any_of(sub, axis=1).nonzero()[0]
        if not rows.size:
            return None
        r0 = int(rows[0])
        r1 = int(rows[-1]) + 1
        cols = _any_of(sub[r0:r1], axis=0).nonzero()[0]
        return r0, r1, int(cols[0]), int(cols[-1]) + 1


class ActiveIntegral:
    """Reference for :class:`ActivePixels`: the crop read from dense
    int32 prefix counts of the grid's active pixels."""

    __slots__ = ("integral",)

    def __init__(self, active: np.ndarray):
        self.integral = np.zeros(np.add(active.shape, 1), dtype=np.int32)
        np.cumsum(active, axis=0, out=self.integral[1:, 1:])
        np.cumsum(self.integral[1:, 1:], axis=1, out=self.integral[1:, 1:])

    def crop(self, ys: slice, xs: slice) -> tuple[int, int, int, int] | None:
        integral = self.integral
        rowcum = (
            integral[ys.start : ys.stop + 1, xs.stop]
            - integral[ys.start : ys.stop + 1, xs.start]
        )
        if rowcum[-1] == rowcum[0]:
            return None
        r0 = int(rowcum.searchsorted(rowcum[0], side="right")) - 1
        r1 = int(rowcum.searchsorted(rowcum[-1], side="left"))
        colcum = (
            integral[ys.stop, xs.start : xs.stop + 1]
            - integral[ys.start, xs.start : xs.stop + 1]
        )
        c0 = int(colcum.searchsorted(colcum[0], side="right")) - 1
        c1 = int(colcum.searchsorted(colcum[-1], side="left"))
        return r0, r1, c0, c1


def _active_crop(active_mask: np.ndarray) -> tuple[int, int, int, int] | None:
    """Half-open ``(r0, r1, c0, c1)`` bounding box of the active mask.

    ``None`` for an empty mask, which leaves the state on the full-field
    cost path.
    """
    rows = np.flatnonzero(active_mask.any(axis=1))
    cols = np.flatnonzero(active_mask.any(axis=0))
    if not (rows.size and cols.size):
        return None
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def _failing_counts(
    on: np.ndarray, off: np.ndarray, base: np.ndarray
) -> tuple[int, int]:
    """Failing P_on and P_off pixels of one window of the cost field: an
    on pixel fails iff ``base > 0``, an off pixel iff ``base ≥ 0``."""
    return (
        int(np.count_nonzero(on & (base > 0.0))),
        int(np.count_nonzero(off & (base >= 0.0))),
    )


def _subtract_window_costs(
    costs: np.ndarray, integral: CostIntegral, wr0, wr1, wc0, wc1
) -> np.ndarray:
    """``costs`` minus each window's current cost, looked up in one
    vectorized pass in the A − B − C + D order of
    :meth:`RefinementState.window_cost_from_integral`, so every result
    matches the scalar lookup bit for bit."""
    table, rows, cols = integral
    y0, y1, x0, x1 = rows[wr0], rows[wr1], cols[wc0], cols[wc1]
    costs -= table[y1, x1] - table[y0, x1] - table[y1, x0] + table[y0, x0]
    return costs


class RefinementState:
    """Shots + intensity + pixel classes for one refinement run.

    The optional *region restriction* turns a full-shape refinement into
    a seam repair: ``background`` shots contribute dose but are frozen —
    they are not in :attr:`shots`, so no move module can adjust, remove
    or merge them — and ``active_mask`` demotes every pixel outside the
    mask to don't-care (its cost sign ``S`` becomes 0, the exact
    mechanism the γ band already uses), so the Eq. 5 cost, the failure
    report and every candidate price see only the active region.  To
    keep the restriction sound, every mutation whose dose-effect window
    leaves the mask is forbidden (:meth:`mutation_allowed`) — otherwise
    a move could damage pixels the restricted cost cannot see.  Both
    parameters default to the unrestricted behaviour.
    """

    __slots__ = (
        "shape", "spec", "pixels", "imap", "shots", "background",
        "active_mask",
        "candidates_priced",
        "_cost_sign", "_cost_bias", "_cost_base", "_scratch",
        "_gather_memo", "_span_memo", "_clamped", "_active_scratch",
        "_crop", "_box",
        "_count_on", "_count_off", "_cost",
    )

    def __init__(
        self,
        shape: MaskShape,
        spec: FractureSpec,
        shots: list[Rect],
        *,
        background: tuple[Rect, ...] | list[Rect] = (),
        active_mask: np.ndarray | None = None,
    ):
        self.shape = shape
        self.spec = spec
        pixels: PixelSets = shape.pixels(spec.gamma)
        if active_mask is not None:
            if active_mask.shape != shape.grid.shape:
                raise ValueError(
                    f"active mask shape {active_mask.shape} != grid "
                    f"shape {shape.grid.shape}"
                )
            pixels = PixelSets(
                on=pixels.on & active_mask,
                off=pixels.off & active_mask,
                band=pixels.band | ~active_mask,
            )
        self.pixels = pixels
        self.active_mask = active_mask
        self.imap = IntensityMap(shape.grid, spec.sigma)
        self.background: tuple[Rect, ...] = tuple(background)
        for shot in self.background:
            self.imap.add(shot)
        self.shots: list[Rect] = list(shots)
        for shot in self.shots:
            self.imap.add(shot)
        # Signed-clamp form of the Eq. 5 cost field: with S = +1 on
        # P_off, −1 on P_on and 0 on don't-care pixels, the per-pixel
        # cost is max(S·I − S·ρ, 0) — an off pixel contributes
        # max(I−ρ, 0), an on pixel max(ρ−I, 0), both exactly the failing
        # gap and 0 otherwise.  ``_cost_base`` holds S·I − S·ρ for the
        # *current* I_tot (refreshed on the touched window after every
        # mutation), so pricing a candidate patch P reduces to
        # Σ max(S·P + base, 0) — three elementwise kernels and a sum,
        # with no boolean masking.
        self._cost_sign = self.pixels.off.astype(np.float64) - self.pixels.on
        self._cost_bias = self._cost_sign * spec.rho
        # Region-restricted refinements confine every nonzero cost-field
        # entry to the active mask's bounding box (S is 0 outside the
        # mask, so S·I − S·ρ is exactly 0.0 there), so the per-iteration
        # field work — base refresh, report, pricing tables — runs on
        # that box only and stitch cost scales with the seam area
        # instead of the grid.  ``_crop`` is ``(r0, r1, c0, c1)``
        # half-open pixel bounds, or None for the full-field path
        # (unrestricted states; the reference the crop is gated against);
        # ``_box`` is the crop or, without one, the whole grid.
        self._crop = (
            _active_crop(active_mask) if active_mask is not None else None
        )
        ny, nx = self._cost_sign.shape
        self._box = self._crop or (0, ny, 0, nx)
        r0, r1, c0, c1 = self._box
        # The clamped Eq. 5 field max(base, 0) over the box, kept current
        # with ``_cost_base``; a contiguous box-shaped array, so its sum is
        # NumPy's pairwise sum over the box in C order.
        self._clamped = np.empty((r1 - r0, c1 - c0), dtype=np.float64)
        self._active_scratch = np.empty((r1 - r0, c1 - c0), dtype=bool)
        if self._crop is not None:
            # Out-of-box entries are never rewritten, so they must start
            # at their exact value: 0.0 (see above).
            self._cost_base = np.zeros_like(self._cost_sign)
            obs = get_recorder()
            obs.gauge("kernels.stitch_grid_px", float(ny * nx))
            obs.gauge(
                "kernels.stitch_bbox_px", float((r1 - r0) * (c1 - c0))
            )
        else:
            self._cost_base = np.empty_like(self._cost_sign)
        self._scratch = np.empty(0, dtype=np.float64)
        # Candidate geometry memo (windows + profile keys per shot rect);
        # pure geometry, so it is never invalidated.
        self._gather_memo: dict[tuple, tuple] = {}
        # Index slices of blur-padded spans, by (axis, lo, hi): the grid
        # and the reach are fixed, and neighbouring shots and the two
        # edges of one shot share most of their spans.
        self._span_memo: dict[tuple[str, float, float], slice] = {}
        #: Candidates priced by greedy edge adjustment on this state.
        self.candidates_priced = 0
        # The Eq. 5 cost of the current field, summed on first report.
        self._cost: float | None = None
        self._refresh_cost_base()

    def _refresh_cost_base(
        self, window: tuple[slice, slice] | None = None
    ) -> None:
        """Recompute ``S·I − S·ρ`` where I_tot changed, and keep the
        failure counts and the clamped field current over that window.

        Without a window the whole box is recomputed and recounted
        (everything outside a crop box is exactly 0.0 and was initialized
        so, and holds no P_on or P_off pixel).
        """
        self._cost = None
        full = window is None
        if full:
            r0, r1, c0, c1 = self._box
            window = (slice(r0, r1), slice(c0, c1))
        on = self.pixels.on[window]
        off = self.pixels.off[window]
        base = self._cost_base[window]
        if full:
            self._count_on = self._count_off = 0
        else:
            count_on, count_off = _failing_counts(on, off, base)
            self._count_on -= count_on
            self._count_off -= count_off
        np.multiply(self._cost_sign[window], self.imap.total[window], out=base)
        base -= self._cost_bias[window]
        count_on, count_off = _failing_counts(on, off, base)
        self._count_on += count_on
        self._count_off += count_off
        ys, xs = window
        r0, r1, c0, c1 = self._box
        y0, y1 = max(ys.start, r0), min(ys.stop, r1)
        x0, x1 = max(xs.start, c0), min(xs.stop, c1)
        if y0 < y1 and x0 < x1:
            np.maximum(
                self._cost_base[y0:y1, x0:x1], 0.0,
                out=self._clamped[y0 - r0 : y1 - r0, x0 - c0 : x1 - c0],
            )

    # -- cost evaluation --------------------------------------------------

    def report(self) -> StateReport:
        """Eq. 4 failure counts and Eq. 5 cost of the current state.

        Both counts are kept by every mutation over its window, and the
        cost is the pairwise sum of the maintained clamped field over the
        box — the excluded terms outside a crop box are exact zeros —
        taken once per change of the field, so this reads two integers
        and at most sums one array.  An on pixel fails iff ``ρ − I > 0``
        and an off pixel iff ``I − ρ ≥ 0``, which are exactly
        ``base > 0`` / ``base ≥ 0`` (the subtraction happens around ρ,
        where it is exact by Sterbenz' lemma), so the counts match
        :func:`~repro.mask.constraints.failure_report`.
        """
        if self._cost is None:
            self._cost = float(self._clamped.sum())
        return StateReport(self._count_on, self._count_off, self._cost)

    def failing_on(
        self, window: tuple[slice, slice] | None = None
    ) -> np.ndarray:
        """Mask of the failing P_on pixels over ``window`` (default: the
        whole grid), built from the current field."""
        if window is None:
            window = (slice(None), slice(None))
        return self.pixels.on[window] & (self._cost_base[window] > 0.0)

    def failing_off(
        self, window: tuple[slice, slice] | None = None
    ) -> np.ndarray:
        """Mask of the failing P_off pixels over ``window`` (default: the
        whole grid), built from the current field."""
        if window is None:
            window = (slice(None), slice(None))
        return self.pixels.off[window] & (self._cost_base[window] >= 0.0)

    def failing_on_bbox(self) -> tuple[np.ndarray, int, int] | None:
        """Failing P_on pixels cropped to their bounding box.

        Returns ``(mask, r0, c0)`` — the mask and the grid index of its
        first pixel — or ``None`` when no P_on pixel fails.
        """
        r0, r1, c0, c1 = self._box
        fail = self.failing_on((slice(r0, r1), slice(c0, c1)))
        rows = np.flatnonzero(fail.any(axis=1))
        if not rows.size:
            return None
        fail = fail[rows[0] : rows[-1] + 1]
        cols = np.flatnonzero(fail.any(axis=0))
        return (
            fail[:, cols[0] : cols[-1] + 1],
            r0 + int(rows[0]),
            c0 + int(cols[0]),
        )

    def window_cost(
        self, window: tuple[slice, slice], total_window: np.ndarray
    ) -> float:
        """Eq. 5 cost restricted to one index window.

        ``total_window`` is the (hypothetical or current) I_tot values on
        that window, so candidate moves can be priced without mutating
        the map.
        """
        clamped = total_window * self._cost_sign[window]
        clamped -= self._cost_bias[window]
        np.maximum(clamped, 0.0, out=clamped)
        return float(clamped.sum())

    def score_move_patch(
        self, window: tuple[slice, slice], patch_delta: np.ndarray
    ) -> float:
        """Eq. 5 cost of ``I_tot + patch_delta`` on the window.

        Destroys ``patch_delta`` (it becomes the clamped cost field) so
        the pricing loops run entirely in-place.  Both pricing engines
        run exactly this operation sequence, which is what makes their
        Δcosts bit-identical: same kernels, same order, same shapes.
        """
        patch_delta *= self._cost_sign[window]
        patch_delta += self._cost_base[window]
        np.maximum(patch_delta, 0.0, out=patch_delta)
        return float(patch_delta.sum())

    def patch_bound(self) -> float:
        """Upper bound on |ΔI| of any single-pitch edge move, anywhere.

        The moved-axis profile difference is ``0.5·(erf((t−a−Δp)/σ) −
        erf((t−a)/σ))`` and erf is (2/√π)-Lipschitz, so no pixel's
        intensity changes by more than ``Δp/(σ·√π)``; the fixed-axis
        profile is < 1.  Piecewise-linear LUT interpolation preserves the
        bound (chord slopes never exceed the true maximum slope).
        """
        return (self.spec.pitch / self.spec.sigma) / math.sqrt(math.pi)

    def active_pixels(self) -> ActivePixels:
        """Mask of the pixels a ±Δp move could possibly affect.

        A pixel with ``base ≤ −patch_bound`` is clamped to zero cost both
        before and after any single-pitch move (``max(base ± |ΔI|, 0) =
        0`` exactly), so it contributes *exactly nothing* to any Δcost.
        Candidate windows are cropped to the bounding box of the
        remaining "active" pixels — typically a thin band around the
        contour — before the per-pixel scoring runs.  Built over the
        crop box only (every candidate window lies inside it: gather and
        mutation guards keep windows inside the active mask) into a
        reused buffer, so it is valid until the next call; rebuild per
        greedy pass, like :meth:`cost_integral`.
        """
        r0, r1, c0, c1 = self._box
        mask = np.greater(
            self._cost_base[r0:r1, c0:c1], -self.patch_bound(),
            out=self._active_scratch,
        )
        return ActivePixels(mask, r0, c0)

    def dense_active_pixels(self) -> ActiveIntegral:
        """Reference for :meth:`active_pixels`: crops from whole-grid
        int32 prefix counts (outside the crop box ``base`` is exactly
        0.0, so those pixels count as active, as without a crop)."""
        return ActiveIntegral(self._cost_base > -self.patch_bound())

    def cost_integral(self) -> CostIntegral:
        """Prefix sums of the per-pixel Eq. 5 cost field.

        :meth:`window_cost_from_integral` then gives the *current* cost
        of any index window in O(1) — edge pricing only has to evaluate
        the candidate side.  Rebuild after every committed change (one
        per refinement iteration is enough; GreedyShotEdgeAdjustment
        does so itself).

        The sums run over the sub-grid of the crop box's rows and
        columns that hold a positive-cost pixel — a small fraction of
        the box once refinement is under way — and every other corner
        is answered through the :class:`CostIntegral` index maps.  The
        values are those of :meth:`dense_cost_integral` bit for bit:
        ``np.cumsum`` accumulates in sequence, and a skipped row or
        column only ever added exact ``+0.0`` terms (``np.maximum(x,
        0.0)`` of a non-positive ``x`` is ``+0.0``).  A pairwise
        reduction would break this; keep the cumsums.
        """
        ny, nx = self._cost_base.shape
        r0, r1, c0, c1 = self._box
        base = self._cost_base[r0:r1, c0:c1]
        rows = np.flatnonzero(base.max(axis=1) > 0.0)
        sub = base[rows]
        cols = np.flatnonzero((sub > 0.0).any(axis=0))
        table = np.zeros((rows.size + 1, cols.size + 1), dtype=np.float64)
        inner = table[1:, 1:]
        np.maximum(sub[:, cols], 0.0, out=inner)
        np.cumsum(inner, axis=0, out=inner)
        np.cumsum(inner, axis=1, out=inner)
        # Positive rows (columns) strictly below each dense corner.
        return CostIntegral(
            table,
            np.searchsorted(rows + r0, np.arange(ny + 1)),
            np.searchsorted(cols + c0, np.arange(nx + 1)),
        )

    def dense_cost_integral(self) -> CostIntegral:
        """Reference for :meth:`cost_integral`: the dense (ny+1)×(nx+1)
        prefix sums of the whole grid's cost field, identity maps."""
        ny, nx = self._cost_base.shape
        table = np.zeros((ny + 1, nx + 1), dtype=np.float64)
        np.cumsum(np.maximum(self._cost_base, 0.0), axis=0, out=table[1:, 1:])
        np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
        return CostIntegral(table, np.arange(ny + 1), np.arange(nx + 1))

    def window_cost_from_integral(
        self, integral: CostIntegral, window: tuple[slice, slice]
    ) -> float:
        table, rows, cols = integral
        ys, xs = window
        y0, y1 = rows[ys.start], rows[ys.stop]
        x0, x1 = cols[xs.start], cols[xs.stop]
        return float(
            table[y1, x1] - table[y0, x1] - table[y1, x0] + table[y0, x0]
        )

    def edge_move_delta_cost(
        self,
        index: int,
        edge: str,
        delta: float,
        cost_integral: CostIntegral | None = None,
        active: ActivePixels | None = None,
    ) -> float | None:
        """Cost change of moving one edge of shot ``index`` by ``delta``.

        Returns ``None`` for invalid moves (shot would fall below L_min or
        invert).  Does not modify the state.  ``cost_integral`` (from
        :meth:`cost_integral`, current as of the last committed change)
        makes the old-cost side an O(1) lookup; ``active`` (from
        :meth:`active_pixels`, only valid for ``|delta| ≤ Δp``) crops
        the scoring to the active sub-window.
        """
        shot = self.shots[index]
        try:
            candidate = shot.moved_edge(edge, delta)
        except ValueError:
            return None
        if not candidate.meets_min_size(self.spec.lmin):
            return None
        if self.active_mask is not None and not self.mutation_allowed(
            self.imap.edge_move_window(shot, candidate, edge)
        ):
            return None
        window, patch_delta = self.imap.edge_move_delta(shot, candidate, edge)
        if active is not None:
            crop = active.crop(*window)
            if crop is None:
                return 0.0
            r0, r1, c0, c1 = crop
            ys, xs = window
            window = (
                slice(ys.start + r0, ys.start + r1),
                slice(xs.start + c0, xs.start + c1),
            )
            # Contiguous copy so the clamped sum reduces in the same
            # order as the batched engine's scratch segment.
            patch_delta = np.ascontiguousarray(patch_delta[r0:r1, c0:c1])
        if cost_integral is not None:
            old_cost = self.window_cost_from_integral(cost_integral, window)
        else:
            old_cost = self.window_cost(window, self.imap.total[window])
        return self.score_move_patch(window, patch_delta) - old_cost

    # -- batched pricing ----------------------------------------------------

    def make_edge_move_candidate(
        self, index: int, edge: str, delta: float
    ) -> EdgeMoveCandidate | None:
        """Validate one edge move and package it for batched pricing.

        Returns ``None`` under the same conditions for which
        :meth:`edge_move_delta_cost` does (inverted shot or L_min
        violation), so the two pricing paths see identical candidates.
        """
        shot = self.shots[index]
        try:
            candidate = shot.moved_edge(edge, delta)
        except ValueError:
            return None
        if not candidate.meets_min_size(self.spec.lmin):
            return None
        window = self.imap.edge_move_window(shot, candidate, edge)
        if not self.mutation_allowed(window):
            return None
        keys = self.imap.edge_move_profile_keys(shot, candidate, edge, window)
        return EdgeMoveCandidate(index, edge, delta, window, keys)

    def edge_pricing_window(
        self, shot: Rect, edge: str
    ) -> tuple[slice, slice]:
        """Window the ±Δp moves of one edge can influence.

        Spans one pitch *outward* of the edge plus the blur reach — the
        geometry the greedy pass uses to skip edges whose neighbourhood
        carries no failure cost (a move can only reduce cost where old
        cost is positive).
        """
        span = self._span
        pitch = self.spec.pitch
        if edge == "left":
            return (
                span("y", shot.ybl, shot.ytr),
                span("x", shot.xbl - pitch, shot.xbl),
            )
        if edge == "right":
            return (
                span("y", shot.ybl, shot.ytr),
                span("x", shot.xtr, shot.xtr + pitch),
            )
        if edge == "bottom":
            return (
                span("y", shot.ybl - pitch, shot.ybl),
                span("x", shot.xbl, shot.xtr),
            )
        return (
            span("y", shot.ytr, shot.ytr + pitch),
            span("x", shot.xbl, shot.xtr),
        )

    def _span(self, axis: str, lo: float, hi: float) -> slice:
        """Index slice of the pixel centres within the blur reach of the
        span ``[lo, hi]`` along ``axis`` ("x" columns, "y" rows),
        memoized per state."""
        key = (axis, lo, hi)
        cached = self._span_memo.get(key)
        if cached is None:
            if len(self._span_memo) >= 16384:
                self._span_memo.clear()
            grid = self.imap.grid
            to_slice = grid.x_span_to_slice if axis == "x" else grid.y_span_to_slice
            cached = self._span_memo[key] = to_slice(lo, hi, self.imap.reach)
        return cached

    def _build_move_geometry(self, shot: Rect) -> tuple:
        """Pricing regions, windows and profile keys of a shot's ±Δp
        edge moves.

        Computed with direct scalar math — per candidate this is the
        equivalent of ``moved_edge`` + ``meets_min_size`` +
        ``edge_move_window`` without intermediate :class:`Rect`
        allocations, its index slices from the state's span memo — and
        memoized per shot rectangle (pure geometry, so no invalidation
        is ever needed; see :meth:`gather_edge_moves`).
        """
        pitch = self.spec.pitch
        lmin = self.spec.lmin
        span = self._span
        xbl, ybl, xtr, ytr = shot.xbl, shot.ybl, shot.xtr, shot.ytr
        groups: list[tuple] = []
        if ytr - ybl >= lmin:
            for edge in ("left", "right"):
                region = self.edge_pricing_window(shot, edge)
                rows = region[0]
                k_fixed = ("y", ybl, ytr, rows.start, rows.stop)
                coord = xbl if edge == "left" else xtr
                moves: list[tuple] = []
                for delta in (pitch, -pitch):
                    moved = coord + delta
                    if edge == "left":
                        new_lo, new_hi = moved, xtr
                    else:
                        new_lo, new_hi = xbl, moved
                    if new_hi - new_lo < lmin:
                        continue
                    cols = span("x", min(coord, moved), max(coord, moved))
                    key_cols = (cols.start, cols.stop)
                    moves.append((
                        delta, (rows, cols),
                        (
                            ("x", xbl, xtr) + key_cols,
                            ("x", new_lo, new_hi) + key_cols,
                            k_fixed,
                        ),
                    ))
                groups.append((edge, region, tuple(moves)))
        if xtr - xbl >= lmin:
            for edge in ("bottom", "top"):
                region = self.edge_pricing_window(shot, edge)
                cols = region[1]
                k_fixed = ("x", xbl, xtr, cols.start, cols.stop)
                coord = ybl if edge == "bottom" else ytr
                moves = []
                for delta in (pitch, -pitch):
                    moved = coord + delta
                    if edge == "bottom":
                        new_lo, new_hi = moved, ytr
                    else:
                        new_lo, new_hi = ybl, moved
                    if new_hi - new_lo < lmin:
                        continue
                    rows = span("y", min(coord, moved), max(coord, moved))
                    key_rows = (rows.start, rows.stop)
                    moves.append((
                        delta, (rows, cols),
                        (
                            ("y", ybl, ytr) + key_rows,
                            ("y", new_lo, new_hi) + key_rows,
                            k_fixed,
                        ),
                    ))
                groups.append((edge, region, tuple(moves)))
        return tuple(groups)

    def gather_edge_moves(
        self, cost_integral: CostIntegral
    ) -> list[EdgeMoveCandidate]:
        """All valid ±Δp edge-move candidates worth pricing, in the same
        (shot, edge, +Δp, −Δp) order the scalar loop enumerates.

        Candidate geometry comes from a per-rectangle memo (most shots
        do not move between greedy passes); only the skip test — edges
        whose pricing region carries no failure cost can never yield an
        accepted move — reads the current cost integral.  In
        region-restricted mode, moves whose effect window leaves the
        active mask are dropped before pricing (they could never be
        applied — see :meth:`mutation_allowed` — so pricing them would
        only inflate the candidate count the seam stitch is supposed to
        keep proportional to the seam area).
        """
        memo = self._gather_memo
        mask = self.active_mask
        table = cost_integral.table
        row_map = cost_integral.rows.tolist()
        col_map = cost_integral.cols.tolist()
        candidates: list[EdgeMoveCandidate] = []
        append = candidates.append
        for index, shot in enumerate(self.shots):
            key = (shot.xbl, shot.ybl, shot.xtr, shot.ytr)
            groups = memo.get(key)
            if groups is None:
                if len(memo) >= 4096:
                    memo.clear()
                groups = memo[key] = self._build_move_geometry(shot)
            for edge, (ys, xs), moves in groups:
                y0, y1 = row_map[ys.start], row_map[ys.stop]
                x0, x1 = col_map[xs.start], col_map[xs.stop]
                if (
                    table[y1, x1] - table[y0, x1] - table[y1, x0] + table[y0, x0]
                ) <= 0.0:
                    continue
                for delta, window, keys in moves:
                    if mask is not None and not mask[window].all():
                        continue
                    append(EdgeMoveCandidate(index, edge, delta, window, keys))
        return candidates

    def price_edge_moves(
        self,
        candidates: list[EdgeMoveCandidate],
        cost_integral: CostIntegral,
        active: ActivePixels,
    ) -> np.ndarray:
        """Δcost of every candidate: crop, gather, score, one at a time.

        Equivalent to calling :meth:`edge_move_delta_cost` per candidate
        but structured for throughput: all 1-D profile arguments of the
        sweep are concatenated and interpolated in a single LUT
        evaluation (via the profile cache), and each candidate then costs
        a crop of its window to its active sub-band, two cached profile
        lookups and the Eq. 5 scoring of their outer product in a reused
        scratch buffer.  The old-cost side is looked up for the whole
        batch at the end.
        """
        imap = self.imap
        ncand = len(candidates)
        get_recorder().incr("intensity.edge_deltas", ncand)
        if imap.profile_cache_enabled:
            imap.ensure_profiles(key for c in candidates for key in c.keys)
        delta_profile = imap.delta_profile
        cached_profile = imap.cached_profile
        crop = active.crop
        sign = self._cost_sign
        base = self._cost_base
        maximum = np.maximum
        multiply = np.multiply
        scratch = self._scratch
        costs = np.zeros(ncand, dtype=np.float64)
        # Final window corners per candidate for the deferred old-cost
        # lookup; all-zero corners (skipped candidates) contribute a zero
        # old cost by construction.
        wr0 = np.zeros(ncand, dtype=np.intp)
        wr1 = np.zeros(ncand, dtype=np.intp)
        wc0 = np.zeros(ncand, dtype=np.intp)
        wc1 = np.zeros(ncand, dtype=np.intp)
        for i, cand in enumerate(candidates):
            _, edge, _, (ys, xs), (k_old, k_new, k_fixed) = cand
            cropped = crop(ys, xs)
            if cropped is None:
                continue
            r0, r1, c0, c1 = cropped
            y0 = ys.start + r0
            y1 = ys.start + r1
            x0 = xs.start + c0
            x1 = xs.start + c1
            delta = delta_profile(k_old, k_new)
            p_fixed = cached_profile(k_fixed)
            n = (r1 - r0) * (c1 - c0)
            if scratch.size < n:
                scratch = np.empty(n, dtype=np.float64)
                self._scratch = scratch
            # The 2-D view has the shape and contiguity of the cropped
            # patch edge_move_delta_cost scores, and the ops below mirror
            # score_move_patch, so each Δcost is that one bit for bit.
            seg = scratch[:n].reshape(r1 - r0, c1 - c0)
            if edge in ("left", "right"):
                multiply(p_fixed[r0:r1, None], delta[None, c0:c1], out=seg)
            else:
                multiply(delta[r0:r1, None], p_fixed[None, c0:c1], out=seg)
            seg *= sign[y0:y1, x0:x1]
            seg += base[y0:y1, x0:x1]
            maximum(seg, 0.0, out=seg)
            costs[i] = seg.sum()
            wr0[i] = y0
            wr1[i] = y1
            wc0[i] = x0
            wc1[i] = x1
        return _subtract_window_costs(costs, cost_integral, wr0, wr1, wc0, wc1)

    # -- mutation -----------------------------------------------------------

    def mutation_allowed(self, window: tuple[slice, slice]) -> bool:
        """True when a mutation's dose-effect window is fully scored.

        Unrestricted refinements allow everything.  With an active mask,
        a mutation is only sound when every pixel its dose change can
        touch lies inside the mask — a window that leaks outside could
        damage pixels the restricted cost treats as don't-care, damage
        that would only surface in the full-shape check afterwards.
        """
        if self.active_mask is None:
            return True
        return bool(self.active_mask[window].all())

    def apply_edge_move(self, index: int, edge: str, delta: float) -> bool:
        """Commit an edge move; returns False if it became invalid."""
        shot = self.shots[index]
        try:
            candidate = shot.moved_edge(edge, delta)
        except ValueError:
            return False
        if not candidate.meets_min_size(self.spec.lmin):
            return False
        if self.active_mask is not None and not self.mutation_allowed(
            self.imap.edge_move_window(shot, candidate, edge)
        ):
            return False
        window = self.imap.apply_edge_move(shot, candidate, edge)
        self._refresh_cost_base(window)
        self.shots[index] = candidate
        return True

    def replace_shot(self, index: int, new: Rect) -> None:
        old = self.shots[index]
        window = self.imap.union_window(old, new)
        self.imap.replace(old, new, window)
        self._refresh_cost_base(window)
        self.shots[index] = new

    def add_shot(self, shot: Rect) -> None:
        window = self.imap.window_of(shot)
        self.imap.add(shot, window)
        self._refresh_cost_base(window)
        self.shots.append(shot)

    def remove_shot(self, index: int) -> Rect:
        shot = self.shots.pop(index)
        window = self.imap.window_of(shot)
        self.imap.remove(shot, window)
        self._refresh_cost_base(window)
        return shot

    def snapshot(self) -> list[Rect]:
        return list(self.shots)

    def restore(self, shots: list[Rect]) -> None:
        """Reset to a previously snapshotted shot list."""
        self.shots = list(shots)
        self.imap.rebuild(list(self.background) + self.shots)
        self._refresh_cost_base()
