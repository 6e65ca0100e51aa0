"""Heuristic shot-count bounds (stand-in for the ILP bounds of [16]).

The benchmarking work computes lower/upper bounds with an ILP that ran
for 12 hours on eight cores; Table 2 normalizes every heuristic's shot
count by the upper bound.  We provide cheap heuristic bounds with the
same role:

* **Lower bound** — a greedy *witness-pixel* (antirectangle) argument: a
  set of P_on pixels such that no two can be covered by one valid shot.
  A shot covering a P_off pixel at depth ≥ δ from all four shot edges
  overdoses it (its intensity is at least ``edge_profile(δ)²`` ≥ ρ for
  δ ≈ 0.4 σ), so a pair of P_on pixels is *uncoverable* when every
  placement of a shot containing both traps some P_off pixel that deep.
  Every fracturing solution needs one distinct shot per witness.
* **Upper bound** — the best feasible shot count over the provided
  method results (the paper's UB plays the same aggregator role).
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfinv

from repro.fracture.base import FractureResult
from repro.geometry.sat import SummedAreaTable
from repro.mask.constraints import FractureSpec
from repro.mask.shape import MaskShape

#: Slide positions probed per axis when testing pair coverability.
_SLIDES = 5
_FRACTIONS = np.linspace(0.0, 1.0, _SLIDES)

#: Scan points tested against the witness set per vectorized gather.
_BLOCK = 256


def overdose_depth(spec: FractureSpec) -> float:
    """Depth inside a shot at which any pixel is provably printed.

    A pixel at depth δ from all four edges of a shot receives at least
    ``(0.5 (1 + erf(δ/σ)))²``; solving for ρ gives the depth beyond which
    covering a P_off pixel is always a violation.
    """
    target = float(np.sqrt(spec.rho))
    return spec.sigma * float(erfinv(2.0 * target - 1.0))


def lower_bound_shots(
    shape: MaskShape,
    spec: FractureSpec,
    sample_step: int = 4,
) -> int:
    """Greedy antirectangle lower bound (see module docstring).

    The greedy witness set depends on the scan order, so several sweep
    directions are tried and the largest witness set wins — every
    pairwise-uncoverable set is a valid bound.
    """
    pixels = shape.pixels(spec.gamma)
    ys_all, xs_all = np.nonzero(pixels.on)
    if len(ys_all) == 0:
        return 0
    grid = shape.grid
    off_sat = SummedAreaTable(pixels.off.astype(np.float64), grid)
    depth = overdose_depth(spec) + grid.pitch
    orderings = (
        np.lexsort((xs_all, ys_all)),
        np.lexsort((xs_all, ys_all))[::-1],
        np.lexsort((ys_all, xs_all)),
        np.lexsort((ys_all, xs_all))[::-1],
    )
    best = 1
    for order in orderings:
        ys, xs = ys_all[order][::sample_step], xs_all[order][::sample_step]
        points = np.column_stack((
            grid.x0 + (xs + 0.5) * grid.pitch,
            grid.y0 + (ys + 0.5) * grid.pitch,
        ))
        best = max(best, len(_greedy_witnesses(off_sat, spec, depth, points)))
    return best


def _greedy_witnesses(
    off_sat: SummedAreaTable,
    spec: FractureSpec,
    depth: float,
    points: np.ndarray,
) -> np.ndarray:
    """The witnesses a greedy scan of ``points`` (rows ``(x, y)``) picks.

    A point becomes a witness when no earlier witness can share a valid
    shot with it.  The scan tests ``_BLOCK`` points at a time against
    the witnesses so far; the first free point of a block becomes a
    witness and the scan resumes right after it, so every point is
    judged against exactly the witnesses a one-by-one scan would have.
    """
    witnesses = points[:0]
    start = 0
    while start < len(points):
        block = points[start:start + _BLOCK]
        covered = _pair_coverable(off_sat, spec, depth, block, witnesses)
        free = np.flatnonzero(~covered.any(axis=1))
        if free.size == 0:
            start += len(block)
            continue
        witnesses = np.concatenate((witnesses, block[free[:1]]))
        start += int(free[0]) + 1
    return witnesses


def _pair_coverable(
    off_sat: SummedAreaTable,
    spec: FractureSpec,
    depth: float,
    points: np.ndarray,
    others: np.ndarray,
) -> np.ndarray:
    """``[i, j]``: can one valid shot cover both ``points[i]`` and ``others[j]``?

    Any shot containing both points contains a translate of their
    minimal bounding box (grown to L_min); the pair is declared
    uncoverable only when every probed slide position of that box traps
    a P_off pixel deeper than the overdose depth — which is sound up to
    the finite slide sampling.  Every pair's slide positions are tested
    in one summed-area-table gather.
    """
    x_bl, x_tr = _slide_cores(points[:, 0], others[:, 0], spec.lmin, depth)
    y_bl, y_tr = _slide_cores(points[:, 1], others[:, 1], spec.lmin, depth)
    sums = off_sat.rect_sums(
        x_bl[..., None, :], y_bl[..., :, None],
        x_tr[..., None, :], y_tr[..., :, None],
    )
    return (sums == 0.0).any(axis=(2, 3))


def _slide_cores(
    a: np.ndarray, b: np.ndarray, lmin: float, depth: float
) -> tuple[np.ndarray, np.ndarray]:
    """Low and high core edges, along one axis, of every pair's box slides.

    Entry ``[i, j, s]`` is slide position ``s`` of the box spanning
    ``a[i]`` and ``b[j]``, grown to ``lmin`` and shrunk by ``depth`` on
    both sides.
    """
    lo = np.minimum.outer(a, b)[..., None]
    hi = np.maximum.outer(a, b)[..., None]
    size = np.maximum(hi - lo, lmin)
    slack = size - (hi - lo)
    start = np.where(slack > 0, hi - size + _FRACTIONS * slack, lo)
    return start + depth, np.maximum(start + size - depth, start + depth)


def upper_bound_shots(results: list[FractureResult]) -> int | None:
    """Best feasible shot count across method results (None if all fail)."""
    feasible = [r.shot_count for r in results if r.feasible]
    return min(feasible) if feasible else None
