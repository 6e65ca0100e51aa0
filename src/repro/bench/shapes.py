"""Benchmark workloads: synthetic ILT clips and known-optimal shapes.

The paper evaluates on ten real ILT mask shapes and ten generated
benchmark shapes with known optimal shot count, all from the UCLA/UCSD
benchmarking suite [16, 17], which is not redistributable here.  Per the
substitution policy in DESIGN.md we regenerate equivalents:

* :func:`ilt_suite` — a deterministic *toy ILT flow*: intended wafer
  patterns (contacts, bars, line-ends) are blurred, perturbed with
  low-frequency "optimizer noise" and thresholded, producing the
  many-vertex curvilinear contours characteristic of inverse lithography
  output.  Ten clips of graded complexity.

* :func:`agb_suite` / :func:`rgb_suite` — exactly the construction [16]
  uses for shapes with known achievable shot count: place K rectangles,
  simulate their summed e-beam intensity, and take the ρ-contour as the
  target.  K shots reproduce the shape *by construction*, so K is the
  reference optimum.  AGB clips chain adjacent/aligned rectangles into
  aggregates; RGB clips scatter overlapping rectangles around a centre,
  which produces the "wavy boundary" contours the paper calls out as
  hard.  The per-clip K values match Table 3: AGB 3/16/17/7/3 and
  RGB 5/7/5/9/6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from repro.ebeam.intensity_map import IntensityMap
from repro.geometry.labeling import largest_component
from repro.geometry.raster import PixelGrid
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec
from repro.mask.shape import MaskShape

# Known-optimal shot counts per Table 3 of the paper.
AGB_OPTIMA = (3, 16, 17, 7, 3)
RGB_OPTIMA = (5, 7, 5, 9, 6)

_ILT_GRID = 320  # pixels per side of an ILT clip grid
_MARGIN = 40.0  # grid padding (nm) ≥ FractureSpec.grid_margin for defaults


@dataclass(frozen=True, slots=True)
class KnownOptimalShape:
    """A generated benchmark target together with its construction."""

    shape: MaskShape
    optimal_shots: int
    generator_shots: tuple[Rect, ...]


def ilt_suite(pitch: float = 1.0) -> list[MaskShape]:
    """The ten synthetic ILT clips (ILT-1 … ILT-10), graded by complexity.

    Intended layouts are thin bars, elbows, crosses and contact pairs
    (feature width ≈ 35–50 nm, typical of post-ILT main features at the
    14 nm node); the toy ILT flow then waves their boundaries.
    """
    recipes = [
        # (seed, intended feature rects, blur, noise amp, noise blur, threshold)
        (31, [(90, 140, 240, 185)], 8.0, 0.30, 6.0, 0.42),
        (32, [(135, 70, 182, 250)], 8.0, 0.34, 7.0, 0.42),
        (33, [(80, 90, 240, 132), (80, 190, 240, 232)], 8.0, 0.32, 6.0, 0.42),
        (34, [(70, 130, 250, 172), (140, 60, 182, 260)], 8.0, 0.36, 7.0, 0.42),
        (35, [(80, 80, 125, 240), (125, 195, 250, 240)], 8.0, 0.34, 6.5, 0.42),
        (36, [(60, 140, 260, 182), (90, 60, 132, 260)], 8.0, 0.38, 7.5, 0.42),
        (9, [(60, 140, 260, 180), (140, 60, 180, 260)], 8.0, 0.40, 8.0, 0.42),
        (38, [(60, 90, 250, 130), (60, 200, 250, 240), (140, 120, 180, 210)], 8.0, 0.36, 7.0, 0.42),
        (39, [(70, 70, 115, 250), (160, 70, 205, 250), (100, 145, 180, 185)], 8.0, 0.38, 7.5, 0.42),
        (40, [(60, 60, 110, 110), (150, 90, 255, 132), (80, 180, 125, 255), (170, 180, 250, 222)], 8.0, 0.36, 7.0, 0.42),
    ]
    shapes = []
    for index, (seed, features, blur, noise_amp, noise_blur, threshold) in enumerate(
        recipes, 1
    ):
        mask, grid = _toy_ilt_mask(
            seed, features, blur, noise_amp, noise_blur, threshold, pitch
        )
        shapes.append(MaskShape.from_mask(mask, grid, name=f"ILT-{index}"))
    return shapes


def _toy_ilt_mask(
    seed: int,
    features: list[tuple[int, int, int, int]],
    blur: float,
    noise_amp: float,
    noise_blur: float,
    threshold: float,
    pitch: float,
) -> tuple[np.ndarray, PixelGrid]:
    """One toy inverse-lithography mask contour.

    The intended pattern is blurred (optical low-pass), perturbed with
    smooth pseudo-gradient noise (what ILT optimizers add while chasing
    process-window metrics) and thresholded.  The result has curvy,
    non-rectilinear boundaries at the pixel grid — the workload the
    paper's method is built for.  Only the largest connected component is
    kept so each clip is a single polygon, as in the paper's per-shape
    fracturing setting.
    """
    rng = np.random.default_rng(seed)
    grid = PixelGrid(0.0, 0.0, pitch, _ILT_GRID, _ILT_GRID)
    field = np.zeros(grid.shape)
    for x_lo, y_lo, x_hi, y_hi in features:
        field[y_lo:y_hi, x_lo:x_hi] = 1.0
    smooth_noise = gaussian_filter(rng.standard_normal(grid.shape), noise_blur)
    smooth_noise /= max(1e-12, np.abs(smooth_noise).max())
    blurred = gaussian_filter(field, blur)
    mask = (blurred + noise_amp * smooth_noise) > threshold
    # MRC cleanup: real masks obey minimum-width/minimum-notch rules, so
    # slivers and notches narrower than ~the minimum shot size never
    # appear; open/close with a disc enforces the same here (without it
    # a sub-L_min spike would make the clip unfixable for every method).
    mask = _mrc_clean(mask, radius_close=8, radius_open=5)
    return largest_component(mask), grid


def _disc(radius_px: int) -> np.ndarray:
    span = np.arange(-radius_px, radius_px + 1)
    return (span[:, None] ** 2 + span[None, :] ** 2) <= radius_px**2


def _mrc_clean(mask: np.ndarray, radius_close: int, radius_open: int) -> np.ndarray:
    """Morphological close-then-open with disc structuring elements.

    The closing radius exceeds the opening radius because a notch
    narrower than ~2σ is physically unwritable at fixed dose (shoulder
    shots bleed ≥ ρ into it) — mask rule checks forbid exactly those.
    """
    from scipy.ndimage import binary_closing, binary_opening

    closed = binary_closing(mask, structure=_disc(radius_close))
    return binary_opening(closed, structure=_disc(radius_open))


def agb_suite(
    spec: FractureSpec = FractureSpec(), pitch: float = 1.0
) -> list[KnownOptimalShape]:
    """AGB-1 … AGB-5: aggregates of adjacent/aligned rectangles."""
    out = []
    for index, k in enumerate(AGB_OPTIMA, 1):
        rects = _aggregate_rects(seed=100 + index, count=k, spec=spec)
        out.append(_known_optimal_shape(rects, spec, pitch, f"AGB-{index}"))
    return out


def rgb_suite(
    spec: FractureSpec = FractureSpec(), pitch: float = 1.0
) -> list[KnownOptimalShape]:
    """RGB-1 … RGB-5: randomly scattered overlapping rectangles."""
    out = []
    for index, k in enumerate(RGB_OPTIMA, 1):
        rects = _random_rects(seed=200 + index, count=k, spec=spec)
        out.append(_known_optimal_shape(rects, spec, pitch, f"RGB-{index}"))
    return out


def _known_optimal_shape(
    rects: list[Rect], spec: FractureSpec, pitch: float, name: str
) -> KnownOptimalShape:
    """Simulate the K generator shots and take the ρ-contour as target."""
    bbox = rects[0]
    for rect in rects[1:]:
        bbox = bbox.union_bbox(rect)
    grid = PixelGrid.for_rect(bbox, pitch, margin=_MARGIN)
    imap = IntensityMap(grid, spec.sigma)
    for rect in rects:
        imap.add(rect)
    mask = largest_component(imap.total >= spec.rho)
    shape = MaskShape.from_mask(mask, grid, name=name)
    _check_no_redundant_shot(rects, shape, spec, name)
    _check_witnesses(rects, shape, spec, name)
    return KnownOptimalShape(
        shape=shape, optimal_shots=len(rects), generator_shots=tuple(rects)
    )


def _check_witnesses(
    rects: list[Rect], shape: MaskShape, spec: FractureSpec, name: str
) -> None:
    """Generator guarantee: the K rect centres are an antirectangle set.

    If no valid shot can cover two generator-rect centres, any solution
    needs ≥ K shots — combined with the K-shot construction this makes K
    the optimum (up to the finite slide sampling of the coverability
    test; see ``repro.bench.bounds``).
    """
    import numpy as np

    from repro.bench.bounds import _pair_coverable, overdose_depth
    from repro.geometry.sat import SummedAreaTable

    pixels = shape.pixels(spec.gamma)
    off_sat = SummedAreaTable(pixels.off.astype(np.float64), shape.grid)
    depth = overdose_depth(spec) + shape.grid.pitch
    centers = np.array([(r.center.x, r.center.y) for r in rects])
    coverable = np.triu(_pair_coverable(off_sat, spec, depth, centers, centers), 1)
    if coverable.any():
        i, j = np.argwhere(coverable)[0]
        raise RuntimeError(
            f"{name}: one shot could cover generator rects {i} and "
            f"{j} — construction count is not a valid optimum"
        )


def _check_no_redundant_shot(
    rects: list[Rect], shape: MaskShape, spec: FractureSpec, name: str
) -> None:
    """Generator sanity: every construction shot must be necessary.

    If dropping a shot still satisfies Eq. 4, the advertised optimum K is
    an overestimate and Table 3 normalization would be meaningless.
    Raises at generation time so a bad seed is caught immediately.
    """
    from repro.mask.constraints import check_solution

    for index in range(len(rects)):
        reduced = rects[:index] + rects[index + 1 :]
        report = check_solution(reduced, shape, spec)
        if report.total_failing == 0:
            raise RuntimeError(
                f"{name}: generator shot {index} is redundant — "
                "construction count is not a valid optimum"
            )


def _aggregate_rects(seed: int, count: int, spec: FractureSpec) -> list[Rect]:
    """Regular diagonal staircase of corner-overlapping rectangles (AGB).

    Consecutive rectangles overlap only at a small corner patch and are
    offset diagonally, so the bounding box of any two rectangles contains
    a large empty quadrant — no single valid shot can replace two of
    them, which is what makes the construction count K (approximately)
    optimal.  The zig-zag direction flips periodically to keep the
    aggregate compact.
    """
    rng = np.random.default_rng(seed)
    return _diagonal_chain(
        rng,
        count,
        spec,
        size_range=(int(spec.lmin * 3.5), int(spec.lmin * 6)),
        flip_period=4,
    )


def _random_rects(seed: int, count: int, spec: FractureSpec) -> list[Rect]:
    """Random diagonal walk of overlapping rectangles (RGB family).

    Same pairwise-uncoverable guarantee as AGB but with more size and
    direction randomness, producing the "wavy boundary" contours the
    paper singles out as hard.
    """
    rng = np.random.default_rng(seed)
    return _diagonal_chain(
        rng,
        count,
        spec,
        size_range=(int(spec.lmin * 3.5), int(spec.lmin * 6)),
        flip_period=0,  # random direction changes
    )


def _diagonal_chain(
    rng: np.random.Generator,
    count: int,
    spec: FractureSpec,
    size_range: tuple[int, int],
    flip_period: int,
) -> list[Rect]:
    """Chain ``count`` rectangles corner-to-corner along diagonals."""
    lmin = spec.lmin
    # The corner overlap trades junction smoothness against the
    # optimality guarantee: 8 nm keeps the ρ-contour necks printable
    # while the rect centres stay pairwise-uncoverable (checked below).
    overlap = 10.0
    w = float(rng.integers(*size_range))
    h = float(rng.integers(*size_range))
    rects = [Rect(0.0, 0.0, w, h)]
    dx_sign, dy_sign = 1.0, 1.0
    for index in range(1, count):
        base = rects[-1]
        if flip_period:
            if index % flip_period == 0:
                dx_sign = -dx_sign
        elif rng.random() < 0.35:
            if rng.random() < 0.5:
                dx_sign = -dx_sign
            else:
                dy_sign = -dy_sign
        w = float(rng.integers(*size_range))
        h = float(rng.integers(*size_range))
        # Anchor the new rectangle so it overlaps the previous one in a
        # small corner patch and extends diagonally away from it.
        if dx_sign > 0:
            x0 = base.xtr - overlap
        else:
            x0 = base.xbl + overlap - w
        if dy_sign > 0:
            y0 = base.ytr - overlap
        else:
            y0 = base.ybl + overlap - h
        x0, y0 = round(x0), round(y0)
        candidate = Rect(x0, y0, x0 + w, y0 + h)
        if any(
            r.contains_rect(candidate) or candidate.contains_rect(r) for r in rects
        ):
            # Containment would make a generator shot redundant; nudge
            # the size and retry once (deterministically) before giving
            # up on this step direction.
            candidate = Rect(x0, y0, x0 + w + lmin, y0 + h + lmin)
        rects.append(candidate)
    return rects


def sraf_suite(pitch: float = 1.0) -> list[MaskShape]:
    """Five sub-resolution assist feature (SRAF) clips.

    SRAFs are the skinny scatter bars ILT places around main features —
    the workload matching pursuit was originally proposed for [13].
    Each clip is a single narrow, slightly wavy bar (width ≈ 1.5–2.5
    L_min) with curved ends; small enough that one to three shots
    suffice, narrow enough that edge placement is everything.
    """
    recipes = [
        # (seed, orientation, length, width, bend amplitude)
        (51, "h", 160, 16, 3.0),
        (52, "v", 140, 20, 5.0),
        (53, "h", 200, 24, 8.0),
        (54, "v", 180, 18, 6.0),
        (55, "h", 120, 22, 4.0),
    ]
    shapes = []
    for index, (seed, orientation, length, width, bend) in enumerate(recipes, 1):
        mask, grid = _sraf_mask(seed, orientation, length, width, bend, pitch)
        shapes.append(MaskShape.from_mask(mask, grid, name=f"SRAF-{index}"))
    return shapes


def _sraf_mask(
    seed: int,
    orientation: str,
    length: int,
    width: int,
    bend: float,
    pitch: float,
) -> tuple[np.ndarray, PixelGrid]:
    """A gently bent bar traced on the pixel grid."""
    rng = np.random.default_rng(seed)
    pad = 45
    size = length + 2 * pad
    grid = PixelGrid(0.0, 0.0, pitch, size, size)
    axis = np.arange(length)
    # Smooth low-frequency bend of the bar's centreline.
    phase = rng.uniform(0.0, 2.0 * np.pi)
    center = size / 2.0 + bend * np.sin(2.0 * np.pi * axis / length + phase)
    mask = np.zeros(grid.shape, dtype=bool)
    half = width / 2.0
    for k, c in zip(axis, center):
        lo = int(round(c - half))
        hi = int(round(c + half))
        if orientation == "h":
            mask[lo:hi, pad + k] = True
        else:
            mask[pad + k, lo:hi] = True
    # Rounded ends, as printed SRAFs have.
    mask = _mrc_clean(mask, radius_close=4, radius_open=4)
    return largest_component(mask), grid
