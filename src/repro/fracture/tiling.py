"""2-D tiled decomposition of large fracturing targets.

Full-chip flows meet polygons spanning micrometres — far beyond what the
O(|C|²) compatibility graph or a full-grid refinement can absorb.  The
standard MDP scaling trick (used by L-shape fracturers and GPU ILT flows
alike) decomposes the mask plane into a deterministic grid of tiles:

* every tile has a **core** — the region of the mask plane it *owns*
  under a half-open ``[lo, hi)`` rule, so each point belongs to exactly
  one tile;
* around the core sits a **halo** whose width is derived from the PSF
  blur reach, so the tile's sub-problem sees all geometry and dose
  context that can influence its core;
* the target's pixels inside the halo window are split into connected
  components and **every** component with at least one core-owned pixel
  is extracted as its own sub-shape (a tile may own several disjoint
  pieces — none is dropped);
* each sub-shape is fractured independently, shots are kept by the tile
  owning their *centre* (the same half-open rule, so no shot is ever
  duplicated or orphaned), and a seam-band stitch repairs the tile
  boundaries afterwards (see :mod:`repro.fracture.windowed`);
* a feature that crosses a seam still comes out as one shot from each
  side, overlapping by about two halos; the stitch first hands every
  exactly aligned pair to one shot, their union
  (:func:`merge_seam_pairs`), so only seams that pass no such pair need
  refining;
* the stitch runs one seam family at a time, vertical seams or
  horizontal ones, cut into independent windows
  (:func:`seam_windows`): a window's band and its movable shots are
  disjoint from every other window's of its family, so the family's
  windows can be refined at the same time.

Everything here is pure geometry — deterministic, picklable, and
independent of worker count — which is what makes the process-parallel
executor's merge reproducible.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from repro.geometry.labeling import component_masks
from repro.geometry.raster import PixelGrid
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec
from repro.mask.shape import MaskShape


def halo_nm(spec: FractureSpec) -> float:
    """Halo width a tile needs to see its neighbours' dose context.

    Identical to :attr:`FractureSpec.grid_margin` (shots overhang the
    target by ~L_th and blur by the PSF reach): a sub-problem padded this
    far contains every pixel constraint and every plausible shot that
    can influence intensity inside the tile core.
    """
    return spec.grid_margin


def ownership_stretch(spec: FractureSpec) -> float:
    """How far outside the target bounding box a useful shot centre can sit.

    Outer tiles stretch their ownership interval by this amount so that
    boundary-hugging shots are never orphaned.  The value is derived
    from the PSF blur reach by the same 2σ argument the blocked-zone
    rule uses: a shot's intensity is < 1e-6 beyond 2σ of its boundary,
    so a shot that stays farther than 2σ from the target contributes no
    printable dose and is never produced; and a useful shot overhangs
    the target by at most ~L_th (the corner-rounding overshoot bound
    behind ``FractureSpec.grid_margin``).  Hence no useful shot centre
    lies beyond ``2σ + L_th`` of the bounding box.
    """
    return 2.0 * spec.sigma + spec.lth


@dataclass(frozen=True, slots=True)
class Tile:
    """One tile of the decomposition grid.

    ``core`` is the ownership region — membership uses the half-open
    rule of :meth:`owns` — and ``halo`` the padded extraction window.
    ``ix``/``iy`` are the tile's column/row in the grid.
    """

    ix: int
    iy: int
    core: Rect
    halo: Rect

    def owns(self, x: float, y: float) -> bool:
        """Half-open ownership: ``[xbl, xtr) × [ybl, ytr)``."""
        return (
            self.core.xbl <= x < self.core.xtr
            and self.core.ybl <= y < self.core.ytr
        )

    @property
    def name(self) -> str:
        return f"t{self.ix},{self.iy}"


@dataclass(frozen=True, slots=True)
class TilePlan:
    """The deterministic tile grid of one target shape.

    ``tiles`` are in row-major ``(iy, ix)`` order — the canonical merge
    order of the executor.  ``seam_xs`` / ``seam_ys`` are the interior
    tile boundaries (mask-plane coordinates) where neighbouring tiles'
    shots meet; the stitch phase repairs bands around exactly these
    lines.
    """

    tiles: tuple[Tile, ...]
    tiles_x: int
    tiles_y: int
    seam_xs: tuple[float, ...]
    seam_ys: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.tiles)

    @property
    def has_seams(self) -> bool:
        return bool(self.seam_xs or self.seam_ys)

    def owner_of(self, x: float, y: float) -> Tile | None:
        for tile in self.tiles:
            if tile.owns(x, y):
                return tile
        return None


def _mask_bbox(shape: MaskShape) -> Rect:
    """Outer pixel-edge bounding box of every target pixel.

    Unlike ``shape.polygon.bounding_box()`` this covers *all* connected
    components of a multi-component target, not just the traced one.
    """
    rows = shape.inside.any(axis=1)
    cols = shape.inside.any(axis=0)
    iy = np.nonzero(rows)[0]
    ix = np.nonzero(cols)[0]
    grid = shape.grid
    return Rect(
        grid.x0 + float(ix[0]) * grid.pitch,
        grid.y0 + float(iy[0]) * grid.pitch,
        grid.x0 + float(ix[-1] + 1) * grid.pitch,
        grid.y0 + float(iy[-1] + 1) * grid.pitch,
    )


def _axis_edges(lo: float, hi: float, tile_nm: float) -> np.ndarray:
    """Deterministic tile boundaries along one axis.

    An extent up to 1.5 tiles stays undivided (matching the historical
    single-window shortcut, so borderline shapes do not pay seams for a
    sliver tile); larger extents split into ``ceil(extent / tile_nm)``
    equal tiles.
    """
    extent = hi - lo
    if extent <= 1.5 * tile_nm:
        count = 1
    else:
        count = max(1, int(math.ceil(extent / tile_nm)))
    return np.linspace(lo, hi, count + 1)


def plan_tiles(
    shape: MaskShape, spec: FractureSpec, tile_nm: float
) -> TilePlan:
    """Build the 2-D tile grid of ``shape`` for tile size ``tile_nm``.

    Tiling happens along *both* axes.  Outer tiles stretch their
    ownership by :func:`ownership_stretch` so boundary-hugging shot
    centres are always owned; halos pad every core by :func:`halo_nm`.

    The grid extent comes from the *pixel mask*, not the traced
    polygon: a multi-component target has one polygon per component but
    a single mask, and every component must fall inside some tile's
    core (the dropped-component guarantee starts here).
    """
    if tile_nm <= 0.0:
        raise ValueError("tile size must be positive")
    bbox = _mask_bbox(shape)
    xs = _axis_edges(bbox.xbl, bbox.xtr, tile_nm)
    ys = _axis_edges(bbox.ybl, bbox.ytr, tile_nm)
    stretch = ownership_stretch(spec)
    halo = halo_nm(spec)
    x_lo = xs.copy()
    x_hi = xs.copy()
    y_lo = ys.copy()
    y_hi = ys.copy()
    x_lo[0] -= stretch
    x_hi[-1] += stretch
    y_lo[0] -= stretch
    y_hi[-1] += stretch
    tiles: list[Tile] = []
    for iy in range(len(ys) - 1):
        for ix in range(len(xs) - 1):
            core = Rect(x_lo[ix], y_lo[iy], x_hi[ix + 1], y_hi[iy + 1])
            tiles.append(
                Tile(ix=ix, iy=iy, core=core, halo=core.expanded(halo))
            )
    return TilePlan(
        tiles=tuple(tiles),
        tiles_x=len(xs) - 1,
        tiles_y=len(ys) - 1,
        seam_xs=tuple(float(x) for x in xs[1:-1]),
        seam_ys=tuple(float(y) for y in ys[1:-1]),
    )


def _centre_span_to_slice(
    lo: float, hi: float, origin: float, pitch: float, n: int
) -> slice:
    """Indices of pixel centres inside the half-open span ``[lo, hi)``."""
    first = math.ceil((lo - origin) / pitch - 0.5)
    stop = math.ceil((hi - origin) / pitch - 0.5)
    first = min(max(first, 0), n)
    return slice(first, min(max(stop, first), n))


def _crop_component(
    mask: np.ndarray, grid: PixelGrid, pad_nm: float
) -> tuple[np.ndarray, PixelGrid]:
    """Crop a component mask to its bounding box padded by ``pad_nm``.

    The returned grid keeps mask-plane coordinates, so shots fractured
    on the cropped problem land exactly where they would on the full
    window — cropping only trims far-away OFF pixels that no shot of
    this component can dose.
    """
    pad = int(math.ceil(pad_nm / grid.pitch))
    iy = np.nonzero(mask.any(axis=1))[0]
    ix = np.nonzero(mask.any(axis=0))[0]
    y0 = max(0, int(iy[0]) - pad)
    y1 = min(grid.ny, int(iy[-1]) + 1 + pad)
    x0 = max(0, int(ix[0]) - pad)
    x1 = min(grid.nx, int(ix[-1]) + 1 + pad)
    cropped_grid = PixelGrid(
        grid.x0 + x0 * grid.pitch,
        grid.y0 + y0 * grid.pitch,
        grid.pitch,
        x1 - x0,
        y1 - y0,
    )
    return mask[y0:y1, x0:x1], cropped_grid


def extract_tile_shapes(
    shape: MaskShape, tile: Tile, pad_nm: float | None = None
) -> list[MaskShape]:
    """Sub-shapes of ``shape`` that tile ``tile`` must fracture.

    The target pixels within the tile's halo window are labeled into
    connected components, and every component owning at least one pixel
    centre inside the core is returned as its own single-polygon
    :class:`MaskShape` (the inner fracturers expect one polygon per
    problem).  Components living entirely in the halo are skipped —
    their owning tile fractures them whole, and any shot this tile
    produced for them would be discarded by the centre-ownership rule
    anyway.  Unlike the historical slab extraction, *no owned component
    is ever dropped*.

    When ``pad_nm`` is given, each sub-shape is cropped to its
    component's bounding box padded by ``pad_nm`` (use the halo width /
    ``FractureSpec.grid_margin``, the standard dose-window margin).
    Every inner-solver array operation scales with grid area, so a
    small contact island no longer pays for the whole tile window; the
    executor passes the halo width here.
    """
    grid = shape.grid
    ix_lo = max(0, int(math.floor((tile.halo.xbl - grid.x0) / grid.pitch)))
    ix_hi = min(grid.nx, int(math.ceil((tile.halo.xtr - grid.x0) / grid.pitch)))
    iy_lo = max(0, int(math.floor((tile.halo.ybl - grid.y0) / grid.pitch)))
    iy_hi = min(grid.ny, int(math.ceil((tile.halo.ytr - grid.y0) / grid.pitch)))
    if ix_hi <= ix_lo or iy_hi <= iy_lo:
        return []
    sub_mask = shape.inside[iy_lo:iy_hi, ix_lo:ix_hi]
    if not sub_mask.any():
        return []
    sub_grid = PixelGrid(
        grid.x0 + ix_lo * grid.pitch,
        grid.y0 + iy_lo * grid.pitch,
        grid.pitch,
        ix_hi - ix_lo,
        iy_hi - iy_lo,
    )
    # Core ownership test in sub-window indices (half-open, like owns()).
    core_cols = _centre_span_to_slice(
        tile.core.xbl, tile.core.xtr, sub_grid.x0, grid.pitch, sub_grid.nx
    )
    core_rows = _centre_span_to_slice(
        tile.core.ybl, tile.core.ytr, sub_grid.y0, grid.pitch, sub_grid.ny
    )
    shapes: list[MaskShape] = []
    for k, component in enumerate(component_masks(sub_mask)):
        if not component[core_rows, core_cols].any():
            continue
        comp_mask, comp_grid = component, sub_grid
        if pad_nm is not None:
            comp_mask, comp_grid = _crop_component(component, sub_grid, pad_nm)
        shapes.append(
            MaskShape.from_mask(
                comp_mask, comp_grid, name=f"{shape.name}@{tile.name}#{k}"
            )
        )
    return shapes


def dose_reach_nm(spec: FractureSpec) -> float:
    """How far past a shot's edges its dose reaches: the 4σ window of
    :class:`~repro.ebeam.intensity_map.IntensityMap`."""
    return 4.0 * spec.sigma


def _active_nm(spec: FractureSpec, movable_nm: float) -> float:
    """Half-width of a seam's active band (see :func:`seam_band_masks`)."""
    return movable_nm + dose_reach_nm(spec) + spec.lmin + 2.0 * spec.pitch


def seam_band_masks(
    shape: MaskShape,
    plan: TilePlan,
    spec: FractureSpec,
    movable_nm: float | None = None,
) -> tuple[np.ndarray, float]:
    """Active-region mask of the seam bands, for the stitch refinement.

    Returns ``(active_mask, movable_nm)``.  A shot within ``movable_nm``
    of a seam line is *movable* during stitching.  The default is the
    halo width: tile solutions only disagree where one tile's dropped
    halo shots were replaced by its neighbour's owned shots, and that
    mismatch zone extends at most one halo to either side of the seam.
    The active mask pads the movable band by the blur reach plus the
    minimum shot size, so the full dose-effect window of any in-band
    repair (an edge move, an added L_min shot) stays inside the mask —
    the restricted refinement forbids mutations whose windows leave it.
    """
    if movable_nm is None:
        movable_nm = halo_nm(spec)
    grid = shape.grid
    mask = np.zeros(grid.shape, dtype=bool)
    for cols in seam_bands(plan, spec, grid, "x", movable_nm):
        mask[:, cols] = True
    for rows in seam_bands(plan, spec, grid, "y", movable_nm):
        mask[rows, :] = True
    return mask, movable_nm


def seam_bands(
    plan: TilePlan,
    spec: FractureSpec,
    grid: PixelGrid,
    axis: str,
    movable_nm: float,
) -> list[slice]:
    """Active band of every seam of one family, as index ranges.

    ``axis`` ``"x"`` is the vertical seams (:attr:`TilePlan.seam_xs`),
    whose bands are column ranges over the full grid height; ``"y"`` is
    the horizontal seams, whose bands are row ranges.
    """
    active_nm = _active_nm(spec, movable_nm)
    if axis == "x":
        return [
            grid.x_span_to_slice(s - active_nm, s + active_nm)
            for s in plan.seam_xs
        ]
    return [
        grid.y_span_to_slice(s - active_nm, s + active_nm)
        for s in plan.seam_ys
    ]


def split_seam_shots(
    shots: list[Rect],
    plan: TilePlan,
    movable_nm: float,
) -> tuple[list[Rect], list[Rect]]:
    """Partition ``shots`` into (movable, frozen) for the stitch phase.

    A shot is movable when its rectangle comes within ``movable_nm`` of
    any interior seam line; everything else is frozen background whose
    dose the stitch refinement sees but never touches.  Order within
    each partition follows the input order, keeping the stitch
    deterministic.
    """
    movable: list[Rect] = []
    frozen: list[Rect] = []
    for shot in shots:
        near = any(
            shot.xbl - movable_nm <= sx <= shot.xtr + movable_nm
            for sx in plan.seam_xs
        ) or any(
            shot.ybl - movable_nm <= sy <= shot.ytr + movable_nm
            for sy in plan.seam_ys
        )
        (movable if near else frozen).append(shot)
    return movable, frozen


def merge_seam_pairs(
    shots: list[Rect],
    plan: TilePlan,
    spec: FractureSpec,
    grid: PixelGrid,
    active_mask: np.ndarray,
) -> tuple[list[Rect], int]:
    """Hand each aligned seam-crossing shot pair to one shot, their union.

    At every interior seam, a pair of shots merges when their centres
    lie on opposite sides of the seam (the half-open ownership rule),
    their extents along the seam are identical, and their extents
    across it overlap or touch.  Such a pair is the same feature
    fractured twice, once by each tile; their union is exactly
    ``a ∪ b``, one rectangle.  Total intensity is a sum of per-shot
    intensities (paper Eq. 1–3), so the union's dose is the pair's dose
    minus ``I(a ∩ b)``: dose only falls, and only within the dose reach
    of ``a ∩ b``.  A merge is allowed only when that window lies inside
    ``active_mask`` (the stitch's seam bands), the guard every stitch
    move obeys, so whatever it breaks lies where the stitch repairs.

    Per seam, shots are bucketed by their exact extent along it, and in
    each bucket the pair nearest the seam (the largest far edge on the
    low side, the smallest near edge on the high side) is tried: O(shots)
    per seam.  The pass over all seams repeats until nothing merges, so
    a chain across consecutive seams collapses to one shot.  The union
    takes the earlier shot's place in the list and the later one goes,
    so the result depends only on the input order.  Returns the new
    shot list and the number of merges.
    """
    reach = dose_reach_nm(spec)
    seams = [("x", s) for s in plan.seam_xs] + [("y", s) for s in plan.seam_ys]
    shots = list(shots)
    merges = 0
    while True:
        before = merges
        for axis, seam in seams:
            along = "y" if axis == "x" else "x"
            # Extent along the seam -> [nearest low-side, nearest
            # high-side] shot index.
            nearest: dict[tuple[float, float], list[int | None]] = {}
            for i, shot in enumerate(shots):
                lo, hi = _span(shot, axis)
                pair = nearest.setdefault(_span(shot, along), [None, None])
                if (lo + hi) / 2.0 < seam:
                    if pair[0] is None or hi > _span(shots[pair[0]], axis)[1]:
                        pair[0] = i
                elif pair[1] is None or lo < _span(shots[pair[1]], axis)[0]:
                    pair[1] = i
            gone: set[int] = set()
            for low, high in nearest.values():
                if low is None or high is None:
                    continue
                a, b = shots[low], shots[high]
                overlap = a.intersection(b)
                if overlap is None or not active_mask[
                    grid.rect_to_slices(overlap, margin=reach)
                ].all():
                    continue
                keep, drop = sorted((low, high))
                shots[keep] = a.union_bbox(b)
                gone.add(drop)
                merges += 1
            if gone:
                shots = [s for i, s in enumerate(shots) if i not in gone]
        if merges == before:
            return shots, merges


def _span(shot: Rect, axis: str) -> tuple[float, float]:
    """A shot's extent along ``axis``."""
    return (shot.xbl, shot.xtr) if axis == "x" else (shot.ybl, shot.ytr)


@dataclass(frozen=True, slots=True)
class SeamWindow:
    """One independent stitch window of a seam family.

    ``axis`` names the family as :func:`seam_bands` does.  ``bands`` are
    the active index ranges of the window's seams along ``axis``,
    ``crop`` their hull padded by the blur reach, and ``owned`` the
    indices of the shots the window may move, in shot-list order.
    """

    name: str
    axis: str
    bands: tuple[slice, ...]
    crop: slice
    owned: tuple[int, ...]


def seam_windows(
    shots: list[Rect],
    plan: TilePlan,
    spec: FractureSpec,
    grid: PixelGrid,
    axis: str,
    movable_nm: float,
) -> list[SeamWindow]:
    """Cut one seam family's band union into independent windows.

    Every seam starts a window of its own.  A shot is movable for a seam
    within ``movable_nm`` of it (:func:`split_seam_shots`' rule, per
    seam), and neighbouring seams share a window when their bands
    overlap or a shot is movable for both.  Windows of one family then
    have disjoint bands and disjoint movable shots, and a stitch move
    changes dose only inside its own band, so no window's refinement can
    change another's cost.  Bands stay whole: a window spans the full
    grid across its axis, junctions with the other family included.

    Windows are named ``v<k>`` (vertical seams, ``axis="x"``) or
    ``h<k>`` in seam order; a window that owns no shot is left out, as
    there is nothing for it to move.
    """
    seams = plan.seam_xs if axis == "x" else plan.seam_ys
    bands = seam_bands(plan, spec, grid, axis, movable_nm)
    # Seam indices each shot is movable for: one contiguous run, since
    # the seams are sorted.
    reach: list[tuple[int, int]] = []
    for shot in shots:
        lo, hi = (shot.xbl, shot.xtr) if axis == "x" else (shot.ybl, shot.ytr)
        reach.append((
            bisect.bisect_left(seams, lo - movable_nm),
            bisect.bisect_right(seams, hi + movable_nm),
        ))
    joined = [
        bands[k].stop > bands[k + 1].start for k in range(len(seams) - 1)
    ]
    for first, stop in reach:
        for k in range(first, stop - 1):
            joined[k] = True
    groups: list[list[int]] = []
    for k in range(len(seams)):
        if k and joined[k - 1]:
            groups[-1].append(k)
        else:
            groups.append([k])
    to_slice = grid.x_span_to_slice if axis == "x" else grid.y_span_to_slice
    active_nm = _active_nm(spec, movable_nm)
    windows: list[SeamWindow] = []
    for index, group in enumerate(groups):
        owned = tuple(
            i for i, (first, stop) in enumerate(reach)
            if first < stop and group[0] <= first <= group[-1]
        )
        if not owned:
            continue
        windows.append(SeamWindow(
            name=f"{'v' if axis == 'x' else 'h'}{index}",
            axis=axis,
            bands=tuple(bands[k] for k in group),
            # Padded by the dose reach: a move whose dose window leaves
            # the bands still covers a crop pixel outside them, where the
            # mutation guard rejects it.
            crop=to_slice(
                seams[group[0]] - active_nm, seams[group[-1]] + active_nm,
                dose_reach_nm(spec),
            ),
            owned=owned,
        ))
    return windows
