"""Connected-component labeling on boolean pixel masks.

The AddShot refinement move (paper §4.3) merges neighbouring failing
pixels into polygons with a boolean OR and takes the bounding box of each
component.  Labeling is 4-connected with components numbered in
raster-scan order of their first pixel — tile extraction, AddShot, and
the GSC baseline all consume that ordering, so it is part of the
contract, not an implementation detail.

:func:`label_components` is ``scipy.ndimage.label`` with the 4-connected
cross structure (its single raster scan numbers components by their
first pixel), and :func:`component_stats` reads every component's pixel
count and bounding box from one ``bincount`` and one
``ndimage.find_objects`` pass.  :func:`label_components_scalar`
(per-pixel two-pass union–find) and :func:`component_stats_scalar`
(per-label ``np.nonzero`` scan) are the original implementations, kept
as the references both are gated bit-identical against.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.geometry.raster import PixelGrid
from repro.geometry.rect import Rect
from repro.obs import get_recorder


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: list[int] = []

    def make(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:  # path compression
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


#: 4-connectivity: a pixel's neighbours share an edge, not a corner.
_FOUR_CONNECTED = ndimage.generate_binary_structure(2, 1)


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected component labeling.

    Returns ``(labels, count)`` where ``labels`` (int32) holds 0 for
    background and 1..count for components, numbered in raster-scan
    order of their first pixel — exactly (labels AND numbering) what
    :func:`label_components_scalar` produces.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return np.zeros(mask.shape, dtype=np.int32), 0
    get_recorder().incr("kernels.label_calls")
    labels, count = ndimage.label(mask, structure=_FOUR_CONNECTED)
    return labels, int(count)


def label_components_scalar(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-pixel two-pass union–find labeling (the scalar reference).

    Same contract as :func:`label_components`, which is gated
    bit-identical against it.
    """
    ny, nx = mask.shape
    labels = np.zeros((ny, nx), dtype=np.int32)
    uf = _UnionFind()
    # First pass: provisional labels + equivalences.
    for iy in range(ny):
        row = mask[iy]
        for ix in range(nx):
            if not row[ix]:
                continue
            up = labels[iy - 1, ix] if iy > 0 else 0
            left = labels[iy, ix - 1] if ix > 0 else 0
            if up and left:
                labels[iy, ix] = min(up, left)
                uf.union(up - 1, left - 1)
            elif up or left:
                labels[iy, ix] = up or left
            else:
                labels[iy, ix] = uf.make() + 1
    if not uf.parent:
        return labels, 0
    # Second pass: flatten equivalences to consecutive labels.
    roots = np.array([uf.find(i) for i in range(len(uf.parent))], dtype=np.int32)
    remap = np.zeros(len(uf.parent) + 1, dtype=np.int32)
    next_label = 0
    seen: dict[int, int] = {}
    for provisional, root in enumerate(roots):
        if root not in seen:
            next_label += 1
            seen[root] = next_label
        remap[provisional + 1] = seen[root]
    return remap[labels], next_label


def largest_component(mask: np.ndarray) -> np.ndarray:
    """Boolean mask of the largest 4-connected component of ``mask``.

    Returns ``mask`` unchanged when it holds at most one component, so
    single-polygon inputs pay only the labeling pass.
    """
    labels, count = label_components(mask)
    if count <= 1:
        return mask
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    return labels == int(sizes.argmax())


def component_masks(mask: np.ndarray) -> list[np.ndarray]:
    """Every 4-connected component of ``mask`` as its own boolean mask.

    Ordered by raster-scan position of each component's first pixel
    (the :func:`label_components` numbering), which makes downstream
    per-component work deterministic.
    """
    labels, count = label_components(mask)
    if count <= 1:
        return [mask] if count == 1 else []
    return [labels == label for label in range(1, count + 1)]


def component_stats(
    labels: np.ndarray, count: int
) -> tuple[np.ndarray, ...]:
    """Pixel count and bounding box of every label.

    Returns ``(present, counts, ymin, ymax, xmin, xmax)`` — parallel
    arrays over the labels that actually occur, in ascending label
    order; absent labels in ``1..count`` are simply not listed.  One
    ``bincount`` gives the counts and one ``ndimage.find_objects`` pass
    the boxes.  Equal to :func:`component_stats_scalar` array for array.
    """
    counts = np.bincount(labels.ravel(), minlength=count + 1)[1 : count + 1]
    present = np.flatnonzero(counts) + 1
    spans = np.array(
        [
            (ys.start, ys.stop - 1, xs.start, xs.stop - 1)
            for ys, xs in filter(
                None, ndimage.find_objects(labels, max_label=count)
            )
        ],
        dtype=np.int64,
    ).reshape(-1, 4)
    ymin, ymax, xmin, xmax = spans.T
    return present, counts[present - 1], ymin, ymax, xmin, xmax


def component_stats_scalar(
    labels: np.ndarray, count: int
) -> tuple[np.ndarray, ...]:
    """Per-label ``np.nonzero`` scan: the reference for :func:`component_stats`."""
    present, counts, ymins, ymaxs, xmins, xmaxs = [], [], [], [], [], []
    for label in range(1, count + 1):
        ys, xs = np.nonzero(labels == label)
        if len(ys) == 0:
            continue
        present.append(label)
        counts.append(len(ys))
        ymins.append(int(ys.min()))
        ymaxs.append(int(ys.max()))
        xmins.append(int(xs.min()))
        xmaxs.append(int(xs.max()))
    return tuple(
        np.asarray(seq, dtype=np.int64)
        for seq in (present, counts, ymins, ymaxs, xmins, xmaxs)
    )


def bounding_boxes(
    labels: np.ndarray,
    count: int,
    grid: PixelGrid,
    origin: tuple[int, int] = (0, 0),
) -> list[tuple[Rect, int]]:
    """Bounding box and pixel count of every labeled component.

    Boxes are in mask-plane coordinates and cover the full pixel cells of
    the component.  Sorted by descending pixel count so AddShot can pick
    the component covering the most failing pixels first; ties keep
    ascending label order (Python's stable sort), matching the original
    per-label scan.  All boxes and counts come from a single pass over
    the label array (:func:`component_stats`).

    ``labels`` may cover only a window of ``grid`` whose first pixel is
    ``origin`` (row, column): the pixel indices are shifted, not the grid
    origin, so a box has the same bits whatever window it was labeled in.
    """
    present, counts, ymin, ymax, xmin, xmax = component_stats(labels, count)
    r0, c0 = origin
    ymin, ymax, xmin, xmax = ymin + r0, ymax + r0, xmin + c0, xmax + c0
    out: list[tuple[Rect, int]] = []
    for i in range(present.shape[0]):
        rect = Rect(
            grid.x0 + float(xmin[i]) * grid.pitch,
            grid.y0 + float(ymin[i]) * grid.pitch,
            grid.x0 + (float(xmax[i]) + 1.0) * grid.pitch,
            grid.y0 + (float(ymax[i]) + 1.0) * grid.pitch,
        )
        out.append((rect, int(counts[i])))
    out.sort(key=lambda item: -item[1])
    return out
