"""Connected-component labeling on boolean pixel masks.

The AddShot refinement move (paper §4.3) merges neighbouring failing
pixels into polygons with a boolean OR and takes the bounding box of each
component.  Labeling is 4-connected with components numbered in
raster-scan order of their first pixel — tile extraction, AddShot, and
the GSC baseline all consume that ordering, so it is part of the
contract, not an implementation detail.

:func:`label_components` is the vectorized run-length/row-merge labeler
and :func:`component_stats` the one-pass per-component bounding-box
scan.  :func:`label_components_scalar` (per-pixel two-pass union–find)
and :func:`component_stats_scalar` (per-label ``np.nonzero`` scan) are
the original implementations, kept as the references both are gated
bit-identical against.
"""

from __future__ import annotations

import numpy as np

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


def _merge_run_graph(
    n_runs: int, edges_a: np.ndarray, edges_b: np.ndarray
) -> np.ndarray:
    """Component id per run for the undirected run-overlap graph."""
    # Imported on first call, not at module import: the scipy.sparse
    # import is a measurable share of start-up for runs that never label.
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    graph = coo_matrix(
        (np.ones(edges_a.size, dtype=np.int8), (edges_a, edges_b)),
        shape=(n_runs, n_runs),
    )
    _, comp = connected_components(graph, directed=False)
    return comp


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected component labeling by run-length row merging.

    Returns ``(labels, count)`` where ``labels`` holds 0 for background and
    1..count for components, numbered in raster-scan order of their first
    pixel — exactly (labels AND numbering) what
    :func:`label_components_scalar` produces.  Runs are emitted in raster
    order, so the smallest run id in a component sits at the component's
    raster-first pixel; the final remap sorts components by that id.
    """
    mask = np.ascontiguousarray(mask, dtype=bool)
    ny, nx = mask.shape
    labels = np.zeros((ny, nx), dtype=np.int32)
    if mask.size == 0 or not mask.any():
        return labels, 0
    get_recorder().incr("kernels.label_calls")
    # Run-length encode every row at once.  With a False guard column
    # on each side, +1 transitions mark run starts and -1 transitions
    # mark (exclusive) run ends; np.nonzero yields both in raster order,
    # so starts[i]/ends[i] pair up globally.
    padded = np.zeros((ny, nx + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    step = np.diff(padded, axis=1)
    run_rows, starts = np.nonzero(step == 1)
    ends = np.nonzero(step == -1)[1]
    n_runs = run_rows.size
    # 4-connectivity: a run in row r joins every run in row r-1 whose
    # column interval overlaps.  Runs within a row are disjoint and
    # sorted, so with row-composite keys the overlap set is one
    # contiguous slice found by two searchsorted calls over all row
    # pairs at once.
    span = nx + 2
    key_start = run_rows.astype(np.int64) * span + starts
    key_end = run_rows.astype(np.int64) * span + ends
    lo = np.searchsorted(key_end, key_start - span, side="right")
    hi = np.searchsorted(key_start, key_end - span, side="left")
    degree = hi - lo
    cur = np.repeat(np.arange(n_runs), degree)
    prev = np.arange(degree.sum()) - np.repeat(
        np.cumsum(degree) - degree, degree
    ) + np.repeat(lo, degree)
    comp = _merge_run_graph(n_runs, cur, prev)
    # Canonical numbering: components ordered by their smallest run id
    # = raster order of each component's first pixel.
    first_run = np.full(int(comp.max()) + 1, n_runs, dtype=np.int64)
    np.minimum.at(first_run, comp, np.arange(n_runs))
    remap = np.empty(first_run.size, dtype=np.int32)
    remap[np.argsort(first_run, kind="stable")] = np.arange(
        1, first_run.size + 1, dtype=np.int32
    )
    run_label = remap[comp]
    # Paint: runs cover exactly the True pixels in raster order.
    labels[mask] = np.repeat(run_label, ends - starts)
    return labels, int(first_run.size)


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
    """Pixel count and bounding box of every label, in one pass.

    Returns ``(present, counts, ymin, ymax, xmin, xmax)`` — parallel
    arrays over the labels that actually occur, in ascending label
    order; absent labels in ``1..count`` are simply not listed.  Equal
    to :func:`component_stats_scalar` array for array.
    """
    ys, xs = np.nonzero(labels)
    empty = np.empty(0, dtype=np.int64)
    if ys.size == 0:
        return (empty,) * 6
    lab = labels[ys, xs]
    order = np.argsort(lab, kind="stable")
    lab_sorted = lab[order]
    seg_starts = np.flatnonzero(np.diff(lab_sorted, prepend=lab_sorted[0] - 1))
    present = lab_sorted[seg_starts].astype(np.int64)
    counts = np.diff(np.append(seg_starts, lab_sorted.size))
    ys_g, xs_g = ys[order], xs[order]
    # Stable sort keeps raster order inside each label segment, so rows
    # are non-decreasing per segment: min/max are the segment ends.
    seg_ends = np.append(seg_starts[1:], lab_sorted.size) - 1
    ymin, ymax = ys_g[seg_starts], ys_g[seg_ends]
    xmin = np.minimum.reduceat(xs_g, seg_starts)
    xmax = np.maximum.reduceat(xs_g, seg_starts)
    return present, counts, ymin, ymax, xmin, xmax


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
    labels: np.ndarray, count: int, grid: PixelGrid
) -> list[tuple[Rect, int]]:
    """Bounding box and pixel count of every labeled component.

    Boxes are in mask-plane coordinates and cover the full pixel cells of
    the component.  Sorted by descending pixel count so AddShot can pick
    the component covering the most failing pixels first; ties keep
    ascending label order (Python's stable sort), matching the original
    per-label scan.  All boxes and counts come from a single pass over
    the label array (:func:`component_stats`).
    """
    present, counts, ymin, ymax, xmin, xmax = component_stats(labels, count)
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
