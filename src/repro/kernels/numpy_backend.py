"""Default vectorized kernel backend (NumPy + scipy.sparse run merge).

Everything here is plain ``numpy`` index arithmetic over contiguous
buffers — the layout a GPU or Cython port can take verbatim.  The two
exactness contracts that shape the implementation:

* ``label_components`` must reproduce the raster union–find numbering
  bit-for-bit.  Runs are emitted in raster order, so the smallest run
  id in a component sits at the component's raster-first pixel; the
  final remap sorts components by that id, which is exactly the
  numbering the per-pixel oracle produces.
* ``clamped_band_sums`` must produce per-candidate costs bit-identical
  to scoring each candidate's band alone.  The elementwise pipeline
  (outer product, sign gather, base gather, clamp) runs fused over the
  whole batch, but each candidate's final reduction is a contiguous
  C-order ``.sum()`` so NumPy's pairwise summation blocks match the
  per-candidate oracle exactly.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.backend import KernelBackend
from repro.obs import get_recorder

try:  # scipy is a hard repo dependency (repro.ebeam), but stay graceful
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
except ImportError:  # pragma: no cover - scipy is a hard repo dep
    coo_matrix = None
    connected_components = None


def _merge_run_graph(n_runs: int, edges_a: np.ndarray, edges_b: np.ndarray) -> np.ndarray:
    """Component id per run for the undirected run-overlap graph."""
    if coo_matrix is None:  # pragma: no cover
        return _merge_run_graph_python(n_runs, edges_a, edges_b)
    graph = coo_matrix(
        (np.ones(edges_a.size, dtype=np.int8), (edges_a, edges_b)),
        shape=(n_runs, n_runs),
    )
    _, comp = connected_components(graph, directed=False)
    return comp


def _merge_run_graph_python(
    n_runs: int, edges_a: np.ndarray, edges_b: np.ndarray
) -> np.ndarray:  # pragma: no cover - exercised only without scipy
    parent = list(range(n_runs))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(edges_a.tolist(), edges_b.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(i) for i in range(n_runs)], dtype=np.intp)


class NumpyBackend(KernelBackend):
    name = "numpy"
    fused_pricing = True
    crop_stitch_field = True

    def label_components(self, mask: np.ndarray) -> tuple[np.ndarray, int]:
        mask = np.ascontiguousarray(mask, dtype=bool)
        ny, nx = mask.shape
        labels = np.zeros((ny, nx), dtype=np.int32)
        if mask.size == 0 or not mask.any():
            return labels, 0
        get_recorder().incr("kernels.label_calls")
        # Run-length encode every row at once.  With a False guard
        # column on each side, +1 transitions mark run starts and -1
        # transitions mark (exclusive) run ends; np.nonzero yields both
        # in raster order, so starts[i]/ends[i] pair up globally.
        padded = np.zeros((ny, nx + 2), dtype=np.int8)
        padded[:, 1:-1] = mask
        step = np.diff(padded, axis=1)
        run_rows, starts = np.nonzero(step == 1)
        ends = np.nonzero(step == -1)[1]
        n_runs = run_rows.size
        # 4-connectivity: a run in row r joins every run in row r-1
        # whose column interval overlaps.  Runs within a row are
        # disjoint and sorted, so with row-composite keys the overlap
        # set is one contiguous slice found by two searchsorted calls
        # over all row pairs at once.
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
        # Canonical numbering: components ordered by their smallest run
        # id = raster order of each component's first pixel, matching
        # the per-pixel union–find oracle exactly.
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

    def component_stats(
        self, labels: np.ndarray, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        ys, xs = np.nonzero(labels)
        empty = np.empty(0, dtype=np.int64)
        if ys.size == 0:
            return (empty,) * 6
        lab = labels[ys, xs]
        order = np.argsort(lab, kind="stable")
        lab_sorted = lab[order]
        seg_starts = np.flatnonzero(
            np.diff(lab_sorted, prepend=lab_sorted[0] - 1)
        )
        present = lab_sorted[seg_starts].astype(np.int64)
        counts = np.diff(np.append(seg_starts, lab_sorted.size))
        ys_g, xs_g = ys[order], xs[order]
        # Stable sort keeps raster order inside each label segment, so
        # rows are non-decreasing per segment: min/max are the ends.
        seg_ends = np.append(seg_starts[1:], lab_sorted.size) - 1
        ymin, ymax = ys_g[seg_starts], ys_g[seg_ends]
        xmin = np.minimum.reduceat(xs_g, seg_starts)
        xmax = np.maximum.reduceat(xs_g, seg_starts)
        return present, counts, ymin, ymax, xmin, xmax

    def clamped_band_sums(
        self,
        row_vals: np.ndarray,
        col_vals: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        y0: np.ndarray,
        x0: np.ndarray,
        col_off: np.ndarray,
        sign: np.ndarray,
        base: np.ndarray,
    ) -> np.ndarray:
        n_cand = rows.shape[0]
        out = np.zeros(n_cand, dtype=np.float64)
        if n_cand == 0 or row_vals.size == 0:
            return out
        nx = sign.shape[1]
        # One block per (candidate, row); blocks are candidate-major so
        # block b's row factor is simply row_vals[b].
        block_len = np.repeat(cols, rows)
        row_in_cand = np.arange(row_vals.size) - np.repeat(
            np.cumsum(rows) - rows, rows
        )
        block_flat0 = (np.repeat(y0, rows) + row_in_cand) * nx + np.repeat(x0, rows)
        block_col0 = np.repeat(col_off, rows)
        # Per-element offsets within each block via a segmented arange.
        total = int(block_len.sum())
        within = np.arange(total) - np.repeat(
            np.cumsum(block_len) - block_len, block_len
        )
        flat_idx = np.repeat(block_flat0, block_len) + within
        col_idx = np.repeat(block_col0, block_len) + within
        # Fused Eq. 5: patch = row⊗col, then sign-gather, base-gather,
        # clamp — identical elementwise sequence to the per-candidate
        # loop, over one contiguous buffer.
        vals = np.repeat(row_vals, block_len)
        vals *= col_vals[col_idx]
        vals *= sign.ravel()[flat_idx]
        vals += base.ravel()[flat_idx]
        np.maximum(vals, 0.0, out=vals)
        # Per-candidate pairwise sums over contiguous C-order slices:
        # bit-identical to summing each candidate's (rows, cols) patch.
        counts = rows * cols
        seg = np.cumsum(counts) - counts
        for i in range(n_cand):
            out[i] = vals[seg[i] : seg[i] + counts[i]].sum()
        obs = get_recorder()
        obs.incr("kernels.fused_batches")
        obs.incr("kernels.fused_candidates", n_cand)
        return out

    def describe(self) -> dict[str, str]:
        return {
            "labeling": "run_length_row_merge",
            "pricing": "fused_gather_scatter",
            "stitch_field": "bbox_cropped",
        }
