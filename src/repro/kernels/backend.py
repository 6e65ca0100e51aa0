"""Array-backend contract for the vectorized hot-spot kernels.

A :class:`KernelBackend` bundles the three kernels the profiles from the
pricing/tiling PRs identified as the remaining wall time, behind one
seam so alternative array stacks (a GPU array library, a Cython build)
can slot in without touching call sites:

``label_components``
    Connected-component labeling of a boolean mask.  The contract is
    *exact*: labels AND numbering must match the pure-Python raster
    union–find oracle (components numbered in raster-scan order of
    their first pixel) because tile extraction, AddShot, and the GSC
    baseline all consume the ordering.

``component_stats``
    Per-component bounding boxes + pixel counts from a label array, in
    one pass.

``clamped_band_sums``
    The signed-clamp Eq. 5 scoring of a whole batch of candidate edge
    moves — the fused gather/scatter replacement for the per-candidate
    Python loop of the batched pricing engine.  Per-candidate sums must
    use NumPy's pairwise reduction over the candidate's contour band in
    C order so results stay bit-identical to the scalar oracle.

Capability flags (``fused_pricing``, ``crop_stitch_field``) let a
backend opt out of a kernel; call sites then fall back to the scalar
path, which doubles as the oracle in equivalence tests.
"""

from __future__ import annotations

from typing import Any

import numpy as np


class KernelBackend:
    """Base class: capability flags + the three kernel entry points."""

    #: Registry name; subclasses override.
    name = "base"
    #: When True, ``RefinementState.price_edge_moves`` routes the batch
    #: through :meth:`clamped_band_sums` instead of the Python loop.
    fused_pricing = False
    #: When True, a region-restricted ``RefinementState`` crops its
    #: per-iteration cost/active fields to the active-mask bounding box.
    crop_stitch_field = False
    #: Mean cropped band size (pixels per candidate) up to which the
    #: fused gather/scatter kernel beats in-place slice scoring; batches
    #: with bulkier bands are scored per candidate.
    fused_band_limit: int = 512

    def label_components(self, mask: np.ndarray) -> tuple[np.ndarray, int]:
        raise NotImplementedError

    def component_stats(
        self, labels: np.ndarray, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Stats for the labels present in ``labels``.

        Returns ``(present, counts, ymin, ymax, xmin, xmax)`` — parallel
        arrays over the labels that actually occur (ascending label
        order); absent labels in ``1..count`` are simply not listed.
        """
        raise NotImplementedError

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
        """Batch Eq. 5 clamped scoring of separable contour bands.

        Candidate ``i`` covers the window ``rows[i] × cols[i]`` anchored
        at pixel ``(y0[i], x0[i])``; its patch is the outer product of a
        per-row factor slice (``rows[i]`` entries of ``row_vals``, laid
        out candidate-major) and a per-column factor slice (``cols[i]``
        entries of ``col_vals`` starting at ``col_off[i]``).  Returns
        ``sum(max(sign*patch + base, 0))`` per candidate, bit-identical
        to scoring each patch alone.
        """
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        """Kernel-variant record for manifests and telemetry."""
        return {
            "labeling": "none",
            "pricing": "fused" if self.fused_pricing else "loop",
            "stitch_field": "cropped" if self.crop_stitch_field else "full",
        }
