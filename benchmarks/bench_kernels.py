"""Kernel benchmark: the vectorized hot spots vs their scalar references.

Three sections, one per hot-spot kernel:

* ``labeling`` — connected-component labeling on random / structured
  masks at growing sizes, vectorized run-length row-merge
  (``label_components``) vs the pure Python union–find reference
  (``label_components_scalar``; the contract requires ≥3x at 512²);
* ``pricing`` — the fused gather/scatter ``clamped_band_sums`` kernel
  vs per-candidate in-place scoring on synthetic contour-band batches,
  at a thin band size (fused regime) and a bulky one (loop regime —
  this is why ``FUSED_BAND_LIMIT`` exists);
* ``stitch_crop`` — per-iteration cost-field work of a seam-band
  restricted ``RefinementState`` with the bbox crop vs the full grid
  (the crop helper patched out), on a long-bar layout whose seam is a
  narrow strip, so the work scales with seam area, not grid area.

Standalone by design (no pytest-benchmark): CI runs it non-gating and
uploads the JSON artifact.

    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --out benchmarks/output/BENCH_kernels.json
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.fracture.graph_color import approximate_fracture
from repro.fracture.state import (
    FUSED_BAND_LIMIT,
    RefinementState,
    clamped_band_sums,
)
from repro.geometry.labeling import label_components, label_components_scalar
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.mask.constraints import FractureSpec
from repro.mask.shape import MaskShape


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- labeling ---------------------------------------------------------------

def _labeling_masks(size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    iy, ix = np.indices((size, size))
    block = max(1, size // 64)
    coarse = rng.random((size // block + 1, size // block + 1)) < 0.5
    return {
        # p=0.5 noise: the adversarial many-component case.
        "random": rng.random((size, size)) < 0.5,
        # Chunky block noise: the realistic fractured-geometry case.
        "blocks": np.repeat(np.repeat(coarse, block, 0), block, 1)[:size, :size],
        # Diagonal stripes: long runs, few merges.
        "stripes": ((iy + ix) // 7) % 2 == 0,
    }


def bench_labeling(sizes: list[int], repeats: int) -> list[dict]:
    rng = np.random.default_rng(20150607)
    results = []
    for size in sizes:
        for kind, mask in _labeling_masks(size, rng).items():
            label_components(mask)  # warm-up (scipy import)
            vec = _best_of(lambda: label_components(mask), repeats)
            scal = _best_of(lambda: label_components_scalar(mask), repeats)
            labels_v, count_v = label_components(mask)
            labels_s, count_s = label_components_scalar(mask)
            entry = {
                "size": size,
                "kind": kind,
                "components": int(count_v),
                "scalar_ms": scal * 1e3,
                "numpy_ms": vec * 1e3,
                "speedup": scal / vec if vec > 0 else None,
                "identical": bool(
                    count_v == count_s and np.array_equal(labels_v, labels_s)
                ),
            }
            results.append(entry)
            print(
                f"labeling {size}x{size} {kind}: {entry['speedup']:.2f}x "
                f"({entry['scalar_ms']:.1f}ms -> {entry['numpy_ms']:.1f}ms, "
                f"{count_v} components, identical={entry['identical']})"
            )
    return results


# -- pricing ----------------------------------------------------------------

def _loop_band_sums(row_vals, col_vals, rows, cols, y0, x0, col_off, sign, base):
    """Per-candidate in-place scoring — the fallback side of the adaptive
    dispatch in ``RefinementState.price_edge_moves``."""
    out = np.zeros(rows.shape[0], dtype=np.float64)
    r_off = 0
    for i in range(rows.shape[0]):
        h, w = int(rows[i]), int(cols[i])
        rv = row_vals[r_off:r_off + h]
        cv = col_vals[col_off[i]:col_off[i] + w]
        r_off += h
        window = (slice(y0[i], y0[i] + h), slice(x0[i], x0[i] + w))
        patch = rv[:, None] * cv[None, :]
        patch *= sign[window]
        patch += base[window]
        np.maximum(patch, 0.0, out=patch)
        out[i] = patch.sum()
    return out


def bench_pricing(repeats: int) -> list[dict]:
    rng = np.random.default_rng(20150608)
    grid = 512
    sign = rng.choice(np.array([-1.0, 0.0, 1.0]), size=(grid, grid))
    base = rng.normal(scale=0.2, size=(grid, grid))
    results = []
    for label, (h, w, ncand) in {
        "thin_band": (8, 8, 200),       # seam/contour regime: fused wins
        "bulky_window": (40, 40, 200),  # whole-window regime: loop wins
    }.items():
        rows = np.full(ncand, h, dtype=np.int64)
        cols = np.full(ncand, w, dtype=np.int64)
        y0 = rng.integers(0, grid - h, ncand).astype(np.int64)
        x0 = rng.integers(0, grid - w, ncand).astype(np.int64)
        col_off = (np.cumsum(cols) - cols).astype(np.int64)
        row_vals = rng.normal(size=int(rows.sum()))
        col_vals = rng.normal(size=int(cols.sum()))
        args = (row_vals, col_vals, rows, cols, y0, x0, col_off, sign, base)
        clamped_band_sums(*args)  # warm-up
        fused = _best_of(lambda: clamped_band_sums(*args), repeats)
        loop = _best_of(lambda: _loop_band_sums(*args), repeats)
        elems = h * w
        entry = {
            "case": label,
            "candidates": ncand,
            "elements_per_candidate": elems,
            "loop_ms": loop * 1e3,
            "fused_ms": fused * 1e3,
            "fused_speedup": loop / fused if fused > 0 else None,
            "identical": bool(
                np.array_equal(clamped_band_sums(*args), _loop_band_sums(*args))
            ),
            "dispatch": "fused" if elems <= FUSED_BAND_LIMIT else "loop",
        }
        results.append(entry)
        print(
            f"pricing {label} ({elems} el/cand): fused {entry['fused_speedup']:.2f}x "
            f"vs loop ({entry['loop_ms']:.2f}ms -> {entry['fused_ms']:.2f}ms), "
            f"identical={entry['identical']}, "
            f"adaptive dispatch picks: {entry['dispatch']}"
        )
    return results


# -- stitch crop ------------------------------------------------------------

def _long_bar(spec: FractureSpec, length: float = 1200.0, width: float = 60.0):
    polygon = Polygon(
        [Point(0, 0), Point(length, 0), Point(length, width), Point(0, width)]
    )
    return MaskShape.from_polygon(
        polygon, pitch=spec.pitch, margin=spec.grid_margin, name="long-bar"
    )


def bench_stitch_crop(repeats: int, iters: int = 20) -> dict:
    spec = FractureSpec()
    shape = _long_bar(spec)
    shots, _ = approximate_fracture(shape, spec)
    ny, nx = shape.grid.shape
    # A single interior seam band: the 1-D-tiling stitch shape, where
    # the bbox crop pays off (2-D seam lattices cross the whole grid).
    mask = np.zeros((ny, nx), dtype=bool)
    mid = nx // 2
    mask[:, mid - 20:mid + 20] = True

    def field_pass(state: RefinementState) -> None:
        for _ in range(iters):
            state._refresh_cost_base(None)
            state.cost_integral()
            state.active_integral()

    def best_wall() -> float:
        state = RefinementState(shape, spec, shots, active_mask=mask)
        field_pass(state)  # warm-up
        return _best_of(lambda: field_pass(state), repeats)

    walls = {"numpy": best_wall()}
    # The full-field reference: the same state with the crop patched out.
    with mock.patch("repro.fracture.state._active_crop", return_value=None):
        walls["scalar"] = best_wall()
    grid_px = int(mask.size)
    seam_px = int(np.count_nonzero(mask))
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    bbox_px = int((rows[-1] - rows[0] + 1) * (cols[-1] - cols[0] + 1))
    entry = {
        "grid_px": grid_px,
        "seam_px": seam_px,
        "bbox_px": bbox_px,
        "bbox_fraction": bbox_px / grid_px,
        "iterations": iters,
        "full_ms": walls["scalar"] * 1e3,
        "cropped_ms": walls["numpy"] * 1e3,
        "speedup": walls["scalar"] / walls["numpy"],
    }
    print(
        f"stitch crop: {entry['speedup']:.2f}x per-iteration field work "
        f"({entry['full_ms']:.1f}ms -> {entry['cropped_ms']:.1f}ms for "
        f"{iters} iterations; bbox {bbox_px}px = "
        f"{entry['bbox_fraction']:.1%} of {grid_px}px grid)"
    )
    return entry


def run(repeats: int) -> dict:
    labeling = bench_labeling([128, 256, 512], repeats)
    pricing = bench_pricing(repeats)
    stitch = bench_stitch_crop(repeats)
    at512 = [r for r in labeling if r["size"] == 512]
    aggregate = {
        "labeling_min_speedup_512": min(r["speedup"] for r in at512),
        "labeling_all_identical": all(r["identical"] for r in labeling),
        "pricing_all_identical": all(r["identical"] for r in pricing),
        "fused_thin_band_speedup": next(
            r["fused_speedup"] for r in pricing if r["case"] == "thin_band"
        ),
        "stitch_crop_speedup": stitch["speedup"],
    }
    print(
        f"aggregate: labeling >= {aggregate['labeling_min_speedup_512']:.2f}x "
        f"at 512², fused thin-band {aggregate['fused_thin_band_speedup']:.2f}x, "
        f"stitch crop {aggregate['stitch_crop_speedup']:.2f}x"
    )
    return {
        "benchmark": "kernels",
        "baseline": "scalar references (pure-Python union-find, per-candidate "
                    "loop scoring, full-grid stitch fields)",
        "backend": "numpy",
        "repeats": repeats,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "labeling": labeling,
        "pricing": pricing,
        "stitch_crop": stitch,
        "aggregate": aggregate,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing runs per case; best wall time wins",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("benchmarks/output/BENCH_kernels.json")
    )
    args = parser.parse_args()
    payload = run(args.repeats)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
