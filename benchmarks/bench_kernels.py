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
* ``stitch_crop`` — one greedy pass's pricing setup on a seam-band
  restricted ``RefinementState``: the compressed cost integral plus the
  active-pixel mask (``cost_integral`` + ``active_pixels``) vs their
  dense whole-grid references (``dense_cost_integral`` +
  ``dense_active_pixels``), on a long bar whose seam band is a narrow
  strip and on a plus whose crossing seam bands make the crop box the
  whole grid.

Every case records an ``identical`` flag: labels, band sums, and every
cost-integral corner and candidate crop against the reference.  The
script exits 1 when any flag is false; the timings are report-only.
Standalone by design (no pytest-benchmark):

    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --out benchmarks/output/BENCH_kernels.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.fracture.pipeline import ModelBasedFracturer, RefineConfig
from repro.fracture.refine import RefineParams
from repro.fracture.runtime import fracture_tile
from repro.fracture.state import (
    FUSED_BAND_LIMIT,
    RefinementState,
    clamped_band_sums,
)
from repro.fracture.tiling import (
    extract_tile_shapes,
    halo_nm,
    plan_tiles,
    seam_band_masks,
    split_seam_shots,
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

def _polygon_shape(spec: FractureSpec, corners, name: str) -> MaskShape:
    polygon = Polygon([Point(x, y) for x, y in corners])
    return MaskShape.from_polygon(
        polygon, pitch=spec.pitch, margin=spec.grid_margin, name=name
    )


def _stitch_states(spec: FractureSpec) -> dict[str, RefinementState]:
    """The first stitch pass of two tiled layouts.

    Tiles are fractured by the full method and split into seam and
    frozen shots exactly as ``WindowedFracturer`` does.  ``strip``: a
    1200 nm bar in two 600 nm tiles, whose single seam band gives a
    narrow crop box (the 1-D tiling stitch).  ``lattice``: a 600 nm plus
    in 2×2 tiles of 300 nm, whose crossing seam bands make the crop box
    the whole grid (the 2-D tiling stitch).
    """
    bar = _polygon_shape(
        spec, [(0, 0), (1200, 0), (1200, 60), (0, 60)], "long-bar"
    )
    plus = _polygon_shape(spec, [
        (270, 0), (330, 0), (330, 270), (600, 270), (600, 330), (330, 330),
        (330, 600), (270, 600), (270, 330), (0, 330), (0, 270), (270, 270),
    ], "plus")
    inner = ModelBasedFracturer(
        config=RefineConfig(params=RefineParams(nmax=120, nh=3))
    )
    states = {}
    for label, shape, tile_nm in (("strip", bar, 600.0), ("lattice", plus, 300.0)):
        plan = plan_tiles(shape, spec, tile_nm)
        collected = []
        for tile in plan.tiles:
            subs = extract_tile_shapes(shape, tile, pad_nm=halo_nm(spec))
            collected.extend(fracture_tile(inner, tile, subs, spec))
        mask, movable_nm = seam_band_masks(shape, plan, spec)
        movable, frozen = split_seam_shots(collected, plan, movable_nm)
        states[label] = RefinementState(
            shape, spec, movable, background=frozen, active_mask=mask
        )
    return states


def _tables_identical(state: RefinementState) -> bool:
    """Every dense corner and every gathered candidate's crop agree."""
    table = state.cost_integral()
    dense = state.dense_cost_integral()
    expanded = table.table[np.ix_(table.rows, table.cols)]
    if expanded.tobytes() != dense.table.tobytes():
        return False
    candidates = state.gather_edge_moves(table)
    active = state.active_pixels()
    reference = state.dense_active_pixels()
    return [c[:4] for c in candidates] == [
        c[:4] for c in state.gather_edge_moves(dense)
    ] and all(
        active.crop(*c.window) == reference.crop(*c.window) for c in candidates
    )


def bench_stitch_crop(repeats: int, iters: int = 20) -> list[dict]:
    results = []
    for label, state in _stitch_states(FractureSpec()).items():

        def setup() -> None:
            for _ in range(iters):
                state.cost_integral()
                state.active_pixels()

        def dense_setup() -> None:
            for _ in range(iters):
                state.dense_cost_integral()
                state.dense_active_pixels()

        setup()  # warm-up
        compressed = _best_of(setup, repeats)
        dense = _best_of(dense_setup, repeats)
        r0, r1, c0, c1 = state._box
        table = state.cost_integral().table
        grid_px = int(state.active_mask.size)
        bbox_px = (r1 - r0) * (c1 - c0)
        entry = {
            "layout": label,
            "grid_px": grid_px,
            "seam_px": int(np.count_nonzero(state.active_mask)),
            "bbox_px": bbox_px,
            "bbox_fraction": bbox_px / grid_px,
            "table_px": int(table.size),
            "table_fraction": table.size / bbox_px,
            "candidates": len(state.gather_edge_moves(state.cost_integral())),
            "iterations": iters,
            "dense_ms": dense * 1e3,
            "compressed_ms": compressed * 1e3,
            "speedup": dense / compressed,
            "identical": _tables_identical(state),
        }
        results.append(entry)
        print(
            f"stitch crop {label}: {entry['speedup']:.2f}x pricing setup "
            f"({entry['dense_ms']:.1f}ms -> {entry['compressed_ms']:.1f}ms "
            f"for {iters} passes; bbox {entry['bbox_fraction']:.1%} of "
            f"{grid_px}px grid, table {entry['table_fraction']:.2%} of "
            f"bbox; identical={entry['identical']})"
        )
    return results


def run(repeats: int) -> dict:
    labeling = bench_labeling([128, 256, 512], repeats)
    pricing = bench_pricing(repeats)
    stitch = bench_stitch_crop(repeats)
    at512 = [r for r in labeling if r["size"] == 512]
    aggregate = {
        "labeling_min_speedup_512": min(r["speedup"] for r in at512),
        "labeling_all_identical": all(r["identical"] for r in labeling),
        "pricing_all_identical": all(r["identical"] for r in pricing),
        "stitch_crop_all_identical": all(r["identical"] for r in stitch),
        "fused_thin_band_speedup": next(
            r["fused_speedup"] for r in pricing if r["case"] == "thin_band"
        ),
        "stitch_crop_min_speedup": min(r["speedup"] for r in stitch),
    }
    print(
        f"aggregate: labeling >= {aggregate['labeling_min_speedup_512']:.2f}x "
        f"at 512², fused thin-band {aggregate['fused_thin_band_speedup']:.2f}x, "
        f"stitch crop >= {aggregate['stitch_crop_min_speedup']:.2f}x"
    )
    return {
        "benchmark": "kernels",
        "baseline": "scalar references (pure-Python union-find, per-candidate "
                    "loop scoring, dense whole-grid pricing tables)",
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
    flags = {k: v for k, v in payload["aggregate"].items() if "identical" in k}
    if not all(flags.values()):
        print(f"identity check failed: {flags}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
