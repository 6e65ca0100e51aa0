"""Hierarchy-aware fracturing benchmark: fracture unique cells once,
instantiate every placement, and re-run warm from the on-disk cache.

Builds a deterministic arrayed layout — an AREF lattice of a 3-polygon
unit cell (bar, contact, L) plus a rotated and a mirrored SREF so the
orientation-specific template path is exercised — and measures three
flows over the same placements:

* **flattened** — every placed polygon fractured from scratch (the
  pre-PR-8 reference path);
* **cold hierarchy** — unique canonical geometry fractured once,
  repeats instantiated by exact shot translation, templates persisted
  to an on-disk :class:`~repro.fracture.cache.FractureCache`;
* **warm hierarchy** — a second run against the same disk store: every
  placement served from cache, zero fresh fractures.

Recorded per layout: wall time, total shots, failing pixels, unique
geometries vs instances, fingerprints computed per flow (one per
unique (cell, polygon, orientation), not one per placement), cache hit
rates, bit-identity of the three shot lists, and the warm-vs-cold /
vs-flattened speedups (the acceptance bar: warm ≥ 5× faster than the
cold run).

The default method is ``partition``: its fracture is a pure function
of the local geometry, so template replay is bit-identical to the
flattened run and the script gates its exit code on that identity.
The model-based ``ours`` method evaluates the aerial-image model in
absolute mask coordinates, so two placements of the same cell can
legitimately differ in the last ulp (and a greedy near-tie can flip a
shot's extension axis); with ``--method ours`` identity is still
*recorded* but not gated.

Standalone by design (no pytest-benchmark).  CI's ``hierarchy-cache``
job gates on its exit code and asserts on the JSON (identity, hit
rates, fingerprints, warm speedup); only its diff against the
committed baseline is report-only.

    PYTHONPATH=src python benchmarks/bench_hierarchy.py \
        --out benchmarks/output/BENCH_hierarchy.json
    PYTHONPATH=src python benchmarks/bench_hierarchy.py --reduced ...
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import tempfile
import time
from pathlib import Path

from repro.fracture.cache import FractureCache
from repro.geometry.polygon import Polygon
from repro.mask.constraints import FractureSpec
from repro.mask.gds import GdsCell, GdsRef, Layout, TARGET_LAYER
from repro.mask.hierarchy import fracture_layout
from repro.methods import make_fracturer

SPEC = FractureSpec()


def unit_cell() -> GdsCell:
    """Three-polygon unit cell: a bar, a contact, and an L."""
    return GdsCell("UNIT", polygons=[
        (TARGET_LAYER, Polygon([(0, 0), (120, 0), (120, 40), (0, 40)])),
        (TARGET_LAYER, Polygon([(160, 0), (200, 0), (200, 40), (160, 40)])),
        (TARGET_LAYER, Polygon(
            [(0, 60), (80, 60), (80, 100), (40, 100), (40, 140), (0, 140)]
        )),
    ])


def arrayed_layout(cols: int, rows: int) -> Layout:
    """``cols×rows`` AREF of the unit cell + one rotated, one mirrored SREF."""
    pitch = 260.0
    top = GdsCell("TOP", refs=[
        GdsRef.array("UNIT", origin=(0.0, 0.0), cols=cols, rows=rows,
                     col_pitch=pitch, row_pitch=pitch),
        GdsRef("UNIT", origin=(cols * pitch + 200.0, 0.0), rotation=90),
        GdsRef("UNIT", origin=(cols * pitch + 200.0, rows * pitch),
               mirror_x=True),
    ])
    return Layout(cells={"UNIT": unit_cell(), "TOP": top}, top="TOP")


def run_flow(layout, method, hierarchy, cache=None):
    fracturer = make_fracturer(method)
    start = time.perf_counter()
    report = fracture_layout(
        layout, fracturer, SPEC, cache=cache, hierarchy=hierarchy
    )
    wall = time.perf_counter() - start
    return report, wall


def shot_key(shots):
    return [(s.xbl, s.ybl, s.xtr, s.ytr) for s in shots]


def bench_layout(name, layout, method, store: Path) -> dict:
    flat_report, flat_wall = run_flow(layout, method, hierarchy=False)
    flat_shots = shot_key(flat_report.shots)

    cold_cache = FractureCache(max_entries=4096, persist_dir=store)
    cold_report, cold_wall = run_flow(
        layout, method, hierarchy=True, cache=cold_cache
    )
    warm_cache = FractureCache(max_entries=4096, persist_dir=store)
    warm_report, warm_wall = run_flow(
        layout, method, hierarchy=True, cache=warm_cache
    )

    stats = cold_report.stats
    entry = {
        "layout": name,
        "cells": stats["cells"],
        "cell_instances": stats["cell_instances"],
        "polygon_instances": stats["polygon_instances"],
        "unique_geometries": stats["unique_geometries"],
        "flattened": {
            "wall_s": flat_wall,
            "shots": flat_report.shot_count,
            "fingerprints": flat_report.stats["fingerprints"],
            "failing": sum(
                r.report.total_failing for r in flat_report.results
            ),
        },
        "cold": {
            "wall_s": cold_wall,
            "shots": cold_report.shot_count,
            "fingerprints": stats["fingerprints"],
            "template_fractures": stats["template_fractures"],
            "cache_hits": stats["cache_hits"],
            "hit_rate": stats["hit_rate"],
            "identical_to_flattened": shot_key(cold_report.shots) == flat_shots,
            "speedup_vs_flattened": flat_wall / cold_wall,
        },
        "warm": {
            "wall_s": warm_wall,
            "shots": warm_report.shot_count,
            "fingerprints": warm_report.stats["fingerprints"],
            "template_fractures": warm_report.stats["template_fractures"],
            "hit_rate": warm_report.stats["hit_rate"],
            "identical_to_flattened": shot_key(warm_report.shots) == flat_shots,
            "speedup_vs_cold": cold_wall / warm_wall,
            "speedup_vs_flattened": flat_wall / warm_wall,
        },
    }
    print(
        f"{name}: {stats['polygon_instances']} instances / "
        f"{stats['unique_geometries']} unique — flat {flat_wall:.2f}s, "
        f"cold {cold_wall:.2f}s ({stats['hit_rate']:.0%} hits), "
        f"warm {warm_wall:.3f}s "
        f"({entry['warm']['speedup_vs_cold']:.1f}x vs cold)"
    )
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="benchmarks/output/BENCH_hierarchy.json")
    parser.add_argument(
        "--method", default="partition",
        help="fracture method; identity is gated only for 'partition' "
        "(translation-equivariant — see module docstring)",
    )
    parser.add_argument(
        "--reduced", action="store_true",
        help="CI mode: smaller arrays, same structure",
    )
    args = parser.parse_args()

    # 5×5 is the smallest grid whose *cold* run already clears the CI
    # gate of a >=90% instance hit rate (75 hits / 81 instances).
    grids = [(5, 5)] if args.reduced else [(5, 5), (8, 8)]
    layouts = []
    for cols, rows in grids:
        store = Path(tempfile.mkdtemp(prefix="bench-hier-cache-"))
        try:
            layouts.append(
                bench_layout(
                    f"array-{cols}x{rows}",
                    arrayed_layout(cols, rows),
                    args.method,
                    store,
                )
            )
        finally:
            shutil.rmtree(store, ignore_errors=True)

    payload = {
        "benchmark": "hierarchy_cache",
        "method": args.method,
        "reduced": args.reduced,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "layouts": layouts,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1))
    print(f"wrote {out}")

    identical = all(
        entry["cold"]["identical_to_flattened"]
        and entry["warm"]["identical_to_flattened"]
        for entry in layouts
    )
    if not identical and args.method == "partition":
        print("FAIL: hierarchical shot list differs from flattened run")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
