"""Hierarchy-aware fracturing: fracture unique geometry once, place many.

Real mask layouts are deeply hierarchical — a wafer plate is a small
unit cell arrayed thousands of times — yet a flattened flow re-fractures
every placement from scratch.  This module walks the
:class:`~repro.mask.gds.Layout` cell graph instead:

1. every placed target polygon (placement order identical to
   :meth:`Layout.flatten`) is canonicalized —
   translation-normalized, orientation-canonical vertex loop
   (:func:`repro.geometry.polygon.canonical_form`) — to a content hash;
2. the first placement of each unique geometry is fractured *in place*
   (so it is literally the flattened computation) and stored in a
   :class:`~repro.fracture.cache.FractureCache` keyed by the canonical
   hash, remembering the frame it was fractured in;
3. every later placement is instantiated by translating the stored
   template's shots by the (exact) frame difference.

Rotated or mirrored placements canonicalize to different vertex loops
and therefore get their own template — exactness beats cross-orientation
reuse, since fracturers are only translation-equivariant bit-for-bit
(integer-nanometre GDSII coordinates make every translation exact; see
:mod:`repro.geometry.transform`).  The result: the total shot list is
bit-identical to the flattened run, with unique-geometry fractures ≤
distinct cell geometries, and repeat placements cost a hash plus a
translation.

``hierarchy=False`` runs the same loop with no cache — the flattened
reference path with identical placement ordering, used by tests, the CI
bit-identity gate and ``benchmarks/bench_hierarchy.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.fracture.base import FractureResult, Fracturer
from repro.fracture.cache import (
    FractureCache,
    fingerprint_polygon,
    result_from_payload,
    result_to_payload,
)
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec
from repro.mask.gds import TARGET_LAYER, Layout
from repro.mask.shape import MaskShape
from repro.obs import get_logger, get_recorder

__all__ = ["HierarchyReport", "fracture_layout", "placed_polygons"]

logger = get_logger(__name__)


@dataclass(slots=True)
class HierarchyReport:
    """Outcome of fracturing a layout, hierarchical or flattened.

    ``results`` holds one :class:`FractureResult` per placed target
    polygon, in placement order; ``stats`` the cell/instance/cache
    accounting that also lands in manifests and telemetry.
    """

    results: list[FractureResult] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def shots(self) -> list[Rect]:
        """Total shot list, placement order (flatten-comparable)."""
        return [shot for result in self.results for shot in result.shots]

    @property
    def shot_count(self) -> int:
        return sum(r.shot_count for r in self.results)

    @property
    def total_runtime_s(self) -> float:
        return sum(r.runtime_s for r in self.results)

    @property
    def feasible_count(self) -> int:
        return sum(1 for r in self.results if r.feasible)

    @property
    def all_feasible(self) -> bool:
        return self.feasible_count == len(self.results)

    def summary(self) -> str:
        s = self.stats
        return (
            f"{s.get('mode', '?')}: {s.get('polygon_instances', 0)} placed "
            f"polygons ({s.get('unique_geometries', 0)} unique) → "
            f"{self.shot_count} shots, {s.get('template_fractures', 0)} "
            f"fractured fresh, {s.get('cache_hits', 0)} instantiated from "
            f"cache, {self.total_runtime_s:.2f}s"
        )


def placed_polygons(layout: Layout) -> list[tuple[str, Polygon]]:
    """Target-layer polygons of every placement, deterministic order.

    The order is :meth:`Layout.placements` order with each cell's
    polygons in declaration order — exactly the polygon order of
    :meth:`Layout.flatten` restricted to the target layer — so shot
    lists produced by walking this list align element for element with
    the flattened run.
    """
    placed: list[tuple[str, Polygon]] = []
    for path, cell_name, transform in layout.placements():
        for index, (layer, polygon) in enumerate(
            layout.cells[cell_name].polygons
        ):
            if layer != TARGET_LAYER:
                continue
            if not transform.is_identity:
                polygon = transform.apply_polygon(polygon)
            placed.append((f"{path}#p{index}", polygon))
    return placed


def fracture_layout(
    layout: Layout,
    fracturer: Fracturer,
    spec: FractureSpec,
    cache: FractureCache | None = None,
    hierarchy: bool = True,
    verbose: bool = False,
) -> HierarchyReport:
    """Fracture every placed target polygon of ``layout``.

    With ``hierarchy=True`` (default), unique geometry is fractured once
    and repeat placements are instantiated from ``cache`` (an ephemeral
    in-memory cache is created when none is given — pass a persistent
    one to share templates across runs).  With ``hierarchy=False`` the
    same placements are fractured fresh one by one — the flattened
    reference path.

    Either way the concatenated shot list is bit-identical: a fresh
    fracture *is* the flattened computation for that placement, and an
    instantiated one differs from it by an exact translation round-trip.
    """
    obs = get_recorder()
    placed = placed_polygons(layout)
    report = HierarchyReport()
    run_cache: FractureCache | None = None
    if hierarchy:
        run_cache = cache if cache is not None else FractureCache(
            max_entries=max(4096, len(placed))
        )
    method = fracturer.cache_method or fracturer.name
    window_nm = fracturer.cache_window_nm

    # Drive the cache at this level: detach the fracturer's own hook so
    # a shared cache is not consulted twice per placement.
    fracturer_cache = fracturer.cache
    fracturer.cache = None
    unique: set[str] = set()
    template_fractures = 0
    cache_hits = 0
    try:
        with obs.span(
            "hierarchy.fracture",
            mode="hierarchy" if hierarchy else "flatten",
            cells=len(layout.cells),
            instances=len(placed),
        ):
            for name, polygon in placed:
                obs.incr("hierarchy.instances")
                start = time.perf_counter()
                fingerprint, offset = fingerprint_polygon(
                    polygon, spec, method, window_nm
                )
                unique.add(fingerprint)
                payload = (
                    run_cache.get(fingerprint)
                    if run_cache is not None
                    else None
                )
                if payload is not None:
                    result = result_from_payload(
                        payload,
                        shape_name=name,
                        frame=offset,
                        lookup_s=time.perf_counter() - start,
                    )
                    cache_hits += 1
                    obs.incr("cache.hierarchy.hits")
                else:
                    shape = MaskShape.from_polygon(
                        polygon,
                        pitch=spec.pitch,
                        margin=spec.grid_margin,
                        name=name,
                    )
                    result = fracturer.fracture(shape, spec)
                    template_fractures += 1
                    obs.incr("hierarchy.template_fractures")
                    if run_cache is not None:
                        run_cache.put(
                            fingerprint,
                            result_to_payload(result, frame=offset),
                        )
                if verbose:
                    logger.info("%s", result.summary())
                report.results.append(result)
    finally:
        fracturer.cache = fracturer_cache

    report.stats = {
        "mode": "hierarchy" if hierarchy else "flatten",
        "cells": len(layout.cells),
        "cell_instances": len(layout.placements()),
        "polygon_instances": len(placed),
        "unique_geometries": len(unique),
        "template_fractures": template_fractures,
        "cache_hits": cache_hits,
        "hit_rate": cache_hits / len(placed) if placed else 0.0,
        "method": method,
    }
    if run_cache is not None:
        report.stats["cache"] = run_cache.stats()
    obs.manifest_section("hierarchy", report.stats)
    return report
