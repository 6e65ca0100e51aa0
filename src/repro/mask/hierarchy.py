"""Hierarchy-aware fracturing: fracture unique geometry once, place many.

Real mask layouts are deeply hierarchical — a wafer plate is a small
unit cell arrayed thousands of times — yet a flattened flow re-fractures
every placement from scratch.  This module walks the
:class:`~repro.mask.gds.Layout` cell graph instead:

1. each (cell, polygon, orientation) of the walk is canonicalized once —
   translation-normalized, orientation-canonical vertex loop
   (:func:`repro.geometry.polygon.canonical_form`) — to a content hash
   and a frame; a placement R·P + t of that polygon reuses the hash with
   frame = frame(R·P) + t, which is exact for whole-number coordinates
   (every placement outside that premise is canonicalized on its own);
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
:mod:`repro.geometry.transform`).  The result: unique-geometry fractures
≤ distinct cell geometries, a placed polygon is built only to be
fractured fresh, and a repeat placement costs a dict lookup, a cache
get and a shot translation.

``hierarchy=False`` runs the same loop with no cache — the flattened
reference path with identical placement ordering, which the tests and
the ``--flatten`` CLI flag use as the bit-identity reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.fracture.base import FractureResult, Fracturer
from repro.fracture.cache import (
    FractureCache,
    fingerprint_polygon,
    result_from_payload,
    result_to_payload,
)
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.geometry.transform import Transform
from repro.mask.constraints import FractureSpec
from repro.mask.gds import TARGET_LAYER, Layout
from repro.mask.shape import MaskShape
from repro.obs import get_recorder

__all__ = ["HierarchyReport", "fracture_layout", "placed_polygons"]


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


def _walk(
    layout: Layout, visits: list[tuple[str, str, Transform]]
) -> Iterator[tuple[str, str, int, Polygon, Transform]]:
    """Every placed target polygon of ``visits``, unbuilt, in flatten order.

    ``visits`` is :meth:`Layout.placements`.  Yields ``(name, cell,
    index, polygon, transform)``: the cell's own ``index``-th polygon
    placed under ``transform``, each cell's polygons in declaration
    order — exactly the polygon order of :meth:`Layout.flatten`
    restricted to the target layer.
    """
    for path, cell_name, transform in visits:
        for index, (layer, polygon) in enumerate(
            layout.cells[cell_name].polygons
        ):
            if layer == TARGET_LAYER:
                yield f"{path}#p{index}", cell_name, index, polygon, transform


def _place(polygon: Polygon, transform: Transform) -> Polygon:
    if transform.is_identity:
        return polygon
    return transform.apply_polygon(polygon)


def placed_polygons(layout: Layout) -> list[tuple[str, Polygon]]:
    """Target-layer polygons of every placement, deterministic order.

    The walk :func:`fracture_layout` takes, with each polygon built in
    the top frame, so shot lists produced by walking this list align
    element for element with the flattened run.
    """
    return [
        (name, _place(polygon, transform))
        for name, _cell, _index, polygon, transform in _walk(
            layout, layout.placements()
        )
    ]


@dataclass(slots=True)
class _Oriented:
    """Fingerprint and frame of one cell polygon under one orientation.

    A placement R·P + t reuses them, with frame ``frame + t``, when both
    components of t are whole numbers no larger than ``reach`` in
    magnitude.  ``fingerprint`` is computed at the first such placement.
    """

    reach: float
    fingerprint: str | None = None
    frame: tuple[float, float] = (0.0, 0.0)


def _reach(polygon: Polygon) -> float:
    """Largest translation under which canonicalizing stays exact.

    Translated by at most ``reach`` along each axis, a whole-number
    polygon's coordinates stay integers of magnitude B ≤ 2^26 with
    B · perimeter ≤ 2^53: every shoelace product (≤ B²) and partial sum
    (≤ B · L1 perimeter) of the winding test is an exact integer, so
    the placed copy winds, and canonicalizes, exactly as R·P does.  A
    fractional vertex gives −1: never exact.
    """
    coords = [c for p in polygon.vertices for c in (p.x, p.y)]
    if not all(float(c).is_integer() for c in coords):
        return -1.0
    perimeter = sum(
        abs(q.x - p.x) + abs(q.y - p.y) for p, q in polygon.edges()
    )
    bound = min(2**26, 2**53 // max(int(perimeter), 1))
    return bound - max(abs(c) for c in coords)


def fracture_layout(
    layout: Layout,
    fracturer: Fracturer,
    spec: FractureSpec,
    cache: FractureCache | None = None,
    hierarchy: bool = True,
) -> HierarchyReport:
    """Fracture every placed target polygon of ``layout``.

    With ``hierarchy=True`` (default), unique geometry is fractured once
    and repeat placements are instantiated from ``cache`` (an ephemeral
    in-memory cache is created when none is given — pass a persistent
    one to share templates across runs).  With ``hierarchy=False`` the
    same placements are fractured fresh one by one — the flattened
    reference path.

    Either way each (cell, polygon, orientation) is fingerprinted once,
    and each placement off the exact whole-number range once more
    (``stats["fingerprints"]``); a placement's polygon is built only
    when it is fractured fresh.  A fresh fracture *is* the flattened
    computation for that placement; an instantiated one is its
    template's shots moved by an exact translation.
    """
    obs = get_recorder()
    report = HierarchyReport()
    visits = layout.placements()
    targets = {name: len(cell.targets) for name, cell in layout.cells.items()}
    instances = sum(targets[cell_name] for _, cell_name, _ in visits)
    run_cache: FractureCache | None = None
    if hierarchy:
        run_cache = cache if cache is not None else FractureCache(
            max_entries=max(4096, instances)
        )
    method = fracturer.cache_method or fracturer.name
    window_nm = fracturer.cache_window_nm
    memo: dict[tuple[str, int, int, bool], _Oriented] = {}
    unique: set[str] = set()
    fingerprints = 0
    template_fractures = 0
    cache_hits = 0
    with obs.span(
        "hierarchy.fracture",
        mode="hierarchy" if hierarchy else "flatten",
        cells=len(layout.cells),
        instances=instances,
    ):
        for name, cell_name, index, polygon, transform in _walk(
            layout, visits
        ):
            obs.incr("hierarchy.instances")
            start = time.perf_counter()
            key = (cell_name, index, transform.rotation, transform.mirror_x)
            oriented = memo.get(key)
            if oriented is None:
                oriented = memo[key] = _Oriented(_reach(polygon))
            tx, ty = transform.dx, transform.dy
            placed = None
            if (
                abs(tx) <= oriented.reach
                and abs(ty) <= oriented.reach
                and float(tx).is_integer()
                and float(ty).is_integer()
            ):
                if oriented.fingerprint is None:
                    linear = Transform(
                        rotation=transform.rotation,
                        mirror_x=transform.mirror_x,
                    )
                    oriented.fingerprint, oriented.frame = (
                        fingerprint_polygon(
                            _place(polygon, linear), spec, method,
                            window_nm,
                        )
                    )
                    fingerprints += 1
                fingerprint = oriented.fingerprint
                fx, fy = oriented.frame
                offset = (
                    oriented.frame if transform.is_identity
                    else (fx + tx, fy + ty)
                )
            else:
                placed = _place(polygon, transform)
                fingerprint, offset = fingerprint_polygon(
                    placed, spec, method, window_nm
                )
                fingerprints += 1
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
                if placed is None:
                    placed = _place(polygon, transform)
                shape = MaskShape.from_polygon(
                    placed,
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
            report.results.append(result)
    obs.incr("hierarchy.fingerprints", fingerprints)

    report.stats = {
        "mode": "hierarchy" if hierarchy else "flatten",
        "cells": len(layout.cells),
        "cell_instances": len(visits),
        "polygon_instances": instances,
        "unique_geometries": len(unique),
        "fingerprints": fingerprints,
        "template_fractures": template_fractures,
        "cache_hits": cache_hits,
        "hit_rate": cache_hits / instances if instances else 0.0,
        "method": method,
    }
    if run_cache is not None:
        report.stats["cache"] = run_cache.stats()
    obs.manifest_section("hierarchy", report.stats)
    return report
