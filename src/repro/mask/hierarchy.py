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
2. the first placement of each unique geometry is its *template*; the
   templates run through the batch loop, :meth:`MdpPipeline.run
   <repro.mask.mdp.MdpPipeline.run>`, as a
   :class:`~repro.mask.mdp.PolygonShapes` sequence, so each template is
   rasterized only for its own fracture; the loop looks them up in the
   store and fractures the misses *in place* (literally the flattened
   computation), as shape jobs of the job runner when ``workers > 1``;
3. every other placement is its template's result with the shots
   translated by the (exact) frame difference.

Rotated or mirrored placements canonicalize to different vertex loops
and therefore get their own template — exactness beats cross-orientation
reuse, since fracturers are only translation-equivariant bit-for-bit
(integer-nanometre GDSII coordinates make every translation exact; see
:mod:`repro.geometry.transform`).  The result: unique-geometry fractures
≤ distinct cell geometries, each fractured once per run whatever the
store's size, and a repeat placement costs a dict lookup and a shot
translation.

``hierarchy=False`` makes every placement a template, with no store —
the flattened reference path with identical placement ordering, which
the tests and the ``--flatten`` CLI flag use as the bit-identity one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.fracture.base import Fracturer
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
from repro.mask.mdp import MdpPipeline, MdpReport, PolygonShapes
from repro.obs import get_recorder

__all__ = ["HierarchyReport", "fracture_layout", "placed_polygons"]


@dataclass(slots=True)
class HierarchyReport(MdpReport):
    """Outcome of fracturing a layout, hierarchical or flattened.

    ``results`` holds one :class:`FractureResult` per placed target
    polygon, in placement order; ``stats`` the cell/instance/cache
    accounting that also lands in manifests and telemetry.
    """

    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def shots(self) -> list[Rect]:
        """Total shot list, placement order (flatten-comparable)."""
        return [shot for result in self.results for shot in result.shots]

    shot_count = MdpReport.total_shots

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
    workers: int = 1,
) -> HierarchyReport:
    """Fracture every placed target polygon of ``layout``.

    With ``hierarchy=True`` (default), the first placement of each
    unique geometry is a template, run through ``MdpPipeline(fracturer,
    spec, cache=cache).run(templates, workers=workers)`` (pass a
    persistent ``cache`` to share templates across runs), and every
    other placement is built from its template's result.  With
    ``hierarchy=False`` every placement is a template and no store is
    used — the flattened reference path.

    Either way each (cell, polygon, orientation) is fingerprinted once,
    and each placement off the exact whole-number range once more
    (``stats["fingerprints"]``); a placement's polygon is built only
    when it is a template.  A fresh template *is* the flattened
    computation for its placement; any other placement is its
    template's shots moved by an exact translation.
    """
    obs = get_recorder()
    report = HierarchyReport()
    visits = layout.placements()
    targets = {name: len(cell.targets) for name, cell in layout.cells.items()}
    instances = sum(targets[cell_name] for _, cell_name, _ in visits)
    method = fracturer.cache_method or fracturer.name
    window_nm = fracturer.cache_window_nm
    memo: dict[tuple[str, int, int, bool], _Oriented] = {}
    templates = PolygonShapes(pitch=spec.pitch, margin=spec.grid_margin)
    frames: list[tuple[float, float]] = []  # each template's frame
    # Each placement in walk order: its name, its template's index, and
    # its frame, or None at the template's own placement.
    placements: list[tuple[str, int, tuple[float, float] | None]] = []
    first: dict[str, int] = {}
    fingerprints = 0
    obs.incr("hierarchy.instances", instances)
    with obs.span(
        "hierarchy.fracture",
        mode="hierarchy" if hierarchy else "flatten",
        cells=len(layout.cells),
        instances=instances,
    ):
        for name, cell_name, index, polygon, transform in _walk(
            layout, visits
        ):
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
            template = first.get(fingerprint) if hierarchy else None
            if template is None:
                template = first[fingerprint] = len(templates)
                if placed is None:
                    placed = _place(polygon, transform)
                templates.polygons.append((name, placed))
                frames.append(offset)
                offset = None
            placements.append((name, template, offset))
        batch = MdpPipeline(
            fracturer, spec, cache=cache if hierarchy else None
        ).run(templates, workers=workers)
        payloads: dict[int, dict[str, Any]] = {}
        for name, template, frame in placements:
            start = time.perf_counter()
            result = batch.results[template]
            if frame is not None:
                payload = payloads.get(template)
                if payload is None:
                    # What a store hit would read: a stored template
                    # keeps its fracture time, not this run's lookup's.
                    payload = payloads[template] = result_to_payload(
                        result, frame=frames[template]
                    )
                    if result.extra.get("cache_hit"):
                        payload["runtime_s"] = result.extra["cached_runtime_s"]
                result = result_from_payload(
                    payload, shape_name=name, frame=frame,
                    lookup_s=time.perf_counter() - start,
                )
            report.results.append(result)
    obs.incr("hierarchy.fingerprints", fingerprints)
    template_fractures = sum(
        1 for result in batch.results if not result.extra.get("cache_hit")
    )
    cache_hits = instances - template_fractures
    obs.incr("hierarchy.template_fractures", template_fractures)
    obs.incr("cache.hierarchy.hits", instances - len(templates))

    report.stats = {
        "mode": "hierarchy" if hierarchy else "flatten",
        "cells": len(layout.cells),
        "cell_instances": len(visits),
        "polygon_instances": instances,
        "unique_geometries": len(first),
        "fingerprints": fingerprints,
        "template_fractures": template_fractures,
        "cache_hits": cache_hits,
        "hit_rate": cache_hits / instances if instances else 0.0,
        "method": method,
    }
    if hierarchy and cache is not None:
        report.stats["cache"] = cache.stats()
    obs.manifest_section("hierarchy", report.stats)
    return report
