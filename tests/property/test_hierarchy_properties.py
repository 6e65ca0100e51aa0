"""Hypothesis round-trips for transformed-instance correctness.

The hierarchy layer's contract: instantiating a cached template under a
placement transform produces exactly the shots that fracturing the
placed polygon directly would.  Translation instances are served by
translating the template's shots (bit-identical); rotated/mirrored
placements get an orientation-specific template, so the same guarantee
holds per orientation.  On rectangles — where every axis-parallel
dihedral image is again a rectangle — transforming the template's shots
matches a direct fracture of the transformed rectangle shot-set for
shot-set.

The memoized walk — one fingerprint per (cell, polygon, orientation),
placed polygons built only for templates — must match a reference walk
over the public pieces (``placed_polygons`` → ``fingerprint_polygon``
→ ``MdpPipeline.run`` → ``result_from_payload``) on nested, arrayed,
fractional and far-off placements.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fracture.base import FractureResult, Fracturer
from repro.fracture.cache import (
    FractureCache,
    fingerprint_polygon,
    result_from_payload,
    result_to_payload,
    translate_shots,
)
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.geometry.transform import ROTATIONS, Transform
from repro.mask.constraints import FailureReport, FractureSpec
from repro.mask.gds import SHOT_LAYER, GdsCell, GdsRef, Layout, TARGET_LAYER
from repro.mask.hierarchy import fracture_layout, placed_polygons
from repro.mask.mdp import MdpPipeline
from repro.mask.shape import MaskShape
from repro.methods import make_fracturer

SPEC = FractureSpec()

offsets = st.integers(min_value=-400, max_value=400)
transforms = st.builds(
    Transform,
    rotation=st.sampled_from(ROTATIONS),
    mirror_x=st.booleans(),
    dx=offsets.map(float),
    dy=offsets.map(float),
)


@st.composite
def staircase_polygons(draw) -> Polygon:
    """Rectilinear hole-free staircases on the integer nm grid."""
    steps = draw(st.integers(min_value=1, max_value=4))
    widths = draw(st.lists(st.integers(8, 60), min_size=steps, max_size=steps))
    heights = draw(st.lists(st.integers(8, 60), min_size=steps, max_size=steps))
    verts: list[tuple[float, float]] = [(0.0, 0.0)]
    x = 0.0
    for w, h in zip(widths, heights):
        x += w
        verts.append((x, verts[-1][1]))
        verts.append((x, verts[-1][1] + h))
    verts.append((0.0, verts[-1][1]))
    return Polygon(verts)


def fracture_direct(polygon, name="clip"):
    shape = MaskShape.from_polygon(
        polygon, pitch=SPEC.pitch, margin=SPEC.grid_margin, name=name
    )
    return make_fracturer("partition").fracture(shape, SPEC)


def shot_set(shots):
    return sorted((r.xbl, r.ybl, r.xtr, r.ytr) for r in shots)


class TestTranslatedInstances:
    @settings(max_examples=25, deadline=None)
    @given(staircase_polygons(), offsets, offsets)
    def test_cached_template_replay_is_bit_identical(self, poly, dx, dy):
        """Cache hit for a translate == direct fracture, shot for shot."""
        cache = FractureCache()
        template = fracture_direct(poly)
        fingerprint, offset = fingerprint_polygon(poly, SPEC, "partition")
        cache.put(fingerprint, result_to_payload(template, frame=offset))

        moved = Transform.translation(float(dx), float(dy)).apply_polygon(poly)
        fingerprint, offset = fingerprint_polygon(moved, SPEC, "partition")
        payload = cache.get(fingerprint)
        hit = (
            None if payload is None
            else result_from_payload(payload, shape_name="", frame=offset)
        )
        assert hit is not None
        assert hit.shots == translate_shots(template.shots, float(dx), float(dy))
        assert hit.shots == fracture_direct(moved).shots


class TestDihedralInstances:
    @settings(max_examples=20, deadline=None)
    @given(staircase_polygons(), transforms, offsets, offsets)
    def test_hierarchy_matches_direct_for_any_placement(
        self, poly, transform, dx, dy
    ):
        """Placing a cell twice under one orientation: the second
        placement is instantiated from the first's template and must
        equal fracturing both placements directly."""
        unit = GdsCell("UNIT", polygons=[(TARGET_LAYER, poly)])
        top = GdsCell("TOP", refs=[
            GdsRef(
                "UNIT", origin=(transform.dx, transform.dy),
                rotation=transform.rotation, mirror_x=transform.mirror_x,
            ),
            GdsRef(
                "UNIT",
                origin=(transform.dx + 1000.0 + dx, transform.dy - 1000.0 + dy),
                rotation=transform.rotation, mirror_x=transform.mirror_x,
            ),
        ])
        layout = Layout(cells={"UNIT": unit, "TOP": top}, top="TOP")
        frac = make_fracturer("partition")
        hier = fracture_layout(layout, frac, SPEC, hierarchy=True)
        flat = fracture_layout(layout, frac, SPEC, hierarchy=False)
        assert hier.stats["template_fractures"] == 1
        assert hier.stats["cache_hits"] == 1
        assert hier.shots == flat.shots


class TestRectangleTemplates:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(8, 120), st.integers(8, 120),
        st.sampled_from(ROTATIONS), st.booleans(), offsets, offsets,
    )
    def test_transformed_template_matches_direct_fracture(
        self, w, h, rotation, mirror, dx, dy
    ):
        """On rectangles, fracturing a rotated/mirrored placement
        directly equals transforming the cached template's shots
        (shot-set equality up to ordering)."""
        rect = Polygon([(0, 0), (w, 0), (w, h), (0, h)])
        template = fracture_direct(rect)
        t = Transform(
            rotation=rotation, mirror_x=mirror, dx=float(dx), dy=float(dy)
        )
        direct = fracture_direct(t.apply_polygon(rect))
        assert shot_set(direct.shots) == shot_set(t.apply_rects(template.shots))


class FrameStub(Fracturer):
    """Shots that depend on the geometry and on the absolute frame.

    One shot is the bounding box; a second sits on the first vertex
    with a size set by where the box lies.  Replaying a template at a
    wrong frame, from the wrong geometry, or fractured at another
    placement than the reference's changes the shot list.
    """

    name = "frame-stub"

    def fracture_shots(self, shape, spec):
        box = shape.polygon.bounding_box()
        first = shape.polygon.vertices[0]
        return [box, Rect(
            first.x, first.y,
            first.x + 1 + box.xbl % 3, first.y + 1 + box.ybl % 5,
        )]

    def fracture(self, shape, spec):
        empty = np.zeros((0, 0), dtype=bool)
        return FractureResult(
            method=self.name,
            shape_name=shape.name,
            shots=self.fracture_shots(shape, spec),
            runtime_s=0.0,
            report=FailureReport(
                fail_on=empty, fail_off=empty,
                cost=float(len(shape.polygon)), undersize_shots=0,
                _count_on=len(shape.polygon), _count_off=0,
            ),
            extra={"vertices": len(shape.polygon)},
        )


def reference_walk(layout, fracturer, cache):
    """Fracture ``layout`` from the public pieces.

    The first placement of each fingerprint goes through the batch loop
    (with no store, every placement does), and every other placement is
    built from its result.
    """
    method = fracturer.cache_method or fracturer.name
    placed = placed_polygons(layout)
    frames, owners, template_of, first = [], [], [], {}
    for position, (_name, polygon) in enumerate(placed):
        fingerprint, frame = fingerprint_polygon(polygon, SPEC, method)
        frames.append(frame)
        if cache is None or fingerprint not in first:
            first[fingerprint] = len(owners)
            owners.append(position)
        template_of.append(first[fingerprint])
    shapes = [
        MaskShape.from_polygon(
            placed[position][1], pitch=SPEC.pitch, margin=SPEC.grid_margin,
            name=placed[position][0],
        )
        for position in owners
    ]
    batch = MdpPipeline(fracturer, SPEC, cache=cache).run(shapes)
    results = []
    for position, (name, _polygon) in enumerate(placed):
        template = template_of[position]
        result = batch.results[template]
        owner = owners[template]
        if position != owner:
            payload = result_to_payload(result, frame=frames[owner])
            result = result_from_payload(
                payload, shape_name=name, frame=frames[position]
            )
        results.append(result)
    fresh = sum(1 for r in batch.results if not r.extra.get("cache_hit"))
    hits = len(placed) - fresh
    unique = set(first)
    stats = {
        "mode": "hierarchy" if cache is not None else "flatten",
        "cells": len(layout.cells),
        "cell_instances": len(layout.placements()),
        "polygon_instances": len(placed),
        "unique_geometries": len(unique),
        "template_fractures": fresh,
        "cache_hits": hits,
        "hit_rate": hits / len(placed) if placed else 0.0,
        "method": method,
    }
    if cache is not None:
        stats["cache"] = cache.stats()
    return results, stats


def result_key(result):
    """Everything a result carries except its timing."""
    return (
        result.shape_name, result.method,
        [(s.xbl, s.ybl, s.xtr, s.ytr) for s in result.shots],
        result.report.count_on, result.report.count_off,
        result.report.cost, result.report.undersize_shots,
        {k: v for k, v in result.extra.items() if k != "cached_runtime_s"},
    )


fractions = st.sampled_from([0.1, 1 / 3, 0.5, 0.7])
translations = st.one_of(
    st.integers(-400, 400),
    st.integers(-400, 400).map(float),
    st.builds(lambda n, f: n + f, st.integers(-400, 400), fractions),
    # Far off: 2^k − 40 (+ f), where a fractional memo frame would round.
    st.builds(
        lambda k, f, sign: sign * (2.0**k - 40 + f),
        st.integers(3, 29), st.sampled_from([0.0, 0.1]),
        st.sampled_from([1, -1]),
    ),
)


@st.composite
def refs(draw, cell):
    """An SREF or AREF of ``cell`` in any of the 8 orientations."""
    origin = (draw(translations), draw(translations))
    rotation = draw(st.sampled_from(ROTATIONS))
    mirror_x = draw(st.booleans())
    if not draw(st.booleans()):
        return GdsRef(cell, origin=origin, rotation=rotation, mirror_x=mirror_x)
    cols, rows = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    # A span over the column count, as read_layout derives the pitch:
    # fractional whenever the span is not a multiple of the count.
    col_span, row_span = draw(st.integers(200, 900)), draw(st.integers(200, 900))
    return GdsRef(
        cell, origin=origin, rotation=rotation, mirror_x=mirror_x,
        cols=cols, rows=rows,
        col_vec=(col_span / cols, 0.0), row_vec=(0.0, row_span / rows),
    )


@st.composite
def nested_layouts(draw) -> Layout:
    """TOP → MID → LEAF, plus direct LEAF refs and TOP's own polygon."""
    polygons = draw(st.lists(staircase_polygons(), min_size=1, max_size=2))
    leaf = GdsCell("LEAF", polygons=[(TARGET_LAYER, p) for p in polygons])
    if draw(st.booleans()):
        shift = Transform.translation(draw(fractions), 0.5)
        leaf.polygons.append((TARGET_LAYER, shift.apply_polygon(polygons[0])))
    if draw(st.booleans()):
        # A non-target polygon first shifts every target's cell index.
        leaf.polygons.insert(0, (SHOT_LAYER, polygons[-1]))
    mid = GdsCell("MID", refs=draw(st.lists(refs("LEAF"), min_size=1, max_size=2)))
    top = GdsCell(
        "TOP",
        polygons=[(TARGET_LAYER, p) for p in draw(
            st.lists(staircase_polygons(), max_size=1)
        )],
        refs=draw(st.lists(refs("MID"), min_size=1, max_size=2))
        + draw(st.lists(refs("LEAF"), max_size=1)),
    )
    return Layout(cells={"LEAF": leaf, "MID": mid, "TOP": top}, top="TOP")


class TestMemoizedWalk:
    @settings(max_examples=40, deadline=None)
    @given(nested_layouts(), st.sampled_from([None, 1, 4096]))
    def test_matches_the_reference_walk(self, layout, max_entries):
        """Same results and stats as fingerprinting every placed polygon.

        ``max_entries=None`` is the flattened path; with ``1`` the store
        keeps only the last template, and still each geometry is
        fractured once.
        """
        def cache():
            if max_entries is None:
                return None
            return FractureCache(max_entries=max_entries)

        hierarchy = max_entries is not None
        report = fracture_layout(
            layout, FrameStub(), SPEC, cache=cache(), hierarchy=hierarchy
        )
        results, stats = reference_walk(layout, FrameStub(), cache())
        assert [result_key(r) for r in report.results] == \
            [result_key(r) for r in results]
        fingerprints = report.stats.pop("fingerprints")
        assert report.stats == stats
        assert fingerprints <= stats["polygon_instances"]
        if hierarchy:
            assert report.stats["template_fractures"] == \
                report.stats["unique_geometries"]
