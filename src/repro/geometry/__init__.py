"""Rectilinear geometry kernel for mask data preparation.

This package is the pure-Python/numpy replacement for the Boost Polygon
Library infrastructure the paper's C++ implementation relied on.  It
provides the primitives every other subsystem builds on:

* :class:`~repro.geometry.point.Point` — immutable 2-D point.
* :class:`~repro.geometry.rect.Rect` — axis-parallel rectangle (the e-beam
  shot primitive).
* :class:`~repro.geometry.polygon.Polygon` — simple polygon with signed
  area, orientation, point containment and perimeter utilities.
* :func:`~repro.geometry.rdp.rdp_simplify` — Ramer–Douglas–Peucker
  polyline/polygon simplification (paper §3, Fig. 1).
* :func:`~repro.geometry.raster.rasterize_polygon` — polygon → boolean
  pixel mask at a given pixel pitch.
* :func:`~repro.geometry.trace.trace_boundary` — boolean mask → rectilinear
  boundary polygon (marching along pixel edges).
* :class:`~repro.geometry.sat.SummedAreaTable` — O(1) rectangle-sum queries
  used for the 80 %/90 % shot-overlap tests.
* :func:`~repro.geometry.labeling.label_components` — connected-component
  labeling used by the AddShot refinement move (paper §4.3).
* :func:`~repro.geometry.partition.partition_rectilinear` — minimum
  rectangle partition of a hole-free rectilinear polygon (Imai–Asano style,
  used by the conventional-fracturing baseline).
"""

from repro.geometry.labeling import bounding_boxes, label_components
from repro.geometry.partition import partition_rectilinear
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.raster import rasterize_polygon
from repro.geometry.rdp import rdp_simplify
from repro.geometry.rect import Rect
from repro.geometry.sat import SummedAreaTable
from repro.geometry.trace import trace_boundary, trace_all_boundaries

__all__ = [
    "Point",
    "Polygon",
    "Rect",
    "SummedAreaTable",
    "bounding_boxes",
    "label_components",
    "partition_rectilinear",
    "rasterize_polygon",
    "rdp_simplify",
    "trace_boundary",
    "trace_all_boundaries",
]
