"""Model-based mask fracturing — the paper's proposed method.

The public entry point is :class:`~repro.fracture.pipeline.ModelBasedFracturer`,
which chains the two stages of the paper:

1. *Graph-coloring-based approximate fracturing* (§3):
   :mod:`~repro.fracture.corner_points` extracts typed shot corner points
   from the RDP-simplified boundary, :mod:`~repro.fracture.graph_color`
   builds the compatibility graph and solves clique partition via inverse
   coloring, and :mod:`~repro.fracture.placement` turns each color class
   into a shot.
2. *Iterative shot refinement* (§4): :mod:`~repro.fracture.refine`
   implements Algorithm 1 on top of the move modules
   (:mod:`~repro.fracture.edge_adjust`, :mod:`~repro.fracture.bias`,
   :mod:`~repro.fracture.add_remove`, :mod:`~repro.fracture.merge`).
"""

from repro.fracture.base import FractureResult, Fracturer
from repro.fracture.cache import (
    FractureCache,
    canonical_fingerprint,
    fingerprint_polygon,
)
from repro.fracture.corner_points import CornerType, ShotCornerPoint, extract_corner_points
from repro.fracture.graph_color import GraphColoringFracturer, build_compatibility_graph
from repro.fracture.pipeline import ModelBasedFracturer, RefineConfig
from repro.fracture.runtime import FaultPlan, PoolBroken, RuntimePolicy, TileOutcome
from repro.fracture.tiling import Tile, TilePlan, plan_tiles
from repro.fracture.windowed import WindowedFracturer

__all__ = [
    "CornerType",
    "FaultPlan",
    "FractureCache",
    "FractureResult",
    "Fracturer",
    "canonical_fingerprint",
    "fingerprint_polygon",
    "GraphColoringFracturer",
    "ModelBasedFracturer",
    "PoolBroken",
    "RefineConfig",
    "RuntimePolicy",
    "ShotCornerPoint",
    "Tile",
    "TileOutcome",
    "TilePlan",
    "WindowedFracturer",
    "build_compatibility_graph",
    "extract_corner_points",
    "plan_tiles",
]
