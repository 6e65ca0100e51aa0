"""Clip and solution serialization (OpenAccess API substitute).

The paper's implementation reads and writes mask shapes through the
OpenAccess API; we use a small JSON format instead.  A *clip file* holds
one or more named target polygons; a *solution file* holds the shot list
a fracturer produced for a clip, plus the spec it was produced under.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec
from repro.obs import atomic_write_text

FORMAT_VERSION = 1


def polygon_to_dict(polygon: Polygon) -> dict[str, Any]:
    return {"vertices": [[p.x, p.y] for p in polygon.vertices]}


def polygon_from_dict(data: dict[str, Any]) -> Polygon:
    return Polygon(Point(float(x), float(y)) for x, y in data["vertices"])


def rect_to_list(rect: Rect) -> list[float]:
    return [rect.xbl, rect.ybl, rect.xtr, rect.ytr]


def rect_from_list(values: list[float]) -> Rect:
    if len(values) != 4:
        raise ValueError(f"rect needs 4 coordinates, got {len(values)}")
    return Rect(*(float(v) for v in values))


def spec_to_dict(spec: FractureSpec) -> dict[str, float]:
    return {
        "sigma": spec.sigma,
        "gamma": spec.gamma,
        "pitch": spec.pitch,
        "rho": spec.rho,
        "lmin": spec.lmin,
    }


def spec_from_dict(data: dict[str, Any]) -> FractureSpec:
    return FractureSpec(
        sigma=float(data["sigma"]),
        gamma=float(data["gamma"]),
        pitch=float(data["pitch"]),
        rho=float(data["rho"]),
        lmin=float(data["lmin"]),
    )


def save_clips(clips: dict[str, Polygon], path: str | Path) -> None:
    """Write named target polygons to a clip file (atomically)."""
    payload = {
        "format": "repro-clips",
        "version": FORMAT_VERSION,
        "clips": {name: polygon_to_dict(poly) for name, poly in clips.items()},
    }
    atomic_write_text(path, json.dumps(payload))


@contextmanager
def _fields_of(kind: str) -> Iterator[None]:
    """Re-raise a missing key or a wrongly typed value while reading a
    ``kind`` file's fields as the ``ValueError`` of a malformed file."""
    try:
        yield
    except (KeyError, TypeError, AttributeError) as error:
        raise ValueError(
            f"malformed {kind} file ({type(error).__name__}: {error})"
        ) from None


def load_clips(path: str | Path) -> dict[str, Polygon]:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("format") != "repro-clips":
        raise ValueError("not a repro clip file")
    with _fields_of("repro clip"):
        return {
            name: polygon_from_dict(data)
            for name, data in payload["clips"].items()
        }


def save_solution(
    shots: list[Rect],
    spec: FractureSpec,
    path: str | Path,
    clip_name: str = "",
    metadata: dict[str, Any] | None = None,
) -> None:
    """Write a fracturing solution (shot list + spec + free-form metadata).

    The write is atomic: a failed or interrupted write leaves any
    previous solution at ``path`` intact.
    """
    payload = {
        "format": "repro-solution",
        "version": FORMAT_VERSION,
        "clip": clip_name,
        "spec": spec_to_dict(spec),
        "shots": [rect_to_list(s) for s in shots],
        "metadata": metadata or {},
    }
    # No indent: ``json`` encodes with its C encoder only without one,
    # and a layout's solution holds tens of thousands of shots.
    atomic_write_text(path, json.dumps(payload))


def load_solution(path: str | Path) -> tuple[list[Rect], FractureSpec, dict[str, Any]]:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("format") != "repro-solution":
        raise ValueError("not a repro solution file")
    with _fields_of("repro solution"):
        shots = [rect_from_list(values) for values in payload["shots"]]
        spec = spec_from_dict(payload["spec"])
    return shots, spec, payload.get("metadata", {})
