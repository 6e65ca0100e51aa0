"""Content-addressed fracture result cache — one cache, three layers.

The service's warm result cache (PR 6) proved the economics: batch MDP
traffic resubmits near-identical work, and a verbatim resubmission
should cost one hash.  This module promotes that cache out of
:mod:`repro.service` into the library so the same object (and the same
key format) backs

* :class:`~repro.mask.mdp.MdpPipeline` — repeated clips inside one
  batch run hit across shapes, a persisted cache is how an
  interrupted batch resumes, and a GDSII layout's templates
  (:mod:`repro.mask.hierarchy`) are looked up and stored there too,
* the windowed/tiled executor — re-runs of a windowed layout reuse the
  finished result wholesale, and each settled tile and stitch window is
  stored too, so an interrupted tiled run resumes by running it again
  against the same store, and
* the service's :class:`~repro.service.caches.WarmCaches`, whose
  result cache is a :class:`FractureCache`.

**Keys.**  There are two fingerprint functions.  Shapes are keyed by
:func:`canonical_fingerprint`, hashing the version-tagged JSON of (clip
vertices, spec, method, window); :func:`fingerprint_polygon` feeds it
*canonical* geometry — the translation-normalized, ordering-canonical
vertex loop from :func:`repro.geometry.polygon.canonical_form` — so a
clip and its translate share one entry.  Tiles are keyed by
:func:`tile_fingerprint` and seam-stitch windows by
:func:`window_fingerprint`; both are exact, not placement-invariant:
they hash everything one job reads, in place, so a stored tile or
window replays only into the job it came from.

**Frames.**  Entries remember the frame offset the stored shots were
produced in (``payload["frame"]``, the canonical→stored translation).
A hit for geometry at a different offset translates the stored shots by
the offset *difference*; translation is exact for exactly representable
coordinates, so instantiated shots are bit-identical to fracturing in
place — and a verbatim resubmission (offset difference zero) replays the
stored shots untouched.

**Reports.**  A cached entry carries the feasibility digest (failing
pixel counts, Eq. 5 cost, undersize shots), not the per-pixel arrays —
enough to rebuild a :class:`~repro.mask.constraints.FailureReport` with
exact counts via its count overrides, without re-verification.

**Persistence.**  With ``persist_dir`` set, every entry is also written
as ``<fingerprint>.json`` (atomic rename), and memory misses fall
through to disk; a corrupt or torn file reads as a miss *once* and is
quarantined (renamed ``<fingerprint>.json.bad``, counted by
``corrupt_quarantined``) so the slot can be refilled.  A warm daemon
restart — or a second CLI run pointed at the same ``--fracture-cache``
directory — starts with the whole previous run's results.  With
``min_free_bytes`` set, writes that would breach the free-space floor
first evict old entries LRU-by-mtime (:func:`evict_lru`) and are
skipped when the floor still cannot be met.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any

import numpy as np

from repro.geometry.polygon import Polygon, canonical_form
from repro.geometry.rect import Rect
from repro.mask.constraints import FailureReport, FractureSpec
from repro.mask.io import rect_from_list, rect_to_list, spec_to_dict
from repro.obs.export import atomic_write_text
from repro.obs.resources import disk_free_bytes


def evict_lru(
    directory: str | Path,
    floor_bytes: int,
    pattern: str = "*.json",
) -> int:
    """Evict files LRU-by-mtime until free space clears ``floor_bytes``.

    Returns the number of files removed.  Unlinked bytes are credited
    against the deficit rather than re-queried, so eviction converges
    deterministically even when free space is shimmed (chaos tests) or
    statvfs lags the unlink.  When everything matching ``pattern`` is
    gone and the floor still cannot be met, the caller decides whether
    to fail loudly (result writes) or skip quietly (best-effort cache
    puts).
    """
    directory = Path(directory)
    free = disk_free_bytes(directory)
    if free is None or free >= floor_bytes:
        return 0
    deficit = floor_bytes - free
    try:
        entries = sorted(
            directory.glob(pattern), key=lambda p: p.stat().st_mtime
        )
    except OSError:
        return 0
    removed = 0
    reclaimed = 0
    for path in entries:
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            continue
        removed += 1
        reclaimed += size
        if reclaimed >= deficit:
            break
    return removed

__all__ = [
    "FractureCache",
    "canonical_fingerprint",
    "evict_lru",
    "fingerprint_polygon",
    "result_to_payload",
    "result_from_payload",
    "tile_fingerprint",
    "translate_shots",
    "window_fingerprint",
]


def _spec_dict(spec: FractureSpec | dict[str, float]) -> dict[str, float]:
    if isinstance(spec, FractureSpec):
        return spec_to_dict(spec)
    return spec


def canonical_fingerprint(
    clip_vertices: list[list[float]] | tuple[tuple[float, float], ...],
    spec: FractureSpec | dict[str, float],
    method: str,
    window_nm: float | None,
) -> str:
    """Content address of one clip-level fracture request.

    Everything that can change the shot list is in the key; everything
    that cannot (priority, telemetry, worker count — the tiled merge is
    worker-count-invariant) is out, so the cache hits exactly when a
    recomputation would be bit-identical.  Library and service share
    this one shape key, so their hashes can never drift.
    """
    spec = _spec_dict(spec)
    # `c + 0.0` coerces integer coordinates to floats and collapses -0.0
    # to 0.0, so 60 vs 60.0 (or a mirror-produced negative zero) cannot
    # split what is numerically one geometry into two hashes.
    payload = {
        "v": 1,
        "clip": [[c + 0.0 for c in v] for v in clip_vertices],
        "spec": {k: spec[k] for k in sorted(spec)},
        "method": method,
        "window_nm": window_nm + 0.0 if window_nm is not None else None,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint_polygon(
    polygon: Polygon,
    spec: FractureSpec | dict[str, float],
    method: str,
    window_nm: float | None = None,
) -> tuple[str, tuple[float, float]]:
    """Placement-invariant fingerprint of a target polygon.

    Returns ``(fingerprint, offset)``: the fingerprint of the polygon's
    canonical (translation-normalized) vertex loop, plus the offset that
    places the canonical loop back at the polygon (``polygon =
    canonical + offset``).  Two exact translates of the same geometry —
    including the same loop entered at a different start vertex or
    winding — share the fingerprint and differ only in offset.
    """
    vertices, offset = canonical_form(polygon)
    return canonical_fingerprint(vertices, spec, method, window_nm), offset


def tile_fingerprint(
    method: str,
    spec: FractureSpec | dict[str, float],
    tile: Any,
    subs: list[Any],
) -> str:
    """Exact content address of one tile's fracture.

    Hashes every input of ``fracture_tile(inner, tile, subs, spec)``:
    the inner method's cache-key name, the spec, the tile's core (the
    only part of the tile that ownership reads) and, per sub-shape, its
    grid and packed pixel mask — the sub-shape's polygon is traced from
    that mask and its name is not an input.  Deliberately not
    translation-invariant: a stored tile replays only in place.
    """
    spec = _spec_dict(spec)
    header = {
        "v": 1,
        "kind": "tile",
        "method": method,
        "spec": {k: spec[k] for k in sorted(spec)},
        "core": [c + 0.0 for c in tile.core.as_tuple()],
        "subs": [
            [s.grid.x0 + 0.0, s.grid.y0 + 0.0, s.grid.pitch + 0.0,
             s.grid.nx, s.grid.ny]
            for s in subs
        ],
    }
    digest = hashlib.sha256(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    for sub in subs:
        digest.update(np.packbits(sub.inside).tobytes())
    return digest.hexdigest()


def _shot_lists(shots: Any) -> list[list[float]]:
    return [[c + 0.0 for c in shot.as_tuple()] for shot in shots]


def window_fingerprint(spec: FractureSpec, window: Any) -> str:
    """Exact content address of one seam-stitch window's refinement.

    Hashes every input of the window's ``refine`` call: the spec, the
    refinement budget, the crop grid, the movable and background shots
    in order (dose is summed in that order) and, packed, the crop's
    inside mask (merges read it), its P_on and P_off classes and its
    active band mask.  Like a tile key it is not translation-invariant.
    """
    shape = window.shape
    grid = shape.grid
    spec_dict = _spec_dict(spec)
    header = {
        "v": 1,
        "kind": "window",
        "spec": {k: spec_dict[k] for k in sorted(spec_dict)},
        "params": [window.params.nmax, window.params.nh],
        "grid": [grid.x0 + 0.0, grid.y0 + 0.0, grid.pitch + 0.0,
                 grid.nx, grid.ny],
        "movable": _shot_lists(window.movable),
        "background": _shot_lists(window.background),
    }
    digest = hashlib.sha256(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    pixels = shape.pixels(spec.gamma)
    for mask in (shape.inside, pixels.on, pixels.off, window.active):
        digest.update(np.packbits(mask).tobytes())
    return digest.hexdigest()


# -- payload conversion ------------------------------------------------------


def result_to_payload(
    result: "FractureResult",  # noqa: F821 — lazy import, see below
    frame: tuple[float, float] = (0.0, 0.0),
) -> dict[str, Any]:
    """JSON-able cache entry for a finished fracture result.

    ``frame`` is the canonical→stored offset: the translation that maps
    the canonical geometry onto the instance these shots were produced
    for.  Flat keys match the service's historical ``result.json``
    payload; ``frame`` and the ``report`` digest are additive.
    """
    report = result.report
    return {
        "shots": [rect_to_list(s) for s in result.shots],
        "shot_count": result.shot_count,
        "feasible": result.feasible,
        "failing_px": report.total_failing,
        "runtime_s": result.runtime_s,
        "extra": dict(result.extra),
        "frame": [frame[0], frame[1]],
        "method": result.method,
        "report": {
            "cost": report.cost,
            "count_on": report.count_on,
            "count_off": report.count_off,
            "undersize_shots": report.undersize_shots,
        },
    }


_EMPTY_MASK = np.zeros((0, 0), dtype=bool)


def _digest_report(payload: dict[str, Any]) -> FailureReport:
    """Rebuild a report from the cached digest (exact counts, no arrays)."""
    digest = payload.get("report")
    if digest is None:
        # Pre-digest service payload: only the aggregate count survives.
        failing = int(payload.get("failing_px", 0))
        return FailureReport(
            fail_on=_EMPTY_MASK,
            fail_off=_EMPTY_MASK,
            cost=0.0,
            undersize_shots=0,
            _count_on=failing,
            _count_off=0,
        )
    return FailureReport(
        fail_on=_EMPTY_MASK,
        fail_off=_EMPTY_MASK,
        cost=float(digest["cost"]),
        undersize_shots=int(digest["undersize_shots"]),
        _count_on=int(digest["count_on"]),
        _count_off=int(digest["count_off"]),
    )


def translate_shots(
    shots: list[Rect], dx: float, dy: float
) -> list[Rect]:
    """Shots shifted by an exact translation (identity short-circuits)."""
    if dx == 0.0 and dy == 0.0:
        return list(shots)
    return [
        Rect(s.xbl + dx, s.ybl + dy, s.xtr + dx, s.ytr + dy) for s in shots
    ]


def result_from_payload(
    payload: dict[str, Any],
    shape_name: str,
    frame: tuple[float, float] = (0.0, 0.0),
    lookup_s: float = 0.0,
) -> "FractureResult":  # noqa: F821
    """Instantiate a cached entry as a :class:`FractureResult`.

    ``frame`` is the canonical→requested offset; stored shots are
    translated by the difference from the stored frame (zero for a
    verbatim resubmission, so the replay is untouched).  ``runtime_s``
    is the lookup time — the honest cost of serving this instance — and
    the original fracture time survives as ``extra["cached_runtime_s"]``.
    """
    from repro.fracture.base import FractureResult

    stored = payload.get("frame", [0.0, 0.0])
    dx = frame[0] - float(stored[0])
    dy = frame[1] - float(stored[1])
    shots = translate_shots(
        [rect_from_list(v) for v in payload["shots"]], dx, dy
    )
    extra = dict(payload.get("extra", {}))
    extra["cache_hit"] = True
    extra["cached_runtime_s"] = float(payload.get("runtime_s", 0.0))
    return FractureResult(
        method=payload.get("method", "cached"),
        shape_name=shape_name,
        shots=shots,
        runtime_s=lookup_s,
        report=_digest_report(payload),
        extra=extra,
    )


# -- the cache ---------------------------------------------------------------


class FractureCache:
    """Bounded in-memory map: request fingerprint → finished result.

    Entries store plain JSON-able payloads (shot coordinate lists plus
    the feasibility digest), not live objects, so a hit can be served
    straight into ``result.json`` without touching numpy.  FIFO-ish
    bound: when full, the oldest insertion is evicted (dict preserves
    insertion order).  Thread-safe — job threads read while the next
    job's thread writes.

    With ``persist_dir`` the cache is also content-addressed on disk
    (one ``<fingerprint>.json`` per entry, written atomically); memory
    misses fall through to disk, and disk hits are pulled back into
    memory.  Unreadable files are treated as misses, never as errors.
    """

    def __init__(
        self,
        max_entries: int = 256,
        persist_dir: str | Path | None = None,
        min_free_bytes: int | None = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if min_free_bytes is not None and min_free_bytes < 0:
            raise ValueError("min_free_bytes must be non-negative")
        self.max_entries = max_entries
        self.persist_dir = Path(persist_dir) if persist_dir is not None else None
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
        #: Disk floor: before persisting an entry, free space below this
        #: first triggers LRU-by-mtime eviction of old entries, and if
        #: the floor still cannot be met the write is skipped (persistence
        #: is best effort; the in-memory entry stands).
        self.min_free_bytes = min_free_bytes
        self._lock = threading.Lock()
        self._entries: dict[str, dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.corrupt_quarantined = 0
        self.disk_evictions = 0
        self.disk_write_skips = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        # An *empty* cache must not read as "no cache": a warm disk store
        # can back a cold memory map, and `if cache:` call sites would
        # silently bypass it.
        return True

    # -- raw fingerprint interface (service-compatible) ----------------------

    def get(self, fingerprint: str) -> dict[str, Any] | None:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self.hits += 1
                return entry
            entry = self._read_disk(fingerprint)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self.disk_hits += 1
            self._insert(fingerprint, entry)
            return entry

    def put(self, fingerprint: str, payload: dict[str, Any]) -> None:
        with self._lock:
            if fingerprint not in self._entries:
                self._insert(fingerprint, payload)
            self._write_disk(fingerprint, payload)

    def clear(self) -> None:
        """Drop the in-memory entries (the disk store is left intact)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        # List the store before taking the lock: the daemon reads stats
        # after every job, and get/put must not wait on a directory
        # listing that grows with the store.
        disk_entries = (
            sum(1 for _ in self.persist_dir.glob("*.json"))
            if self.persist_dir is not None
            else 0
        )
        with self._lock:
            stats = {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }
            if self.persist_dir is not None:
                stats["disk_hits"] = self.disk_hits
                stats["disk_entries"] = disk_entries
                stats["corrupt_quarantined"] = self.corrupt_quarantined
                stats["disk_evictions"] = self.disk_evictions
                stats["disk_write_skips"] = self.disk_write_skips
            return stats

    # -- disk store -----------------------------------------------------------

    def _insert(self, fingerprint: str, payload: dict[str, Any]) -> None:
        while len(self._entries) >= self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[fingerprint] = payload

    def _disk_path(self, fingerprint: str) -> Path:
        assert self.persist_dir is not None
        return self.persist_dir / f"{fingerprint}.json"

    def _read_disk(self, fingerprint: str) -> dict[str, Any] | None:
        if self.persist_dir is None:
            return None
        path = self._disk_path(fingerprint)
        try:
            raw = path.read_bytes()
        except OSError:
            return None  # genuinely absent (or unreadable): a plain miss
        try:
            # Decode inside the guard: flipped bytes are usually invalid
            # UTF-8, and UnicodeDecodeError is a ValueError too.
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict) or "shots" not in payload:
                raise ValueError("not a cache entry payload")
        except ValueError:
            # The file exists but its bytes are wrong — torn write from a
            # killed process, bit rot, or tampering.  Treating it as a
            # miss forever would re-fracture (and fail to re-persist, the
            # path being occupied) on every lookup; quarantine it instead
            # so the slot frees up and the corpse stays inspectable.
            self._quarantine(path)
            return None
        return payload

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, path.with_suffix(path.suffix + ".bad"))
            self.corrupt_quarantined += 1
        except OSError:
            pass

    def _write_disk(self, fingerprint: str, payload: dict[str, Any]) -> None:
        if self.persist_dir is None:
            return
        path = self._disk_path(fingerprint)
        if path.exists():
            return
        blob = json.dumps(payload)
        if self.min_free_bytes is not None:
            free = disk_free_bytes(self.persist_dir)
            if free is not None and free - len(blob) < self.min_free_bytes:
                self.disk_evictions += evict_lru(
                    self.persist_dir, self.min_free_bytes + len(blob)
                )
                free = disk_free_bytes(self.persist_dir)
                if free is not None and free - len(blob) < self.min_free_bytes:
                    # The floor cannot be met even with an empty store;
                    # skip the write rather than breach it.  (Result
                    # writes fail *loudly* in this state — cache
                    # persistence alone is best effort.)
                    self.disk_write_skips += 1
                    return
        try:
            atomic_write_text(path, blob)
        except OSError:
            pass  # persistence is best-effort; the in-memory entry stands
