"""Outside-in span tracer: wraps the call-site bindings of each layer.

The program under test is not modified.  For a traced pass the harness
replaces, for the duration of a ``with Tracer(): ...`` block, the name a
caller looks up when it calls into a layer — a module attribute such as
``repro.fracture.refine.greedy_shot_edge_adjustment`` (the binding
``refine`` resolves at call time), a method in a class ``__dict__``, or
the ``__func__`` of a classmethod — with a wrapper that records one span
(name, start, end, parent) in memory.  Every binding is restored on
exit, even when the traced code raises.

A layer's *self* time is its spans' duration minus the time their child
spans cover.  The tracer's root span covers the whole block on the
thread that opened it, so the self times of all spans on that thread
plus the root's own self time ("unattributed") add up to the block's
wall time exactly.  Spans opened on other threads are kept in their own
buffers, outside that sum.

Spans live in flat per-thread arrays rather than one object per span:
a hundred thousand live span objects would make the cyclic garbage
collector rescan them over and over, which costs more than the
wrappers themselves.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array
from typing import Any, Callable

#: The layer table: span name -> call-site bindings ("module:qualname").
#: A binding is the attribute the *caller* resolves at call time, so a
#: function imported into several modules is listed once per importer
#: whose calls should count.  The same function can carry different
#: layer names at different call sites (``refine`` from the pipeline vs
#: from the windowed stitch).
LAYERS: dict[str, tuple[str, ...]] = {
    # Batch pipeline, tiled executor and the fracturer interface.
    "mdp": ("repro.mask.mdp:MdpPipeline.run",),
    "fracture": ("repro.fracture.base:Fracturer.fracture",),
    "windowed": ("repro.fracture.windowed:WindowedFracturer.fracture_shots",),
    "portfolio": ("repro.fracture.pipeline:ModelBasedFracturer.fracture_shots",),
    # Algorithm 1 and its initializer.
    "coloring": ("repro.fracture.pipeline:approximate_fracture",),
    "refine": (
        "repro.fracture.pipeline:refine",
        "repro.fracture.refine:refine",
    ),
    "polish": ("repro.fracture.pipeline:reduce_shot_count",),
    "edge_adjust": ("repro.fracture.refine:greedy_shot_edge_adjustment",),
    "add_remove": (
        "repro.fracture.refine:add_shot",
        "repro.fracture.refine:remove_shot",
    ),
    "merge": ("repro.fracture.refine:merge_shots",),
    "bias": ("repro.fracture.refine:bias_all_shots",),
    "state.init": ("repro.fracture.state:RefinementState.__init__",),
    "state.report": ("repro.fracture.state:RefinementState.report",),
    "verify": (
        "repro.fracture.base:check_solution",
        "repro.fracture.pipeline:check_solution",
        "repro.fracture.windowed:check_solution",
    ),
    "shape.rasterize": (
        "repro.mask.shape:MaskShape.from_polygon",
        "repro.mask.shape:MaskShape.from_mask",
    ),
    # Tiling, the tile pool and the seam stitch.
    "tiling.plan": ("repro.fracture.windowed:plan_tiles",),
    "tiling.extract": ("repro.fracture.windowed:extract_tile_shapes",),
    "tiling.seams": (
        "repro.fracture.windowed:seam_band_masks",
        "repro.fracture.windowed:split_seam_shots",
    ),
    "tiles.run": ("repro.fracture.windowed:run_tiles",),
    # run_pool imports ProcessPoolExecutor at call time; worker processes
    # are created inside submit (one per submit until the pool is full).
    "tiles.pool_spawn": ("concurrent.futures.process:ProcessPoolExecutor.submit",),
    "tiles.pool_shutdown": (
        "concurrent.futures.process:ProcessPoolExecutor.shutdown",
    ),
    "stitch.refine": ("repro.fracture.windowed:refine",),
    # GDSII, hierarchy and the content-addressed cache.
    "gds.write": ("repro.mask.gds:write_layout",),
    "gds.read": ("repro.mask.gds:read_layout",),
    "hierarchy": ("repro.mask.hierarchy:fracture_layout",),
    "hierarchy.walk": ("repro.mask.hierarchy:placed_polygons",),
    "hierarchy.fingerprint": ("repro.mask.hierarchy:fingerprint_polygon",),
    "cache.get": ("repro.fracture.cache:FractureCache.get",),
    "cache.put": (
        "repro.fracture.cache:FractureCache.put",
        "repro.mask.hierarchy:result_to_payload",
    ),
    "cache.replay": ("repro.mask.hierarchy:result_from_payload",),
    "io.write": (
        "repro.mask.mdp:save_solution",
        "repro.mask.io:save_solution",
    ),
    # Daemon client round trips.
    "client.submit": ("repro.service.client:ServiceClient.submit",),
    "client.wait": ("repro.service.client:ServiceClient.wait",),
    "client.result": ("repro.service.client:ServiceClient.result",),
}

ROOT = "workload"


def resolve(target: str) -> tuple[Any, str, Any]:
    """``"module:qualname"`` -> (owner, attribute, raw bound object).

    The attribute must live in the owner's own ``__dict__``: patching an
    inherited name would shadow it on a subclass instead of replacing
    the binding.  Anything else raises, so a rename in the program fails
    loudly instead of silently dropping a layer.
    """
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    try:
        raw = vars(owner)[attr]
    except KeyError:
        raise LookupError(f"layer target {target} does not resolve") from None
    return owner, attr, raw


class _Spans:
    """One thread's spans as parallel arrays; ``parent`` -1 means none."""

    __slots__ = ("names", "start", "end", "parent", "child", "stack")

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.child = array("d")  # time covered by direct children
        self.stack: list[int] = []

    def open(self, name: str, now: float) -> int:
        index = len(self.names)
        self.names.append(name)
        self.start.append(now)
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.child.append(0.0)
        self.stack.append(index)
        return index

    def close(self, index: int, now: float) -> None:
        self.end[index] = now
        self.stack.pop()
        parent = self.parent[index]
        if parent >= 0:
            self.child[parent] += now - self.start[index]


class Tracer:
    """Install span wrappers on enter, restore every binding on exit."""

    def __init__(self, layers: dict[str, tuple[str, ...]] = LAYERS):
        self.layers = layers
        self._local = threading.local()
        self._buffers: list[_Spans] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []
        self._main: _Spans | None = None

    def _spans(self) -> _Spans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _Spans()
            with self._lock:
                self._buffers.append(spans)
        return spans

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans_of = self._spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = spans_of()
            index = spans.open(name, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                spans.close(index, clock())

        return traced

    def _patched(self, name: str, raw: Any) -> Any:
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(name, raw.__func__))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(name, raw.__func__))
        if not callable(raw):
            raise TypeError(f"layer {name}: {raw!r} is not callable")
        return self._wrap(name, raw)

    def __enter__(self) -> "Tracer":
        try:
            for name, targets in self.layers.items():
                for target in targets:
                    owner, attr, raw = resolve(target)
                    self._saved.append((owner, attr, raw))
                    setattr(owner, attr, self._patched(name, raw))
        except BaseException:
            self._restore()
            raise
        self._main = self._spans()
        self._main.open(ROOT, time.perf_counter())
        return self

    def __exit__(self, *exc: object) -> bool:
        self._main.close(0, time.perf_counter())
        self._restore()
        return False

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- reading the spans -------------------------------------------------

    @property
    def wall_s(self) -> float:
        return self._main.end[0] - self._main.start[0]

    @property
    def span_count(self) -> int:
        return sum(len(spans.names) for spans in self._buffers)

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name on the tracing thread: calls, inclusive and self
        seconds.  The self times sum to :attr:`wall_s`.  A recursive call
        (``refine`` inside ``polish``'s ``refine``) adds its self time,
        and adds to the inclusive time only when no enclosing span has
        the same name."""
        s = self._main
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(s.names):
            duration = s.end[i] - s.start[i]
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += duration - s.child[i]
            parent = s.parent[i]
            while parent >= 0 and s.names[parent] != name:
                parent = s.parent[parent]
            if parent < 0:
                entry["total_s"] += duration
        return out

    def span_tree(self) -> dict[str, Any]:
        """Spans of the tracing thread folded by call path:
        ``{name, calls, total_s, self_s, children}``."""
        s = self._main
        nodes: list[dict[str, Any]] = []
        for i, name in enumerate(s.names):
            parent = s.parent[i]
            if parent < 0:
                node = {"name": name, "calls": 0, "total_s": 0.0, "self_s": 0.0,
                        "children": {}}
                root = node
            else:
                siblings = nodes[parent]["children"]
                node = siblings.get(name)
                if node is None:
                    node = siblings[name] = {"name": name, "calls": 0, "total_s": 0.0,
                                             "self_s": 0.0, "children": {}}
            duration = s.end[i] - s.start[i]
            node["calls"] += 1
            node["total_s"] += duration
            node["self_s"] += duration - s.child[i]
            nodes.append(node)
        return _listify(root)

    def durations(self, name: str) -> list[float]:
        """Durations of every span called ``name``, on any thread."""
        return [
            spans.end[i] - spans.start[i]
            for spans in self._buffers
            for i, span_name in enumerate(spans.names)
            if span_name == name
        ]


def _listify(node: dict[str, Any]) -> dict[str, Any]:
    out = {k: node[k] for k in ("name", "calls", "total_s", "self_s")}
    children = sorted(node["children"].values(), key=lambda c: -c["total_s"])
    if children:
        out["children"] = [_listify(child) for child in children]
    return out


def calibrate_overhead_s(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call (median of 5)."""

    def noop() -> None:
        return None

    samples = []
    for _ in range(5):
        wrapped = Tracer(layers={})._wrap("calibration", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        samples.append((time.perf_counter() - start - bare) / calls)
    return max(0.0, sorted(samples)[2])
