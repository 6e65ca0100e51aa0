"""The four seeded workloads: input generators and the measured passes.

Each workload runs in a fresh process started by ``run.py``.  The
process builds its inputs from ``--seed`` (set-up), then repeats the
workload's pass until ``--seconds`` is spent, and reports what it
measured as one JSON document.  In a ``--trace`` run every second pass
is traced (see :mod:`tracer`), so one process measures traced and
untraced passes and their difference is the tracing overhead.

Only the generated inputs reach the program; the seed never does.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from queue import Queue
from typing import Any, Callable

import numpy as np

from repro.bench.shapes import ilt_suite
from repro.fracture.cache import FractureCache
from repro.fracture.pipeline import ModelBasedFracturer, RefineConfig
from repro.fracture.refine import RefineParams
from repro.fracture.tiling import halo_nm
from repro.fracture.windowed import WindowedFracturer
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.raster import PixelGrid
from repro.geometry.transform import Transform
from repro.mask import gds, hierarchy, io
from repro.mask.constraints import FractureSpec, check_solution
from repro.mask.gds import TARGET_LAYER, GdsCell, GdsRef, Layout
from repro.mask.mdp import MdpPipeline
from repro.mask.shape import MaskShape
from repro.methods import make_fracturer
from repro.obs import recording
from repro.obs.recorder import NullRecorder
from repro.service.client import CircuitBreaker, RetryPolicy, ServiceClient, ServiceError

from metrics import MAX_GEN_LAG_P95_S, percentile
from tracer import LAYERS, ROOT, Tracer, calibrate_overhead_s

WORKLOADS = ("mdp-ilt", "chip-tiled", "gds-wafer", "daemon-open")
SPEC = FractureSpec()
CLOCK = time.perf_counter


@dataclass
class Inputs:
    seed: int
    scale: str
    data: Any
    digest: str


class CounterRecorder(NullRecorder):
    """A null recorder that keeps the program's counters and observations.

    Installed only during traced passes: spans stay no-ops, so the only
    cost is one dict update per ``incr``/``observe`` call.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.observed: dict[str, float] = {}

    def incr(self, name: str, value: int | float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        self.observed[name] = self.observed.get(name, 0.0) + value


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


# -- input generators -----------------------------------------------------------

#: Clips of the mdp-ilt batch.  ILT-6 is left out because no method in
#: the repo makes it feasible, and the slowest feasible clips are left
#: out so that several passes fit in one run.
MDP_CLIPS = {"full": ("ILT-1", "ILT-3", "ILT-5", "ILT-10"), "smoke": ("ILT-10",)}


def mdp_inputs(seed: int, scale: str) -> list[MaskShape]:
    """The batch clips; seeds other than 0 shift each clip by whole nm."""
    rng = random.Random(seed)
    suite = {shape.name: shape for shape in ilt_suite()}
    shapes = []
    for name in MDP_CLIPS[scale]:
        shape = suite[name]
        dx, dy = (0, 0) if seed == 0 else (rng.randint(-50, 50), rng.randint(-50, 50))
        grid = shape.grid
        shifted = PixelGrid(grid.x0 + dx, grid.y0 + dy, grid.pitch, grid.nx, grid.ny)
        shapes.append(MaskShape.from_mask(shape.inside, shifted, name=name))
    return shapes


CHIP_TILES = {"full": (6, 4), "smoke": (2, 1)}
TILE_NM = 300.0


def chip_inputs(seed: int, scale: str) -> MaskShape:
    """Rows of bars alternating with rows of contact islands.

    The stitch's cost is set by where the tile seams cut the layout, so
    the generator fixes that and randomizes the rest.  Every bar row runs
    from the left edge of the layout to the right one, so the bounding
    box, and with it the tile seams, never moves.  Each tile holds, well
    inside its core, exactly one gap of every bar row and one island of
    every contact row: every vertical seam cuts every bar row, and no
    bar end or island comes within a halo of a vertical seam.  The seed
    draws where in its tile each gap and island sits.
    """
    rng = random.Random(seed)
    tiles_x, tiles_y = CHIP_TILES[scale]
    margin = 40
    width, height = int(tiles_x * TILE_NM), int(tiles_y * TILE_NM)
    grid = PixelGrid(0.0, 0.0, 1.0, width + 2 * margin, height + 2 * margin)
    mask = np.zeros(grid.shape, dtype=bool)
    x0, x1 = margin + 10, margin + width - 10
    tiles = math.ceil((x1 - x0) / TILE_NM)  # as plan_tiles splits the extent
    edges = [x0 + k * (x1 - x0) / tiles for k in range(tiles + 1)]
    keep_out = math.ceil(halo_nm(SPEC)) + 20
    bar_h, island = 40, 26
    y, row = margin + 20, 0
    while y + bar_h <= margin + height - 10:
        bars = row % 2 == 0
        if bars:
            mask[y:y + bar_h, x0:x1] = True
        for lo, hi in zip(edges[:-1], edges[1:]):
            lo, hi = math.ceil(lo) + keep_out, math.floor(hi) - keep_out
            if bars:
                gap = rng.randint(40, 60)
                x = rng.randint(lo, hi - gap)
                mask[y:y + bar_h, x:x + gap] = False
            else:
                x = rng.randint(lo, hi - island)
                mask[y:y + island, x:x + island] = True
        y += 75
        row += 1
    return MaskShape.from_mask(mask, grid, name=f"chip-{tiles_x}x{tiles_y}")


MANHATTAN = {
    "bar": [(0, 0), (120, 0), (120, 40), (0, 40)],
    "contact": [(0, 0), (40, 0), (40, 40), (0, 40)],
    "L": [(0, 0), (80, 0), (80, 40), (40, 40), (40, 120), (0, 120)],
    "T": [(0, 0), (120, 0), (120, 40), (80, 40), (80, 110), (40, 110),
          (40, 40), (0, 40)],
    "cross": [(40, 0), (80, 0), (80, 40), (120, 40), (120, 80), (80, 80),
              (80, 120), (40, 120), (40, 80), (0, 80), (0, 40), (40, 40)],
    "jog": [(0, 0), (90, 0), (90, 40), (140, 40), (140, 80), (50, 80),
            (50, 40), (0, 40)],
}
#: ILT contours placed in the chip cell.  ILT-3 is left out: its rotated
#: template alone costs ~0.9 s, which would leave room for one repeat.
GDS_ILT = ("ILT-1", "ILT-10")
#: (copies of each Manhattan shape, copies of each ILT shape, CHIP slots
#: per side, UNIT array size per side of TOP) per scale.
GDS_SIZES = {"full": (15, 5, 10, 5), "smoke": (2, 0, 4, 2)}
SLOT_NM = 280


def _at_origin(polygon: Polygon) -> Polygon:
    box = polygon.bounding_box()
    return Transform.translation(-box.xbl, -box.ybl).apply_polygon(polygon)


def gds_inputs(seed: int, scale: str) -> Layout:
    """A CHIP cell of polygons on a slot grid, arrayed across a wafer.

    The first slots hold one copy of every shape at fixed positions (the
    cell library), so each unique geometry is first placed, and
    fractured as a template, at the same spot for every seed; the
    method evaluates its model in absolute coordinates, so moving a
    template would change its refinement path.  The seed permutes the
    remaining copies over the other slots and jitters them by whole nm.
    UNIT is a 2x3 array of CHIP.  TOP arrays UNIT and adds one rotated
    and one mirrored UNIT, so every shape appears in three orientations.
    """
    rng = random.Random(seed)
    copies, ilt_copies, slots, arrays = GDS_SIZES[scale]
    suite = {shape.name: shape for shape in ilt_suite()}
    manhattan = [Polygon(v) for v in MANHATTAN.values()]
    ilt = [_at_origin(suite[name].polygon) for name in GDS_ILT] if ilt_copies else []
    library = manhattan + ilt
    extras = manhattan * (copies - 1) + ilt * (ilt_copies - 1)
    rng.shuffle(extras)
    placed = [(polygon, slot, 0, 0) for slot, polygon in enumerate(library)]
    free = rng.sample(range(len(library), slots * slots), len(extras))
    placed += [(polygon, slot, rng.randint(0, 30), rng.randint(0, 30))
               for polygon, slot in zip(extras, free)]
    chip = GdsCell("CHIP")
    for polygon, slot, dx, dy in placed:
        x = (slot % slots) * SLOT_NM + dx
        y = (slot // slots) * SLOT_NM + dy
        chip.polygons.append(
            (TARGET_LAYER, Transform.translation(x, y).apply_polygon(polygon))
        )
    chip_pitch = slots * SLOT_NM + 100
    unit = GdsCell("UNIT", refs=[
        GdsRef.array("CHIP", (0.0, 0.0), cols=2, rows=3,
                     col_pitch=chip_pitch, row_pitch=chip_pitch),
    ])
    unit_w, unit_h = 2 * chip_pitch + 500, 3 * chip_pitch + 500
    edge = arrays * unit_w
    top = GdsCell("TOP", refs=[
        GdsRef.array("UNIT", (0.0, 0.0), cols=arrays, rows=arrays,
                     col_pitch=unit_w, row_pitch=unit_h),
        GdsRef("UNIT", origin=(edge + unit_h, 0.0), rotation=90),
        GdsRef("UNIT", origin=(edge, 2 * unit_h), mirror_x=True),
    ])
    return Layout(cells={"CHIP": chip, "UNIT": unit, "TOP": top}, top="TOP")


def _layout_digest(layout: Layout) -> str:
    return _digest([
        [name,
         [[layer, [[p.x, p.y] for p in poly.vertices]] for layer, poly in cell.polygons],
         [[r.cell, r.origin, r.rotation, r.mirror_x, r.cols, r.rows,
           r.col_vec, r.row_vec] for r in cell.refs]]
        for name, cell in layout.cells.items()
    ])


#: (arrival rate in jobs/s, share of --seconds) per open-loop step.
DAEMON_STEPS = {"full": ((20.0, 0.6), (40.0, 0.4)), "smoke": ((10.0, 0.6), (20.0, 0.4))}
#: Job mix of every step: (kind, share).
DAEMON_MIX = (("small", 0.8), ("resubmit", 0.1), ("tiled", 0.1))


def daemon_inputs(seed: int, scale: str, seconds: float) -> list[dict]:
    """Open-loop schedule: Poisson arrivals with a fixed count per step.

    A step of rate r and length T holds exactly round(r * T) arrivals at
    seeded uniform times, which is a Poisson process conditioned on its
    count, and exactly the shares of ``DAEMON_MIX`` in seeded order:
    distinct small rectangles fractured with ``gsc``, resubmissions of a
    rectangle sent at least 1 s earlier (served by the daemon's result
    cache), and distinct bars tiled at 100 nm around ``partition``.
    Fixed counts keep the 95th percentile at the same rank of the tiled
    jobs' latencies from seed to seed.  Small clips do not use
    ``partition``: it ignores the blur, so every rectangle it fractures
    fails Eq. 4, while ``gsc`` passes on rectangles at ~4 ms a clip.
    """
    rng = random.Random(seed)
    jobs: list[dict] = []
    used: set[tuple] = set()
    step_start = 0.0
    for step, (rate, share) in enumerate(DAEMON_STEPS[scale]):
        length = share * seconds
        count = round(rate * length)
        kinds = [kind for kind, part in DAEMON_MIX for _ in range(round(part * count))]
        kinds = (kinds + ["small"] * count)[:count]
        rng.shuffle(kinds)
        dues = sorted(step_start + rng.uniform(0.0, length) for _ in range(count))
        for due, kind in zip(dues, kinds):
            earlier = [j for j in jobs if j["kind"] == "small" and j["due"] <= due - 1.0]
            if kind == "resubmit" and earlier:
                job = dict(rng.choice(earlier), kind="resubmit", idempotent=False)
            elif kind == "tiled":
                job = _distinct(rng, used, _tiled_bar)
            else:
                job = _distinct(rng, used, _small_clip)
            job.update(due=due, step=step, name=f"j{len(jobs)}")
            jobs.append(job)
        step_start += length
    return jobs


def _distinct(rng: random.Random, used: set, make: Callable) -> dict:
    while True:
        key, job = make(rng)
        if key not in used:
            used.add(key)
            return job


def _small_clip(rng: random.Random) -> tuple[tuple, dict]:
    w, h = rng.randint(30, 90), rng.randint(30, 90)
    verts = [[0, 0], [w, 0], [w, h], [0, h]]
    return ("rect", w, h), {"kind": "small", "clips": {"clip": verts},
                            "method": "gsc", "window_nm": None, "idempotent": True}


def _tiled_bar(rng: random.Random) -> tuple[tuple, dict]:
    length = rng.randint(1050, 1150)
    verts = [[0, 0], [length, 0], [length, 60], [0, 60]]
    return ("bar", length), {"kind": "tiled", "clips": {"bar": verts},
                             "method": "partition", "window_nm": 100.0,
                             "idempotent": True}


def build_inputs(workload: str, seed: int, scale: str, seconds: float) -> Inputs:
    if workload == "mdp-ilt":
        data: Any = mdp_inputs(seed, scale)
        digest = _digest([[s.name, s.grid.x0, s.grid.y0] for s in data],
                         *[s.inside for s in data])
    elif workload == "chip-tiled":
        data = chip_inputs(seed, scale)
        digest = _digest(data.inside)
    elif workload == "gds-wafer":
        data = gds_inputs(seed, scale)
        digest = _layout_digest(data)
    elif workload == "daemon-open":
        data = daemon_inputs(seed, scale, seconds)
        digest = _digest(data)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return Inputs(seed, scale, data, digest)


# -- measured passes ------------------------------------------------------------


@dataclass
class Pass:
    warmup: bool
    traced: bool
    wall_s: float
    output: Any
    tracer: Tracer | None = None
    counters: CounterRecorder | None = None


class PassLoop:
    """Repeat a pass until the time budget is spent.

    The first pass of a process is often the slowest (first allocations,
    lazily built tables, pool start-up), so it is a warm-up: timed and
    reported, but left out of the statistics.  In a traced run the
    passes after it alternate traced/untraced; a traced pass runs under
    a fresh :class:`Tracer` and a :class:`CounterRecorder`.
    """

    #: A run measures at least this many passes, the warm-up included.
    MIN_PASSES = 3

    def __init__(self, seconds: float, trace: bool):
        self.seconds = seconds
        self.trace = trace
        self.passes: list[Pass] = []

    def run(self, one_pass: Callable[[], Any]) -> "PassLoop":
        start = CLOCK()
        while True:
            warmup = not self.passes
            if self.trace and len(self.passes) % 2 == 1:
                tracer, counters = Tracer(), CounterRecorder()
                with recording(counters), tracer:
                    t0 = CLOCK()
                    output = one_pass()
                    wall = CLOCK() - t0
                self.passes.append(Pass(False, True, wall, output, tracer, counters))
            else:
                t0 = CLOCK()
                output = one_pass()
                wall = CLOCK() - t0
                self.passes.append(Pass(warmup, False, wall, output))
            spent = CLOCK() - start
            if len(self.passes) >= self.MIN_PASSES and spent + wall > self.seconds:
                return self

    def untraced(self) -> list[Pass]:
        """The measured untraced passes (the warm-up excluded)."""
        return [p for p in self.passes if not p.traced and not p.warmup]

    def traced(self) -> list[Pass]:
        return [p for p in self.passes if p.traced]

    @property
    def pass_walls(self) -> list[dict[str, Any]]:
        return [{"wall_s": p.wall_s, "warmup": p.warmup, "traced": p.traced}
                for p in self.passes]

    def trace_report(self) -> dict[str, Any]:
        """Per-layer seconds averaged per traced pass, plus validity numbers.

        ``trace.ab_delta_frac`` is the traced passes' median wall over the
        untraced passes' minus 1: with one or two passes a side it carries
        the host's pass-to-pass noise (about 5%), so the validity guard
        uses the calibrated estimate in ``trace.overhead_frac`` instead.
        """
        traced = self.traced()
        report = trace_report([p.tracer for p in traced])
        untraced = [p.wall_s for p in self.untraced()]
        report["trace.ab_delta_frac"] = (
            statistics.median(p.wall_s for p in traced) / statistics.median(untraced) - 1.0
        )
        return report

    def counter(self, name: str) -> float:
        traced = self.traced()
        return sum(p.counters.counters.get(name, 0) for p in traced) / len(traced)

    def observed(self, name: str) -> float:
        traced = self.traced()
        return sum(p.counters.observed.get(name, 0.0) for p in traced) / len(traced)


def trace_report(tracers: list[Tracer]) -> dict[str, Any]:
    layers: dict[str, dict[str, float]] = {}
    for tracer in tracers:
        for name, entry in tracer.layer_times().items():
            acc = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
    n = len(tracers)
    layers = {name: {k: v / n for k, v in acc.items()} for name, acc in layers.items()}
    wall = sum(t.wall_s for t in tracers) / n
    spans = sum(t.span_count for t in tracers) / n
    shares = {f"{name}.self_frac": layers.get(name, {}).get("self_s", 0.0) / wall
              for name in LAYERS}
    return {
        "layers": layers,
        "layer_shares": shares,
        "span_tree": tracers[-1].span_tree(),
        "traced_passes": n,
        "traced_wall_s": wall,
        "spans_per_pass": spans,
        "unattributed_frac": layers[ROOT]["self_s"] / wall,
        # What the wrappers cost: calibrated seconds per span times spans.
        "trace.overhead_frac": calibrate_overhead_s() * spans / wall,
    }


def _self(layers: dict, name: str) -> float:
    return layers.get(name, {}).get("self_s", 0.0)


def _total(layers: dict, name: str) -> float:
    return layers.get(name, {}).get("total_s", 0.0)


def _algorithm_layers(loop: PassLoop, layers: dict) -> dict[str, float]:
    """Per-layer numbers of the fracturing algorithm, for any workload."""
    hits = loop.counter("cache.profile.hits")
    misses = loop.counter("cache.profile.misses")
    candidates = loop.counter("refine.candidates_priced")
    edge_total = _total(layers, "edge_adjust")
    return {
        "edge_adjust.self_s": _self(layers, "edge_adjust"),
        "pricing.candidates": candidates,
        "pricing.candidates_per_s": candidates / edge_total if edge_total else 0.0,
        "add_remove.self_s": _self(layers, "add_remove"),
        "merge.self_s": _self(layers, "merge"),
        "bias.self_s": _self(layers, "bias"),
        "state.report_s": _self(layers, "state.report"),
        "state.init_s": _self(layers, "state.init"),
        "refine.self_s": _self(layers, "refine"),
        "refine.iterations": loop.observed("refine.iterations"),
        "polish.self_s": _self(layers, "polish"),
        "portfolio.runs": loop.counter("pipeline.portfolio_runs"),
        "coloring.self_s": _self(layers, "coloring"),
        "profile_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "verify.self_s": _self(layers, "verify"),
        "shape.rasterize_s": _total(layers, "shape.rasterize"),
    }


def _failing(shots, shape: MaskShape) -> int:
    """Eq. 4 re-checked independently: total failing pixels."""
    return check_solution(shots, shape, SPEC).total_failing


def peak_rss_mb(pid: int | str = "self") -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- mdp-ilt ----------------------------------------------------------------------


def run_mdp(inputs: Inputs, seconds: float, trace: bool, work: Path) -> dict:
    shapes: list[MaskShape] = inputs.data
    out_dir = work / "mdp"

    def one_pass():
        report = MdpPipeline(make_fracturer("ours"), SPEC).run(
            shapes, workers=1, output_dir=out_dir
        )
        # Keep shots and verdicts only: the full reports hold per-pixel
        # arrays, and peak RSS must not depend on the number of passes.
        return [(r.shots, r.feasible) for r in report.results]

    loop = PassLoop(seconds, trace).run(one_pass)
    passes = [p.output for p in loop.passes]
    # Correctness: read the last pass's solutions back from disk, re-check
    # Eq. 4 independently and compare with what the pipeline reported.
    mismatches, failing = [], 0
    for shape, (pass_shots, _feasible) in zip(shapes, passes[-1]):
        shots, _spec, meta = io.load_solution(out_dir / f"{shape.name}.solution.json")
        independent = _failing(shots, shape)
        failing += independent
        if shots != pass_shots or independent != meta["failing_pixels"]:
            mismatches.append(shape.name)
    attempted = sum(len(results) for results in passes)
    failed = sum(not feasible for results in passes for _shots, feasible in results)
    out = {
        "passes": loop.pass_walls,
        "metrics": {
            "wall_s": statistics.median(p.wall_s for p in loop.untraced()),
            "shots": sum(len(shots) for shots, _feasible in passes[-1]),
            "failing_px": failing,
            "failed_frac": failed / attempted,
        },
        "attempted": attempted,
        "failed": failed,
        "correct": not mismatches,
        "checks": {"solutions_read_back": len(shapes), "mismatches": mismatches},
        "validity": {},
    }
    if trace:
        report = loop.trace_report()
        layers = report["layers"]
        report["metrics"] = {
            **_algorithm_layers(loop, layers),
            "io.write_s": _total(layers, "io.write"),
            "io.bytes": sum(p.stat().st_size for p in out_dir.glob("*.json")),
        }
        out["trace"] = report
    return out


# -- chip-tiled ------------------------------------------------------------------


def run_chip(inputs: Inputs, seconds: float, trace: bool, work: Path) -> dict:
    chip: MaskShape = inputs.data

    def one_pass():
        inner = ModelBasedFracturer(
            config=RefineConfig(params=RefineParams(nmax=120, nh=3))
        )
        result = WindowedFracturer(inner, window_nm=TILE_NM, workers=2).fracture(chip, SPEC)
        # The report's per-pixel arrays are dropped, as in run_mdp.
        return {"shots": result.shots, "failing": result.report.total_failing,
                "feasible": result.feasible, "extra": result.extra}

    loop = PassLoop(seconds, trace).run(one_pass)
    results = [p.output for p in loop.passes]
    last = results[-1]
    failing = _failing(last["shots"], chip)
    failed = sum(not r["feasible"] for r in results)
    out = {
        "passes": loop.pass_walls,
        "metrics": {
            "wall_s": statistics.median(p.wall_s for p in loop.untraced()),
            "shots": len(last["shots"]),
            "failing_px": failing,
            "failed_frac": failed / len(results),
        },
        "attempted": len(results),
        "failed": failed,
        "correct": failing == last["failing"],
        "checks": {"independent_failing_px": failing, "reported_failing_px": last["failing"]},
        "validity": {
            "shots_identical_across_passes": all(r["shots"] == last["shots"] for r in results),
        },
    }
    if trace:
        report = loop.trace_report()
        layers = report["layers"]
        extra = [p.output["extra"] for p in loop.traced()]

        def mean(key: Callable[[dict], float]) -> float:
            return sum(key(e) for e in extra) / len(extra)

        report["metrics"] = {
            **_algorithm_layers(loop, layers),
            "tiling.plan_s": _total(layers, "tiling.plan"),
            "tiling.extract_s": _total(layers, "tiling.extract"),
            "tiles.run_s": _total(layers, "tiles.run"),
            "tiles.pool_spawn_s": _total(layers, "tiles.pool_spawn"),
            "tiles.pool_shutdown_s": _total(layers, "tiles.pool_shutdown"),
            "tiles.retries": mean(lambda e: e.get("tile_retries", 0)),
            "stitch.refine_s": _total(layers, "stitch.refine"),
            "stitch.iterations": mean(lambda e: e.get("stitch_iterations", 0)),
            "stitch.candidates": mean(lambda e: e.get("stitch_candidates_priced", 0)),
            "stitch.seam_frac": mean(lambda e: e["seam_px"] / e["grid_px"]),
            "stitch.full_repairs": mean(lambda e: bool(e.get("full_repair"))),
        }
        out["trace"] = report
    return out


# -- gds-wafer -------------------------------------------------------------------

#: Placed polygons re-checked against Eq. 4 per run (~3.5 ms each).
GDS_SAMPLE = {"full": 256, "smoke": 16}


def run_gds(inputs: Inputs, seconds: float, trace: bool, work: Path) -> dict:
    layout: Layout = inputs.data
    cache_dirs: list[Path] = []
    # Only the latest repeat's reports stay alive, so peak memory does not
    # depend on how many repeats fit in the run.
    last: dict[str, Any] = {}
    reference: list = []
    identical = True

    def flow(path: Path, cache_dir: Path, solution: Path):
        parsed = gds.read_layout(path)
        report = hierarchy.fracture_layout(
            parsed, make_fracturer("ours"), SPEC,
            cache=FractureCache(max_entries=4096, persist_dir=cache_dir),
        )
        io.save_solution(report.shots, SPEC, solution, clip_name=layout.top)
        return report

    def one_pass():
        nonlocal identical
        last.clear()
        path = work / f"wafer-{len(cache_dirs)}.gds"
        cache_dir = work / f"cache-{len(cache_dirs)}"
        cache_dirs.append(cache_dir)
        t0 = CLOCK()
        gds.write_layout(layout, path)
        cold = flow(path, cache_dir, work / "cold.solution.json")
        t1 = CLOCK()
        warm = flow(path, cache_dir, work / "warm.solution.json")
        t2 = CLOCK()
        if not reference:
            reference.extend(cold.shots)
        identical &= cold.shots == reference and warm.shots == reference
        last.update(cold=cold, warm=warm)
        return {
            "cold_s": t1 - t0, "warm_s": t2 - t1,
            "feasible": (cold.all_feasible, warm.all_feasible),
            "hit_rates": (cold.stats["hit_rate"], warm.stats["hit_rate"]),
        }

    try:
        loop = PassLoop(seconds, trace).run(one_pass)
    finally:
        for cache_dir in cache_dirs:
            shutil.rmtree(cache_dir, ignore_errors=True)
    outputs = [p.output for p in loop.passes]
    cold = last["cold"]
    # Correctness: the written solution reads back equal, and a seeded
    # sample of placed polygons passes an independent Eq. 4 check.
    read_back, _spec, _meta = io.load_solution(work / "cold.solution.json")
    placed = hierarchy.placed_polygons(layout)
    sample = random.Random(inputs.seed).sample(
        range(len(placed)), min(GDS_SAMPLE[inputs.scale], len(placed))
    )
    mismatches, failing = [], 0
    for index in sample:
        name, polygon = placed[index]
        shape = MaskShape.from_polygon(
            polygon, pitch=SPEC.pitch, margin=SPEC.grid_margin, name=name
        )
        result = cold.results[index]
        independent = _failing(result.shots, shape)
        failing += independent
        if independent != result.report.total_failing:
            mismatches.append(name)
    untraced = [p.output for p in loop.untraced()]
    attempted = 2 * len(outputs)
    failed = sum(not ok for o in outputs for ok in o["feasible"])
    out = {
        "passes": loop.pass_walls,
        "metrics": {
            "wall_s": statistics.median(o["cold_s"] for o in untraced),
            "warm_wall_s": statistics.median(o["warm_s"] for o in untraced),
            "shots": cold.shot_count,
            "failing_px": failing,
            "failed_frac": failed / attempted,
        },
        "attempted": attempted,
        "failed": failed,
        "correct": read_back == cold.shots and not mismatches,
        "checks": {
            "instances": len(placed),
            "unique_geometries": cold.stats["unique_geometries"],
            "sampled_instances": len(sample),
            "mismatches": mismatches[:10],
            "solution_read_back_equal": read_back == cold.shots,
        },
        "validity": {"warm_shots_identical_to_cold": identical},
    }
    if trace:
        report = loop.trace_report()
        layers = report["layers"]
        hit_rates = [rate for p in loop.traced() for rate in p.output["hit_rates"]]
        report["metrics"] = {
            **_algorithm_layers(loop, layers),
            "gds.write_s": _total(layers, "gds.write"),
            "gds.read_s": _total(layers, "gds.read"),
            "hierarchy.walk_s": _total(layers, "hierarchy.walk"),
            "hierarchy.fingerprint_s": _total(layers, "hierarchy.fingerprint"),
            "cache.get_s": _total(layers, "cache.get"),
            "cache.put_s": _total(layers, "cache.put"),
            "cache.replay_s": _total(layers, "cache.replay"),
            "cache.hit_rate": sum(hit_rates) / len(hit_rates),
            "template.fracture_s": _total(layers, "fracture"),
            "template.count": layers.get("fracture", {}).get("calls", 0.0),
            "io.write_s": _total(layers, "io.write"),
            "io.bytes": sum(
                (work / f"{k}.solution.json").stat().st_size for k in ("cold", "warm")
            ),
        }
        out["trace"] = report
    return out


# -- daemon-open -----------------------------------------------------------------

#: Jobs sampled for an independent Eq. 4 re-check of the daemon's result.
DAEMON_SAMPLE = 0.10
#: Latency limit on the p95; a refused or failed job misses it.
LATENCY_LIMIT_S = 0.5


def _proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of ``pid`` (fields 14 and 15 of stat)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Daemon:
    """``repro serve --workers 2`` as a child process on a relative state dir
    (the socket path stays short however deep the checkout is)."""

    def __init__(self, state: str, log: Path):
        self.state = state
        self.log = open(log, "ab")
        start = CLOCK()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state-dir", state,
             "--workers", "2"],
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        # No retry back-off and no circuit breaker: with them the wait
        # would step by the breaker's 0.25 s reset, not by this 5 ms poll.
        client = ServiceClient(state, timeout_s=10.0, retry=RetryPolicy(attempts=1),
                               breaker=CircuitBreaker(failure_threshold=sys.maxsize))
        while True:
            try:
                client.ping()
                break
            except ServiceError:
                if self.proc.poll() is not None or CLOCK() - start > 60.0:
                    self.stop()
                    raise RuntimeError(f"daemon on {state} never answered ping")
                time.sleep(0.005)
        self.setup_s = CLOCK() - start

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                ServiceClient(self.state, timeout_s=10.0).shutdown("drain")
            self.proc.wait(timeout=30)
        except (ServiceError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.log.close()


def run_daemon(inputs: Inputs, seconds: float, trace: bool, work: Path) -> dict:
    jobs: list[dict] = inputs.data
    setups = []
    for k in range(2):
        probe = Daemon(f"state-probe{k}", work / "daemon.log")
        setups.append(probe.setup_s)
        probe.stop()
    daemon = Daemon("state", work / "daemon.log")
    setups.append(daemon.setup_s)
    try:
        _warm_up(daemon)
        tracer = Tracer() if trace else None
        with tracer or contextlib.nullcontext():
            outcome = _open_loop(jobs, daemon)
        outcome["peak_rss_mb"] = peak_rss_mb(daemon.pid)
    finally:
        daemon.stop()
    return _daemon_report(inputs, outcome, setups, tracer)


#: Warm-up jobs: one small clip and one tiled bar, with geometry outside
#: the ranges the schedule draws from, so no scheduled job is a result
#: cache hit because of them.
WARMUP_JOBS = (
    ({"clip": [[0, 0], [95, 0], [95, 95], [0, 95]]}, "gsc", None),
    ({"bar": [[0, 0], [1200, 0], [1200, 60], [0, 60]]}, "partition", 100.0),
)


def _warm_up(daemon: Daemon, rounds: int = 3) -> None:
    """Run the warm-up jobs one at a time before the schedule starts.

    A fresh daemon builds its tables on first use: its first job takes
    0.1-0.3 s and the jobs due behind it queue.  A daemon serves for a
    long time, so its users do not pay that on every request.  Rounds
    after the first are result-cache hits, which warms that path too.
    """
    client = ServiceClient(daemon.state, timeout_s=60.0)
    for k in range(rounds):
        for clips, method, window_nm in WARMUP_JOBS:
            job_id = client.submit(clips, name=f"warmup{k}", method=method,
                                   window_nm=window_nm, idempotent=False)
            if client.wait(job_id, timeout_s=60.0)["state"] != "done":
                raise RuntimeError(f"warm-up job {job_id} did not finish")
            client.result(job_id)


def _open_loop(jobs: list[dict], daemon: Daemon) -> dict:
    """Send every job at its due time from this thread; a second thread
    waits for each job and fetches its result."""
    submitter = ServiceClient(daemon.state, timeout_s=60.0)
    collector = ServiceClient(daemon.state, timeout_s=60.0)
    sent: list[dict] = [{} for _ in jobs]
    queue: Queue = Queue()

    def collect() -> None:
        while (item := queue.get()) is not None:
            index, job_id = item
            try:
                record = collector.wait(job_id, timeout_s=60.0)
                sent[index]["record"] = record
                if record["state"] == "done":
                    t0 = CLOCK()
                    sent[index]["result"] = collector.result(job_id)
                    sent[index]["result_rtt_s"] = CLOCK() - t0
            except ServiceError as error:
                sent[index]["error"] = error.code

    thread = threading.Thread(target=collect, name="collector")
    thread.start()
    cpu0 = _proc_cpu_s(daemon.pid)
    t0, t0_unix = CLOCK(), time.time()
    try:
        for index, job in enumerate(jobs):
            due = t0 + job["due"]
            delay = due - CLOCK()
            if delay > 0:
                time.sleep(delay)
            start = CLOCK()
            entry = sent[index]
            entry["lag_s"] = start - due
            entry["due_unix"] = t0_unix + job["due"]
            try:
                job_id = submitter.submit(
                    job["clips"], name=job["name"], method=job["method"],
                    window_nm=job["window_nm"], idempotent=job["idempotent"],
                )
            except ServiceError as error:
                entry["error"] = error.code
                continue
            entry["submit_rtt_s"] = CLOCK() - start
            queue.put((index, job_id))
    finally:
        queue.put(None)
        thread.join()
    wall = CLOCK() - t0
    return {"sent": sent, "wall_s": wall, "cpu_s": _proc_cpu_s(daemon.pid) - cpu0}


def _daemon_report(
    inputs: Inputs, outcome: dict, setups: list[float], tracer: Tracer | None
) -> dict:
    jobs, sent = inputs.data, outcome["sent"]
    limit_miss = max(LATENCY_LIMIT_S, outcome["wall_s"])
    latencies: dict[int, list[float]] = {0: [], 1: []}
    # A done job's latency splits into generator lag, ingress (send to
    # the daemon's job record), queue wait, run and the result round trip.
    parts: dict[str, list[float]] = {
        "lag": [], "overhead": [], "queue_wait": [], "run": [], "result": [],
    }
    failed, shots, cache_hits = 0, 0, 0
    for job, entry in zip(jobs, sent):
        result = entry.get("result")
        feasible = result is not None and result["totals"]["feasible"]
        if not feasible:
            failed += 1
            latencies[job["step"]].append(limit_miss)
            continue
        record = entry["record"]
        latency = record["finished_unix"] - entry["due_unix"] + entry["result_rtt_s"]
        latencies[job["step"]].append(latency)
        shots += result["totals"]["shots"]
        cache_hits += result["totals"]["cached_clips"]
        parts["lag"].append(entry["lag_s"])
        parts["queue_wait"].append(record["queue_wait_s"])
        parts["run"].append(record["run_wall_s"])
        parts["result"].append(entry["result_rtt_s"])
        parts["overhead"].append(
            latency - entry["lag_s"] - record["queue_wait_s"]
            - record["run_wall_s"] - entry["result_rtt_s"]
        )
    # Correctness: re-check a seeded 10% of the daemon's results.
    rng = random.Random(inputs.seed)
    done = [i for i, e in enumerate(sent) if "result" in e]
    sample = rng.sample(done, max(1, round(DAEMON_SAMPLE * len(done))))
    mismatches, failing = [], 0
    for index in sample:
        for name, clip in sent[index]["result"]["clips"].items():
            polygon = Polygon(Point(x, y) for x, y in jobs[index]["clips"][name])
            shape = MaskShape.from_polygon(
                polygon, pitch=SPEC.pitch, margin=SPEC.grid_margin, name=name
            )
            independent = _failing([io.rect_from_list(s) for s in clip["shots"]], shape)
            failing += independent
            if independent != clip["failing_px"] or len(clip["shots"]) != clip["shot_count"]:
                mismatches.append(jobs[index]["name"])
    base, double = latencies[0], latencies[1]
    lag_p95 = percentile([e["lag_s"] for e in sent], 0.95)
    out = {
        "setup_samples": setups,
        "metrics": {
            "wall_s": statistics.median(base),
            "latency_p50_s": statistics.median(base),
            "latency_p95_s": percentile(base, 0.95),
            "latency_p95_2x_s": percentile(double, 0.95),
            "shots": shots,
            "failing_px": failing,
            "failed_frac": failed / len(jobs),
            "peak_rss_mb": outcome["peak_rss_mb"],
        },
        "attempted": len(jobs),
        "failed": failed,
        "correct": not mismatches,
        "checks": {
            "jobs": len(jobs), "samples": {"base": len(base), "double": len(double)},
            "rechecked": len(sample), "mismatches": mismatches[:10],
            "result_cache_hits": cache_hits,
            "refused_or_errored": sum("error" in e for e in sent),
            "limit_s": LATENCY_LIMIT_S,
            "limit_met": {"base": percentile(base, 0.95) <= LATENCY_LIMIT_S,
                          "double": percentile(double, 0.95) <= LATENCY_LIMIT_S},
            "gen_lag_p95_s": lag_p95,
        },
        "validity": {"gen_lag_p95_within_10ms": lag_p95 <= MAX_GEN_LAG_P95_S},
    }
    if tracer is not None:
        report = trace_report([tracer])
        completed = max(1, len(parts["run"]))
        report["metrics"] = {
            "client.submit_p50_s": statistics.median(tracer.durations("client.submit")),
            "client.result_p50_s": statistics.median(tracer.durations("client.result")),
            "service.queue_wait_p50_s": percentile(parts["queue_wait"], 0.5),
            "service.queue_wait_p95_s": percentile(parts["queue_wait"], 0.95),
            "service.run_p50_s": percentile(parts["run"], 0.5),
            "service.run_p95_s": percentile(parts["run"], 0.95),
            "service.overhead_p50_s": percentile(parts["overhead"], 0.5),
            "service.cpu_ms_per_job": 1000.0 * outcome["cpu_s"] / completed,
            "gen.lag_p95_s": lag_p95,
        }
        # Where done jobs' latency goes; the five shares sum to 1.
        done_latency = sum(sum(values) for values in parts.values())
        report["layer_shares"].update({
            name: sum(parts[key]) / done_latency
            for name, key in (
                ("gen.lag.latency_frac", "lag"),
                ("service.overhead.latency_frac", "overhead"),
                ("service.queue_wait.latency_frac", "queue_wait"),
                ("service.run.latency_frac", "run"),
                ("client.result.latency_frac", "result"),
            )
        })
        out["trace"] = report
    return out


RUNNERS = {
    "mdp-ilt": run_mdp,
    "chip-tiled": run_chip,
    "gds-wafer": run_gds,
    "daemon-open": run_daemon,
}
