"""Tiled-executor benchmark: 2-D halo tiles + seam-band stitch.

Generates deterministic synthetic "chip" layouts — rows of rectangular
bars crossing tile seams plus isolated contact islands — sized in tile
units, then sweeps tile-grid size × worker count and reports per config:

* end-to-end wall time of the tiled executor;
* stitch iterations and the ``windowed.stitch_candidates_priced``
  counter (the seam-band restriction evidence: priced candidates scale
  with seam area, not chip area);
* shot count and failing pixels, with the per-component *direct*
  fracture (no tiling) as the shot-count reference;
* a determinism check — workers=4 must reproduce workers=1 exactly.

The committed ``benchmarks/output/BENCH_windowed.json`` also holds the
numbers of the since-removed serial 1-D slab fracturer (``legacy`` keys
and ``speedup_vs_legacy``), kept as the historical record; ``trace
diff`` lists them as "only in base".

Standalone by design (no pytest-benchmark): CI runs it non-gating and
uploads the JSON artifact.

    PYTHONPATH=src python benchmarks/bench_windowed.py \
        --out benchmarks/output/BENCH_windowed.json
    PYTHONPATH=src python benchmarks/bench_windowed.py --reduced ...
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.fracture.pipeline import ModelBasedFracturer, RefineConfig
from repro.fracture.refine import RefineParams
from repro.fracture.runtime import RuntimePolicy
from repro.fracture.windowed import WindowedFracturer
from repro.geometry.labeling import component_masks
from repro.geometry.raster import PixelGrid
from repro.mask.constraints import FractureSpec, check_solution
from repro.mask.shape import MaskShape
from repro.obs import TelemetryRecorder, recording

TILE_NM = 300.0
_MARGIN = 40  # grid padding (px) ≥ FractureSpec.grid_margin for defaults


def chip_shape(tiles_x: int, tiles_y: int, pitch: float = 1.0) -> MaskShape:
    """A deterministic multi-component layout spanning a tile grid.

    Rows of bar segments (40 nm tall, staggered so segments cross the
    vertical seams at x = k·TILE_NM) alternate with rows of isolated
    contact islands.  Every component is rectangular, so tile
    sub-problems converge quickly and the benchmark measures the
    executor, not the inner method's convergence struggles.
    """
    width = int(tiles_x * TILE_NM)
    height = int(tiles_y * TILE_NM)
    grid = PixelGrid(
        0.0, 0.0, pitch, width + 2 * _MARGIN, height + 2 * _MARGIN
    )
    mask = np.zeros(grid.shape, dtype=bool)
    bar_h, island = 40, 26
    row_pitch = 75
    row = 0
    y = _MARGIN + 20
    while y + bar_h <= _MARGIN + height - 10:
        if row % 2 == 0:
            # Bar segments ~250 nm long, staggered by row so several
            # cross each seam line.
            seg, gap = 250, 40
            x = _MARGIN + 10 + (row // 2 % 3) * 90
            while x < _MARGIN + width - 30:
                x_hi = min(x + seg, _MARGIN + width - 10)
                if x_hi - x >= 30:
                    mask[y : y + bar_h, x:x_hi] = True
                x = x_hi + gap
        else:
            # Contact islands between the bar rows.
            x = _MARGIN + 45 + (row % 3) * 60
            while x + island < _MARGIN + width - 30:
                mask[y : y + island, x : x + island] = True
                x += 170
        y += row_pitch
        row += 1
    return MaskShape.from_mask(mask, grid, name=f"chip-{tiles_x}x{tiles_y}")


def _inner(nmax: int) -> ModelBasedFracturer:
    return ModelBasedFracturer(
        config=RefineConfig(params=RefineParams(nmax=nmax, nh=3))
    )


def _direct_reference(shape: MaskShape, spec: FractureSpec, nmax: int) -> dict:
    """Per-component direct fracture — no tiling, no stitch.

    The inner fracturers expect single-polygon problems, so the direct
    reference fractures each connected component on the full grid and
    concatenates.  This is both the shot-count reference and the serial
    no-decomposition wall-time reference.
    """
    inner = _inner(nmax)
    grid = shape.grid
    shots = []
    start = time.perf_counter()
    for k, component in enumerate(component_masks(shape.inside)):
        sub = MaskShape.from_mask(component, grid, name=f"{shape.name}#{k}")
        shots.extend(inner.fracture_shots(sub, spec))
    wall = time.perf_counter() - start
    report = check_solution(shots, shape, spec)
    return {
        "wall_s": wall,
        "shots": len(shots),
        "failing": report.total_failing,
        "components": k + 1,
    }


def _run_tiled(
    shape: MaskShape, spec: FractureSpec, nmax: int, workers: int
) -> tuple[list, dict]:
    fracturer = WindowedFracturer(
        _inner(nmax), window_nm=TILE_NM, workers=workers
    )
    recorder = TelemetryRecorder()
    start = time.perf_counter()
    with recording(recorder):
        shots = fracturer.fracture_shots(shape, spec)
    wall = time.perf_counter() - start
    report = check_solution(shots, shape, spec)
    extra = fracturer._last_extra
    return shots, {
        "workers": workers,
        "wall_s": wall,
        "shots": len(shots),
        "failing": report.total_failing,
        "feasible": report.total_failing == 0,
        "tiles": extra.get("tiles"),
        "stitch_iterations": extra.get("stitch_iterations"),
        "stitch_converged": extra.get("stitch_converged"),
        "stitch_candidates_priced": int(
            recorder.counters.get("windowed.stitch_candidates_priced", 0)
        ),
        "seam_shots": extra.get("seam_shots"),
        "frozen_shots": extra.get("frozen_shots"),
        "full_repair": extra.get("full_repair", False),
    }


def _fault_layer_overhead(
    shape: MaskShape, spec: FractureSpec, nmax: int, repeats: int = 3
) -> dict:
    """Cost of the fault layer's optional features on a fault-free run.

    Compares a plain serial tiled run against the same run with the
    per-tile JSONL checkpoint journal enabled (the priciest optional
    feature: one fsync'd append per tile).  Best-of-``repeats`` wall
    time each; the acceptance bar is < 3% overhead.
    """
    import tempfile

    def best(fracturer: WindowedFracturer) -> float:
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            fracturer.fracture_shots(shape, spec)
            walls.append(time.perf_counter() - start)
        return min(walls)

    plain_wall = best(WindowedFracturer(_inner(nmax), window_nm=TILE_NM))
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        guarded_wall = best(
            WindowedFracturer(
                _inner(nmax), window_nm=TILE_NM,
                runtime=RuntimePolicy(checkpoint_dir=checkpoint_dir),
            )
        )
    return {
        "plain_wall_s": plain_wall,
        "checkpointed_wall_s": guarded_wall,
        "overhead_fraction": guarded_wall / plain_wall - 1.0,
    }


def _streaming_overhead(
    shape: MaskShape, spec: FractureSpec, nmax: int, repeats: int = 3
) -> dict:
    """Cost of live telemetry streaming + worker heartbeats.

    Compares a pooled tiled run against the identical run with a
    :class:`TelemetryStream` attached to the recorder (every span/event/
    convergence record written live to JSONL) and the worker heartbeat
    channel enabled.  Best-of-``repeats`` wall time each; the acceptance
    bar is < 5% overhead, and the merged shot list must be bit-identical
    with streaming on and off.
    """
    import tempfile

    from repro.obs import TelemetryStream

    def best(stream_dir: str | None) -> tuple[float, list]:
        walls = []
        shots: list = []
        for i in range(repeats):
            fracturer = WindowedFracturer(
                _inner(nmax), window_nm=TILE_NM, workers=2,
                runtime=RuntimePolicy(
                    heartbeat_s=0.25 if stream_dir is not None else None
                ),
            )
            stream = (
                TelemetryStream(Path(stream_dir) / f"run{i}.jsonl")
                if stream_dir is not None
                else None
            )
            recorder = TelemetryRecorder(stream=stream)
            start = time.perf_counter()
            with recording(recorder):
                shots = fracturer.fracture_shots(shape, spec)
            walls.append(time.perf_counter() - start)
            if stream is not None:
                stream.close()
        return min(walls), shots

    plain_wall, plain_shots = best(None)
    with tempfile.TemporaryDirectory() as stream_dir:
        streamed_wall, streamed_shots = best(stream_dir)
    return {
        "plain_wall_s": plain_wall,
        "streamed_wall_s": streamed_wall,
        "overhead_fraction": streamed_wall / plain_wall - 1.0,
        "bit_identical_shots": streamed_shots == plain_shots,
    }


def _tracing_overhead(
    shape: MaskShape, spec: FractureSpec, nmax: int, repeats: int = 3
) -> dict:
    """Marginal cost of trace correlation itself.

    Both sides run the full observability stack — live stream, worker
    heartbeats, per-tile checkpoint journal, pooled workers — so the
    comparison isolates exactly what trace propagation adds: minting a
    :class:`TraceContext`, threading it through the runtime into the
    pool initializers, and stamping every stream record, heartbeat and
    journal line with the trace_id.  (The stack's own cost is measured
    separately by the fault-layer and streaming phases.)  Best of
    ``repeats`` wall time each; the acceptance bar is < 5% overhead,
    and the merged shot list must be bit-identical with tracing on and
    off.
    """
    import tempfile

    from repro.obs import TelemetryStream, mint_trace

    def best(work_dir: str, tag: str, traced: bool) -> tuple[float, list]:
        walls = []
        shots: list = []
        for i in range(repeats):
            trace = mint_trace() if traced else None
            fracturer = WindowedFracturer(
                _inner(nmax), window_nm=TILE_NM, workers=2,
                runtime=RuntimePolicy(
                    heartbeat_s=0.25,
                    checkpoint_dir=str(Path(work_dir) / f"ckpt-{tag}{i}"),
                    trace=trace.to_dict() if trace else None,
                ),
            )
            stream = TelemetryStream(
                Path(work_dir) / f"run-{tag}{i}.jsonl",
                trace_id=trace.trace_id if trace else None,
            )
            recorder = TelemetryRecorder(
                stream=stream, trace=trace.to_dict() if trace else None
            )
            start = time.perf_counter()
            with recording(recorder):
                shots = fracturer.fracture_shots(shape, spec)
            walls.append(time.perf_counter() - start)
            stream.close()
        return min(walls), shots

    with tempfile.TemporaryDirectory() as work_dir:
        plain_wall, plain_shots = best(work_dir, "plain", traced=False)
        traced_wall, traced_shots = best(work_dir, "traced", traced=True)
    return {
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "overhead_fraction": traced_wall / plain_wall - 1.0,
        "bit_identical_shots": traced_shots == plain_shots,
    }


def run(grids: list[tuple[int, int]], workers: list[int], nmax: int) -> dict:
    spec = FractureSpec()
    layouts = []
    for tiles_x, tiles_y in grids:
        shape = chip_shape(tiles_x, tiles_y)
        print(f"== {shape.name}: grid {shape.grid.ny}x{shape.grid.nx} px ==")
        direct = _direct_reference(shape, spec, nmax)
        print(
            f"   direct: {direct['wall_s']:.2f}s, {direct['shots']} shots, "
            f"{direct['components']} components, failing {direct['failing']}"
        )
        runs = []
        baseline_shots: list | None = None
        deterministic = True
        for w in workers:
            shots, entry = _run_tiled(shape, spec, nmax, w)
            entry["shot_delta_vs_direct"] = entry["shots"] - direct["shots"]
            if baseline_shots is None:
                baseline_shots = shots
            elif shots != baseline_shots:
                deterministic = False
            runs.append(entry)
            print(
                f"   tiled w={w}: {entry['wall_s']:.2f}s, "
                f"{entry['shots']} shots (Δ{entry['shot_delta_vs_direct']:+d} "
                f"vs direct), failing {entry['failing']}, "
                f"stitch {entry['stitch_iterations']} iters / "
                f"{entry['stitch_candidates_priced']} candidates"
            )
        layouts.append({
            "layout": shape.name,
            "tiles_x": tiles_x,
            "tiles_y": tiles_y,
            "grid_px": list(shape.grid.shape),
            "direct": direct,
            "tiled": runs,
            "deterministic_across_workers": deterministic,
        })
    overhead = _fault_layer_overhead(
        chip_shape(*grids[0]), spec, nmax
    )
    print(
        f"fault layer (checkpoint journal on, fault-free): "
        f"{overhead['overhead_fraction']:+.1%} vs plain"
    )
    streaming = _streaming_overhead(chip_shape(*grids[0]), spec, nmax)
    print(
        f"streaming (live stream + heartbeats, workers=2): "
        f"{streaming['overhead_fraction']:+.1%} vs plain, "
        f"bit-identical shots {streaming['bit_identical_shots']}"
    )
    tracing = _tracing_overhead(chip_shape(*grids[0]), spec, nmax)
    print(
        f"tracing (full obs stack, trace on vs off, workers=2): "
        f"{tracing['overhead_fraction']:+.1%}, "
        f"bit-identical shots {tracing['bit_identical_shots']}"
    )
    # Hard acceptance bars for the correlation layer: stamping ids must
    # never change shots and must stay in the noise (< 5%).
    assert tracing["bit_identical_shots"], \
        "trace propagation changed the merged shot list"
    assert tracing["overhead_fraction"] < 0.05, (
        f"trace propagation overhead {tracing['overhead_fraction']:+.1%} "
        f"exceeds the 5% bar"
    )
    aggregate = {
        "fault_layer": overhead,
        "streaming": streaming,
        "tracing": tracing,
        "all_tiled_feasible": all(
            r["feasible"] for lay in layouts for r in lay["tiled"]
        ),
        "all_deterministic": all(
            lay["deterministic_across_workers"] for lay in layouts
        ),
        "max_abs_shot_delta_vs_direct": max(
            abs(r["shot_delta_vs_direct"])
            for lay in layouts
            for r in lay["tiled"]
        ),
    }
    print(
        f"aggregate: feasible {aggregate['all_tiled_feasible']}, "
        f"deterministic {aggregate['all_deterministic']}"
    )
    return {
        "benchmark": "windowed_tiled_executor",
        "tile_nm": TILE_NM,
        "inner_nmax": nmax,
        "workers": workers,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "layouts": layouts,
        "aggregate": aggregate,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--reduced", action="store_true",
        help="CI-sized sweep: one layout, workers 1 and 2",
    )
    parser.add_argument("--nmax", type=int, default=120)
    parser.add_argument(
        "--out", type=Path,
        default=Path("benchmarks/output/BENCH_windowed.json"),
    )
    args = parser.parse_args()
    if args.reduced:
        grids = [(3, 1)]
        workers = [1, 2]
    else:
        grids = [(2, 1), (3, 1), (3, 2)]
        workers = [1, 4]
    payload = run(grids, workers, args.nmax)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
