"""Metric definitions shared by ``run.py`` and ``compare.py``.

``END_TO_END`` lists what a user of each workload sees; ``BENCHMARK.json``
at the repository root repeats the subset every workload reports (the
gate a later change is held to) and its bounds win over the ones here.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
ALL = ("mdp-ilt", "chip-tiled", "gds-wafer", "daemon-open")

#: Validity limits: a run outside them is reported as invalid.
MAX_GEN_LAG_P95_S = 0.010
MAX_TRACE_OVERHEAD = 0.05
MAX_UNATTRIBUTED = 0.05

#: name -> (unit, better, bound, workloads, meaning).  A bound is the
#: share of the baseline median by which the metric may get worse.  The
#: time bounds are wide because the 2-vCPU shared host this was built on
#: drifts: a fixed 0.2 s loop varied with an IQR of 21% of its median
#: over four minutes.  A bound of 0.0 marks an output that must not grow
#: at all; compare.py pairs such values seed by seed.
END_TO_END: dict[str, tuple[str, str, float, tuple[str, ...], str]] = {
    "setup_s": ("s", "lower", 0.25, ALL,
                "imports and input build (daemon: spawn to first ping), median of 3"),
    "wall_s": ("s", "lower", 0.25, ALL,
               "median time one job takes: a batch pass after the warm-up "
               "pass, the gds cold pass, or a daemon job's latency at the "
               "base rate"),
    "warm_wall_s": ("s", "lower", 0.25, ("gds-wafer",),
                    "median warm pass against the cold pass's cache directory"),
    "latency_p50_s": ("s", "lower", 0.25, ("daemon-open",),
                      "job latency (due time to result in hand) at the base rate"),
    "latency_p95_s": ("s", "lower", 0.25, ("daemon-open",),
                      "95th percentile job latency at the base rate"),
    "latency_p95_2x_s": ("s", "lower", 0.25, ("daemon-open",),
                         "95th percentile job latency at twice the base rate"),
    "shots": ("count", "lower", 0.0, ALL, "shots of one pass's output"),
    "failing_px": ("px", "lower", 0.0, ALL,
                   "failing pixels found by an independent Eq. 4 check"),
    "failed_frac": ("ratio", "lower", 0.0, ALL,
                    "(errored + infeasible + refused) / attempted"),
    "peak_rss_mb": ("MB", "lower", 0.15, ALL,
                    "peak resident memory (daemon-open: the daemon's VmHWM)"),
}

#: Per-layer metrics: name -> (unit, end-to-end metric @ workloads it should move).
PER_LAYER: dict[str, tuple[str, str]] = {
    "edge_adjust.self_s": ("s", "wall_s @ mdp-ilt, chip-tiled"),
    "pricing.candidates": ("count", "wall_s @ mdp-ilt, chip-tiled"),
    "pricing.candidates_per_s": ("1/s", "wall_s @ mdp-ilt, chip-tiled"),
    "add_remove.self_s": ("s", "wall_s @ mdp-ilt"),
    "merge.self_s": ("s", "wall_s @ mdp-ilt"),
    "bias.self_s": ("s", "wall_s @ mdp-ilt"),
    "state.report_s": ("s", "wall_s @ mdp-ilt, gds-wafer"),
    "state.init_s": ("s", "wall_s @ mdp-ilt, gds-wafer"),
    "refine.self_s": ("s", "wall_s, shots @ mdp-ilt"),
    "refine.iterations": ("count", "wall_s, shots @ mdp-ilt"),
    "polish.self_s": ("s", "wall_s, shots @ mdp-ilt"),
    "portfolio.runs": ("count", "wall_s, shots @ mdp-ilt"),
    "coloring.self_s": ("s", "wall_s @ mdp-ilt"),
    "profile_cache.hit_rate": ("ratio", "wall_s @ mdp-ilt"),
    "verify.self_s": ("s", "wall_s @ all"),
    "shape.rasterize_s": ("s", "wall_s @ gds-wafer"),
    "tiling.plan_s": ("s", "wall_s @ chip-tiled"),
    "tiling.extract_s": ("s", "wall_s @ chip-tiled"),
    "tiles.run_s": ("s", "wall_s @ chip-tiled"),
    "tiles.pool_spawn_s": ("s", "wall_s @ chip-tiled"),
    "tiles.pool_shutdown_s": ("s", "wall_s @ chip-tiled"),
    "tiles.retries": ("count", "wall_s @ chip-tiled"),
    "stitch.refine_s": ("s", "wall_s @ chip-tiled"),
    "stitch.iterations": ("count", "wall_s @ chip-tiled"),
    "stitch.candidates": ("count", "wall_s @ chip-tiled"),
    "stitch.seam_frac": ("ratio", "wall_s @ chip-tiled"),
    "stitch.full_repairs": ("count", "wall_s @ chip-tiled"),
    "gds.write_s": ("s", "wall_s @ gds-wafer"),
    "gds.read_s": ("s", "wall_s, warm_wall_s @ gds-wafer"),
    "hierarchy.walk_s": ("s", "warm_wall_s @ gds-wafer"),
    "hierarchy.fingerprint_s": ("s", "warm_wall_s @ gds-wafer"),
    "cache.get_s": ("s", "warm_wall_s @ gds-wafer"),
    "cache.put_s": ("s", "wall_s @ gds-wafer"),
    "cache.replay_s": ("s", "warm_wall_s @ gds-wafer"),
    "cache.hit_rate": ("ratio", "warm_wall_s @ gds-wafer"),
    "template.fracture_s": ("s", "wall_s @ gds-wafer"),
    "template.count": ("count", "wall_s @ gds-wafer"),
    "io.write_s": ("s", "wall_s @ mdp-ilt, gds-wafer"),
    "io.bytes": ("bytes", "wall_s @ mdp-ilt, gds-wafer"),
    "client.submit_p50_s": ("s", "latency_p50_s @ daemon-open"),
    "client.result_p50_s": ("s", "latency_p50_s @ daemon-open"),
    "service.queue_wait_p50_s": ("s", "latency_p95_s, latency_p95_2x_s @ daemon-open"),
    "service.queue_wait_p95_s": ("s", "latency_p95_s, latency_p95_2x_s @ daemon-open"),
    "service.run_p50_s": ("s", "latency_p95_s, latency_p95_2x_s @ daemon-open"),
    "service.run_p95_s": ("s", "latency_p95_s, latency_p95_2x_s @ daemon-open"),
    "service.overhead_p50_s": ("s", "latency_p50_s, latency_p95_2x_s @ daemon-open"),
    "service.cpu_ms_per_job": ("ms", "latency_p50_s, latency_p95_2x_s @ daemon-open"),
    "unattributed_frac": ("ratio", "none (validity)"),
    "trace.overhead_frac": ("ratio", "none (validity)"),
    "gen.lag_p95_s": ("s", "none (validity)"),
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def benchmark_spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())
