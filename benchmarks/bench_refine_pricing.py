"""Refinement pricing benchmark for the default ``"batched"`` engine.

Runs the full refinement loop on the ILT bench clips and reports, per
clip and aggregated:

* candidates priced per second inside the pricing phase (from the
  ``refine.candidates_priced`` counter and the ``pricing`` span);
* end-to-end ``refine`` span wall time (what ``trace summarize`` calls
  the refine phase);
* final shot count, cost and profile-cache hit/miss counts.

The committed ``benchmarks/output/BENCH_refine.json`` also holds the
numbers of the since-removed pre-batching engine (``legacy`` keys and
the speedup fields), kept as the historical record; ``trace diff``
lists them as "only in base".

Standalone by design (no pytest-benchmark): CI runs it non-gating and
uploads the JSON artifact.

    PYTHONPATH=src python benchmarks/bench_refine_pricing.py \
        --nmax 60 --out benchmarks/output/BENCH_refine.json
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path

from repro.bench.shapes import ilt_suite
from repro.fracture.graph_color import approximate_fracture
from repro.fracture.refine import RefineParams, refine
from repro.mask.constraints import FractureSpec
from repro.obs import TelemetryRecorder, phase_breakdown, recording


def _phase_wall(payload: dict, phase: str) -> float:
    for entry in phase_breakdown(payload):
        if entry["phase"] == phase:
            return entry["wall_s"]
    return 0.0


def _run_batched(shape, spec, initial, nmax: int) -> dict:
    recorder = TelemetryRecorder()
    with recording(recorder):
        shots, trace = refine(shape, spec, initial, RefineParams(nmax=nmax))
    payload = recorder.export()
    priced = recorder.counters.get("refine.candidates_priced", 0)
    pricing_wall = _phase_wall(payload, "pricing")
    return {
        "engine": "batched",
        "refine_wall_s": _phase_wall(payload, "refine"),
        "pricing_wall_s": pricing_wall,
        "candidates_priced": int(priced),
        "candidates_per_s": priced / pricing_wall if pricing_wall > 0 else 0.0,
        "final_shots": len(shots),
        "final_cost": trace.cost_history[-1] if trace.cost_history else None,
        "iterations": trace.iterations,
        "profile_cache_hits": int(
            recorder.counters.get("cache.profile.hits", 0)
        ),
        "profile_cache_misses": int(
            recorder.counters.get("cache.profile.misses", 0)
        ),
    }


def run(nmax: int, clips: list[int] | None, repeats: int) -> dict:
    spec = FractureSpec()
    suite = ilt_suite()
    if clips:
        suite = [suite[i] for i in clips]
    results = []
    for shape in suite:
        initial, _ = approximate_fracture(shape, spec)
        # Best-of-N wall times: the box noise is large relative to the
        # per-clip runtime, and minima compare steady-state code speed.
        batched = min(
            (_run_batched(shape, spec, initial, nmax) for _ in range(repeats)),
            key=lambda r: r["refine_wall_s"],
        )
        results.append({
            "clip": shape.name,
            "initial_shots": len(initial),
            "batched": batched,
        })
        print(
            f"{shape.name}: {batched['candidates_per_s']:.0f} cand/s, "
            f"refine wall {batched['refine_wall_s']:.3f}s, "
            f"shots {batched['final_shots']}"
        )
    total_priced = sum(r["batched"]["candidates_priced"] for r in results)
    total_pricing = sum(r["batched"]["pricing_wall_s"] for r in results)
    aggregate = {"batched_candidates_per_s": total_priced / total_pricing}
    print(f"aggregate: {aggregate['batched_candidates_per_s']:.0f} cand/s")
    return {
        "benchmark": "refine_pricing",
        "nmax": nmax,
        "repeats": repeats,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "clips": results,
        "aggregate": aggregate,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=60)
    parser.add_argument(
        "--clips", type=int, nargs="*", default=None,
        help="indices into the ILT suite (default: all clips)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="runs per clip; best wall time wins",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("benchmarks/output/BENCH_refine.json")
    )
    args = parser.parse_args()
    payload = run(args.nmax, args.clips, args.repeats)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
