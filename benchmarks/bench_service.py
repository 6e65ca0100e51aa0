"""Fracture-service benchmark: throughput, latency, and warm-cache win.

Runs a real :class:`FractureService` daemon (in a background thread, on
a private state directory) and drives it through the wire protocol with
the stock :class:`ServiceClient` — the measured path is exactly what a
CLI user gets, socket round-trips included.

Workload: a mixed batch of small contact-like clips (fast, priority 0)
and large tiled bars (``window_nm`` executor, priority 5), submitted
twice:

* **cold** — empty caches: every clip fractures from scratch;
* **warm** — identical resubmission: every clip should hit the
  content-addressed result cache, and the per-job telemetry counters
  (``cache.result.hits``) prove where the speedup came from.

Reported per phase: jobs/sec over the batch, p50/p99 submit-to-settled
latency (overall and per priority class), plus daemon cache statistics
and the warm/cold speedup.  Standalone by design (no pytest-benchmark):
CI runs it non-gating and uploads the JSON artifact.

    PYTHONPATH=src python benchmarks/bench_service.py \
        --out benchmarks/output/BENCH_service.json
    PYTHONPATH=src python benchmarks/bench_service.py --reduced ...
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import tempfile
import threading
import time
from pathlib import Path

from repro.obs import load_telemetry
from repro.service.client import ServiceClient, wait_for_daemon
from repro.service.guard import ServiceLimits
from repro.service.server import FractureService

SMALL_PRIORITY = 0
LARGE_PRIORITY = 5

#: Maximum jobs/sec regression the guarded phase may show against the
#: cold phase before the benchmark itself fails (the hardening PR's
#: acceptance bar: admission + watchdog are per-submit microseconds and
#: one timer tick, invisible next to seconds of fracturing).
MAX_GUARD_OVERHEAD_PCT = 5.0


# -- workload ----------------------------------------------------------------


def small_job(index: int) -> dict:
    """A distinct contact-like square per index (cold phase must miss)."""
    size = 40.0 + 2.0 * index
    return {
        "clips": {f"sq-{index}": [
            [0.0, 0.0], [size, 0.0], [size, size], [0.0, size],
        ]},
        "method": "partition",
        "priority": SMALL_PRIORITY,
        "name": f"small-{index}",
    }


def large_job(index: int) -> dict:
    """A tiled bar (11×1 tiles under window 100) per index."""
    width = 1100.0 + 100.0 * index
    return {
        "clips": {f"bar-{index}": [
            [0.0, 0.0], [width, 0.0], [width, 60.0], [0.0, 60.0],
        ]},
        "method": "partition",
        "window_nm": 100.0,
        "priority": LARGE_PRIORITY,
        "name": f"large-{index}",
    }


def warmup_workload() -> list[dict]:
    """Clips disjoint from the measured workload (content-addressed
    caching would otherwise hand the cold phase warm results)."""
    return [
        {
            "clips": {"warmup-sq": [
                [0.0, 0.0], [33.5, 0.0], [33.5, 33.5], [0.0, 33.5],
            ]},
            "method": "partition",
            "priority": SMALL_PRIORITY,
            "name": "warmup-sq",
        },
        {
            "clips": {"warmup-bar": [
                [0.0, 0.0], [777.0, 0.0], [777.0, 60.0], [0.0, 60.0],
            ]},
            "method": "partition",
            "window_nm": 100.0,
            "priority": LARGE_PRIORITY,
            "name": "warmup-bar",
        },
    ]


def build_workload(reduced: bool) -> list[dict]:
    n_small, n_large = (4, 1) if reduced else (12, 3)
    return (
        [small_job(i) for i in range(n_small)]
        + [large_job(i) for i in range(n_large)]
    )


# -- daemon under test -------------------------------------------------------


def bench_limits() -> ServiceLimits:
    """Every guard armed, none tight enough to shed the bench workload.

    The point is to pay the full enforcement cost on each request —
    admission validation, token-bucket accounting, fair-share lookup,
    watchdog ticks against real heartbeats — without any guard firing.
    """
    return ServiceLimits(
        rate_per_s=1000.0,
        rate_burst=1000,
        queue_share=1.0,
        job_wall_budget_s=600.0,
        watchdog_interval_s=0.25,
        read_deadline_s=30.0,
        idle_timeout_s=300.0,
    )


def start_daemon(
    state_dir: Path, workers: int, limits: ServiceLimits | None = None
) -> threading.Thread:
    """Run the daemon's event loop on a background thread until shutdown."""
    ready = threading.Event()
    failure: list[BaseException] = []

    def run() -> None:
        async def main() -> None:
            service = FractureService(
                state_dir, workers=workers, max_queue_depth=256,
                limits=limits,
            )
            await service.start()
            ready.set()
            await service.run_until_shutdown()

        try:
            asyncio.run(main())
        except BaseException as error:  # surfaced via the join below
            failure.append(error)
            ready.set()

    thread = threading.Thread(target=run, name="bench-daemon", daemon=True)
    thread.start()
    if not ready.wait(timeout=30) or failure:
        raise RuntimeError(f"daemon failed to start: {failure or 'timeout'}")
    return thread


# -- measurement -------------------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile; deterministic and dependency-free."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def latency_stats(latencies: list[float]) -> dict:
    return {
        "count": len(latencies),
        "p50_s": round(percentile(latencies, 0.50), 4),
        "p99_s": round(percentile(latencies, 0.99), 4),
        "mean_s": round(sum(latencies) / len(latencies), 4),
        "max_s": round(max(latencies), 4),
    }


def run_phase(
    client: ServiceClient, state_dir: Path, workload: list[dict], phase: str
) -> dict:
    started = time.perf_counter()
    submitted: list[tuple[str, dict]] = []
    for job in workload:
        job_id = client.submit(
            job["clips"],
            name=f"{phase}-{job['name']}",
            method=job["method"],
            priority=job["priority"],
            window_nm=job.get("window_nm"),
        )
        submitted.append((job_id, job))

    jobs: list[dict] = []
    cache_hits = cache_misses = 0
    for job_id, job in submitted:
        record = client.wait(job_id, timeout_s=600)
        if record["state"] != "done":
            raise RuntimeError(
                f"{phase}: {job_id} settled as {record['state']}: "
                f"{record.get('error')}"
            )
        telemetry = load_telemetry(
            state_dir / "jobs" / job_id / "stream.jsonl"
        )
        counters = telemetry.get("counters", {})
        cache_hits += counters.get("cache.result.hits", 0)
        cache_misses += counters.get("cache.result.misses", 0)
        jobs.append({
            "job_id": job_id,
            "priority": job["priority"],
            "latency_s": record["latency_s"],
            "queue_wait_s": record["queue_wait_s"],
            "run_wall_s": record["run_wall_s"],
            "result_cache_hits": counters.get("cache.result.hits", 0),
        })
    wall_s = time.perf_counter() - started

    latencies = [job["latency_s"] for job in jobs]
    by_priority = {
        "small_p0": [j["latency_s"] for j in jobs
                     if j["priority"] == SMALL_PRIORITY],
        "large_p5": [j["latency_s"] for j in jobs
                     if j["priority"] == LARGE_PRIORITY],
    }
    return {
        "wall_s": round(wall_s, 4),
        "jobs_per_sec": round(len(jobs) / wall_s, 3),
        "latency": latency_stats(latencies),
        "latency_by_class": {
            name: latency_stats(values)
            for name, values in by_priority.items() if values
        },
        "telemetry_cache_hits": cache_hits,
        "telemetry_cache_misses": cache_misses,
        "jobs": jobs,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).parent / "output" / "BENCH_service.json",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--reduced", action="store_true",
        help="small workload for CI (4 small + 1 large job per phase)",
    )
    args = parser.parse_args()

    workload = build_workload(args.reduced)
    # Pay the process-wide one-time costs (default LUT build) before any
    # phase, so cold vs guarded measures guard overhead, not warmup luck.
    from repro.ebeam.lut import default_lut

    default_lut()
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        state_dir = Path(tmp) / "state"
        daemon = start_daemon(state_dir, args.workers)
        if not wait_for_daemon(state_dir, timeout_s=30):
            raise RuntimeError("daemon socket never came up")
        client = ServiceClient(state_dir, timeout_s=600)
        try:
            # Throwaway phase: first-fracture costs (allocator, numpy
            # internals) are paid here, not by whichever measured phase
            # happens to run first.  Distinct daemon-level caches per
            # phase name keep it from warming the cold phase's clips.
            run_phase(client, state_dir, warmup_workload(), "warmup")
            cold = run_phase(client, state_dir, workload, "cold")
            warm = run_phase(client, state_dir, workload, "warm")
            daemon_stats = client.stats()
        finally:
            client.shutdown("drain")
            daemon.join(timeout=60)

        # Guarded phase: a fresh daemon (cold caches, like the cold
        # phase) with the whole guard stack armed.  Same workload, same
        # from-scratch fracturing — the jobs/sec delta against cold IS
        # the enforcement overhead.
        guarded_dir = Path(tmp) / "state-guarded"
        daemon = start_daemon(guarded_dir, args.workers, bench_limits())
        if not wait_for_daemon(guarded_dir, timeout_s=30):
            raise RuntimeError("guarded daemon socket never came up")
        client = ServiceClient(guarded_dir, timeout_s=600, client_id="bench")
        try:
            guarded = run_phase(client, guarded_dir, workload, "guarded")
            guarded_stats = client.stats()
        finally:
            client.shutdown("drain")
            daemon.join(timeout=60)

    speedup = (
        round(cold["wall_s"] / warm["wall_s"], 2) if warm["wall_s"] else None
    )
    overhead_pct = round(
        100.0 * (1.0 - guarded["jobs_per_sec"] / cold["jobs_per_sec"]), 2
    )
    guard_counters = guarded_stats["guard"]["counters"]
    fired = {k: v for k, v in guard_counters.items() if v}
    if fired:
        raise RuntimeError(
            f"guarded phase tripped guards on bench traffic: {fired} "
            f"(limits must be generous enough to only *measure* the path)"
        )
    if not guarded_stats["guard"]["watchdog_enabled"]:
        raise RuntimeError("guarded phase ran without the watchdog")
    if overhead_pct > MAX_GUARD_OVERHEAD_PCT:
        raise RuntimeError(
            f"guard overhead {overhead_pct}% exceeds "
            f"{MAX_GUARD_OVERHEAD_PCT}% "
            f"(cold {cold['jobs_per_sec']} -> guarded "
            f"{guarded['jobs_per_sec']} jobs/s)"
        )
    report = {
        "schema": "repro.bench.service/v1",
        "host": platform.node(),
        "python": platform.python_version(),
        "config": {
            "workers": args.workers,
            "reduced": args.reduced,
            "jobs_per_phase": len(workload),
            "priorities": {"small": SMALL_PRIORITY, "large": LARGE_PRIORITY},
        },
        "phases": {"cold": cold, "warm": warm, "guarded": guarded},
        "warm_speedup_x": speedup,
        "guard_overhead_pct": overhead_pct,
        "guard_limits": guarded_stats["guard"]["limits"],
        "daemon_caches": daemon_stats["caches"],
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")

    print(f"cold: {cold['jobs_per_sec']} jobs/s "
          f"(p50 {cold['latency']['p50_s']} s, "
          f"p99 {cold['latency']['p99_s']} s)")
    print(f"warm: {warm['jobs_per_sec']} jobs/s "
          f"(p50 {warm['latency']['p50_s']} s, "
          f"p99 {warm['latency']['p99_s']} s, "
          f"{warm['telemetry_cache_hits']} cache hits)")
    print(f"guarded: {guarded['jobs_per_sec']} jobs/s "
          f"(overhead {overhead_pct}% vs cold, budget "
          f"{MAX_GUARD_OVERHEAD_PCT}%)")
    print(f"warm speedup: {speedup}x -> {args.out}")


if __name__ == "__main__":
    main()
