"""Every guard armed on benign traffic: none fires, and enforcement
costs under 5 % of the jobs' run time.

A real daemon runs with the rate limiter, fair share, wall budget and
watchdog, read deadline and idle timeout all armed, none tight enough
to touch four small ``partition`` jobs and one tiled bar that runs
across several watchdog ticks.  A direct armed/unarmed A/B at 5 % sits
inside run-to-run noise, so the cost is estimated: the calls the daemon
made to ``validate_admission``, ``ClientRateLimiter.allow`` and
``JobWatchdog.tick``, each times its measured per-call cost, against
the jobs' summed run time.
"""

from __future__ import annotations

import asyncio
import time

from repro.service import guard
from repro.service import server as server_module
from repro.service.client import ServiceClient
from repro.service.guard import ClientRateLimiter, JobWatchdog, ServiceLimits
from repro.service.jobs import validate_submission
from repro.service.server import FractureService

ARMED = ServiceLimits(
    rate_per_s=1000.0,
    rate_burst=1000,
    queue_share=1.0,
    job_wall_budget_s=600.0,
    # Short enough that a tick lands while the tiled bar runs on a fast
    # host, where the whole batch can finish inside 0.25 s.
    watchdog_interval_s=0.02,
    read_deadline_s=30.0,
    idle_timeout_s=300.0,
)


def _square(index: int) -> dict:
    """A distinct contact-like square per index (no result-cache hits)."""
    size = 40.0 + 2.0 * index
    return {f"sq-{index}": [[0.0, 0.0], [size, 0.0], [size, size], [0.0, size]]}


# 52 tiles at 100 nm, each stored in the job's tile store: runs longer
# than a watchdog interval, so a tick sees it running.
BAR = {"bar": [[0.0, 0.0], [5200.0, 0.0], [5200.0, 60.0], [0.0, 60.0]]}


def _per_call_s(fn, reps: int = 1000) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps


def test_no_guard_fires_and_enforcement_costs_under_5_percent(
    tmp_path, monkeypatch
):
    calls = {"admission": 0, "rate": 0, "tick": 0}
    ticks_on_running = 0
    real_tick = JobWatchdog.tick

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_tick(watchdog, *args, **kwargs):
        nonlocal ticks_on_running
        calls["tick"] += 1
        ticks_on_running += bool(watchdog._running())
        return real_tick(watchdog, *args, **kwargs)

    monkeypatch.setattr(
        server_module, "validate_admission",
        counted("admission", guard.validate_admission),
    )
    monkeypatch.setattr(
        ClientRateLimiter, "allow", counted("rate", ClientRateLimiter.allow)
    )
    monkeypatch.setattr(JobWatchdog, "tick", counted_tick)

    async def main():
        service = FractureService(tmp_path / "state", workers=1, limits=ARMED)
        await service.start()
        loop = asyncio.get_running_loop()
        client = ServiceClient(
            tmp_path / "state", client_id="benign", timeout_s=60
        )

        def run_jobs():
            job_ids = [client.submit(
                BAR, method="partition", name="bar", window_nm=100.0
            )] + [
                client.submit(_square(i), method="partition", name=f"sq-{i}")
                for i in range(4)
            ]
            jobs = [client.wait(job_id, timeout_s=60) for job_id in job_ids]
            return jobs, client.stats()

        try:
            return await loop.run_in_executor(None, run_jobs)
        finally:
            await service.stop("drain")

    jobs, stats = asyncio.run(main())
    monkeypatch.undo()
    assert [job["state"] for job in jobs] == ["done"] * 5
    assert stats["guard"]["watchdog_enabled"]
    fired = {k: v for k, v in stats["guard"]["counters"].items() if v}
    assert stats["guard"]["counters"] and not fired, fired
    assert calls["admission"] == calls["rate"] == 5
    assert ticks_on_running >= 1, calls

    spec = validate_submission({"clips": _square(0), "method": "partition"})
    limiter = ClientRateLimiter(ARMED.rate_per_s, ARMED.rate_burst)
    watchdog = JobWatchdog(
        ARMED, tmp_path / "heartbeats",
        running=lambda: {"job-a": time.time(), "job-b": time.time()},
        over_budget=lambda violation: None,
    )
    overhead = (
        calls["admission"] * _per_call_s(
            lambda: guard.validate_admission(spec, ARMED)
        )
        + calls["rate"] * _per_call_s(lambda: limiter.allow("benign"))
        + calls["tick"] * _per_call_s(watchdog.tick)
    )
    run_s = sum(job["run_wall_s"] for job in jobs)
    assert overhead < 0.05 * run_s, (
        f"guards cost {overhead * 1e3:.3f} ms of {run_s * 1e3:.1f} ms "
        f"job run time (>5 %): {calls}"
    )
