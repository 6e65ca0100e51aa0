"""``repro.service`` — fracture-as-a-service: a long-lived job daemon.

PRs 1–5 built every hard piece of a service as library code: a
streaming JSONL event bus, worker heartbeats with stall detection,
a content-addressed result store, retry/degradation ladders.  This package
composes them behind a persistent asyncio daemon so a batch MDP
workload stops paying process startup and cold caches per clip:

* :class:`FractureService` (:mod:`repro.service.server`) — accepts
  concurrent job submissions over a Unix-domain socket, runs them on a
  managed worker pool behind a bounded priority queue (FIFO within
  priority, backpressure when full), and survives restarts: queued and
  in-flight jobs are recovered from the state directory and resumed
  from their stored tiles bit-identically.
* :class:`ServiceClient` (:mod:`repro.service.client`) — the thin
  synchronous client behind ``repro job submit/status/result/cancel``.
* :class:`WarmCaches` (:mod:`repro.service.caches`) — daemon-lifetime
  shared state: the default erf LUT, the keyed 1-D profile bank and a
  content-addressed result cache, so the second submission of a layout
  costs a hash lookup instead of a refinement loop.

Every job owns a directory under ``<state>/jobs/<id>/`` holding its
manifest (``job.json``), its telemetry stream (``stream.jsonl``,
viewable live with ``trace tail <job-id> --follow``; its fold is the
job's telemetry payload, as ``trace export <job-id>`` renders it),
its tile store (``ckpt/``) and the final ``result.json``.

The daemon does not trust its clients: :mod:`repro.service.guard`
bounds what a submission may ask for (:class:`ServiceLimits`,
``job_rejected`` responses), rate-limits per client, enforces per-job
wall/RSS budgets via a watchdog and guards every durable write behind
a disk-space floor.  The seeded fault harness that proves it (daemon
SIGKILL, disk-full shim, byte corruption, stalled clients, submit
floods) lives with its tests, in ``tests/service/chaos.py``.
"""

from repro.service.caches import WarmCaches
from repro.service.client import (
    CircuitBreaker,
    RetryPolicy,
    ServiceClient,
    ServiceError,
)
from repro.service.guard import (
    AdmissionError,
    JobOverBudget,
    JobWatchdog,
    ServiceLimits,
    validate_admission,
)
from repro.service.jobs import (
    JobPaths,
    JobRecord,
    JobState,
    job_fingerprint,
    job_id_like,
    resolve_stream_path,
)
from repro.service.queue import PriorityJobQueue, QueueFull
from repro.service.server import FractureService

__all__ = [
    "AdmissionError",
    "CircuitBreaker",
    "FractureService",
    "JobOverBudget",
    "JobPaths",
    "JobRecord",
    "JobState",
    "JobWatchdog",
    "PriorityJobQueue",
    "QueueFull",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceLimits",
    "WarmCaches",
    "job_fingerprint",
    "job_id_like",
    "resolve_stream_path",
    "validate_admission",
]
