"""Job model of the fracture service: spec, lifecycle, on-disk layout.

A *job* is one MDP batch: a set of named clips fractured under one spec
with one method, submitted at a priority.  Its lifecycle is a strict
state machine::

    queued ──> running ──> done
      │           │  ├──> failed
      │           │  └──> cancelled
      │           └──> queued      (interrupted by daemon shutdown —
      └──> cancelled                requeued with resume)

Every transition is persisted atomically to the job's ``job.json``
(tmp + rename) before it is acknowledged, so a killed daemon recovers
the exact queue on restart: ``queued`` jobs re-enter the queue in their
original (priority, submission) order and ``running`` jobs are requeued
with ``resume`` set — their tile stores replay the settled tiles
bit-identically.

On-disk layout (one directory per job, the unit CI uploads as the job
manifest artifact)::

    <state>/jobs/<job-id>/
        job.json        spec + state + timestamps (atomic rewrites)
        stream.jsonl    the job's telemetry, every attempt: tail it live
                        (trace tail <job-id> --follow); its fold is the
                        job's payload (trace export <job-id>, trace
                        summarize <state>/jobs/<job-id>/stream.jsonl)
        result.json     shot lists + counters, written on completion
        ckpt/           the job's tile store: one <key>.json per settled
                        tile (a FractureCache directory)
"""

from __future__ import annotations

import enum
import hashlib
import json
import re
import secrets
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs import atomic_write_text

__all__ = [
    "JOB_ID_RE",
    "JobPaths",
    "JobRecord",
    "JobState",
    "job_fingerprint",
    "job_id_like",
    "new_job_id",
    "resolve_stream_path",
    "validate_submission",
]


class JobState(str, enum.Enum):
    """Lifecycle states; the str base keeps JSON round-trips trivial."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def settled(self) -> bool:
        """No further transitions possible."""
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: job ids look like ``job-3f9a2c41``; also accepted anywhere a stream
#: path is, so ``trace tail job-3f9a2c41`` needs no special flag.
JOB_ID_RE = re.compile(r"^job-[0-9a-f]{8}$")


def new_job_id() -> str:
    return f"job-{secrets.token_hex(4)}"


def job_id_like(text: str) -> bool:
    return bool(JOB_ID_RE.match(text))


@dataclass
class JobPaths:
    """Filesystem layout of one job under the daemon state directory."""

    root: Path

    @classmethod
    def for_job(cls, state_dir: str | Path, job_id: str) -> "JobPaths":
        return cls(Path(state_dir) / "jobs" / job_id)

    @property
    def job_json(self) -> Path:
        return self.root / "job.json"

    @property
    def stream(self) -> Path:
        return self.root / "stream.jsonl"

    @property
    def result_json(self) -> Path:
        return self.root / "result.json"

    @property
    def checkpoint_dir(self) -> Path:
        return self.root / "ckpt"

    @property
    def heartbeats_dir(self) -> Path:
        """Shared per-job heartbeat directory (``state_dir/heartbeats``).

        One level above ``jobs/``: the daemon's ``stats`` op reads the
        whole directory to flag wedged jobs without knowing their ids.
        """
        return self.root.parent.parent / "heartbeats"

    def ensure(self) -> "JobPaths":
        self.root.mkdir(parents=True, exist_ok=True)
        return self


def resolve_stream_path(
    target: str, state_dir: str | Path | None = None
) -> Path:
    """Resolve a ``trace tail`` target: a file path or a job id.

    A ``job-xxxxxxxx`` token resolves to the job's stream inside
    ``state_dir`` (default ``.repro-service``); anything else is taken
    as a literal path.  An existing file always wins, so a file that
    happens to be *named* like a job id still tails as a file.
    """
    literal = Path(target)
    if literal.exists() or not job_id_like(target):
        return literal
    base = Path(state_dir) if state_dir is not None else Path(".repro-service")
    return JobPaths.for_job(base, target).stream


_SUBMIT_DEFAULTS: dict[str, Any] = {
    "name": "",
    "method": "ours",
    "priority": 0,
    "window_nm": None,
    "tile_workers": 1,
    "use_result_cache": True,
    "spec": {},
}


def validate_submission(job: dict[str, Any]) -> dict[str, Any]:
    """Normalize and validate a raw submission payload.

    Returns a complete spec dict (defaults filled) or raises
    ``ValueError`` with a client-presentable message.  Clips travel
    inline — ``{"clips": {name: [[x, y], ...]}}`` — so the daemon never
    depends on the client's filesystem.
    """
    if not isinstance(job, dict):
        raise ValueError("job must be an object")
    clips = job.get("clips")
    if not isinstance(clips, dict) or not clips:
        raise ValueError("job needs a non-empty 'clips' mapping")
    for name, verts in clips.items():
        if not isinstance(name, str) or not name:
            raise ValueError("clip names must be non-empty strings")
        if not isinstance(verts, list) or len(verts) < 3:
            raise ValueError(f"clip {name!r}: need at least 3 vertices")
        for v in verts:
            if (
                not isinstance(v, (list, tuple))
                or len(v) != 2
                or not all(isinstance(c, (int, float)) for c in v)
            ):
                raise ValueError(f"clip {name!r}: vertices must be [x, y] pairs")
    out = {**_SUBMIT_DEFAULTS, **{k: job[k] for k in job if k in _SUBMIT_DEFAULTS}}
    out["clips"] = {
        name: [[float(x), float(y)] for x, y in verts]
        for name, verts in clips.items()
    }
    if not isinstance(out["method"], str):
        raise ValueError("'method' must be a string")
    try:
        out["priority"] = int(out["priority"])
    except (TypeError, ValueError):
        raise ValueError("'priority' must be an integer") from None
    if out["window_nm"] is not None:
        try:
            out["window_nm"] = float(out["window_nm"])
        except (TypeError, ValueError):
            raise ValueError("'window_nm' must be a number") from None
        if out["window_nm"] <= 0:
            raise ValueError("'window_nm' must be positive")
    try:
        out["tile_workers"] = int(out["tile_workers"])
    except (TypeError, ValueError):
        raise ValueError("'tile_workers' must be an integer") from None
    if out["tile_workers"] < 1:
        raise ValueError("'tile_workers' must be at least 1")
    spec = out["spec"]
    if not isinstance(spec, dict):
        raise ValueError("'spec' must be an object of FractureSpec fields")
    allowed = {"sigma", "gamma", "pitch", "rho", "lmin"}
    unknown = set(spec) - allowed
    if unknown:
        raise ValueError(f"unknown spec fields: {sorted(unknown)}")
    out["spec"] = {k: float(v) for k, v in spec.items()}
    out["use_result_cache"] = bool(out["use_result_cache"])
    out["name"] = str(out["name"] or "")
    return out


def job_fingerprint(
    spec: dict[str, Any], exclude: tuple[str, ...] = ()
) -> str:
    """Content address of one submission payload (stable sha256).

    The job-level sibling of
    :func:`repro.fracture.cache.canonical_fingerprint`, used to key
    idempotent resubmission: a client that retries a submit after a
    dropped response sends the same fingerprint, and the daemon answers
    with the already-enqueued job instead of double-running it.  The
    client hashes its *whole* payload (two submissions differing only
    in name or priority are distinct jobs); the daemon's record-keeping
    fallback passes ``exclude=("name", "priority")`` to address content
    alone.
    """
    keyed = {k: spec[k] for k in sorted(spec) if k not in exclude}
    blob = json.dumps(keyed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class JobRecord:
    """One job's full, persistable state."""

    job_id: str
    spec: dict[str, Any]  # validated submission payload
    priority: int = 0
    seq: int = 0  # submission order; FIFO tiebreak within priority
    state: JobState = JobState.QUEUED
    attempts: int = 0  # execution attempts (restarts bump this)
    resume: bool = False  # next attempt appends to the job's stream
    error: str | None = None
    #: machine-readable failure class (``over_budget``, ``disk_full``);
    #: ``None`` for generic failures — clients branch without parsing.
    error_code: str | None = None
    #: content fingerprint for idempotent resubmission (may be empty
    #: for pre-guard records; recovery indexes only non-empty values).
    request_fp: str = ""
    #: client-declared identity for rate limiting / fair share
    #: (anonymous submissions share ``""``); persisted so fair-share
    #: accounting of recovered queued jobs survives a restart.
    client_id: str = ""
    #: trace context (``{"trace_id", "span_id", ...}``) correlating this
    #: job with the submitting client's trace; persisted so the same
    #: trace_id stamps every attempt, including post-restart resumes.
    trace: dict[str, Any] | None = None
    submitted_unix: float = field(default_factory=time.time)
    started_unix: float | None = None
    finished_unix: float | None = None
    summary: dict[str, Any] = field(default_factory=dict)

    # -- derived ------------------------------------------------------------

    @property
    def queue_wait_s(self) -> float | None:
        if self.started_unix is None:
            return None
        return max(0.0, self.started_unix - self.submitted_unix)

    @property
    def run_wall_s(self) -> float | None:
        if self.started_unix is None or self.finished_unix is None:
            return None
        return max(0.0, self.finished_unix - self.started_unix)

    @property
    def latency_s(self) -> float | None:
        """Submit-to-settled latency — the service-level number."""
        if self.finished_unix is None:
            return None
        return max(0.0, self.finished_unix - self.submitted_unix)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro.service.job/v1",
            "job_id": self.job_id,
            "spec": self.spec,
            "priority": self.priority,
            "seq": self.seq,
            "state": self.state.value,
            "attempts": self.attempts,
            "resume": self.resume,
            "error": self.error,
            "error_code": self.error_code,
            "request_fp": self.request_fp,
            "client_id": self.client_id,
            "trace": self.trace,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobRecord":
        return cls(
            job_id=str(data["job_id"]),
            spec=dict(data["spec"]),
            priority=int(data.get("priority", 0)),
            seq=int(data.get("seq", 0)),
            state=JobState(data.get("state", "queued")),
            attempts=int(data.get("attempts", 0)),
            resume=bool(data.get("resume", False)),
            error=data.get("error"),
            error_code=data.get("error_code"),
            request_fp=str(data.get("request_fp", "") or ""),
            client_id=str(data.get("client_id", "") or ""),
            trace=dict(data["trace"]) if data.get("trace") else None,
            submitted_unix=float(data.get("submitted_unix", 0.0)),
            started_unix=data.get("started_unix"),
            finished_unix=data.get("finished_unix"),
            summary=dict(data.get("summary") or {}),
        )

    def public_view(self) -> dict[str, Any]:
        """What ``status`` / ``list`` return: record minus clip geometry.

        Clip vertex lists dominate the payload size and the caller
        already has them; strip them but keep every knob and metric.
        """
        view = self.to_dict()
        spec = dict(view["spec"])
        clips = spec.pop("clips", {})
        spec["clip_names"] = sorted(clips)
        view["spec"] = spec
        view["queue_wait_s"] = self.queue_wait_s
        view["run_wall_s"] = self.run_wall_s
        view["latency_s"] = self.latency_s
        return view

    # -- persistence --------------------------------------------------------

    def save(self, paths: JobPaths) -> None:
        """Atomically persist the record (tmp + fsync + rename)."""
        paths.ensure()
        atomic_write_text(paths.job_json, json.dumps(self.to_dict(), indent=1))

    @classmethod
    def load(cls, paths: JobPaths) -> "JobRecord":
        return cls.from_dict(json.loads(paths.job_json.read_text("utf-8")))
