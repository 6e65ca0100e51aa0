"""Deterministic chaos harness for the fracture daemon.

Fault injection for the *service* layer, the way
:mod:`repro.fracture.runtime` already does it for the tiled runtime:
every fault is seeded, so a failing chaos run replays bit-identically
from its seed.  The harness knows five faults — the ones the hardening
work defends against:

``kill_daemon``      SIGKILL mid-operation (no atexit, no cleanup);
                     recovery must resume bit-identically from the
                     stored tiles.
``disk_full``        free-space shim via
                     :func:`repro.obs.set_disk_free_override` (or the
                     ``REPRO_CHAOS_DISK_FREE`` env var for subprocess
                     daemons); guarded writers must fail typed, never
                     torn.
``corrupt_cache``    flip bytes in an on-disk cache entry (a stored
                     tile is one too); readers must quarantine or
                     skip, never crash or serve garbage.
``stall_client``     hold a half-written request line open; the read
                     deadline must reclaim the handler.
``flood``            submit far past the rate limit; healthy clients
                     must keep landing jobs.

:class:`ChaosPlan` turns a seed into a deterministic schedule of those
faults; the pytest fixture in ``tests/service/test_chaos.py`` and the
gating ``service-chaos`` CI job drive it.  It is test code, so it lives
under ``tests/`` rather than in the ``repro`` package.  Helpers are synchronous and
dependency-free so they also work against subprocess daemons.
"""

from __future__ import annotations

import json
import random
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs.resources import DISK_FREE_ENV, set_disk_free_override

__all__ = [
    "CHAOS_ACTIONS",
    "ChaosPlan",
    "DISK_FREE_ENV",
    "FaultEvent",
    "corrupt_bytes",
    "disk_full",
    "flood_submits",
    "stalled_request",
    "truncate_tail",
    "wait_until",
]

CHAOS_ACTIONS = (
    "kill_daemon",
    "disk_full",
    "corrupt_cache",
    "stall_client",
    "flood",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: what to inject and at which workload step."""

    action: str
    at_step: int
    detail: dict[str, Any] = field(default_factory=dict)


class ChaosPlan:
    """A seeded, reproducible schedule of daemon-level faults.

    The same ``(seed, steps, actions)`` always yields the same event
    list — print the seed in the failure message and any run can be
    replayed exactly.  ``rng`` is exposed for fault *parameters* (byte
    offsets, hold durations) so those derive from the same seed.
    """

    def __init__(
        self,
        seed: int,
        steps: int = 8,
        actions: tuple[str, ...] = CHAOS_ACTIONS,
    ):
        for action in actions:
            if action not in CHAOS_ACTIONS:
                raise ValueError(f"unknown chaos action {action!r}")
        self.seed = seed
        self.steps = steps
        self.rng = random.Random(seed)
        self._events = tuple(
            FaultEvent(action=self.rng.choice(actions), at_step=step)
            for step in range(steps)
        )

    def events(self) -> tuple[FaultEvent, ...]:
        return self._events

    def __repr__(self) -> str:  # shows up in pytest failure output
        return f"ChaosPlan(seed={self.seed}, steps={self.steps})"


# -- fault primitives --------------------------------------------------------


def corrupt_bytes(
    path: str | Path, seed: int, count: int = 8
) -> list[int]:
    """Flip ``count`` bytes of ``path`` at seed-determined offsets.

    Returns the offsets touched (for the failure message).  XOR with
    0xFF guarantees every touched byte actually changes, so "corruption
    survived undetected" can never be a flaky no-op.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        return []
    rng = random.Random(seed)
    offsets = sorted(
        rng.sample(range(len(data)), min(count, len(data)))
    )
    for offset in offsets:
        data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    return offsets


def truncate_tail(path: str | Path, seed: int) -> int:
    """Cut a seed-determined tail off ``path`` (a torn-write stand-in).

    Keeps at least one byte and cuts at least one; returns the new
    size.  Models a crash mid-append: the head of the file is intact,
    the last record is torn.
    """
    path = Path(path)
    size = path.stat().st_size
    if size < 2:
        return size
    keep = random.Random(seed).randrange(1, size)
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return keep


class disk_full:
    """Context manager: pretend the filesystem has ``free_bytes`` left.

    In-process shim over :func:`repro.obs.set_disk_free_override`; for
    subprocess daemons export ``{DISK_FREE_ENV}=<bytes>`` in the child
    environment instead.  Restores the real ``statvfs`` view on exit.
    """

    def __init__(self, free_bytes: int):
        self.free_bytes = int(free_bytes)

    def __enter__(self) -> "disk_full":
        set_disk_free_override(self.free_bytes)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        set_disk_free_override(None)


class stalled_request:
    """Hold a half-written request line open against the daemon.

    Connects, sends the first ``cut`` bytes of an encoded request
    *without* the terminating newline, then sits on the open socket —
    the adversarial mid-frame stall the read deadline exists for.
    ``response()`` then waits for whatever the daemon does: a typed
    ``read_timeout`` error (deadline fired) or EOF (handler reclaimed).
    """

    def __init__(
        self,
        socket_path: str | Path,
        payload: dict[str, Any] | None = None,
        cut: int | None = None,
        timeout_s: float = 30.0,
    ):
        blob = json.dumps(payload if payload is not None else {"op": "ping"})
        encoded = blob.encode("utf-8")  # no newline: the frame stays torn
        self.partial = encoded[: cut if cut is not None else len(encoded) // 2]
        self.socket_path = str(socket_path)
        self.timeout_s = timeout_s
        self.sock: socket.socket | None = None

    def __enter__(self) -> "stalled_request":
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(self.timeout_s)
        self.sock.connect(self.socket_path)
        self.sock.sendall(self.partial)
        return self

    def response(self) -> bytes:
        """Block until the daemon answers or hangs up; returns raw bytes."""
        assert self.sock is not None
        chunks: list[bytes] = []
        while True:
            chunk = self.sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                return b"".join(chunks)

    def __exit__(self, *exc_info: Any) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def flood_submits(
    submit: Callable[[int], Any], count: int
) -> dict[str, int]:
    """Fire ``count`` submissions back-to-back; tally outcomes by code.

    ``submit(i)`` performs one submission (raising ``ServiceError`` on
    rejection); the return value maps ``"ok"`` and each error code to
    its occurrence count, e.g. ``{"ok": 20, "rate_limited": 80}``.
    """
    from repro.service.client import ServiceError

    tally: dict[str, int] = {}
    for i in range(count):
        try:
            submit(i)
        except ServiceError as error:
            tally[error.code] = tally.get(error.code, 0) + 1
        else:
            tally["ok"] = tally.get("ok", 0) + 1
    return tally


def wait_until(
    predicate: Callable[[], bool],
    timeout_s: float = 20.0,
    poll_s: float = 0.05,
) -> bool:
    """Poll ``predicate`` until true or ``timeout_s``; returns success."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return predicate()
