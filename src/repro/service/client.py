"""Thin synchronous client of the fracture daemon.

One blocking request/response per call over the daemon's Unix socket
(connection per request: the daemon is local, connects are ~50 µs, and
statelessness means a daemon restart never strands a client socket).
Protocol errors come back as :class:`ServiceError` carrying the
machine-readable ``code`` (``queue_full``, ``unknown_job``, …) so
callers can branch without parsing messages.

Transport failures are *typed* and survivable: a dead socket is
``no_daemon``, a connection dropped mid-response is
``connection_dropped`` — never a bare ``ProtocolError`` — and the
socket is closed on every path, success or not.  On top of that sit
the resilience pieces for flaky daemons:

* :class:`RetryPolicy` — capped exponential backoff with jitter,
  applied only to transport failures (an error *response* means the
  daemon is healthy and is raised immediately);
* :class:`CircuitBreaker` — after ``failure_threshold`` consecutive
  transport failures the client fails fast (``circuit_open``) without
  touching the socket, probing again (half-open) after
  ``reset_after_s``;
* idempotent resubmission — :meth:`ServiceClient.submit` attaches a
  content fingerprint (``request_fp``) so a retry after a lost ack
  returns the already-enqueued job instead of double-running it.

This is the layer behind ``repro job submit/status/...`` and the
service benchmark; tests use it directly against in-process daemons.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs.trace import TraceContext, mint_trace
from repro.service.jobs import JobPaths, job_fingerprint
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode_line,
)

__all__ = [
    "CircuitBreaker",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "wait_for_daemon",
]

#: Transport-level failure codes: the request may never have reached
#: the daemon (or the response was lost), so retrying is safe for
#: idempotent requests and counted by the circuit breaker.
TRANSIENT_CODES = ("no_daemon", "connection_dropped")


class ServiceError(RuntimeError):
    """An error response from the daemon (or a dead daemon socket)."""

    def __init__(self, message: str, code: str = "internal"):
        super().__init__(message)
        self.code = code


@dataclass
class RetryPolicy:
    """Capped exponential backoff with full jitter for transport retries."""

    attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.5  # fraction of the delay randomized away

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (0-based, after a failure)."""
        capped = min(self.max_delay_s, self.base_delay_s * (2.0 ** attempt))
        return capped * (1.0 - self.jitter * rng.random())


class CircuitBreaker:
    """Half-open circuit breaker over consecutive transport failures.

    Closed → open after ``failure_threshold`` consecutive failures;
    open → half-open after ``reset_after_s`` (one probe request is let
    through); the probe's outcome closes or re-opens the circuit.
    While open, :meth:`allow` returns ``False`` and the client raises
    ``circuit_open`` without touching the socket — a dead daemon costs
    a dict lookup, not a connect timeout, per call.
    """

    def __init__(
        self, failure_threshold: int = 5, reset_after_s: float = 0.25
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.failure_threshold = failure_threshold
        self.reset_after_s = float(reset_after_s)
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        return "half_open" if self._probing else "open"

    def allow(self, now: float | None = None) -> bool:
        if self._opened_at is None:
            return True
        now = time.monotonic() if now is None else now
        if not self._probing and now - self._opened_at >= self.reset_after_s:
            self._probing = True  # half-open: admit one probe
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self, now: float | None = None) -> None:
        self._failures += 1
        if self._probing or self._failures >= self.failure_threshold:
            self._opened_at = time.monotonic() if now is None else now
            self._probing = False


class ServiceClient:
    """Blocking client bound to one daemon state directory."""

    def __init__(
        self, state_dir: str | Path = ".repro-service",
        *, timeout_s: float = 120.0,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        client_id: str = "",
    ):
        self.state_dir = Path(state_dir)
        self.socket_path = self.state_dir / "daemon.sock"
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.client_id = client_id
        #: trace id accepted by the daemon for the most recent submit.
        self.last_trace_id: str | None = None
        self._rng = random.Random()

    # -- transport ----------------------------------------------------------

    def request(
        self, payload: dict[str, Any], *, retryable: bool = True
    ) -> dict[str, Any]:
        """One request → the daemon's ``ok`` payload; raises on errors.

        Transport failures retry per :class:`RetryPolicy` when
        ``retryable`` (every built-in operation is — ``submit`` because
        it carries an idempotency fingerprint); error *responses* raise
        immediately with their protocol code.
        """
        attempts = max(1, self.retry.attempts) if retryable else 1
        last: ServiceError | None = None
        for attempt in range(attempts):
            if not self.breaker.allow():
                raise ServiceError(
                    f"circuit open for {self.socket_path} after repeated "
                    f"transport failures", "circuit_open",
                )
            try:
                response = self._roundtrip(payload)
            except ServiceError as error:
                if error.code not in TRANSIENT_CODES:
                    # The daemon answered: transport is healthy.
                    self.breaker.record_success()
                    raise
                self.breaker.record_failure()
                last = error
                if attempt + 1 < attempts:
                    time.sleep(self.retry.delay_s(attempt, self._rng))
                continue
            self.breaker.record_success()
            if not response.get("ok"):
                raise ServiceError(
                    str(response.get("error", "unknown error")),
                    str(response.get("code", "internal")),
                )
            return response
        assert last is not None
        raise last

    def _roundtrip(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One connect/send/read/decode cycle with typed failures.

        The socket is closed on *every* path — including decode
        failures and unexpected exceptions — so a flaky daemon can
        never leak client file descriptors.
        """
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.timeout_s)
            try:
                sock.connect(str(self.socket_path))
                sock.sendall(encode_line(payload))
                line = self._read_line(sock)
            except (OSError, socket.timeout) as error:
                raise ServiceError(
                    f"no daemon at {self.socket_path}: {error}", "no_daemon"
                ) from None
        finally:
            sock.close()
        if not line.endswith(b"\n"):
            # EOF before the newline: the daemon died (or hung up) with
            # our response in flight.  Typed so callers and the retry
            # loop can branch; distinct from "never connected".
            raise ServiceError(
                f"daemon at {self.socket_path} dropped the connection "
                f"mid-response ({len(line)} bytes read)",
                "connection_dropped",
            )
        try:
            response = decode_line(line)
        except ProtocolError as error:
            raise ServiceError(
                f"undecodable response from {self.socket_path}: {error}",
                "connection_dropped",
            ) from None
        return response

    @staticmethod
    def _read_line(sock: socket.socket) -> bytes:
        chunks: list[bytes] = []
        total = 0
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            total += len(chunk)
            if chunk.endswith(b"\n") or total > MAX_LINE_BYTES:
                break
        return b"".join(chunks)

    # -- operations ---------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self.request({"op": "ping"})

    def submit(
        self,
        clips: dict[str, list[list[float]]],
        *,
        name: str = "",
        method: str = "ours",
        priority: int = 0,
        window_nm: float | None = None,
        tile_workers: int = 1,
        spec: dict[str, float] | None = None,
        use_result_cache: bool = True,
        idempotent: bool = True,
        trace: TraceContext | dict[str, Any] | None = None,
    ) -> str:
        """Enqueue a job; returns its id (``ServiceError`` on backpressure).

        With ``idempotent`` (the default) the request carries a content
        fingerprint: a transport-level retry after a lost ack — or an
        explicit resubmission of the same payload — returns the
        already-enqueued job's id instead of double-running it.  Pass
        ``idempotent=False`` to force a distinct job for an identical
        payload.

        ``trace`` carries the submitter's :class:`TraceContext` (or its
        dict form); when omitted a fresh one is minted, so every
        submission is traceable.  The accepted trace id comes back in
        :attr:`last_trace_id` and stamps the job record, every stream
        line, heartbeat and stored tile of every attempt.
        """
        job = {
            "name": name,
            "clips": clips,
            "method": method,
            "priority": priority,
            "window_nm": window_nm,
            "tile_workers": tile_workers,
            "spec": spec or {},
            "use_result_cache": use_result_cache,
        }
        payload: dict[str, Any] = {"op": "submit", "job": job}
        if trace is None:
            trace = mint_trace()
        payload["trace"] = (
            trace.to_dict() if isinstance(trace, TraceContext) else dict(trace)
        )
        if self.client_id:
            payload["client_id"] = self.client_id
        if idempotent:
            payload["request_fp"] = job_fingerprint(job)
        response = self.request(payload, retryable=idempotent)
        self.last_trace_id = response.get(
            "trace_id", payload["trace"].get("trace_id")
        )
        return response["job_id"]

    def status(self, job_id: str) -> dict[str, Any]:
        return self.request({"op": "status", "job_id": job_id})["job"]

    def list_jobs(self) -> list[dict[str, Any]]:
        return self.request({"op": "list"})["jobs"]

    def result(self, job_id: str) -> dict[str, Any]:
        return self.request({"op": "result", "job_id": job_id})["result"]

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self.request({"op": "cancel", "job_id": job_id})

    def wait(self, job_id: str, timeout_s: float = 60.0) -> dict[str, Any]:
        """Block until the job settles (server-side wait); returns status."""
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"timed out waiting for {job_id}", "timeout"
                )
            # Chunked server-side waits: each survives a daemon restart
            # window because the reconnect happens per request.
            chunk = min(remaining, 10.0)
            try:
                response = self.request(
                    {"op": "wait", "job_id": job_id, "timeout_s": chunk}
                )
            except ServiceError as error:
                if error.code in (*TRANSIENT_CODES, "circuit_open"):
                    time.sleep(0.1)
                    continue
                raise
            if not response.get("timed_out"):
                return response["job"]

    def stats(self) -> dict[str, Any]:
        return self.request({"op": "stats"})

    def metrics(self) -> str:
        """The daemon's Prometheus exposition text (``metrics`` op)."""
        return self.request({"op": "metrics"})["text"]

    def shutdown(self, mode: str = "interrupt") -> dict[str, Any]:
        return self.request({"op": "shutdown", "mode": mode})

    # -- conveniences -------------------------------------------------------

    def stream_path(self, job_id: str) -> Path:
        return JobPaths.for_job(self.state_dir, job_id).stream


def wait_for_daemon(
    state_dir: str | Path, timeout_s: float = 20.0, poll_s: float = 0.05
) -> ServiceClient:
    """Poll until a daemon answers ``ping`` on ``state_dir``; returns a
    client.  Used by the CLI (after forking ``repro serve``), the smoke
    test and the benchmark."""
    client = ServiceClient(state_dir)
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            client.ping()
            return client
        except ServiceError:
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"no daemon came up on {state_dir} "
                    f"within {timeout_s:.0f}s", "no_daemon",
                ) from None
            time.sleep(poll_s)
