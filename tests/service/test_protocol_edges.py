"""Protocol edge cases against a *running* daemon: the hostile-client
surface.  Oversized lines, torn frames, floods, duplicate fingerprints
— each must earn a typed response (or a reclaimed connection) without
consuming a queue slot or wedging the daemon for its next client.
"""

from __future__ import annotations

import asyncio
import json

from repro.service.guard import ServiceLimits
from repro.service.protocol import decode_line, encode_line
from repro.service.server import FractureService

CLIPS = {"sq": [[0, 0], [40, 0], [40, 40], [0, 40]]}


def submit_payload(priority: int = 0, **overrides) -> dict:
    job = {"clips": CLIPS, "method": "partition", "priority": priority,
           **overrides}
    return {"op": "submit", "job": job}


async def request(service: FractureService, payload: dict) -> dict:
    reader, writer = await asyncio.open_unix_connection(
        str(service.socket_path)
    )
    try:
        writer.write(encode_line(payload))
        await writer.drain()
        return decode_line(await reader.readline())
    finally:
        writer.close()


def instant_runner(record, paths, caches, control):
    return {"totals": {"clips": 1, "shots": 0, "feasible": True,
                       "cached_clips": 0}}


def run(coro):
    return asyncio.run(coro)


async def make_service(tmp_path, **kwargs) -> FractureService:
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("job_runner", instant_runner)
    service = FractureService(tmp_path, **kwargs)
    await service.start()
    return service


class TestLineAndFrameEdges:
    def test_oversized_line_rejected_not_fatal(self, tmp_path):
        async def main():
            service = await make_service(
                tmp_path, limits=ServiceLimits(max_line_bytes=4096)
            )
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(service.socket_path)
                )
                giant = submit_payload(name="x" * 8192)
                writer.write(encode_line(giant))
                await writer.drain()
                response = decode_line(await reader.readline())
                assert not response["ok"]
                assert response["code"] == "bad_request"
                assert "too long" in response["error"]
                writer.close()
                # The daemon survives and serves the next client.
                pong = await request(service, {"op": "ping"})
                assert pong["ok"]
            finally:
                await service.stop("drain")

        run(main())

    def test_torn_frame_hits_read_deadline(self, tmp_path):
        async def main():
            service = await make_service(
                tmp_path,
                limits=ServiceLimits(read_deadline_s=0.2, idle_timeout_s=30),
            )
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(service.socket_path)
                )
                # Half a request, no newline, then stall.
                blob = encode_line({"op": "ping"})
                writer.write(blob[: len(blob) // 2])
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                response = decode_line(line)
                assert not response["ok"]
                assert response["reason"] == "read_timeout"
                writer.close()
                assert service.guard_counters["read_timeouts"] == 1
                pong = await request(service, {"op": "ping"})
                assert pong["ok"]
            finally:
                await service.stop("drain")

        run(main())

    def test_idle_connection_reclaimed_quietly(self, tmp_path):
        async def main():
            service = await make_service(
                tmp_path, limits=ServiceLimits(idle_timeout_s=0.2)
            )
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(service.socket_path)
                )
                # No bytes at all: the daemon hangs up after the idle
                # window with no error frame.
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                assert line == b""
                writer.close()
                assert service.guard_counters["idle_closed"] == 1
            finally:
                await service.stop("drain")

        run(main())

    def test_garbage_and_unknown_ops_are_typed(self, tmp_path):
        async def main():
            service = await make_service(tmp_path)
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(service.socket_path)
                )
                writer.write(b"{ not json }\n")
                await writer.drain()
                bad = decode_line(await reader.readline())
                assert not bad["ok"] and bad["code"] == "bad_request"
                # Same connection stays usable after a bad line.
                writer.write(encode_line({"op": "frobnicate"}))
                await writer.drain()
                unknown = decode_line(await reader.readline())
                assert unknown["code"] == "unknown_op"
                writer.close()
            finally:
                await service.stop("drain")

        run(main())


class TestAdmissionOverTheWire:
    def test_rejected_submission_consumes_no_queue_slot(self, tmp_path):
        async def main():
            service = await make_service(
                tmp_path,
                max_queue_depth=2,
                limits=ServiceLimits(max_clips=1),
            )
            try:
                fat = submit_payload(clips={
                    "a": CLIPS["sq"], "b": CLIPS["sq"],
                })
                rejected = await request(service, fat)
                assert not rejected["ok"]
                assert rejected["code"] == "job_rejected"
                assert rejected["reason"] == "too_many_clips"
                stats = await request(service, {"op": "stats"})
                assert stats["queued"] == 0
                assert stats["jobs_by_state"] == {}  # no record created
                assert stats["guard"]["counters"]["rejected"] == 1
                # A sane job still lands.
                accepted = await request(service, submit_payload())
                assert accepted["ok"]
            finally:
                await service.stop("drain")

        run(main())

    def test_malformed_submit_consumes_no_queue_slot(self, tmp_path):
        async def main():
            service = await make_service(tmp_path, max_queue_depth=1)
            try:
                bad = await request(
                    service, {"op": "submit", "job": {"clips": {}}}
                )
                assert not bad["ok"] and bad["code"] == "bad_request"
                stats = await request(service, {"op": "stats"})
                assert stats["queued"] == 0 and stats["jobs_by_state"] == {}
            finally:
                await service.stop("drain")

        run(main())


class TestIdempotentResubmission:
    def test_duplicate_request_fp_returns_original_job(self, tmp_path):
        async def main():
            service = await make_service(tmp_path)
            try:
                payload = {**submit_payload(), "request_fp": "f" * 64}
                first = await request(service, payload)
                assert first["ok"] and "deduplicated" not in first
                second = await request(service, payload)
                assert second["ok"]
                assert second["deduplicated"] is True
                assert second["job_id"] == first["job_id"]
                stats = await request(service, {"op": "stats"})
                assert stats["guard"]["counters"]["deduplicated"] == 1
                # Exactly one job ever existed.
                listing = await request(service, {"op": "list"})
                assert len(listing["jobs"]) == 1
            finally:
                await service.stop("drain")

        run(main())

    def test_without_fp_identical_payloads_stay_distinct(self, tmp_path):
        async def main():
            service = await make_service(tmp_path)
            try:
                first = await request(service, submit_payload())
                second = await request(service, submit_payload())
                assert first["job_id"] != second["job_id"]
            finally:
                await service.stop("drain")

        run(main())

    def test_dedup_survives_daemon_restart(self, tmp_path):
        async def main():
            service = await make_service(tmp_path)
            payload = {**submit_payload(), "request_fp": "a" * 64}
            first = await request(service, payload)
            await request(
                service, {"op": "wait", "job_id": first["job_id"],
                          "timeout_s": 10},
            )
            await service.stop("drain")
            # New daemon, same state dir: the fingerprint index is
            # rebuilt from job records, so the retry still dedupes.
            service = await make_service(tmp_path)
            try:
                again = await request(service, payload)
                assert again["deduplicated"] is True
                assert again["job_id"] == first["job_id"]
            finally:
                await service.stop("drain")

        run(main())


class TestFloodAndFairShare:
    def test_flood_rate_limited_but_healthy_client_lands(self, tmp_path):
        async def main():
            service = await make_service(
                tmp_path,
                limits=ServiceLimits(rate_per_s=0.001, rate_burst=3),
            )
            try:
                codes = []
                for i in range(10):
                    response = await request(service, {
                        **submit_payload(name=f"flood-{i}"),
                        "client_id": "attacker",
                    })
                    codes.append(response.get("code", "ok"))
                assert codes.count("ok") == 3  # the burst
                assert codes.count("rate_limited") == 7
                # A different client is untouched by the attacker's spend.
                healthy = await request(service, {
                    **submit_payload(name="healthy"), "client_id": "victim",
                })
                assert healthy["ok"]
                stats = await request(service, {"op": "stats"})
                assert stats["guard"]["counters"]["rate_limited"] == 7
            finally:
                await service.stop("drain")

        run(main())

    def test_fair_share_caps_one_client_queue_hold(self, tmp_path):
        async def main():
            # workers=1 with a gate-free instant runner drains fast, so
            # use a runner that never finishes to keep the queue full.
            import threading

            gate = threading.Event()

            def stuck_runner(record, paths, caches, control):
                while not gate.wait(0.01):
                    control.raise_if_stopped()
                return {"totals": {}}

            service = await make_service(
                tmp_path,
                job_runner=stuck_runner,
                max_queue_depth=10,
                limits=ServiceLimits(queue_share=0.2),  # cap = 2 of 10
            )
            try:
                codes = []
                for i in range(5):
                    response = await request(service, {
                        **submit_payload(name=f"hog-{i}"),
                        "client_id": "hog",
                    })
                    codes.append(response.get("code", "ok"))
                # First fills the lone worker, next two queue, rest deferred.
                assert codes.count("ok") == 3
                assert codes.count("rate_limited") == 2
                other = await request(service, {
                    **submit_payload(name="other"), "client_id": "other",
                })
                assert other["ok"]  # the cap is per client, not global
                stats = await request(service, {"op": "stats"})
                assert stats["guard"]["counters"]["fair_share_deferred"] == 2
            finally:
                gate.set()
                await service.stop("drain")

        run(main())
