"""Overload-tier tests: bounded queue, rate limiting, stream slots, TTL.

Everything here runs against a real server on loopback with the knobs
turned far down (tiny queues, sub-second TTLs, injectable clocks) so the
shedding paths fire deterministically in milliseconds.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.service.client import AsyncServiceClient, RetryPolicy, ServiceClient, ServiceError
from repro.service.server import ServiceHandle, TokenBucket, ValidationServer
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import distributed_workload

PEERS = 4


def repro_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-")]


@pytest.fixture
def workload():
    return distributed_workload(peers=PEERS, documents=12, seed=5, invalid_rate=0.0)


def serve(workload, **options):
    server = ValidationServer(runtime_shards=2, **options)
    server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
    return ServiceHandle(server).start()


def payload_of(workload, function: str) -> str:
    return tree_to_xml(workload.initial_documents[function])


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=2.0, now=100.0)
        assert bucket.try_take(100.0) == 0.0
        assert bucket.try_take(100.0) == 0.0
        wait = bucket.try_take(100.0)
        assert wait == pytest.approx(0.5)
        # Half a second later exactly one token has refilled.
        assert bucket.try_take(100.5) == 0.0
        assert bucket.try_take(100.5) > 0.0

    def test_tokens_cap_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0, now=0.0)
        # An hour idle must not bank 360k tokens.
        assert bucket.try_take(3600.0) == 0.0
        assert bucket.try_take(3600.0) == 0.0
        assert bucket.try_take(3600.0) > 0.0


class TestQueueShedding:
    def test_full_queue_sheds_with_retry_after(self, workload):
        # max_batch=1 + a long batch window means the first publish parks
        # the batch loop while the rest pile into the bounded queue.
        with serve(
            workload, max_batch=1, batch_window=0.2, max_queue_depth=2
        ) as handle:
            payload = payload_of(workload, "f1")

            async def flood() -> list:
                client = await AsyncServiceClient.connect(handle.host, handle.port)
                try:
                    return await asyncio.gather(
                        *(client.publish("d", "f1", payload) for _ in range(8)),
                        return_exceptions=True,
                    )
                finally:
                    await client.close()

            outcomes = asyncio.run(flood())
            shed = [e for e in outcomes if isinstance(e, ServiceError)]
            landed = [r for r in outcomes if isinstance(r, dict)]
            assert landed, "some publications must get through"
            assert shed, "the bounded queue must shed past its depth"
            for error in shed:
                assert error.code == "overloaded"
                assert error.retryable is True
                assert error.retry_after is not None and error.retry_after > 0
            with ServiceClient(handle.host, handle.port) as client:
                counters = client.stats()["service"]["counters"]
                assert counters["shed.queue-full"] == len(shed)
                assert counters["shed.total"] == len(shed)
        assert repro_threads() == []

    def test_retrying_clients_land_everything(self, workload):
        with serve(
            workload, max_batch=1, batch_window=0.05, max_queue_depth=1
        ) as handle:
            publications = [
                (function, payload_of(workload, function))
                for function in sorted(workload.initial_documents)
            ]
            policy = RetryPolicy(attempts=10, base_delay=0.01, max_delay=0.2, seed=17)
            shed_codes: list[str] = []

            async def drive() -> None:
                client = await AsyncServiceClient.connect(handle.host, handle.port)
                try:
                    results = await asyncio.gather(
                        *(
                            client.publish_with_retry(
                                "d", function, payload, policy=policy,
                                on_retry=lambda e, _d: shed_codes.append(e.code),
                            )
                            for function, payload in publications
                        )
                    )
                    for result in results:
                        assert result["valid"] in (True, False, None)
                finally:
                    await client.close()

            asyncio.run(drive())
            with ServiceClient(handle.host, handle.port) as client:
                assert client.revalidate("d")["valid"] is True
                assert client.stats()["queue_depth"] == 0
            assert all(code == "overloaded" for code in shed_codes)
        assert repro_threads() == []


class TestRateLimiting:
    def test_bucket_empties_and_refills_on_the_wire(self, workload):
        with serve(workload, rate_limit=1.0, rate_burst=1.0) as handle:
            clock = [500.0]
            handle.server._bucket_clock = lambda: clock[0]
            payload = payload_of(workload, "f1")
            with ServiceClient(handle.host, handle.port) as client:
                assert client.publish("d", "f1", payload)["design"] == "d"
                with pytest.raises(ServiceError) as excinfo:
                    client.publish("d", "f1", payload)
                assert excinfo.value.code == "overloaded"
                assert excinfo.value.retry_after == pytest.approx(1.0)
                # The hinted wait later, the token is back.
                clock[0] += 1.0
                assert client.publish("d", "f1", payload)["clean"] is True
                counters = client.stats()["service"]["counters"]
                assert counters["shed.rate-limited"] == 1
                # Reads are never metered.
                for _ in range(5):
                    client.ping()
        assert repro_threads() == []

    def test_limits_advertised_in_ping(self, workload):
        with serve(workload, rate_limit=50.0, max_queue_depth=64) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                limits = client.ping()["limits"]
                assert limits["rate_limit"] == 50.0
                assert limits["max_queue_depth"] == 64
                assert limits["max_frame_bytes"] > 0
                assert limits["stream_ttl"] is not None
        assert repro_threads() == []


class TestStreamSlots:
    def test_per_shard_ceiling_sheds_typed(self, workload):
        with serve(workload, max_streams_per_shard=1) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client._call(
                    "publish_stream_begin",
                    {"design": "d", "function": "f1", "stream": "a"},
                )
                # Same function, same shard: the single slot is taken.
                with pytest.raises(ServiceError) as excinfo:
                    client._call(
                        "publish_stream_begin",
                        {"design": "d", "function": "f1", "stream": "b"},
                    )
                assert excinfo.value.code == "overloaded"
                assert excinfo.value.retry_after is not None
                # Finishing the stream returns the slot.
                client._call(
                    "publish_stream_end", {"stream": "a"},
                    payload_of(workload, "f1").encode("utf-8"),
                )
                begun = client._call(
                    "publish_stream_begin",
                    {"design": "d", "function": "f1", "stream": "b"},
                )
                assert begun["stream"] == "b"
                client._call(
                    "publish_stream_end", {"stream": "b"},
                    payload_of(workload, "f1").encode("utf-8"),
                )
                assert client.stats()["open_streams"] == 0
        assert repro_threads() == []

    def test_dead_connection_returns_slots(self, workload):
        with serve(workload, max_streams_per_shard=1) as handle:
            first = ServiceClient(handle.host, handle.port)
            first._call(
                "publish_stream_begin", {"design": "d", "function": "f1", "stream": "a"}
            )
            first.close()  # connection dies with the stream open
            with ServiceClient(handle.host, handle.port) as client:
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    if client.stats()["open_streams"] == 0:
                        break
                    time.sleep(0.02)
                begun = client._call(
                    "publish_stream_begin",
                    {"design": "d", "function": "f1", "stream": "b"},
                )
                assert begun["stream"] == "b"
                client._call(
                    "publish_stream_end", {"stream": "b"},
                    payload_of(workload, "f1").encode("utf-8"),
                )
        assert repro_threads() == []


class TestStreamTTL:
    def test_idle_streams_are_reaped(self, workload):
        with serve(workload, stream_ttl=0.15) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client._call(
                    "publish_stream_begin",
                    {"design": "d", "function": "f1", "stream": "idle"},
                )
                assert client.stats()["open_streams"] == 1
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    if client.stats()["open_streams"] == 0:
                        break
                    time.sleep(0.02)
                stats = client.stats()
                assert stats["open_streams"] == 0
                assert stats["service"]["counters"]["streams.reaped"] == 1
                # The next touch gets the typed expiry, not unknown-stream.
                with pytest.raises(ServiceError) as excinfo:
                    client._call("publish_stream_chunk", {"stream": "idle"}, b"<x/>")
                assert excinfo.value.code == "stream-expired"
                # The id is free for a fresh stream afterwards.
                client._call(
                    "publish_stream_begin",
                    {"design": "d", "function": "f1", "stream": "idle"},
                )
                client._call(
                    "publish_stream_end", {"stream": "idle"},
                    payload_of(workload, "f1").encode("utf-8"),
                )
                assert client.revalidate("d")["valid"] is True
        assert repro_threads() == []


class TestInlineStreaming:
    def test_large_publish_routes_through_streaming_ingest(self, workload):
        # Threshold of 1 byte: every publish takes the streamed path.
        with serve(workload, stream_inline_threshold=1) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                result = client.publish("d", "f1", payload_of(workload, "f1"))
                assert result["peer_valid"] is True
                # Content dedup spans the streamed path: the byte-identical
                # re-publication is a clean skip (one digest, no round).
                again = client.publish("d", "f1", payload_of(workload, "f1"))
                assert again["clean"] is True
                assert again["peer_valid"] is True
                counters = client.stats()["service"]["counters"]
                assert counters["publish.inline_streamed"] == 2
                # Verdict-relevant errors stay typed on this path too.
                with pytest.raises(ServiceError) as excinfo:
                    client.publish("d", "f1", "<root_f1><broken></root_f1>")
                assert excinfo.value.code == "invalid-xml"
                with pytest.raises(ServiceError) as excinfo:
                    client.publish("d", "nope", "<x/>")
                assert excinfo.value.code == "unknown-function"
                # Good content replaces the malformed publication.
                client.publish("d", "f1", payload_of(workload, "f1"))
                assert client.revalidate("d")["valid"] is True
        assert repro_threads() == []

    def test_inline_threshold_none_disables_routing(self, workload):
        with serve(workload, stream_inline_threshold=None) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.publish("d", "f1", payload_of(workload, "f1"))
                counters = client.stats()["service"]["counters"]
                assert "publish.inline_streamed" not in counters
        assert repro_threads() == []


class TestShutdownUnderOverload:
    def test_no_leaked_threads_or_strands(self, workload):
        handle = serve(workload, max_batch=1, batch_window=0.1, max_queue_depth=4)
        payload = payload_of(workload, "f1")

        async def flood() -> list:
            client = await AsyncServiceClient.connect(handle.host, handle.port)
            try:
                tasks = [
                    asyncio.ensure_future(client.publish("d", "f1", payload))
                    for _ in range(16)
                ]
                await asyncio.sleep(0.05)  # queue fills, batch loop is parked
                closer = asyncio.get_running_loop().run_in_executor(None, handle.close)
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                await closer
                return outcomes
            finally:
                await client.close()

        outcomes = asyncio.run(flood())
        # Every in-flight publication resolved: a verdict or a typed error.
        for outcome in outcomes:
            assert isinstance(outcome, (dict, ServiceError)), outcome
        assert repro_threads() == []
