"""Client-side survival: read deadlines, backoff schedules, reconnects."""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest

from repro.service import protocol
from repro.service.client import AsyncServiceClient, RetryPolicy, ServiceClient, ServiceError
from repro.service.protocol import RETRYABLE_CODES
from repro.service.server import ServiceHandle, ValidationServer
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import distributed_workload


def repro_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-")]


@pytest.fixture
def wedged_endpoint():
    """A listener that accepts TCP but never answers a single byte."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    try:
        yield sock.getsockname()
    finally:
        sock.close()


async def answering_server(delays: dict[int, float]):
    """A loopback server answering each request with its id, ``delays[id]`` seconds late."""

    async def on_connection(reader, writer):
        while (frame := await protocol.read_frame(reader)) is not None:
            request_id = frame[0]["id"]
            await asyncio.sleep(delays.get(request_id, 0.0))
            writer.write(protocol.result_frame(request_id, {"answered": request_id}))
        writer.close()

    return await asyncio.start_server(on_connection, "127.0.0.1", 0)


@pytest.fixture
def served():
    workload = distributed_workload(peers=4, documents=12, seed=5, invalid_rate=0.0)
    server = ValidationServer()
    server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
    with ServiceHandle(server).start() as handle:
        yield handle, workload


class TestReadDeadlines:
    def test_blocking_read_times_out_typed(self, wedged_endpoint):
        host, port = wedged_endpoint
        client = ServiceClient(host, port, timeout=0.2)
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.ping()
            assert excinfo.value.code == "timeout"
            assert excinfo.value.retryable is True
            assert "0.2" in excinfo.value.message
        finally:
            client.close()

    def test_async_read_times_out_typed(self, wedged_endpoint):
        host, port = wedged_endpoint

        async def scenario() -> ServiceError:
            client = await AsyncServiceClient.connect(host, port, timeout=0.2)
            try:
                with pytest.raises(ServiceError) as excinfo:
                    await client.ping()
                return excinfo.value
            finally:
                await client.close()

        error = asyncio.run(scenario())
        assert error.code == "timeout"
        assert error.retryable is True

    def test_answered_calls_leave_no_deadline_armed(self):
        async def scenario() -> list:
            server = await answering_server({})
            client = await AsyncServiceClient.connect(
                *server.sockets[0].getsockname()[:2], timeout=5.0
            )
            try:
                for request_id in range(1, 201):
                    assert await client.ping() == {"answered": request_id}
                loop = asyncio.get_running_loop()
                return [handle for handle in loop._scheduled if not handle.cancelled()]
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        assert asyncio.run(scenario()) == []

    def test_late_reply_is_dropped_and_the_client_stays_usable(self):
        async def scenario() -> None:
            server = await answering_server({1: 0.4})
            client = await AsyncServiceClient.connect(
                *server.sockets[0].getsockname()[:2], timeout=0.2
            )
            try:
                with pytest.raises(ServiceError) as excinfo:
                    await client.ping()
                assert excinfo.value.code == "timeout"
                await asyncio.sleep(0.4)  # request 1's reply lands meanwhile
                assert client._pending == {}
                assert await client.ping() == {"answered": 2}
                assert await client.stats() == {"answered": 3}
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_timeout_none_means_no_deadline(self, served):
        handle, _workload = served
        with ServiceClient(handle.host, handle.port, timeout=None) as client:
            assert client.ping()["pong"] is True


class TestRetryPolicy:
    def test_schedule_is_deterministic_per_seed(self):
        policy = RetryPolicy(seed=42)
        first = [policy.delay_for(i, policy.rng()) for i in range(4)]
        second = [policy.delay_for(i, policy.rng()) for i in range(4)]
        assert first == second
        assert RetryPolicy(seed=43).delay_for(0, RetryPolicy(seed=43).rng()) != first[0]

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
        rng = policy.rng()
        assert policy.delay_for(0, rng) == pytest.approx(0.1)
        assert policy.delay_for(1, rng) == pytest.approx(0.2)
        assert policy.delay_for(2, rng) == pytest.approx(0.4)
        assert policy.delay_for(5, rng) == pytest.approx(0.5)  # capped

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, multiplier=1.0, max_delay=0.1)
        rng = policy.rng()
        for _ in range(100):
            delay = policy.delay_for(0, rng)
            assert 0.05 <= delay <= 0.15

    def test_server_hint_wins_over_backoff(self):
        policy = RetryPolicy(base_delay=0.01, jitter=0.0)
        assert policy.delay_for(0, policy.rng(), retry_after=3.0) == pytest.approx(3.0)

    def test_retryable_vocabulary(self):
        assert {"overloaded", "timeout", "connection-closed", "connection-lost"} == set(
            RETRYABLE_CODES
        )
        assert ServiceError("overloaded", "x").retryable is True
        assert ServiceError("invalid-xml", "x").retryable is False
        assert ServiceError("unknown-design", "x").retryable is False


class TestPublishWithRetry:
    def test_lands_after_rate_limit_shed(self, served):
        handle, workload = served
        handle.server.rate_limit = 1.0
        handle.server.rate_burst = 1.0
        clock = [800.0]
        handle.server._bucket_clock = lambda: clock[0]
        payload = tree_to_xml(workload.initial_documents["f1"])
        retried: list[ServiceError] = []

        def advance(error: ServiceError, _delay: float) -> None:
            retried.append(error)
            clock[0] += error.retry_after or 1.0

        with ServiceClient(handle.host, handle.port) as client:
            client.publish("d", "f1", payload)  # consumes the only token
            result = client.publish_with_retry(
                "d", "f1", payload,
                policy=RetryPolicy(attempts=4, base_delay=0.01, seed=7),
                on_retry=advance,
            )
            assert result["clean"] is True  # dedup made the retry cost a digest
        assert len(retried) == 1
        assert retried[0].code == "overloaded"

    def test_fatal_errors_are_not_retried(self, served):
        handle, _workload = served
        attempts: list[ServiceError] = []
        with ServiceClient(handle.host, handle.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.publish_with_retry(
                    "d", "f1", "<root_f1><broken></root_f1>",
                    policy=RetryPolicy(attempts=5, base_delay=0.01, seed=1),
                    on_retry=lambda e, _d: attempts.append(e),
                )
        assert excinfo.value.code == "invalid-xml"
        assert attempts == []

    def test_exhausted_budget_raises_the_last_error(self, served):
        handle, workload = served
        handle.server.rate_limit = 1.0
        handle.server.rate_burst = 1.0
        handle.server._bucket_clock = lambda: 900.0  # frozen: never refills
        payload = tree_to_xml(workload.initial_documents["f1"])
        with ServiceClient(handle.host, handle.port) as client:
            client.publish("d", "f1", payload)
            with pytest.raises(ServiceError) as excinfo:
                client.publish_with_retry(
                    "d", "f1", payload,
                    policy=RetryPolicy(
                        attempts=3, base_delay=0.001, max_delay=0.002, seed=2
                    ),
                )
        assert excinfo.value.code == "overloaded"

    def test_async_retry_lands_after_shed(self, served):
        handle, workload = served
        handle.server.rate_limit = 1.0
        handle.server.rate_burst = 1.0
        clock = [700.0]
        handle.server._bucket_clock = lambda: clock[0]
        payload = tree_to_xml(workload.initial_documents["f2"])

        async def scenario() -> dict:
            client = await AsyncServiceClient.connect(handle.host, handle.port)
            try:
                await client.publish("d", "f2", payload)

                def advance(error: ServiceError, _delay: float) -> None:
                    clock[0] += (error.retry_after or 1.0)

                return await client.publish_with_retry(
                    "d", "f2", payload,
                    policy=RetryPolicy(attempts=4, base_delay=0.01, seed=9),
                    on_retry=advance,
                )
            finally:
                await client.close()

        assert asyncio.run(scenario())["clean"] is True


class TestReconnect:
    def test_blocking_reconnect_restores_service(self, served):
        handle, _workload = served
        client = ServiceClient(handle.host, handle.port)
        try:
            assert client.ping()["pong"] is True
            # Kill the transport out from under the client, then recover.
            client._sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises(ServiceError) as excinfo:
                client.ping()
            assert excinfo.value.code in ("connection-closed", "connection-lost")
            client.reconnect()
            assert client.ping()["pong"] is True
        finally:
            client.close()

    def test_async_reconnect_restores_service(self, served):
        handle, _workload = served

        async def scenario() -> bool:
            client = await AsyncServiceClient.connect(handle.host, handle.port)
            try:
                assert (await client.ping())["pong"] is True
                await client.reconnect()
                return (await client.ping())["pong"]
            finally:
                await client.close()

        assert asyncio.run(scenario()) is True

    def test_raw_stream_pair_cannot_reconnect(self, served):
        handle, _workload = served

        async def scenario() -> ServiceError:
            reader, writer = await asyncio.open_connection(handle.host, handle.port)
            client = AsyncServiceClient(reader, writer)
            try:
                with pytest.raises(ServiceError) as excinfo:
                    await client.reconnect()
                return excinfo.value
            finally:
                await client.close()

        assert asyncio.run(scenario()).code == "connection-closed"


def test_no_thread_leaks_module_wide():
    assert repro_threads() == []
