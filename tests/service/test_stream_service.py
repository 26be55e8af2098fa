"""Tests for the chunked ``publish_stream_*`` wire operations."""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import pytest

from repro.service.client import AsyncServiceClient, ServiceClient, ServiceError
from repro.service.loadgen import run_load
from repro.service.server import FEED_SLICE_BYTES, ServiceHandle, ValidationServer
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import corrupt_document, distributed_workload


@pytest.fixture(scope="module")
def served():
    workload = distributed_workload(peers=4, documents=16, seed=21, invalid_rate=0.2)
    handle = ServiceHandle(ValidationServer()).start()
    try:
        with ServiceClient(handle.host, handle.port) as client:
            payloads = {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()}
            client.register_design(
                "w", str(workload.kernel.tree), dict(workload.typing.items()), payloads
            )
        yield handle, workload, payloads
    finally:
        handle.close()


@pytest.fixture(scope="module")
def sliced():
    """Large documents on a server that streams every multi-slice publish or validate."""
    workload = distributed_workload(peers=2, documents=2, seed=8, records=12000)
    server = ValidationServer(stream_inline_threshold=FEED_SLICE_BYTES)
    server.preload_design("big", workload.kernel, workload.typing, workload.initial_documents)
    handle = ServiceHandle(server).start()
    try:
        yield handle, workload
    finally:
        handle.close()


@pytest.fixture
def client(served):
    handle, _workload, _payloads = served
    with ServiceClient(handle.host, handle.port) as client:
        yield client


class TestPublishStreamOps:
    def test_round_trip_then_clean(self, served, client):
        _handle, _workload, payloads = served
        function = sorted(payloads)[0]
        first = client.publish_stream("w", function, payloads[function], chunk_bytes=48)
        assert first["function"] == function
        assert first["peer_valid"] is True
        assert first["payload_bytes"] == len(payloads[function].encode("utf-8"))
        second = client.publish_stream("w", function, payloads[function], chunk_bytes=11)
        assert second["clean"] is True
        assert second["valid"] is True

    def test_invalid_document_over_the_stream(self, served, client):
        _handle, workload, payloads = served
        function = sorted(payloads)[1]
        bad = tree_to_xml(corrupt_document(workload.initial_documents[function]))
        report = client.publish_stream("w", function, bad, chunk_bytes=32)
        assert report["peer_valid"] is False
        assert report["valid"] is False
        # Restore validity for the other tests in this module.
        client.publish_stream("w", function, payloads[function])

    def test_malformed_stream_is_a_typed_error(self, served, client):
        _handle, _workload, payloads = served
        function = sorted(payloads)[0]
        with pytest.raises(ServiceError) as err:
            client.publish_stream("w", function, "<s_f1><unclosed", chunk_bytes=4)
        assert err.value.code == "invalid-xml"
        # The connection survives; the stream is gone.
        assert client.ping()["designs"] == ["w"]
        client.publish_stream("w", function, payloads[function])

    def test_unknown_stream_and_duplicate_stream(self, client):
        with pytest.raises(ServiceError) as err:
            client._call("publish_stream_chunk", {"stream": "ghost"}, b"<r/>")
        assert err.value.code == "unknown-stream"
        with pytest.raises(ServiceError) as err:
            client._call("publish_stream_end", {"stream": "ghost"})
        assert err.value.code == "unknown-stream"
        client._call(
            "publish_stream_begin", {"design": "w", "function": "f1", "stream": "dup"}
        )
        with pytest.raises(ServiceError) as err:
            client._call(
                "publish_stream_begin", {"design": "w", "function": "f1", "stream": "dup"}
            )
        assert err.value.code == "stream-exists"

    def test_begin_validates_design_and_function(self, client):
        with pytest.raises(ServiceError) as err:
            client._call(
                "publish_stream_begin", {"design": "nope", "function": "f1", "stream": "x"}
            )
        assert err.value.code == "unknown-design"
        with pytest.raises(ServiceError) as err:
            client._call(
                "publish_stream_begin", {"design": "w", "function": "nope", "stream": "x"}
            )
        assert err.value.code == "unknown-function"
        with pytest.raises(ServiceError) as err:
            client._call(
                "publish_stream_begin", {"design": "w", "function": "f1", "stream": [1]}
            )
        assert err.value.code == "bad-request"

    def test_streams_are_connection_scoped(self, served):
        handle, _workload, payloads = served
        function = sorted(payloads)[0]
        with ServiceClient(handle.host, handle.port) as first:
            first._call(
                "publish_stream_begin", {"design": "w", "function": function, "stream": "s"}
            )
            with ServiceClient(handle.host, handle.port) as second:
                # The other connection cannot see (or collide with) it.
                with pytest.raises(ServiceError) as err:
                    second._call("publish_stream_end", {"stream": "s"})
                assert err.value.code == "unknown-stream"
                second._call(
                    "publish_stream_begin",
                    {"design": "w", "function": function, "stream": "s"},
                )
        # Both connections closed: an abandoned stream leaves no trace.
        with ServiceClient(handle.host, handle.port) as probe:
            assert probe.stats()["open_streams"] == 0

    def test_stats_count_streamed_publications(self, served, client):
        _handle, _workload, payloads = served
        function = sorted(payloads)[0]
        before = client.stats()["designs"]["w"]["runtime"]["streamed_publications"]
        client.publish_stream("w", function, payloads[function])
        after = client.stats()["designs"]["w"]["runtime"]["streamed_publications"]
        assert after == before + 1

    def test_blob_may_ride_on_begin_and_end(self, served, client):
        _handle, _workload, payloads = served
        function = sorted(payloads)[0]
        payload = payloads[function].encode("utf-8")
        client._call(
            "publish_stream_begin",
            {"design": "w", "function": function, "stream": "rb"},
            payload[: len(payload) // 2],
        )
        result = client._call(
            "publish_stream_end", {"stream": "rb"}, payload[len(payload) // 2 :]
        )
        assert result["clean"] is True or result["peer_valid"] is True
        assert result["payload_bytes"] == len(payload)


class TestSlicedFeeds:
    """A stream is fed ``FEED_SLICE_BYTES`` per loop turn."""

    def test_a_large_publish_lets_a_later_request_in(self, sliced):
        handle, workload = sliced
        document = tree_to_xml(workload.initial_documents["f1"]).encode("utf-8")
        assert len(document) > 8 * FEED_SLICE_BYTES

        async def main() -> list:
            client = await AsyncServiceClient.connect(handle.host, handle.port)
            answered = []

            async def call(name, request):
                answered.append((name, await request))

            try:
                publish = asyncio.ensure_future(
                    call("publish", client.publish("big", "f1", document))
                )
                await asyncio.sleep(0)  # the publish frame goes out first
                await call("ping", client.ping())
                await publish
            finally:
                await client.close()
            return answered

        answered = asyncio.run(main())
        assert [name for name, _ in answered] == ["ping", "publish"]
        assert answered[1][1]["peer_valid"] is True

    def test_pipelined_chunks_larger_than_a_slice_keep_their_order(self, sliced):
        handle, workload = sliced
        document = tree_to_xml(workload.initial_documents["f2"]).encode("utf-8")

        async def main() -> dict:
            client = await AsyncServiceClient.connect(handle.host, handle.port)
            try:
                return await client.publish_stream(
                    "big", "f2", document, chunk_bytes=2 * FEED_SLICE_BYTES + 7
                )
            finally:
                await client.close()

        report = asyncio.run(main())
        assert report["peer_valid"] is True
        assert report["payload_bytes"] == len(document)

    def test_a_chunk_whose_connection_dies_between_slices_answers_unknown_stream(self):
        workload = distributed_workload(peers=2, documents=2, seed=8)
        server = ValidationServer()
        server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
        connection = SimpleNamespace(streams={}, reaped=set())
        chunk = b"<root_f1>" + b"<record><key/></record>" * (4 * FEED_SLICE_BYTES // 23)

        async def main() -> str:
            await server._stream_begin(
                {"design": "d", "function": "f1", "stream": "s"}, b"", connection
            )
            feeding = asyncio.ensure_future(
                server._stream_chunk({"stream": "s"}, chunk, connection)
            )
            await asyncio.sleep(0)  # the chunk feeds its first slice and yields
            assert not feeding.done()
            server._discard_streams(connection)  # what a dying connection does
            with pytest.raises(ServiceError) as err:
                await feeding
            return err.value.code

        assert asyncio.run(main()) == "unknown-stream"

    def test_a_large_validate_streams_to_the_same_verdicts(self, sliced):
        handle, workload = sliced
        document = workload.initial_documents["f1"]
        payload = tree_to_xml(document)
        with ServiceClient(handle.host, handle.port) as client:
            assert client.validate("big", "f1", payload)["valid"] is True
            rejected = tree_to_xml(corrupt_document(document))
            assert client.validate("big", "f1", rejected)["valid"] is False
            with pytest.raises(ServiceError) as err:
                client.validate("big", "f1", payload[:-5])
            assert err.value.code == "invalid-xml"


class TestStreamLoadgen:
    def test_closed_loop_streaming_replay(self, served):
        handle, workload, _payloads = served
        report = run_load(
            handle.host,
            handle.port,
            workload,
            design="loadgen-stream",
            clients=2,
            pipeline=4,
            stream_chunk_bytes=128,
        )
        assert report.errors == 0
        assert report.publications == len(workload.initial_documents) * (
            len(workload.events) + 1
        )
        assert report.final_valid is not None

    def test_open_loop_streaming_replay(self, served):
        handle, workload, _payloads = served
        report = run_load(
            handle.host,
            handle.port,
            workload,
            design="loadgen-stream-open",
            mode="open",
            rate=2000.0,
            clients=2,
            stream_chunk_bytes=256,
        )
        assert report.errors == 0
        assert report.publications > 0
