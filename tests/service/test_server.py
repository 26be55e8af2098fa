"""End-to-end tests for the validation service over loopback sockets."""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest

from repro.service import protocol
from repro.service.client import AsyncServiceClient, ServiceClient, ServiceError
from repro.service.server import ServiceHandle, ValidationServer
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import corrupt_document, distributed_workload

PEERS = 4

MALFORMED_XML = "<root_f1><record></root_f1>"


def repro_threads() -> list[str]:
    """Names of service/runtime threads still alive (must be [] after close)."""
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-")]


@pytest.fixture
def workload():
    return distributed_workload(peers=PEERS, documents=12, seed=5, invalid_rate=0.0)


@pytest.fixture
def handle(workload):
    server = ValidationServer(runtime_workers=2)
    server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
    with ServiceHandle(server).start() as running:
        yield running


@pytest.fixture
def client(handle):
    with ServiceClient(handle.host, handle.port) as connected:
        yield connected


def payload_of(workload, function: str) -> str:
    return tree_to_xml(workload.initial_documents[function])


def raw_connection(handle):
    sock = socket.create_connection((handle.host, handle.port), timeout=10)
    return sock, sock.makefile("rb")


class TestBasicOps:
    def test_ping(self, client):
        result = client.ping()
        assert result["pong"] is True
        assert result["protocol"] == protocol.PROTOCOL_VERSION
        assert result["designs"] == ["d"]

    def test_unknown_op_is_typed(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._call("frobnicate")
        assert excinfo.value.code == "unknown-op"

    def test_missing_fields_are_typed(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._call("publish", {"design": "d"})  # no function
        assert excinfo.value.code == "bad-request"

    def test_unknown_design_is_typed(self, client, workload):
        with pytest.raises(ServiceError) as excinfo:
            client.publish("nope", "f1", payload_of(workload, "f1"))
        assert excinfo.value.code == "unknown-design"
        with pytest.raises(ServiceError) as excinfo:
            client.revalidate("nope")
        assert excinfo.value.code == "unknown-design"

    def test_unknown_function_is_typed(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.publish("d", "f99", "<x/>")
        assert excinfo.value.code == "unknown-function"
        with pytest.raises(ServiceError) as excinfo:
            client.validate("d", "f99", "<x/>")
        assert excinfo.value.code == "unknown-function"


class TestRegistration:
    def test_register_over_the_wire(self, client):
        small = distributed_workload(peers=2, documents=2, seed=9)
        result = client.register_design(
            "fresh",
            str(small.kernel.tree),
            dict(small.typing.items()),
            {f: tree_to_xml(doc) for f, doc in small.initial_documents.items()},
        )
        assert result == {
            "design": "fresh",
            "peers": 2,
            "workers": 2,
            "shards": 2,
            "valid": True,
        }
        assert "fresh" in client.ping()["designs"]

    def test_duplicate_registration_is_typed(self, client, workload):
        documents = {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()}
        with pytest.raises(ServiceError) as excinfo:
            client.register_design(
                "d", str(workload.kernel.tree), dict(workload.typing.items()), documents
            )
        assert excinfo.value.code == "design-exists"
        result = client.register_design(
            "d", str(workload.kernel.tree), dict(workload.typing.items()), documents, replace=True
        )
        assert result["design"] == "d" and result["valid"] is True

    def test_bad_kernel_is_typed(self, client, workload):
        with pytest.raises(ServiceError) as excinfo:
            client.register_design(
                "bad",
                "s0(f1 f1)",  # duplicate function: a kernel error
                {"f1": workload.typing["f1"]},
                {"f1": payload_of(workload, "f1")},
            )
        assert excinfo.value.code == "bad-request"

    def test_unparseable_initial_document_is_typed(self, client, workload):
        with pytest.raises(ServiceError) as excinfo:
            client.register_design(
                "bad",
                "s0(f1)",
                {"f1": workload.typing["f1"]},
                {"f1": "<root_f1><record></root_f1>"},
            )
        assert excinfo.value.code == "invalid-xml"


class TestPublish:
    def test_round_trip_and_verdicts(self, client, workload):
        first = client.publish("d", "f1", payload_of(workload, "f1"))
        assert first["valid"] is True and first["peer_valid"] is True
        bad = tree_to_xml(corrupt_document(workload.initial_documents["f2"]))
        broken = client.publish("d", "f2", bad)
        assert broken["valid"] is False and broken["peer_valid"] is False
        repaired = client.publish("d", "f2", payload_of(workload, "f2"))
        assert repaired["valid"] is True and repaired["peer_valid"] is True

    def test_byte_identical_republication_hits_fingerprint_fast_path(self, client, workload):
        """The acceptance check: zero engine misses for a clean re-publication."""
        payloads = {f: payload_of(workload, f) for f in workload.initial_documents}
        for function, payload in payloads.items():
            assert client.publish("d", function, payload)["clean"] is False
        before = client.stats()["designs"]["d"]["engine"]["by_kind"]["batch-validate"]["misses"]
        for function, payload in payloads.items():
            result = client.publish("d", function, payload)
            assert result["clean"] is True
            assert result["peers_validated"] == 0
        after = client.stats()["designs"]["d"]["engine"]["by_kind"]["batch-validate"]["misses"]
        assert after - before == 0

    def test_malformed_xml_payload_is_typed_and_connection_survives(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.publish("d", "f1", MALFORMED_XML)
        assert excinfo.value.code == "invalid-xml"
        # The connection and the server are fine; the design still answers.
        assert client.ping()["pong"] is True
        assert client.revalidate("d")["valid"] is False  # f1's ack is now False

    def test_republished_known_garbage_is_clean_but_invalid(self, client):
        with pytest.raises(ServiceError):
            client.publish("d", "f1", MALFORMED_XML)
        # Same bytes again: the content is already known (and known bad) --
        # served from the fingerprint fast path with the cached verdict.
        result = client.publish("d", "f1", MALFORMED_XML)
        assert result["clean"] is True
        assert result["peer_valid"] is False and result["valid"] is False

    def test_deeply_nested_publish_is_answered_and_later_publishes_still_settle(
        self, client, workload
    ):
        # Far deeper than the interpreter's recursion limit: one such
        # publication must neither fail its round nor poison later ones.
        deep = "<root_f1>" + "<r>" * 5000 + "</r>" * 5000 + "</root_f1>"
        result = client.publish("d", "f1", deep)
        assert result["peer_valid"] is False and result["valid"] is False
        other = client.publish("d", "f2", payload_of(workload, "f2"))
        assert other["peer_valid"] is True and other["valid"] is False
        assert client.validate("d", "f1", deep)["valid"] is False
        assert client.publish("d", "f1", payload_of(workload, "f1"))["valid"] is True

    def test_empty_payload_is_typed(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.publish("d", "f1", "")
        assert excinfo.value.code == "bad-request"

    def test_same_function_twice_in_one_batch_gets_two_verdicts(self, workload):
        # A batch window wide enough that both pipelined publications for
        # f1 land in one micro-batch: the batch must split so the earlier
        # (malformed) payload is parsed and answered on its own, not
        # silently overwritten by the later one.
        server = ValidationServer(runtime_workers=2, batch_window=0.05)
        server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
        with ServiceHandle(server).start() as handle:

            async def drive():
                client = await AsyncServiceClient.connect(handle.host, handle.port)
                try:
                    bad = asyncio.ensure_future(client.publish("d", "f1", MALFORMED_XML))
                    good = asyncio.ensure_future(
                        client.publish("d", "f1", payload_of(workload, "f1"))
                    )
                    return await asyncio.gather(bad, good, return_exceptions=True)
                finally:
                    await client.close()

            bad, good = asyncio.run(drive())
        assert isinstance(bad, ServiceError) and bad.code == "invalid-xml"
        assert good["valid"] is True and good["peer_valid"] is True


class TestValidateAndRevalidate:
    def test_stateless_validate(self, client, workload):
        good = payload_of(workload, "f1")
        assert client.validate("d", "f1", good)["valid"] is True
        bad = tree_to_xml(corrupt_document(workload.initial_documents["f1"]))
        assert client.validate("d", "f1", bad)["valid"] is False
        # Stateless: the design's verdict is untouched.
        assert client.revalidate("d")["valid"] is True

    def test_validate_invalid_xml_is_typed(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.validate("d", "f1", MALFORMED_XML)
        assert excinfo.value.code == "invalid-xml"

    def test_revalidate_force_runs_every_peer(self, client):
        report = client.revalidate("d", force=True)
        assert report["peers_validated"] == PEERS
        report = client.revalidate("d")
        assert report["peers_validated"] == 0 and report["peers_skipped"] == PEERS


class TestStats:
    def test_stats_shape(self, client, workload):
        client.publish("d", "f1", payload_of(workload, "f1"))
        stats = client.stats()
        service = stats["service"]
        assert service["counters"]["requests.publish"] == 1
        assert service["ledgers"]["wire.in"]["messages"] >= 2
        assert service["ledgers"]["wire.out"]["bytes"] > 0
        assert service["histograms"]["latency.publish"]["count"] == 1
        assert service["histograms"]["batch.size"]["count"] == 1
        design = stats["designs"]["d"]
        assert design["peers"] == PEERS
        assert design["runtime"]["publications"] == 1
        assert design["network"]["messages"] > 0
        assert design["acks"] == {f: True for f in workload.initial_documents}
        assert stats["queue_depth"] == 0


class TestMalformedFramesOverTheWire:
    """The boundary matrix: typed error frames, server keeps serving."""

    @pytest.fixture
    def small_frame_handle(self, workload):
        server = ValidationServer(runtime_workers=2, max_frame_bytes=512)
        server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
        with ServiceHandle(server).start() as running:
            yield running

    def read_error(self, stream):
        body, _blob, _n = protocol.read_frame_blocking(stream)
        assert body["ok"] is False
        return body["error"]["code"]

    def test_bad_magic_gets_typed_error_then_close(self, handle):
        sock, stream = raw_connection(handle)
        try:
            sock.sendall(b"XXXX" + protocol.encode_frame({"op": "ping", "id": 1})[4:])
            assert self.read_error(stream) == "bad-magic"
            # Fatal: the server closes this connection...
            assert protocol.read_frame_blocking(stream) is None
        finally:
            sock.close()
        # ...but keeps serving new ones.
        with ServiceClient(handle.host, handle.port) as client:
            assert client.ping()["pong"] is True

    def test_unknown_protocol_version_keeps_connection(self, handle):
        sock, stream = raw_connection(handle)
        try:
            sock.sendall(protocol.encode_frame({"op": "ping", "id": 1}, version=9))
            assert self.read_error(stream) == "unsupported-version"
            sock.sendall(protocol.encode_frame({"op": "ping", "id": 2}))
            body, _blob, _n = protocol.read_frame_blocking(stream)
            assert body["ok"] is True and body["id"] == 2
        finally:
            sock.close()

    def test_oversized_frame_keeps_connection(self, small_frame_handle):
        sock, stream = raw_connection(small_frame_handle)
        try:
            sock.sendall(protocol.encode_frame({"op": "ping", "id": 1}, b"y" * 2048))
            assert self.read_error(stream) == "frame-too-large"
            sock.sendall(protocol.encode_frame({"op": "ping", "id": 2}))
            body, _blob, _n = protocol.read_frame_blocking(stream)
            assert body["ok"] is True and body["id"] == 2
        finally:
            sock.close()

    def test_undecodable_json_keeps_connection(self, handle):
        import struct

        sock, stream = raw_connection(handle)
        try:
            raw = struct.pack("!4sBII", protocol.MAGIC, protocol.PROTOCOL_VERSION, 4, 0)
            sock.sendall(raw + b"\xff\xfe{]")
            assert self.read_error(stream) == "bad-json"
            sock.sendall(protocol.encode_frame({"op": "ping", "id": 2}))
            body, _blob, _n = protocol.read_frame_blocking(stream)
            assert body["ok"] is True and body["id"] == 2
        finally:
            sock.close()

    @pytest.mark.parametrize(
        "fragment",
        [
            protocol.encode_frame({"op": "ping", "id": 1})[:5],  # half a header
            protocol.encode_frame({"op": "ping", "id": 1}, b"x" * 64)[:-30],  # half a body
        ],
    )
    def test_truncated_frame_does_not_kill_the_server(self, handle, fragment):
        sock, _stream = raw_connection(handle)
        sock.sendall(fragment)
        sock.close()  # mid-frame EOF
        with ServiceClient(handle.host, handle.port) as client:
            assert client.ping()["pong"] is True


class TestAsyncClient:
    def test_pipelined_publishes(self, handle, workload):
        payloads = {f: payload_of(workload, f) for f in workload.initial_documents}

        async def drive():
            client = await AsyncServiceClient.connect(handle.host, handle.port)
            try:
                tasks = [
                    asyncio.ensure_future(client.publish("d", function, payload))
                    for function, payload in list(payloads.items()) * 4
                ]
                return await asyncio.gather(*tasks)
            finally:
                await client.close()

        async def republish_all():
            client = await AsyncServiceClient.connect(handle.host, handle.port)
            try:
                return await asyncio.gather(
                    *(client.publish("d", function, payload) for function, payload in payloads.items())
                )
            finally:
                await client.close()

        results = asyncio.run(drive())
        assert len(results) == 4 * PEERS
        assert all(result["valid"] is True for result in results)
        # Copies coalesced into one micro-batch re-queue each other, so how
        # many of the pipelined duplicates were clean depends on batch
        # boundaries -- but once everything settled, a re-publication of the
        # same bytes is guaranteed clean.
        assert all(result["clean"] for result in asyncio.run(republish_all()))

    def test_pipelined_errors_resolve_to_their_requests(self, handle, workload):
        async def drive():
            client = await AsyncServiceClient.connect(handle.host, handle.port)
            try:
                good = asyncio.ensure_future(client.publish("d", "f1", payload_of(workload, "f1")))
                bad = asyncio.ensure_future(client.publish("d", "f99", "<x/>"))
                ping = asyncio.ensure_future(client.ping())
                results = await asyncio.gather(good, bad, ping, return_exceptions=True)
                return results
            finally:
                await client.close()

        good, bad, ping = asyncio.run(drive())
        assert good["valid"] is True
        assert isinstance(bad, ServiceError) and bad.code == "unknown-function"
        assert ping["pong"] is True


class TestGracefulShutdown:
    def test_shutdown_notifies_idle_connections(self, workload):
        server = ValidationServer(runtime_workers=2)
        server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
        with ServiceHandle(server).start() as handle:
            sock, stream = raw_connection(handle)
            with ServiceClient(handle.host, handle.port) as admin:
                assert admin.shutdown() == {"stopping": True}
            # The idle connection receives the typed shutdown notice.
            body, _blob, _n = protocol.read_frame_blocking(stream)
            assert body["ok"] is False and body["error"]["code"] == "shutting-down"
            sock.close()
        assert repro_threads() == []

    def test_shutdown_under_load_drains_in_flight_publications(self, workload):
        server = ValidationServer(runtime_workers=2)
        server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
        handle = ServiceHandle(server).start()
        payloads = [(f, payload_of(workload, f)) for f in workload.initial_documents]

        async def drive():
            client = await AsyncServiceClient.connect(handle.host, handle.port)
            admin = await AsyncServiceClient.connect(handle.host, handle.port)
            try:
                tasks = [
                    asyncio.ensure_future(client.publish("d", function, payload))
                    for function, payload in payloads * 8
                ]
                # Let the server accept some of the stream before pulling the
                # plug, so "in-flight work is drained" is actually exercised.
                await tasks[0]
                await admin.shutdown()
                return await asyncio.gather(*tasks, return_exceptions=True)
            finally:
                await client.close()
                await admin.close()

        results = asyncio.run(drive())
        handle.close()
        assert repro_threads() == []
        settled = 0
        for result in results:
            if isinstance(result, dict):
                assert result["valid"] is True
                settled += 1
            else:
                assert isinstance(result, ServiceError)
                assert result.code in {"shutting-down", "connection-closed"}
        # Work the admission controller had accepted was settled, not lost.
        assert settled >= 1

    def test_close_is_idempotent_and_leak_free(self, workload):
        server = ValidationServer(runtime_workers=2)
        server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
        handle = ServiceHandle(server).start()
        with ServiceClient(handle.host, handle.port) as client:
            client.publish("d", "f1", payload_of(workload, "f1"))
        handle.close()
        handle.close()
        assert repro_threads() == []
