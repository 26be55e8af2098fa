"""End-to-end tests for the validation service over loopback sockets."""

from __future__ import annotations

import asyncio
import gc
import socket
import threading
import weakref

import pytest

from repro.api import DesignSession
from repro.core.design import TopDownDesign
from repro.core.existence import find_perfect_typing
from repro.core.kernel import KernelTree
from repro.core.typing import TreeTyping, default_root_name
from repro.distributed.network import DistributedDocument
from repro.distributed.runtime import ValidationRuntime
from repro.schemas.dtd import DTD
from repro.schemas.dtd_text import parse_dtd_text
from repro.service import protocol
from repro.service.client import AsyncServiceClient, ServiceClient, ServiceError
from repro.service.server import ServiceHandle, ValidationServer
from repro.trees import xml_io
from repro.trees.document import Tree
from repro.trees.term import parse_term
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
    server = ValidationServer()
    server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
    with ServiceHandle(server).start() as running:
        yield running


@pytest.fixture
def client(handle):
    with ServiceClient(handle.host, handle.port) as connected:
        yield connected


def payload_of(workload, function: str) -> str:
    return tree_to_xml(workload.initial_documents[function])


def register_over_the_wire(client, workload, design: str = "d") -> dict:
    return client.register_design(
        design,
        str(workload.kernel.tree),
        dict(workload.typing.items()),
        {f: payload_of(workload, f) for f in workload.initial_documents},
        replace=True,
    )


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

    def test_registration_and_publication_build_no_tree(self, client, workload, monkeypatch):
        def refuse(_element):
            raise AssertionError("a server path built a Tree")

        monkeypatch.setattr(xml_io, "element_to_tree", refuse)
        assert register_over_the_wire(client, workload)["valid"] is True
        bad = tree_to_xml(corrupt_document(workload.initial_documents["f1"]))
        assert client.publish("d", "f1", bad)["peer_valid"] is False
        streamed = client.publish_stream("d", "f1", payload_of(workload, "f1"), chunk_bytes=64)
        assert streamed["peer_valid"] is True and streamed["valid"] is True

    def test_wire_registration_state_equals_the_in_process_runtime(
        self, handle, client, workload
    ):
        register_over_the_wire(client, workload, design="wired")
        served = handle.server.design("wired").runtime
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.propagate_typing(workload.typing)
            assert runtime.validate_locally().valid is True
            assert served.peer_acks() == runtime.peer_acks()
            assert served.state_digest() == runtime.state_digest()

    def test_deeply_nested_registration_document_gets_a_verdict(self, handle, client, workload):
        # Far deeper than the recursion limit: the verdict comes from the
        # iterative streaming machine, the fingerprint from the elements.
        deep = "<root_f1>" + "<r>" * 5000 + "</r>" * 5000 + "</root_f1>"
        documents = {f: payload_of(workload, f) for f in workload.initial_documents}
        documents["f1"] = deep
        result = client.register_design(
            "deep", str(workload.kernel.tree), dict(workload.typing.items()), documents
        )
        assert result["valid"] is False
        assert handle.server.design("deep").runtime.peer_acks()["f1"] is False
        assert client.revalidate("deep", force=True)["valid"] is False

    def test_registration_text_is_read_as_text_whatever_it_declares(self, handle, client):
        # The JSON string is already characters: encoding it to UTF-8 and
        # honouring the declaration would read the root as "donnÃ©es".
        text = '<?xml version="1.0" encoding="iso-8859-1"?><données><a/></données>'
        result = client.register_design("enc", "s0(f1)", {"f1": "données -> a*"}, {"f1": text})
        assert result["valid"] is True
        entry = handle.server.design("enc")
        peer = entry.document.resources["f1"]
        assert peer.answer() == Tree.node("données", "a")
        # A typing change re-validates from the kept text.
        entry.runtime.propagate_typing(TreeTyping({"f1": parse_dtd_text("données -> a, a")}))
        assert entry.runtime.validate_locally().valid is False


#: A record DTD over the kernel ``s0(f1 ... f16)``.  Its perfect typing
#: gives every peer ``root_fi -> record*`` and the same ``record``,
#: ``group`` and ``field`` rules, and every leaf is ε: five distinct content
#: models across 16 x 9 rules.
RECORD_RULES = {
    "s0": "record*",
    "record": "key, (field | group)*, stamp?",
    "group": "(field, field) | note",
    "field": "value?",
}
RECORD_FUNCTIONS = tuple(f"f{i}" for i in range(1, 17))
RECORD_KERNEL = f"s0({' '.join(RECORD_FUNCTIONS)})"


def record_typing(record_rule: str) -> dict:
    rules = dict(RECORD_RULES, record=record_rule)
    design = TopDownDesign(DTD("s0", rules), KernelTree(parse_term(RECORD_KERNEL)))
    return dict(find_perfect_typing(design).items())


def register_records(client, record_rule: str, replace: bool = False) -> dict:
    documents = {
        f: f"<{default_root_name(f)}><record><key/><field/></record></{default_root_name(f)}>"
        for f in RECORD_FUNCTIONS
    }
    return client.register_design(
        "records", RECORD_KERNEL, record_typing(record_rule), documents, replace=replace
    )


class TestTypingCompilation:
    """Rules compile over their own symbols, so the peers of a typing share them."""

    def compact_counters(self, handle) -> tuple[int, int]:
        counters = handle.server.design("records").runtime.engine_stats()["by_kind"]
        return counters["compact-horizontal"]["misses"], counters["compact-horizontal"]["hits"]

    def test_a_perfect_typing_compiles_each_distinct_rule_once(self, handle, client):
        assert register_records(client, RECORD_RULES["record"])["valid"] is True
        misses, hits = self.compact_counters(handle)
        assert (misses, misses + hits) == (5, len(RECORD_FUNCTIONS) * 9)
        # One runtime, a typing that changes one rule: one more compile.
        # The typing is read from its text, as the server reads it.
        changed = record_typing("key, (field | group)*, stamp")
        runtime = handle.server.design("records").runtime
        runtime.propagate_typing(
            {f: parse_dtd_text(schema.describe(), start=schema.start) for f, schema in changed.items()}
        )
        assert runtime.validate_locally().valid is False
        assert self.compact_counters(handle)[0] == 6
        # A registration starts its own memo: nothing carries over.
        assert register_records(client, RECORD_RULES["record"], replace=True)["valid"] is True
        assert self.compact_counters(handle)[0] == 5

    def test_a_replaced_design_is_garbage(self, handle, client):
        register_records(client, RECORD_RULES["record"])
        entry = handle.server.design("records")
        compiled = weakref.ref(entry.document.resources["f1"].validator.compiled)
        document = "<root_f1><record><key/></record></root_f1>"
        assert client.publish_stream("records", "f1", document, chunk_bytes=8)["peer_valid"]
        assert client.validate("records", "f1", document)["valid"] is True
        del entry
        register_records(client, RECORD_RULES["record"], replace=True)
        gc.collect()
        assert compiled() is None


class TestPublish:
    def test_round_trip_and_verdicts(self, client, workload):
        first = client.publish("d", "f1", payload_of(workload, "f1"))
        assert first["valid"] is True and first["peer_valid"] is True
        bad = tree_to_xml(corrupt_document(workload.initial_documents["f2"]))
        broken = client.publish("d", "f2", bad)
        assert broken["valid"] is False and broken["peer_valid"] is False
        repaired = client.publish("d", "f2", payload_of(workload, "f2"))
        assert repaired["valid"] is True and repaired["peer_valid"] is True

    @pytest.mark.parametrize("registration", ["preload", "wire"])
    def test_byte_identical_republication_hits_fingerprint_fast_path(
        self, client, workload, registration
    ):
        """The acceptance check: zero engine misses for a clean re-publication.

        Registered documents are addressed by structure (``tree:``), not
        by bytes, so the first publication of the registered bytes is new.
        """
        if registration == "wire":
            register_over_the_wire(client, workload)
        payloads = {f: payload_of(workload, f) for f in workload.initial_documents}
        for function, payload in payloads.items():
            assert client.publish("d", function, payload)["clean"] is False

        def tree_memo_misses() -> int:
            # A design that never folded a Tree has no ``batch-validate`` kind.
            kinds = client.stats()["designs"]["d"]["engine"]["by_kind"]
            return kinds.get("batch-validate", {}).get("misses", 0)

        before = tree_memo_misses()
        for function, payload in payloads.items():
            result = client.publish("d", function, payload)
            assert result["clean"] is True
            assert result["peers_validated"] == 0
        assert tree_memo_misses() - before == 0

    def test_malformed_xml_payload_is_typed_and_connection_survives(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.publish("d", "f1", MALFORMED_XML)
        assert excinfo.value.code == "invalid-xml"
        # The connection and the server are fine; the design still answers.
        assert client.ping()["pong"] is True
        assert client.revalidate("d")["valid"] is False  # f1's ack is now False

    def test_republished_garbage_answers_invalid_xml_every_time(self, client):
        # The same bytes again are served from the fingerprint fast path
        # (counted clean, never parsed), and answered like the first time.
        for _ in range(2):
            with pytest.raises(ServiceError) as excinfo:
                client.publish("d", "f1", MALFORMED_XML)
            assert excinfo.value.code == "invalid-xml"
        with pytest.raises(ServiceError) as excinfo:
            client.publish_stream("d", "f1", MALFORMED_XML)
        assert excinfo.value.code == "invalid-xml"
        runtime = client.stats()["designs"]["d"]["runtime"]
        assert runtime["clean_publications"] == 2
        assert client.revalidate("d")["valid"] is False

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
        server = ValidationServer(batch_window=0.05)
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

    def test_an_unexpected_ingest_error_fails_only_its_own_publication(
        self, workload, monkeypatch
    ):
        # Three pipelined publications land in one micro-batch; the ingest
        # of f2 raises an exception no handler expects.  Its neighbours are
        # answered as usual, and the event ring names the exception.
        server = ValidationServer(batch_window=0.05)
        server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
        runtime = server.design("d").runtime
        publish = runtime.publish

        def failing_publish(function, payload, trace_id=None):
            if function == "f2":
                raise RuntimeError("ingest failed")
            return publish(function, payload, trace_id=trace_id)

        monkeypatch.setattr(runtime, "publish", failing_publish)
        with ServiceHandle(server).start() as handle:

            async def drive():
                client = await AsyncServiceClient.connect(handle.host, handle.port)
                try:
                    return await asyncio.gather(
                        client.publish("d", "f1", payload_of(workload, "f1")),
                        client.publish("d", "f2", payload_of(workload, "f2")),
                        client.publish("d", "f3", payload_of(workload, "f3")),
                        return_exceptions=True,
                    )
                finally:
                    await client.close()

            first, bad, last = asyncio.run(drive())
        assert isinstance(bad, ServiceError) and bad.code == "internal-error"
        assert "RuntimeError" in bad.message
        assert isinstance(first, dict) and first["peer_valid"] is True
        assert isinstance(last, dict) and last["peer_valid"] is True
        errors = [event for event in server.logger.export() if event["name"] == "op.error"]
        assert [event.get("exception") for event in errors] == ["RuntimeError"]

    def test_a_dirty_segment_makes_one_pass_over_the_peers(self, workload, monkeypatch):
        server = ValidationServer()
        server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
        runtime = server.design("d").runtime
        dirty_peers = runtime.dirty_peers
        passes = []
        monkeypatch.setattr(runtime, "dirty_peers", lambda: passes.append(1) or dirty_peers())
        payload = payload_of(workload, "f1")
        with ServiceHandle(server).start() as handle:
            with ServiceClient(handle.host, handle.port) as client:
                assert client.publish("d", "f1", payload)["clean"] is False
                assert len(passes) == 1
                # A clean segment reads the verdict off the cached acks.
                result = client.publish("d", "f1", payload)
                assert result["clean"] is True and result["peers_validated"] == 0
                assert len(passes) == 2


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


class TestStrPayloads:
    """A ``str`` payload rides as JSON text and is read as the characters it is."""

    #: Read as UTF-8 bytes under the encoding it declares, the root would
    #: be ``donnÃ©es``.
    LATIN = '<?xml version="1.0" encoding="iso-8859-1"?><données><a/></données>'
    LATIN_TWO = '<?xml version="1.0" encoding="iso-8859-1"?><données><a/><a/></données>'

    @pytest.fixture(params=[{}, {"stream_inline_threshold": 16}], ids=["batched", "inline-stream"])
    def latin(self, request):
        schema = DTD("données", {"données": "a*"})
        with DesignSession.serve(
            "s0(f1)", {"f1": schema}, {"f1": Tree.node("données")}, **request.param
        ) as running:
            yield running

    def test_publish_validate_and_streams_read_the_characters(self, latin):
        with ServiceClient(latin.host, latin.port) as client:
            assert client.validate("default", "f1", self.LATIN)["valid"] is True
            published = client.publish("default", "f1", self.LATIN)
            assert published["peer_valid"] is True and published["clean"] is False
            # Addressed by its UTF-8 encoding, as ``runtime.publish(str)`` does.
            again = client.publish_stream("default", "f1", self.LATIN, chunk_bytes=7)
            assert again["clean"] is True and again["peer_valid"] is True
            streamed = client.publish_stream("default", "f1", self.LATIN_TWO, chunk_bytes=5)
            assert streamed["clean"] is False and streamed["peer_valid"] is True
            assert streamed["payload_bytes"] == len(self.LATIN_TWO.encode("utf-8"))
            # Bytes keep the blob path, which honours the declaration.
            latin_bytes = self.LATIN.encode("iso-8859-1")
            assert client.validate("default", "f1", latin_bytes)["valid"] is True

        async def drive():
            client = await AsyncServiceClient.connect(latin.host, latin.port)
            try:
                return await client.publish_stream("default", "f1", self.LATIN, chunk_bytes=3)
            finally:
                await client.close()

        assert asyncio.run(drive())["peer_valid"] is True

    @pytest.mark.parametrize("payload", [5, "<données>\ud800</données>"], ids=["int", "surrogate"])
    @pytest.mark.parametrize("op", ["publish", "validate"])
    def test_a_payload_that_is_not_text_is_a_bad_request(self, latin, op, payload):
        with ServiceClient(latin.host, latin.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client._call(op, {"design": "default", "function": "f1", "payload": payload})
            assert excinfo.value.code == "bad-request"
            assert client.publish("default", "f1", self.LATIN)["peer_valid"] is True

    def test_a_lone_surrogate_chunk_is_a_bad_request(self, latin):
        with ServiceClient(latin.host, latin.port) as client:
            client._call("publish_stream_begin", {"design": "default", "function": "f1", "stream": 1})
            with pytest.raises(ServiceError) as excinfo:
                client._call("publish_stream_chunk", {"stream": 1, "payload": "<données>\ud800"})
            assert excinfo.value.code == "bad-request"
            client._call("publish_stream_chunk", {"stream": 1}, self.LATIN.encode("iso-8859-1"))
            assert client._call("publish_stream_end", {"stream": 1})["peer_valid"] is True

    def test_a_lone_surrogate_fails_only_its_own_publication(self, workload):
        # A batch window wide enough that the three pipelined publications
        # land in one micro-batch: the text that has no UTF-8 encoding, so
        # no content address, must not fail its neighbours.
        server = ValidationServer(batch_window=0.05)
        server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
        with ServiceHandle(server).start() as handle:

            async def drive():
                client = await AsyncServiceClient.connect(handle.host, handle.port)
                try:
                    return await asyncio.gather(
                        client.publish("d", "f1", payload_of(workload, "f1")),
                        client.publish("d", "f2", "<root_f2>\ud800</root_f2>"),
                        client.publish("d", "f3", payload_of(workload, "f3")),
                        return_exceptions=True,
                    )
                finally:
                    await client.close()

            first, bad, last = asyncio.run(drive())
        assert isinstance(bad, ServiceError) and bad.code == "bad-request"
        assert first["peer_valid"] is True and last["peer_valid"] is True

    def test_text_and_its_utf8_bytes_share_one_address(self, latin):
        """A known limitation, pinned: a ``str`` is addressed by its UTF-8
        bytes, so those bytes -- which declare iso-8859-1, where ``é``
        reads as ``Ã©``, not a name character -- are the same publication
        to the clean-skip.  Whichever comes second answers as the first."""
        text, raw = self.LATIN, self.LATIN.encode("utf-8")
        with ServiceClient(latin.host, latin.port) as client:
            assert client.validate("default", "f1", text)["valid"] is True
            with pytest.raises(ServiceError, match="invalid-xml"):
                client.validate("default", "f1", raw)
            assert client.publish("default", "f1", text)["peer_valid"] is True
            second = client.publish("default", "f1", raw)
            assert second["clean"] is True and second["peer_valid"] is True
            # A malformed latest publication, then its text clean-skips as one.
            with pytest.raises(ServiceError, match="invalid-xml"):
                client.publish("default", "f1", self.LATIN_TWO.encode("utf-8"))
            with pytest.raises(ServiceError, match="invalid-xml"):
                client.publish("default", "f1", self.LATIN_TWO)


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
        server = ValidationServer(max_frame_bytes=512)
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
        server = ValidationServer()
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
        server = ValidationServer()
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
        server = ValidationServer()
        server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
        handle = ServiceHandle(server).start()
        with ServiceClient(handle.host, handle.port) as client:
            client.publish("d", "f1", payload_of(workload, "f1"))
        handle.close()
        handle.close()
        assert repro_threads() == []


class TestThreads:
    def test_ops_start_no_thread_beside_the_loop(self, workload):
        """Every op's runtime work runs on the loop thread: no executor thread ever exists."""
        before = set(threading.enumerate())
        started: set[threading.Thread] = set()
        with ServiceHandle(ValidationServer()).start() as handle:
            with ServiceClient(handle.host, handle.port) as client:
                steps = [
                    lambda: register_over_the_wire(client, workload),
                    lambda: client.publish("d", "f1", payload_of(workload, "f1")),
                    lambda: client.publish_stream(
                        "d", "f2", payload_of(workload, "f2"), chunk_bytes=64
                    ),
                    lambda: client.validate("d", "f3", payload_of(workload, "f3")),
                    lambda: client.revalidate("d", force=True),
                ]
                for step in steps:
                    assert step()["valid"] is True
                    started |= set(threading.enumerate()) - before
        assert sorted(thread.name for thread in started) == ["repro-service-loop"]
        assert repro_threads() == []
