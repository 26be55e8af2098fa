"""Parser parity: every stream surface classifies input like ElementTree.

Every stream surface parses with ElementTree's parser, like the oracle
-- the tree path.  Bare expat, which a CI lint keeps out of the library,
names namespaced elements differently and skips some entity references
ElementTree refuses.  One table of payloads covers those differences
(namespaces, internal and external entities), the malformed shapes, the
encodings the parser has to honour, and markup hidden in comments and CDATA.
Each payload goes whole and in 1-byte chunks through every surface that
streams: the validator, the bytes entry, the runtime and the service.  The
outcome -- verdict or ``invalid-xml`` -- must equal the tree path's.  The
validator's runs go once on the schema's shared label tables and once with
tables so small that nearly every step is computed and evicts.
"""

from __future__ import annotations

import pytest

from repro.api import dtd, kernel
from repro.distributed.network import DistributedDocument
from repro.distributed.runtime import ValidationRuntime
from repro.engine import BatchValidator
from repro.engine.batch import parse_payload
from repro.engine.fingerprint import tree_fingerprint
from repro.errors import InvalidXMLError
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceHandle, ValidationServer
from repro.streaming import iter_chunks, streaming_validator_for
from repro.trees.xml_io import tree_from_xml

INVALID_XML = "invalid-xml"

#: One local type per function.  Content models cannot name ``{uri}local``
#: or non-ASCII labels, but a root rule can: a wrong label mapping or a
#: wrong decoding turns the ``True`` rows below into ``False``.
SCHEMAS = {
    "ns": dtd("{urn:x}r", {"{urn:x}r": "c*"}),
    "accent": dtd("é", {"é": "c*"}),
    "plain": dtd("r", {"r": "c*"}),
}
FUNCTIONS = {"ns": "f1", "accent": "f2", "plain": "f3"}
SEEDS = {"ns": b'<r xmlns="urn:x"/>', "accent": "<é/>".encode("utf-8"), "plain": b"<r/>"}

#: ``(id, schema, payload, expected outcome)``.
PAYLOADS = [
    ("prefixed-namespace", "ns", b'<a:r xmlns:a="urn:x"><c/></a:r>', True),
    ("default-namespace", "ns", b'<r xmlns="urn:x"/>', True),
    ("default-namespace-child", "ns", b'<r xmlns="urn:x"><c/></r>', False),
    ("other-namespace", "ns", b'<a:r xmlns:a="urn:y"><c/></a:r>', False),
    ("no-namespace", "ns", b"<r><c/></r>", False),
    ("unbound-prefix", "ns", b"<a:r><c/></a:r>", INVALID_XML),
    ("internal-entity", "plain", b'<!DOCTYPE r [<!ENTITY e "<c/><c/>">]><r>&e;</r>', True),
    ("internal-entity-bad-child", "plain", b'<!DOCTYPE r [<!ENTITY e "<d/>">]><r>&e;</r>', False),
    (
        "undeclared-entity-external-subset",
        "plain",
        b'<!DOCTYPE r SYSTEM "r.dtd"><r>&e;</r>',
        INVALID_XML,
    ),
    (
        "declared-external-entity",
        "plain",
        b'<!DOCTYPE r [<!ENTITY e SYSTEM "e.xml">]><r>&e;</r>',
        INVALID_XML,
    ),
    (
        "undeclared-entity-after-parameter-entity",
        "plain",
        b'<!DOCTYPE r [<!ENTITY % p SYSTEM "p.dtd"> %p;]><r>&e;</r>',
        INVALID_XML,
    ),
    ("junk-after-root", "plain", b"<r/><r/>", INVALID_XML),
    ("empty", "plain", b"", INVALID_XML),
    ("whitespace-only", "plain", b" \n\t ", INVALID_XML),
    ("truncated", "plain", b"<r><c/>", INVALID_XML),
    (
        "latin-1",
        "accent",
        '<?xml version="1.0" encoding="iso-8859-1"?><é><c/></é>'.encode("latin-1"),
        True,
    ),
    (
        "cp1252",
        "accent",
        '<?xml version="1.0" encoding="cp1252"?><é><c>€</c></é>'.encode("cp1252"),
        True,
    ),
    ("utf-16-bom", "accent", "<é><c/></é>".encode("utf-16"), True),
    ("comment-and-cdata", "plain", b"<r><!-- <fake/> --><c/><![CDATA[<fake/>]]></r>", True),
    ("str-chunks", "accent", "<é><c/><c/></é>", True),
]
CASES = [pytest.param(schema, payload, expected, id=name) for name, schema, payload, expected in PAYLOADS]
WELL_FORMED = [case for case in CASES if case.values[2] != INVALID_XML]
CHUNKINGS = [pytest.param(None, id="whole"), pytest.param(1, id="1-byte")]


def chunked(payload, chunk_bytes):
    return [payload] if chunk_bytes is None else list(iter_chunks(payload, chunk_bytes))


def oracle(schema, payload):
    """The tree path: ElementTree, then the batch validator."""
    try:
        document = tree_from_xml(payload)
    except InvalidXMLError:
        return INVALID_XML
    return BatchValidator(SCHEMAS[schema]).validate(document)


def outcome(validate, *args):
    try:
        return validate(*args)
    except InvalidXMLError:
        return INVALID_XML


def build_document() -> DistributedDocument:
    seeds = {FUNCTIONS[key]: tree_from_xml(payload) for key, payload in SEEDS.items()}
    return DistributedDocument(kernel("s(f1 f2 f3)"), seeds)


def typing():
    return {FUNCTIONS[key]: schema for key, schema in SCHEMAS.items()}


@pytest.mark.parametrize("schema, payload, expected", CASES)
def test_oracle_outcome(schema, payload, expected):
    assert oracle(schema, payload) == expected


@pytest.mark.usefixtures("label_tables")
@pytest.mark.parametrize("chunk_bytes", CHUNKINGS)
@pytest.mark.parametrize("schema, payload, expected", CASES)
def test_streaming_validator(schema, payload, expected, chunk_bytes):
    machine = streaming_validator_for(SCHEMAS[schema])
    assert outcome(machine.validate_chunks, chunked(payload, chunk_bytes)) == expected


@pytest.mark.parametrize("schema, payload, expected", CASES)
def test_batch_validate_payload(schema, payload, expected):
    assert outcome(BatchValidator(SCHEMAS[schema]).validate_payload, payload) == expected


@pytest.mark.parametrize("chunk_bytes", CHUNKINGS)
@pytest.mark.parametrize("schema, payload, expected", CASES)
def test_runtime_publish_stream(schema, payload, expected, chunk_bytes):
    with ValidationRuntime(build_document()) as runtime:
        runtime.propagate_typing(typing())
        report = runtime.publish_stream(FUNCTIONS[schema], chunked(payload, chunk_bytes))
    assert report.malformed is (expected == INVALID_XML)
    assert report.valid is (expected is True)


@pytest.mark.parametrize("schema, payload, expected", WELL_FORMED)
def test_element_fingerprint_equals_the_tree_fingerprint(schema, payload, expected):
    assert tree_fingerprint(parse_payload(payload)) == tree_fingerprint(tree_from_xml(payload))


@pytest.mark.parametrize("schema, payload, expected", CASES)
def test_runtime_seed(schema, payload, expected):
    """A registration seed: the bytes path's outcome, the tree path's address."""
    function = FUNCTIONS[schema]
    with ValidationRuntime(build_document()) as runtime:
        runtime.propagate_typing(typing())
        runtime.seed(function, payload)
        report = runtime.validate_locally()
        assert (function in report.parse_failures) is (expected == INVALID_XML)
        assert runtime.peer_acks()[function] is (expected is True)
        if expected != INVALID_XML:
            fingerprint = "tree:" + tree_fingerprint(tree_from_xml(payload))
            assert runtime.export_state()["current_fp"][function] == fingerprint


@pytest.fixture(scope="module")
def service():
    server = ValidationServer()
    server.preload_design(
        "parity",
        kernel("s(f1 f2 f3)"),
        typing(),
        {FUNCTIONS[key]: tree_from_xml(payload) for key, payload in SEEDS.items()},
    )
    handle = ServiceHandle(server).start()
    try:
        with ServiceClient(handle.host, handle.port) as client:
            yield client
    finally:
        handle.close()


@pytest.mark.parametrize("chunk_bytes", CHUNKINGS)
@pytest.mark.parametrize("schema, payload, expected", CASES)
def test_service_publish_stream(service, schema, payload, expected, chunk_bytes):
    function = FUNCTIONS[schema]
    # Settle the seed first, so a repeated payload is never a clean skip.
    service.publish_stream("parity", function, SEEDS[schema])
    chunks = chunked(payload, chunk_bytes)
    if expected == INVALID_XML:
        with pytest.raises(ServiceError) as error:
            service.publish_stream("parity", function, chunks)
        assert error.value.code == "invalid-xml"
    else:
        reply = service.publish_stream("parity", function, chunks)
        assert reply["peer_valid"] is expected


class TestEarlyRejection:
    """A dead run keeps parsing: it still counts, and still spots bad XML."""

    SCHEMA = dtd("s", {"s": "a*"})
    PAYLOAD = b"<s><zzz><a><b/></a></zzz></s>"

    @pytest.mark.usefixtures("label_tables")
    @pytest.mark.parametrize("chunk_bytes", CHUNKINGS)
    def test_rejected_run_keeps_counting(self, chunk_bytes):
        run = streaming_validator_for(self.SCHEMA).run()
        for chunk in chunked(self.PAYLOAD, chunk_bytes):
            run.feed(chunk)
        assert run.finish() is False
        assert (run.rejected_at, run.max_depth, run.events) == (2, 4, 8)

    def test_runtime_report_keeps_the_depth(self):
        document = DistributedDocument(kernel("s0(f1)"), {"f1": tree_from_xml(b"<s/>")})
        with ValidationRuntime(document) as runtime:
            runtime.propagate_typing({"f1": self.SCHEMA})
            report = runtime.publish_stream("f1", self.PAYLOAD, chunk_bytes=5)
            assert (report.valid, report.malformed) == (False, False)
            assert (report.max_depth, report.events) == (4, 8)
            truncated = runtime.publish_stream("f1", self.PAYLOAD[:-4], chunk_bytes=5)
            assert truncated.malformed

    @pytest.mark.usefixtures("label_tables")
    def test_rejected_then_truncated_is_malformed(self):
        machine = streaming_validator_for(self.SCHEMA)
        with pytest.raises(InvalidXMLError):
            machine.validate_chunks([b"<s><zzz>", b"<a>"])
