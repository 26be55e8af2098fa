"""Tests for the runtime's streamed-publication ingest."""

from __future__ import annotations

import gc
import sys
import threading
import time

import pytest

from repro.distributed.network import DistributedDocument
from repro.distributed.peer import PublicationRecord
from repro.distributed.runtime import ValidationRuntime, WorkloadDriver
from repro.errors import DesignError
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import corrupt_document, distributed_workload


@pytest.fixture
def workload():
    return distributed_workload(peers=4, documents=20, seed=9, invalid_rate=0.2, records=5)


@pytest.fixture
def runtime(workload):
    document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
    with ValidationRuntime(document) as runtime:
        runtime.propagate_typing(workload.typing)
        yield runtime


def payload_of(workload, function):
    return tree_to_xml(workload.initial_documents[function]).encode("utf-8")


class TestPublishStream:
    def test_first_publication_validates_then_clean_skips(self, workload, runtime):
        function = next(iter(workload.initial_documents))
        payload = payload_of(workload, function)
        first = runtime.publish_stream(function, payload, chunk_bytes=64)
        assert (first.clean, first.valid, first.malformed) == (False, True, False)
        second = runtime.publish_stream(function, payload, chunk_bytes=7)
        assert (second.clean, second.valid) == (True, True)
        assert runtime.stats.streamed_publications == 2
        assert runtime.stats.clean_publications == 1

    def test_chunk_size_never_affects_the_fingerprint(self, workload, runtime):
        function = next(iter(workload.initial_documents))
        payload = payload_of(workload, function)
        a = runtime.publish_stream(function, payload, chunk_bytes=3)
        b = runtime.publish_stream(function, payload, chunk_bytes=len(payload))
        assert a.fingerprint == b.fingerprint
        assert b.clean

    def test_interop_with_tree_publish(self, workload, runtime):
        """Streamed and whole-payload publications content-address alike."""
        function = next(iter(workload.initial_documents))
        payload = payload_of(workload, function)
        runtime.publish_stream(function, payload)
        # The tree path sees the same wire digest: clean, dropped unparsed.
        assert runtime.publish(function, payload) is True
        # And the other direction: a parsed-and-validated tree publication
        # makes the next identical *stream* clean.
        other = sorted(workload.initial_documents)[1]
        other_payload = payload_of(workload, other)
        assert runtime.publish(other, other_payload) is False
        assert runtime.validate_locally().valid is True
        report = runtime.publish_stream(other, other_payload)
        assert report.clean

    def test_peer_holds_a_streamed_document_record(self, workload, runtime):
        function = next(iter(workload.initial_documents))
        payload = payload_of(workload, function)
        report = runtime.publish_stream(function, payload)
        peer = runtime.document.resources[function]
        assert isinstance(peer.document, PublicationRecord)
        assert peer.document.streamed and peer.document.payload is None
        assert peer.document.ack is True
        assert peer.document.payload_bytes == len(payload)
        assert peer.document_size() == len(payload)
        assert peer.document.fingerprint == report.fingerprint
        # Re-validating replays the recorded verdict (force rounds work).
        assert runtime.validate_locally(force=True).valid is True

    def test_verdict_settles_at_ingest_no_round_needed(self, workload, runtime):
        for function in workload.initial_documents:
            runtime.publish_stream(function, payload_of(workload, function))
        assert runtime.current_verdict() is True
        report = runtime.validate_locally()
        assert report.peers_validated == 0
        assert report.peers_skipped == len(workload.initial_documents)

    def test_invalid_streamed_publication(self, workload, runtime):
        function = next(iter(workload.initial_documents))
        bad = corrupt_document(workload.initial_documents[function])
        report = runtime.publish_stream(function, tree_to_xml(bad).encode("utf-8"))
        assert (report.clean, report.valid, report.malformed) == (False, False, False)
        assert runtime.peer_acks()[function] is False

    def test_malformed_stream_keeps_previous_document(self, workload, runtime):
        function = next(iter(workload.initial_documents))
        before = runtime.document.resources[function].document
        report = runtime.publish_stream(function, b"<s_f1><recor", chunk_bytes=4)
        assert report.malformed and report.valid is False
        assert runtime.document.resources[function].document is before
        # Same bad bytes again: clean-skipped after one digest.
        again = runtime.publish_stream(function, b"<s_f1><recor", chunk_bytes=5)
        assert again.clean and again.valid is False

    def test_streamed_peer_poisoned_by_typing_change(self, workload, runtime):
        function = next(iter(workload.initial_documents))
        runtime.publish_stream(function, payload_of(workload, function))
        runtime.propagate_typing(workload.typing)
        with pytest.raises(DesignError, match="re-publish"):
            runtime.validate_locally()
        # Re-publishing heals the peer.
        report = runtime.publish_stream(function, payload_of(workload, function))
        assert report.valid is True

    def test_unknown_function_raises(self, runtime):
        with pytest.raises(DesignError):
            runtime.begin_stream("nope")

    def test_streamed_peer_cannot_be_materialised(self, workload, runtime):
        """The centralized strategy needs trees; streamed peers say so, typed."""
        function = next(iter(workload.initial_documents))
        runtime.publish_stream(function, payload_of(workload, function))
        peer = runtime.document.resources[function]
        assert "streamed" in peer.describe()
        with pytest.raises(DesignError, match="re-publish"):
            peer.answer()
        with pytest.raises(DesignError, match="re-publish"):
            runtime.document.validate_centralized(workload.global_type)

    def test_ingest_cannot_be_reused(self, workload, runtime):
        function = next(iter(workload.initial_documents))
        ingest = runtime.begin_stream(function)
        ingest.feed(payload_of(workload, function))
        ingest.finish()
        with pytest.raises(DesignError):
            ingest.feed(b"<more/>")
        with pytest.raises(DesignError):
            ingest.finish()

    def test_control_messages_only_for_dirty_publications(self, workload, runtime):
        function = next(iter(workload.initial_documents))
        payload = payload_of(workload, function)
        base_messages, _ = runtime.network.snapshot()
        runtime.publish_stream(function, payload)
        after_first, _ = runtime.network.snapshot()
        assert after_first - base_messages == 2  # validate-request + result
        runtime.publish_stream(function, payload)
        after_clean, _ = runtime.network.snapshot()
        assert after_clean == after_first


class TestNoCyclicGarbage:
    def test_streams_leave_nothing_for_the_cyclic_collector(self, workload, runtime):
        """Every ending of a stream leaves nothing for the cyclic collector.

        Valid, malformed and aborted streams must all be freed by reference
        counting alone, so the collector finds nothing after 150 of them.
        """
        function = next(iter(workload.initial_documents))
        payload = payload_of(workload, function)
        runtime.publish_stream(function, payload)
        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                report = runtime.publish_stream(function, payload, chunk_bytes=64)
                assert report.valid and not report.malformed
                report = runtime.publish_stream(function, payload[:-7], chunk_bytes=64)
                assert report.malformed
                ingest = runtime.begin_stream(function)
                ingest.feed(payload[: len(payload) // 2])
                ingest.abort()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestAbortWhileFeeding:
    def test_abort_from_another_thread_stops_the_feed_cleanly(self, workload, runtime):
        """What a dying connection does: abort while a chunk is mid-parse.

        The chunk is large and turns invalid halfway, so the abort usually
        lands inside the parse, before the rejection.  The feeding thread
        may only see the typed "already settled" error: the parser must
        never call into a run that stopped tracking its frames.
        """
        function = next(iter(workload.initial_documents))
        body = payload_of(workload, function)
        root = body[: body.index(b">") + 1]
        records = body[len(root) : body.rindex(b"</")]
        payload = root + records * 200 + b"<zzz/>" + records * 200  # never closes
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ingest = runtime.begin_stream(function)
                failures = []
                started = threading.Event()

                def feed():
                    started.set()
                    try:
                        ingest.feed(payload)
                        ingest.feed(payload)
                    except DesignError:
                        pass
                    except Exception as error:  # anything else breaks the invariant
                        failures.append(error)

                worker = threading.Thread(target=feed)
                worker.start()
                started.wait(10)
                time.sleep(0.001)
                ingest.abort()
                worker.join(10)
                assert not worker.is_alive()
                assert failures == []
        finally:
            sys.setswitchinterval(previous)


class TestDriverStreamStrategy:
    def test_stream_strategy_agrees_with_serial(self, workload):
        driver = WorkloadDriver(workload, stream_chunk_bytes=256)
        report = driver.run(("serial", "stream"))
        assert report.verdicts_agree
        stream = report.outcome("stream")
        serial = report.outcome("serial")
        assert stream.rounds == serial.rounds
        # Streaming validates one publication per ingest: exactly the
        # number of publications that were not byte-identical skips.
        assert stream.documents_validated >= len(workload.events)
