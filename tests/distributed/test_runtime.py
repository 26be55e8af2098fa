"""Concurrency suite for the sharded distributed-validation runtime.

The contract under test: the sharded runtime agrees with the serial
simulation verdict-for-verdict and message-log-equivalent (order
insensitive), incremental revalidation touches only dirty peers, the
shard count never changes any observable outcome, and a runtime starts
no thread.
"""

from __future__ import annotations

import random
import threading
from collections import Counter

import pytest

from repro.core.kernel import KernelTree
from repro.core.typing import TreeTyping, default_root_name
from repro.distributed.network import CONTROL_MESSAGE_BYTES, DistributedDocument
from repro.distributed.peer import PublicationRecord
from repro.distributed.runtime import ShardMap, ShardScheduler, ValidationRuntime, WorkloadDriver
from repro.engine.compilation import CompilationEngine, get_default_engine
from repro.engine.fingerprint import payload_fingerprint, tree_fingerprint
from repro.errors import DesignError
from repro.observability import LogRecorder
from repro.schemas.dtd import DTD
from repro.trees.document import Tree
from repro.trees.term import parse_term
from repro.trees.xml_io import tree_from_xml, tree_to_xml
from repro.workloads.synthetic import (
    corrupt_document,
    distributed_workload,
    peer_record_dtd,
    random_record_document,
)

PEERS = 8


def build_workload(documents: int = 24, invalid_rate: float = 0.0, seed: int = 7):
    return distributed_workload(
        peers=PEERS, documents=documents, seed=seed, invalid_rate=invalid_rate
    )


def build_pair(workload):
    """A serial document and a runtime-driven document over the same data."""
    serial = DistributedDocument(workload.kernel, dict(workload.initial_documents))
    parallel = DistributedDocument(workload.kernel, dict(workload.initial_documents))
    return serial, parallel


def message_multiset(log):
    """The order-insensitive view of a message log."""
    return Counter(
        (message.sender, message.recipient, message.kind, message.payload_bytes, message.description)
        for message in log
    )


class TestShardMap:
    def test_round_robin_partition(self):
        shard_map = ShardMap.over(["f1", "f2", "f3", "f4", "f5"], 2)
        assert shard_map.members(0) == ("f1", "f3", "f5")
        assert shard_map.members(1) == ("f2", "f4")
        assert len(shard_map) == 5
        assert {shard_map.shard_of(f) for f in ["f1", "f3", "f5"]} == {0}

    def test_every_function_in_exactly_one_shard(self):
        functions = [f"f{i}" for i in range(1, 14)]
        shard_map = ShardMap.over(functions, 4)
        seen = [f for shard in shard_map.shards() for f in shard_map.members(shard)]
        assert sorted(seen) == sorted(functions)

    def test_unknown_function_rejected(self):
        shard_map = ShardMap.over(["f1"], 1)
        with pytest.raises(DesignError):
            shard_map.shard_of("f9")

    def test_positive_shard_count_required(self):
        with pytest.raises(DesignError):
            ShardMap.over(["f1"], 0)


class TestScheduler:
    def test_tasks_run_in_the_callers_thread_in_shard_order(self):
        shard_map = ShardMap.over([f"f{i}" for i in range(1, 9)], 4)
        engine = CompilationEngine()
        scheduler = ShardScheduler(shard_map, engine)
        caller = threading.current_thread()
        seen = []

        def task(shard):
            assert threading.current_thread() is caller
            assert get_default_engine() is engine
            seen.append(shard)
            return shard_map.members(shard)

        assert scheduler.map_shards(task) == [shard_map.members(s) for s in range(4)]
        assert seen == [0, 1, 2, 3]
        assert scheduler.map_shards(task, [3, 1]) == [shard_map.members(3), shard_map.members(1)]
        assert seen[4:] == [3, 1]
        assert get_default_engine() is not engine

    def test_task_exception_propagates(self):
        shard_map = ShardMap.over(["f1", "f2"], 2)
        scheduler = ShardScheduler(shard_map, CompilationEngine())
        ran = []

        def explode(shard):
            ran.append(shard)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            scheduler.map_shards(explode)
        assert ran == [0]  # the first failure ends the round's tasks

    def test_a_runtime_starts_no_thread(self):
        workload = build_workload()
        before = threading.active_count()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document, shards=4) as runtime:
            runtime.propagate_typing(workload.typing)
            runtime.seed("f1", tree_to_xml(workload.initial_documents["f1"]))
            runtime.publish("f2", tree_to_xml(corrupt_document(workload.initial_documents["f2"])))
            report = runtime.validate_locally()
            assert not report.valid and report.peers_validated == PEERS
            assert threading.active_count() == before

    def test_typing_and_rounds_count_on_the_runtimes_one_engine(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document, shards=4) as runtime:
            assert runtime.scheduler.engine is runtime.engine
            runtime.propagate_typing(workload.typing)
            runtime.validate_locally()
            stats = runtime.engine_stats()
            assert stats == runtime.engine.stats.snapshot()
            assert stats["by_kind"]["schema-to-uta"]["misses"] == PEERS
            assert stats["by_kind"]["batch-validate"]["misses"] == PEERS


class TestParallelEqualsSerial:
    def test_first_round_verdict_and_message_log_equivalent(self):
        workload = build_workload()
        serial, parallel = build_pair(workload)
        serial.propagate_typing(workload.typing)
        serial.network.reset()
        serial_report = serial.validate_locally()

        with ValidationRuntime(parallel) as runtime:
            runtime.propagate_typing(workload.typing)
            parallel.network.reset()
            runtime_report = runtime.validate_locally()

        assert runtime_report.valid == serial_report.valid
        assert runtime_report.messages == serial_report.messages
        assert runtime_report.bytes_shipped == serial_report.bytes_shipped
        assert message_multiset(parallel.network.log) == message_multiset(serial.network.log)

    def test_invalid_peer_detected_by_both(self):
        workload = build_workload()
        serial, parallel = build_pair(workload)
        bad = parse_term("root_f3(nationalIndex)")
        serial.update_resource("f3", bad)
        parallel.update_resource("f3", bad)
        assert not serial.validate_locally(workload.typing).valid
        with ValidationRuntime(parallel) as runtime:
            assert not runtime.validate_locally(workload.typing).valid

    @pytest.mark.parametrize("shards", [1, 4, 8])
    def test_shard_counts_agree(self, shards):
        workload = build_workload(documents=20, invalid_rate=0.3, seed=11)
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document, shards=shards) as runtime:
            runtime.propagate_typing(workload.typing)
            document.network.reset()
            verdicts = [runtime.validate_locally().valid]
            for event in workload.events:
                runtime.update_document(event.function, event.document)
                verdicts.append(runtime.validate_locally().valid)
            log = message_multiset(document.network.log)
            stats = runtime.stats.snapshot()

        # The reference schedule: everything on one shard.
        reference = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(reference, shards=1) as runtime:
            runtime.propagate_typing(workload.typing)
            reference.network.reset()
            expected = [runtime.validate_locally().valid]
            for event in workload.events:
                runtime.update_document(event.function, event.document)
                expected.append(runtime.validate_locally().valid)
            assert verdicts == expected
            assert log == message_multiset(reference.network.log)
            for key in ("validations_run", "validations_skipped", "rounds"):
                assert stats[key] == runtime.stats.snapshot()[key]


class TestIncrementalRevalidation:
    def test_single_edit_revalidates_exactly_one_peer(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.propagate_typing(workload.typing)
            first = runtime.validate_locally()
            assert first.peers_validated == PEERS
            misses_before = runtime.engine_stats()["by_kind"]["batch-validate"]["misses"]

            edited = random_record_document("root_f5", random.Random(99), 12, 6)
            runtime.update_document("f5", edited)
            report = runtime.validate_locally()

            assert report.peers_validated == 1
            assert report.peers_skipped == PEERS - 1
            assert report.messages == 2  # one request, one acknowledgement
            assert report.bytes_shipped == 2 * CONTROL_MESSAGE_BYTES
            # Engine-level confirmation: exactly one document membership run.
            misses_after = runtime.engine_stats()["by_kind"]["batch-validate"]["misses"]
            assert misses_after - misses_before == 1

    def test_equal_content_republication_stays_clean(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.validate_locally(workload.typing)
            # Fresh objects, equal content: the identity memo cannot see
            # this, the content fingerprint can.
            for function, original in workload.initial_documents.items():
                runtime.update_document(function, parse_term(str(original)))
            report = runtime.validate_locally()
            assert report.peers_validated == 0
            assert report.peers_skipped == PEERS
            assert report.messages == 0
            assert runtime.stats.fingerprints_computed >= PEERS

    def test_clean_rounds_ship_nothing(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.validate_locally(workload.typing)
            before = document.network.message_count
            for _ in range(3):
                report = runtime.validate_locally()
                assert report.valid and report.peers_validated == 0
            assert document.network.message_count == before

    def test_force_revalidates_every_peer(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.validate_locally(workload.typing)
            report = runtime.validate_locally(force=True)
            assert report.peers_validated == PEERS

    def test_propagating_a_typing_invalidates_acks(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.validate_locally(workload.typing)
            runtime.propagate_typing(workload.typing)
            report = runtime.validate_locally()
            assert report.peers_validated == PEERS

    def test_verdict_flips_and_recovers(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            assert runtime.validate_locally(workload.typing).valid
            good = workload.initial_documents["f2"]
            runtime.update_document("f2", corrupt_document(good))
            assert not runtime.validate_locally().valid
            runtime.update_document("f2", good)
            report = runtime.validate_locally()
            assert report.valid
            assert report.peers_validated <= 1  # only f2 was ever dirty

    def test_dirty_peers_view(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.validate_locally(workload.typing)
            assert runtime.dirty_peers() == ()
            runtime.update_document("f4", corrupt_document(workload.initial_documents["f4"]))
            assert runtime.dirty_peers() == ("f4",)

    def test_out_of_band_update_is_detected(self):
        # Updates applied through the serial API (behind the runtime's
        # back) must not let the runtime reuse a stale cached ack.
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            assert runtime.validate_locally(workload.typing).valid
            document.update_resource("f2", corrupt_document(workload.initial_documents["f2"]))
            report = runtime.validate_locally()
            assert not report.valid
            assert report.peers_validated == 1

    def test_out_of_band_typing_propagation_is_detected(self):
        # Re-propagating a typing through the serial API installs new
        # validators; cached acks for the old typing must not be reused.
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            assert runtime.validate_locally(workload.typing).valid
            strict = TreeTyping(
                {f: DTD(default_root_name(f), {default_root_name(f): "never"}) for f in workload.typing}
            )
            document.propagate_typing(strict)
            report = runtime.validate_locally()
            assert not report.valid
            assert report.peers_validated == PEERS
            assert document.validate_locally().valid == report.valid

    def test_failed_round_requeues_pending_publications(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            # No typing propagated yet: the round must fail...
            runtime.publish("f1", tree_to_xml(corrupt_document(workload.initial_documents["f1"])))
            with pytest.raises(RuntimeError):
                runtime.validate_locally()
            # ...without losing the queued publication.
            report = runtime.validate_locally(workload.typing)
            assert not report.valid

    def test_a_round_failing_part_way_keeps_what_it_settled(self):
        workload = distributed_workload(peers=2, documents=2, seed=3)
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document, shards=2) as runtime:
            assert [runtime.shard_map.shard_of(f) for f in ("f1", "f2")] == [0, 1]
            # Only the first shard's peer has a local type: the second
            # shard's settle raises after the first shard settled.
            document.resources["f1"].assign_type(workload.typing["f1"])
            for function, tree in workload.initial_documents.items():
                runtime.publish(function, tree_to_xml(tree))
            with pytest.raises(RuntimeError):
                runtime.validate_locally()
            state = runtime.export_state()
            assert state["acks"] == {"f1": True}
            assert state["pending"] == ["f2"]
            assert document.network.message_count == 2  # f1's request and ack
            document.resources["f2"].assign_type(workload.typing["f2"])
            report = runtime.validate_locally()
            assert report.valid and report.peers_validated == 1
            assert runtime.export_state()["pending"] == []
            assert runtime.dirty_peers() == ()

    def test_update_unknown_function_rejected(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            with pytest.raises(DesignError):
                runtime.update_document("f99", Tree.leaf("x"))

    def test_propagate_incomplete_typing_rejected(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        small = distributed_workload(peers=2, documents=2)
        with ValidationRuntime(document) as runtime:
            with pytest.raises(DesignError):
                runtime.propagate_typing(small.typing)


class TestWirePublish:
    def test_byte_identical_republication_is_dropped_unparsed(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.propagate_typing(workload.typing)
            payloads = {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()}
            for function, payload in payloads.items():
                assert not runtime.publish(function, payload)  # first sight: dirty
            report = runtime.validate_locally()
            assert report.valid and report.peers_validated == PEERS
            for function, payload in payloads.items():
                assert runtime.publish(function, payload)  # clean drop
            report = runtime.validate_locally()
            assert report.peers_validated == 0
            assert runtime.stats.clean_publications == PEERS

    def test_changed_bytes_revalidate_only_that_peer(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.propagate_typing(workload.typing)
            for f, doc in workload.initial_documents.items():
                runtime.publish(f, tree_to_xml(doc))
            runtime.validate_locally()
            bad = corrupt_document(workload.initial_documents["f6"])
            runtime.publish("f6", tree_to_xml(bad))
            report = runtime.validate_locally()
            assert not report.valid
            assert report.peers_validated == 1

    def test_malformed_payload_counts_as_invalid(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.validate_locally(workload.typing)
            kept = document.resources["f1"].document
            runtime.publish("f1", "<root_f1><record></root_f1>")
            report = runtime.validate_locally()
            assert not report.valid
            assert document.resources["f1"].document is kept
            # Re-publishing the same garbage is clean-skipped.
            assert runtime.publish("f1", "<root_f1><record></root_f1>")
            assert runtime.validate_locally().peers_validated == 0

    def test_publish_unknown_function_rejected(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            with pytest.raises(DesignError):
                runtime.publish("f99", "<x/>")

    def test_typing_change_revalidates_from_the_retained_bytes(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.propagate_typing(workload.typing)
            payload = tree_to_xml(workload.initial_documents["f1"])
            runtime.publish("f1", payload)
            assert runtime.validate_locally().valid
            peer = document.resources["f1"]
            assert isinstance(peer.document, PublicationRecord)
            assert peer.document.payload == payload
            strict = TreeTyping(
                {f: DTD(default_root_name(f), {default_root_name(f): "never"}) for f in workload.typing}
            )
            runtime.propagate_typing(strict)
            report = runtime.validate_locally()
            fresh = strict["f1"].validate(tree_from_xml(payload))
            assert fresh is False
            assert runtime.peer_acks()["f1"] is fresh
            assert report.peers_validated == PEERS and not report.valid
            assert peer.validate_locally() is fresh
            assert document.validate_locally().valid == report.valid

    def test_wire_publications_still_answer_and_materialise(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.propagate_typing(workload.typing)
            for function, tree in workload.initial_documents.items():
                runtime.publish(function, tree_to_xml(tree))
            assert runtime.validate_locally().valid
            peer = document.resources["f2"]
            assert peer.answer() == workload.initial_documents["f2"]
            assert "published" in peer.describe()
            assert document.validate_centralized(workload.global_type).valid
            bad = corrupt_document(workload.initial_documents["f2"])
            runtime.publish("f2", tree_to_xml(bad))
            assert not runtime.validate_locally().valid
            assert peer.answer() == bad
            assert peer.document_size() == len(tree_to_xml(bad).encode("utf-8"))
            assert not document.validate_centralized(workload.global_type).valid


class TestSettleTraces:
    """A queued publication's trace id is set and dropped with its payload."""

    @staticmethod
    def settles(logger):
        return [
            (event["trace"], event["function"], event["ack"])
            for event in logger.export(traced=True)
            if event["name"] == "shard.settle"
        ]

    def test_an_untraced_republication_drops_the_queued_trace(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        logger = LogRecorder()
        with ValidationRuntime(document, logger=logger) as runtime:
            runtime.validate_locally(workload.typing)
            good = workload.initial_documents["f1"]
            runtime.publish("f1", tree_to_xml(corrupt_document(good)), trace_id="t1")
            runtime.publish("f1", tree_to_xml(corrupt_document(corrupt_document(good))))
            assert not runtime.validate_locally().valid
            assert self.settles(logger) == []
            # A traced publication's settle does carry its id.
            runtime.publish("f1", tree_to_xml(good), trace_id="t3")
            assert runtime.validate_locally().valid
            assert self.settles(logger) == [("t3", "f1", True)]

    def test_a_settled_stream_drops_the_queued_trace(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        logger = LogRecorder()
        with ValidationRuntime(document, logger=logger) as runtime:
            runtime.validate_locally(workload.typing)
            good = workload.initial_documents["f1"]
            runtime.publish("f1", tree_to_xml(corrupt_document(good)), trace_id="t2")
            assert runtime.publish_stream("f1", tree_to_xml(good)).valid
            assert runtime.export_state()["pending"] == []
            runtime.publish("f1", tree_to_xml(corrupt_document(corrupt_document(good))))
            assert not runtime.validate_locally().valid
            assert self.settles(logger) == []


#: A ``str`` publication declaring an encoding it is no longer in: read as
#: bytes in that encoding, ``données`` turns into ``donnÃ©es``.
DECLARED_LATIN = '<?xml version="1.0" encoding="iso-8859-1"?><données><a/></données>'


def latin_runtime():
    document = DistributedDocument(KernelTree("k(f1)"), {"f1": tree_from_xml("<données/>")})
    runtime = ValidationRuntime(document)
    runtime.propagate_typing({"f1": latin_schema()})
    return runtime


def latin_schema():
    return DTD("données", {"données": "a*"})


class TestStrPublications:
    """A ``str`` is parsed as the characters it is, whatever encoding it declares."""

    def test_publish_reads_the_characters_and_hashes_utf8(self):
        with latin_runtime() as runtime:
            runtime.publish("f1", DECLARED_LATIN)
            assert runtime.validate_locally().valid
            digest = "wire:" + payload_fingerprint(DECLARED_LATIN.encode("utf-8"))
            assert runtime.export_state()["current_fp"]["f1"] == digest
            # The record keeps the str, so a typing change re-reads it right.
            runtime.propagate_typing({"f1": latin_schema()})
            report = runtime.validate_locally()
            assert report.valid and report.peers_validated == 1

    @pytest.mark.parametrize("chunk_chars", [None, 1, 7])
    def test_publish_stream_reads_the_characters_and_hashes_utf8(self, chunk_chars):
        payload = (
            DECLARED_LATIN
            if chunk_chars is None
            else [
                DECLARED_LATIN[start : start + chunk_chars]
                for start in range(0, len(DECLARED_LATIN), chunk_chars)
            ]
        )
        with latin_runtime() as runtime:
            report = runtime.publish_stream("f1", payload)
            assert report.valid and not report.malformed
            assert report.fingerprint == "wire:" + payload_fingerprint(DECLARED_LATIN)
            runtime.propagate_typing({"f1": latin_schema()})
            again = runtime.publish_stream("f1", payload)
            assert again.valid and not again.clean


class TestMalformedLatestPublication:
    """A malformed latest publication stays ``False`` under every typing."""

    MALFORMED = "<root_f1><record></root_f1>"

    def test_typing_change_keeps_the_malformed_verdict_and_fingerprint(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.validate_locally(workload.typing)
            runtime.publish("f1", self.MALFORMED)
            assert runtime.validate_locally().parse_failures == ("f1",)
            malformed_fp = runtime.export_state()["current_fp"]["f1"]
            assert malformed_fp == "wire:" + payload_fingerprint(self.MALFORMED)
            runtime.propagate_typing(workload.typing)
            report = runtime.validate_locally()
            assert not report.valid and report.parse_failures == ()
            state = runtime.export_state()
            assert state["acks"]["f1"] is False
            assert state["current_fp"]["f1"] == state["validated_fp"]["f1"] == malformed_fp
            # Publishing again ends it.
            runtime.publish("f1", tree_to_xml(workload.initial_documents["f1"]))
            assert runtime.validate_locally().valid
            runtime.propagate_typing(workload.typing)
            assert runtime.validate_locally().valid

    def test_a_malformed_stream_is_kept_the_same_way(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.validate_locally(workload.typing)
            assert runtime.publish_stream("f1", self.MALFORMED).malformed
            again = runtime.publish_stream("f1", self.MALFORMED)
            assert again.clean and again.malformed
            runtime.propagate_typing(workload.typing)
            assert not runtime.validate_locally().valid
            assert runtime.peer_acks()["f1"] is False
            runtime.publish_stream("f1", tree_to_xml(workload.initial_documents["f1"]))
            runtime.propagate_typing(workload.typing)
            with pytest.raises(DesignError, match="re-publish"):
                runtime.validate_locally()

    def test_a_republication_of_the_same_bytes_stays_malformed(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.validate_locally(workload.typing)
            runtime.publish("f1", self.MALFORMED)
            assert runtime.validate_locally().parse_failures == ("f1",)
            assert runtime.is_malformed("f1")
            # Dropped unparsed and counted clean, yet still malformed.
            assert runtime.publish("f1", self.MALFORMED)
            assert runtime.is_malformed("f1")
            again = runtime.publish_stream("f1", self.MALFORMED)
            assert again.clean and again.malformed and not again.valid
            assert runtime.stats.clean_publications == 2
            runtime.publish("f1", tree_to_xml(workload.initial_documents["f1"]))
            assert runtime.validate_locally().valid
            assert not runtime.is_malformed("f1")

    def test_an_out_of_band_update_ends_it(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.validate_locally(workload.typing)
            runtime.publish("f1", self.MALFORMED)
            assert not runtime.validate_locally().valid
            fresh = tree_from_xml(tree_to_xml(workload.initial_documents["f1"]))
            document.update_resource("f1", fresh)
            assert runtime.validate_locally().valid


class TestTypingCompilation:
    def test_a_typing_compiles_in_the_calling_thread_and_every_compile_counts(self):
        workload = build_workload()
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.propagate_typing(workload.typing)
            stats = runtime.engine_stats()["by_kind"]["schema-to-uta"]
            assert stats["hits"] + stats["misses"] == PEERS
            runtime.propagate_typing(workload.typing)
            stats = runtime.engine_stats()["by_kind"]["schema-to-uta"]
            assert stats["hits"] + stats["misses"] == 2 * PEERS
            assert runtime.validate_locally().valid


class TestFingerprints:
    def test_tree_fingerprint_is_content_addressed(self):
        left = parse_term("s(a b(c) d)")
        right = parse_term("s(a b(c) d)")
        assert left is not right
        assert tree_fingerprint(left) == tree_fingerprint(right)

    def test_tree_fingerprint_distinguishes_shape_and_labels(self):
        fingerprints = {
            tree_fingerprint(parse_term(text))
            for text in ["s(a b)", "s(b a)", "s(a(b))", "s(ab)", "s", "s(a b c)"]
        }
        assert len(fingerprints) == 6

    def test_tree_fingerprint_survives_deep_documents(self):
        deep = Tree.leaf("x")
        for _ in range(5000):
            deep = Tree("x", (deep,))
        assert tree_fingerprint(deep) == tree_fingerprint(deep)

    def test_payload_fingerprint_str_and_bytes_agree(self):
        assert payload_fingerprint("<a/>") == payload_fingerprint(b"<a/>")
        assert payload_fingerprint("<a/>") != payload_fingerprint("<b/>")


class TestWorkloadDriver:
    def test_strategies_agree_and_runtime_validates_less(self):
        workload = build_workload(documents=20, invalid_rate=0.2, seed=3)
        report = WorkloadDriver(workload).run(
            ("serial", "runtime", "centralized")
        )
        assert report.verdicts_agree
        serial = report.outcome("serial")
        runtime = report.outcome("runtime")
        centralized = report.outcome("centralized")
        rounds = 1 + len(workload.events)
        assert serial.rounds == rounds
        assert serial.documents_validated == PEERS * rounds
        # The runtime revalidates each seed once plus (at most) one peer per edit.
        assert runtime.documents_validated <= PEERS + len(workload.events)
        # Local strategies ship only control messages; centralized ships data.
        assert serial.bytes_shipped == serial.messages * CONTROL_MESSAGE_BYTES
        assert runtime.bytes_shipped < serial.bytes_shipped
        assert centralized.bytes_shipped > serial.bytes_shipped
        # The seed documents are all valid, so every first round passes.
        for outcome in report.outcomes:
            assert outcome.verdicts[0]

    def test_unknown_strategy_rejected(self):
        workload = build_workload(documents=PEERS)
        with pytest.raises(DesignError):
            WorkloadDriver(workload).run(("quantum",))

    def test_report_summary_mentions_every_strategy(self):
        workload = build_workload(documents=12)
        report = WorkloadDriver(workload).run(("serial", "runtime"))
        text = report.summary()
        assert "serial" in text and "runtime" in text
        assert "verdicts agree" in text

    def test_workload_shape(self):
        workload = distributed_workload(peers=5, documents=17, seed=2, invalid_rate=1.0)
        assert workload.peer_count == 5
        assert workload.document_count == 17
        assert len(workload.events) == 12
        assert all(not event.expected_valid for event in workload.events)
        # Every initial document is valid for its peer's local type.
        for function, doc in workload.initial_documents.items():
            assert peer_record_dtd(function).validate(doc)
        # Corrupt publications are rejected by the local type.
        for event in workload.events:
            assert not peer_record_dtd(event.function).validate(event.document)

    def test_workload_validates_arguments(self):
        with pytest.raises(ValueError):
            distributed_workload(peers=0)
        with pytest.raises(ValueError):
            distributed_workload(peers=4, documents=2)
