"""Tests for the simulated distributed-document substrate (peers, network, validation)."""

from __future__ import annotations

import pytest

from repro.errors import DesignError
from repro.core.existence import find_perfect_typing
from repro.distributed.network import (
    CONTROL_MESSAGE_BYTES,
    LOG_CAPACITY,
    DistributedDocument,
    Network,
)
from repro.distributed.peer import Message, Peer, ResourcePeer, document_bytes
from repro.trees.term import parse_term
from repro.workloads import eurostat


def build_document(countries: int = 2, valid: bool = True) -> DistributedDocument:
    kernel = eurostat.kernel_document(countries)
    documents = {"f0": eurostat.averages_document()}
    for index, function in enumerate(eurostat.country_functions(countries)):
        documents[function] = eurostat.national_document(function, use_index_format=(index % 2 == 0))
    if not valid:
        documents["f1"] = parse_term("root_f1(nationalIndex(country country))")
    return DistributedDocument(kernel, documents)


class TestPeers:
    def test_resource_peer_answers_and_counts_calls(self):
        peer = ResourcePeer(name="peer:f1", function="f1", document=parse_term("root_f1(a b)"))
        assert peer.answer() == parse_term("root_f1(a b)")
        assert peer.calls == 1
        assert peer.document_size() == document_bytes(parse_term("root_f1(a b)"))
        assert "peer:f1" in peer.describe()

    def test_peer_without_document_cannot_answer(self):
        with pytest.raises(RuntimeError):
            ResourcePeer(name="p", function="f1").answer()

    def test_local_validation_requires_a_type(self):
        peer = ResourcePeer(name="p", function="f1", document=parse_term("root_f1(a)"))
        with pytest.raises(RuntimeError):
            peer.validate_locally()

    def test_update_document(self):
        peer = ResourcePeer(name="p", function="f1", document=parse_term("root_f1(a)"))
        peer.update_document(parse_term("root_f1(a a)"))
        assert peer.document.size == 3

    def test_message_and_network_accounting(self):
        network = Network()
        network.register(Peer("x"))
        network.send("x", "y", "call", 10)
        network.send("y", "x", "result", 90, "payload")
        assert network.message_count == 2
        assert network.bytes_shipped == 100
        assert isinstance(network.log[0], Message)
        network.reset()
        assert network.message_count == 0

    def test_log_keeps_the_most_recent_messages_while_the_ledger_counts_all(self):
        network = Network()
        total = LOG_CAPACITY + 10
        for index in range(total):
            network.send("x", "y", "call", 1, str(index))
        assert len(network.log) == LOG_CAPACITY
        assert network.log[0].description == "10"
        assert network.log[-1].description == str(total - 1)
        assert network.snapshot() == (total, total)

    def test_plain_peer_describe(self):
        assert Peer("coordinator").describe() == "peer coordinator"


class TestDistributedDocument:
    def test_missing_resource_document_rejected(self):
        kernel = eurostat.kernel_document(1)
        with pytest.raises(DesignError):
            DistributedDocument(kernel, {})

    def test_materialize_builds_a_valid_extension(self):
        distributed = build_document(countries=2)
        extension = distributed.materialize()
        assert eurostat.global_dtd().validate(extension)
        # One call and one result per resource.
        assert distributed.network.message_count == 2 * len(distributed.resources)

    def test_centralized_validation_ships_all_documents(self):
        distributed = build_document(countries=3)
        report = distributed.validate_centralized(eurostat.global_dtd())
        assert report.valid
        payload = sum(peer.document_size() for peer in distributed.resources.values())
        assert report.bytes_shipped >= payload
        assert report.strategy == "centralized"

    def test_local_validation_ships_only_control_messages(self):
        distributed = build_document(countries=3)
        typing = find_perfect_typing(eurostat.top_down_design(countries=3))
        distributed.propagate_typing(typing)
        distributed.network.reset()
        report = distributed.validate_locally()
        assert report.valid
        assert report.strategy == "local"
        assert report.bytes_shipped == 2 * CONTROL_MESSAGE_BYTES * len(distributed.resources)
        # Centralized validation of the same data costs strictly more bytes.
        centralized = distributed.validate_centralized(eurostat.global_dtd())
        assert centralized.bytes_shipped > report.bytes_shipped

    def test_local_validation_catches_invalid_national_data(self):
        distributed = build_document(countries=2, valid=False)
        typing = find_perfect_typing(eurostat.top_down_design(countries=2))
        report = distributed.validate_locally(typing)
        assert not report.valid
        centralized = distributed.validate_centralized(eurostat.global_dtd())
        assert not centralized.valid

    def test_soundness_means_local_success_implies_global_validity(self):
        distributed = build_document(countries=2)
        typing = find_perfect_typing(eurostat.top_down_design(countries=2))
        local = distributed.validate_locally(typing)
        centralized = distributed.validate_centralized(eurostat.global_dtd())
        assert local.valid and centralized.valid

    def test_update_resource_and_revalidate(self):
        distributed = build_document(countries=2)
        typing = find_perfect_typing(eurostat.top_down_design(countries=2))
        distributed.propagate_typing(typing)
        distributed.update_resource("f1", parse_term("root_f1(nationalIndex(country country))"))
        report = distributed.validate_locally()
        assert not report.valid

    def test_propagating_an_incomplete_typing_fails(self):
        distributed = build_document(countries=2)
        typing = find_perfect_typing(eurostat.top_down_design(countries=1))
        with pytest.raises(DesignError):
            distributed.propagate_typing(typing)

    def test_describe_lists_every_peer(self):
        distributed = build_document(countries=2)
        text = distributed.describe()
        assert "coordinator" in text
        assert "peer:f1" in text and "peer:f2" in text
