"""Differential test: the service agrees with the in-process runtime.

A replayed :func:`~repro.workloads.synthetic.distributed_workload` stream
driven through the network service must produce verdict-for-verdict the
same results as calling :meth:`ValidationRuntime.validate_locally`
in-process -- the wire, the admission controller and the micro-batching
change *when* work happens, never what it concludes.
"""

from __future__ import annotations

import pytest

from repro.distributed.network import DistributedDocument
from repro.distributed.runtime import ValidationRuntime
from repro.service.client import ServiceClient
from repro.service.loadgen import run_load
from repro.service.server import ServiceHandle, ValidationServer
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import distributed_workload


def build_workload(seed: int, invalid_rate: float):
    return distributed_workload(
        peers=6, documents=30, seed=seed, invalid_rate=invalid_rate, records=6, fields=4
    )


def rounds_of(workload):
    """The per-round publication lists the in-process driver would replay."""
    current = {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()}
    rounds = []
    for event in (None, *workload.events):
        if event is not None:
            current[event.function] = tree_to_xml(event.document)
        rounds.append(list(current.items()))
    return rounds


def replay_in_process(workload) -> tuple[list[bool], dict[str, bool]]:
    document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
    with ValidationRuntime(document) as runtime:
        runtime.propagate_typing(workload.typing)
        verdicts = []
        for publications in rounds_of(workload):
            for function, payload in publications:
                runtime.publish(function, payload)
            verdicts.append(runtime.validate_locally().valid)
        return verdicts, runtime.peer_acks()


def replay_through_service(workload) -> tuple[list[bool], dict[str, bool]]:
    server = ValidationServer()
    server.preload_design("diff", workload.kernel, workload.typing, workload.initial_documents)
    with ServiceHandle(server).start() as handle:
        with ServiceClient(handle.host, handle.port) as client:
            verdicts = []
            for publications in rounds_of(workload):
                last = None
                for function, payload in publications:
                    last = client.publish("diff", function, payload)
                # The verdict settled by the round's final publication is
                # the global one (cached acks cover the clean peers).
                verdicts.append(last["valid"])
            acks = client.stats()["designs"]["diff"]["acks"]
    return verdicts, acks


@pytest.mark.parametrize("seed,invalid_rate", [(3, 0.0), (11, 0.3), (7, 1.0)])
def test_service_replay_matches_in_process_runtime(seed, invalid_rate):
    workload = build_workload(seed, invalid_rate)
    expected_verdicts, expected_acks = replay_in_process(workload)
    actual_verdicts, actual_acks = replay_through_service(workload)
    assert actual_verdicts == expected_verdicts
    assert actual_acks == expected_acks
    # The workload's own expectations hold too (first round all seeds valid).
    assert expected_verdicts[0] is True
    for event, verdict in zip(workload.events, expected_verdicts[1:]):
        if not event.expected_valid:
            assert verdict is False


def test_loadgen_closed_loop_reaches_the_same_final_state():
    workload = build_workload(seed=13, invalid_rate=0.2)
    expected_verdicts, expected_acks = replay_in_process(workload)
    with ServiceHandle(ValidationServer()).start() as handle:
        report = run_load(
            handle.host, handle.port, workload, design="lg", mode="closed", clients=3, pipeline=4
        )
        with ServiceClient(handle.host, handle.port) as client:
            acks = client.stats()["designs"]["lg"]["acks"]
    assert report.errors == 0
    assert report.publications == sum(len(r) for r in rounds_of(workload))
    # Interleaving across lanes blurs per-round verdicts, but the final
    # state is order-independent: same acks, same final verdict.
    assert acks == expected_acks
    assert report.final_valid == expected_verdicts[-1]


def test_loadgen_open_loop_smoke():
    workload = build_workload(seed=2, invalid_rate=0.0)
    with ServiceHandle(ValidationServer()).start() as handle:
        report = run_load(
            handle.host, handle.port, workload, design="og", mode="open", clients=2, rate=2000.0
        )
    assert report.errors == 0
    assert report.final_valid is True
    assert report.p50_ms <= report.p99_ms <= report.max_ms
