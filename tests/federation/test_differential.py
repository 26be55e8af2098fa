"""Differential gate: a pod federation agrees with the in-process runtime.

The same replayed workload driven through a directory + N peer-pod
federation must produce, event for event, the global verdicts of a
single-process :class:`~repro.distributed.runtime.ValidationRuntime`,
and the merged per-pod validation state must hash to the *same* digest
as the in-process state -- including after a pod is killed and respawned
mid-stream, after the directory restarts, and while the directory is
partitioned away from its pods.
"""

from __future__ import annotations

import pytest

from repro.distributed.network import DistributedDocument
from repro.distributed.runtime import ValidationRuntime, state_digest_of
from repro.federation import DirectoryServer, Federation, PodServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.faults import FaultPlan, FaultyTransport
from repro.service.server import ServiceHandle
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import corrupt_document, distributed_workload


def build_workload(seed: int, invalid_rate: float):
    return distributed_workload(
        peers=4, documents=14, seed=seed, invalid_rate=invalid_rate, records=5, fields=3
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


def replay_in_process(workload):
    document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
    with ValidationRuntime(document) as runtime:
        runtime.propagate_typing(workload.typing)
        verdicts = []
        for publications in rounds_of(workload):
            for function, payload in publications:
                runtime.publish(function, payload)
            verdicts.append(runtime.validate_locally().valid)
        return verdicts, runtime.peer_acks(), runtime.state_digest()


def replay_through_federation(workload, spawn: str, pods: int = 2):
    verdicts = []
    with Federation(
        workload.kernel,
        workload.typing,
        workload.initial_documents,
        pods=pods,
        spawn=spawn,
    ) as federation:
        for publications in rounds_of(workload):
            for function, payload in publications:
                federation.publish(function, payload)
            verdict = federation.global_verdict()
            assert verdict["complete"], verdict
            verdicts.append(verdict["valid"])
        acks = federation.peer_acks()
        digest = federation.state_digest()
        assert federation.close()["clean"]
    return verdicts, acks, digest


@pytest.mark.parametrize("seed,invalid_rate", [(3, 0.0), (11, 0.3), (7, 1.0)])
def test_thread_federation_matches_in_process_runtime(seed, invalid_rate):
    workload = build_workload(seed, invalid_rate)
    expected_verdicts, expected_acks, expected_digest = replay_in_process(workload)
    actual_verdicts, actual_acks, actual_digest = replay_through_federation(workload, "thread")
    assert actual_verdicts == expected_verdicts
    assert actual_acks == expected_acks
    assert actual_digest == expected_digest


def test_single_pod_federation_degenerates_to_one_server():
    workload = build_workload(seed=5, invalid_rate=0.2)
    expected_verdicts, expected_acks, expected_digest = replay_in_process(workload)
    actual_verdicts, actual_acks, actual_digest = replay_through_federation(
        workload, "thread", pods=1
    )
    assert actual_verdicts == expected_verdicts
    assert actual_acks == expected_acks
    assert actual_digest == expected_digest


def test_process_federation_pod_killed_and_respawned_mid_stream():
    """The ISSUE's hard gate, against real OS processes.

    Half the stream goes in, one pod is SIGKILLed and respawned (its
    owned functions replayed from the orchestrator's payload log), then
    the rest of the stream -- verdicts, acks and the merged state digest
    must still match the uninterrupted in-process runtime.
    """
    workload = build_workload(seed=11, invalid_rate=0.3)
    expected_verdicts, expected_acks, expected_digest = replay_in_process(workload)
    rounds = rounds_of(workload)
    half = len(rounds) // 2
    verdicts = []
    with Federation(
        workload.kernel,
        workload.typing,
        workload.initial_documents,
        pods=2,
        spawn="process",
    ) as federation:
        for publications in rounds[:half]:
            for function, payload in publications:
                federation.publish(function, payload)
            verdicts.append(federation.global_verdict()["valid"])
        federation.kill_pod(1)
        assert not federation.describe()["pods"]["pod-1"]["alive"]
        federation.respawn_pod(1)
        assert federation.describe()["pods"]["pod-1"]["alive"]
        for publications in rounds[half:]:
            for function, payload in publications:
                federation.publish(function, payload)
            verdicts.append(federation.global_verdict()["valid"])
        acks = federation.peer_acks()
        digest = federation.state_digest()
        assert federation.close()["clean"]
    assert verdicts == expected_verdicts
    assert acks == expected_acks
    assert digest == expected_digest


def test_typing_change_keeps_published_documents():
    """``propagate_typing`` re-validates what was published, not the seeds."""
    workload = build_workload(seed=3, invalid_rate=0.0)
    bad = tree_to_xml(corrupt_document(workload.initial_documents["f1"]))
    document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
    with ValidationRuntime(document) as runtime:
        runtime.propagate_typing(workload.typing)
        runtime.publish("f1", bad)
        runtime.validate_locally()
        runtime.propagate_typing(workload.typing)
        expected = runtime.validate_locally().valid
        expected_digest = runtime.state_digest()
    assert expected is False
    with Federation(
        workload.kernel, workload.typing, workload.initial_documents, pods=2, spawn="thread"
    ) as federation:
        federation.publish("f1", bad)
        federation.propagate_typing(workload.typing)
        verdict = federation.global_verdict()
        assert verdict["complete"], verdict
        assert verdict["valid"] is expected
        assert federation.state_digest() == expected_digest
        assert federation.close()["clean"]


@pytest.mark.parametrize("verb", ["publish", "publish_stream"])
def test_malformed_latest_publication_survives_a_typing_change(verb):
    """A malformed latest publication stays ``False``, with its fingerprint, under a new typing."""
    workload = build_workload(seed=3, invalid_rate=0.0)
    good = tree_to_xml(workload.initial_documents["f1"])
    malformed = "<root_f1><record></root_f1>"
    document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
    with ValidationRuntime(document) as runtime:
        runtime.propagate_typing(workload.typing)
        runtime.publish("f1", good)
        runtime.validate_locally()
        getattr(runtime, verb)("f1", malformed)
        runtime.validate_locally()
        runtime.propagate_typing(workload.typing)
        expected = runtime.validate_locally().valid
        expected_digest = runtime.state_digest()
    assert expected is False
    with Federation(
        workload.kernel, workload.typing, workload.initial_documents, pods=2, spawn="thread"
    ) as federation:
        assert federation.publish("f1", good)["peer_valid"] is True
        with pytest.raises(ServiceError) as excinfo:
            getattr(federation, verb)("f1", malformed)
        assert excinfo.value.code == "invalid-xml"
        federation.propagate_typing(workload.typing)
        verdict = federation.global_verdict()
        assert verdict["complete"], verdict
        assert verdict["valid"] is False and verdict["acks"]["f1"] is False
        assert federation.state_digest() == expected_digest
        assert federation.close()["clean"]


@pytest.mark.parametrize("verb", ["publish", "publish_stream"])
def test_malformed_publication_reaches_the_directory(verb):
    """A reply implies the directory has its effect -- an ``invalid-xml`` one too."""
    workload = build_workload(seed=3, invalid_rate=0.0)
    with Federation(
        workload.kernel, workload.typing, workload.initial_documents, pods=2, spawn="thread"
    ) as federation:
        publish = getattr(federation, verb)
        assert publish("f1", tree_to_xml(workload.initial_documents["f1"]))["peer_valid"] is True
        with pytest.raises(ServiceError) as excinfo:
            publish("f1", "<root_f1><record></root_f1>")
        assert excinfo.value.code == "invalid-xml"
        assert federation.peer_acks()["f1"] is False
        verdict = federation.global_verdict()
        assert verdict["complete"], verdict
        assert verdict["acks"]["f1"] is False and verdict["valid"] is False
        assert federation.close()["clean"]


def test_republished_malformed_bytes_answer_invalid_xml_every_time():
    """The same malformed bytes again are clean, and answered like the first time."""
    workload = build_workload(seed=3, invalid_rate=0.0)
    malformed = "<root_f1><record></root_f1>"
    document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
    with ValidationRuntime(document) as runtime:
        runtime.propagate_typing(workload.typing)
        for _ in range(2):
            runtime.publish("f1", malformed)
            runtime.validate_locally()
        assert runtime.publish_stream("f1", malformed).malformed
        expected_digest = runtime.state_digest()
    with Federation(
        workload.kernel, workload.typing, workload.initial_documents, pods=2, spawn="thread"
    ) as federation:
        for publish in (federation.publish, federation.publish, federation.publish_stream):
            with pytest.raises(ServiceError) as excinfo:
                publish("f1", malformed)
            assert excinfo.value.code == "invalid-xml"
            verdict = federation.global_verdict()
            assert verdict["complete"], verdict
            assert verdict["acks"]["f1"] is False and verdict["valid"] is False
        assert federation.state_digest() == expected_digest
        assert federation.close()["clean"]


def _register_over_wire(client, workload, design_id: str, typing_version: int = 1):
    client.register_design(
        design_id,
        str(workload.kernel.tree),
        {f: workload.typing[f] for f in workload.initial_documents},
        {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()},
        replace=True,
        typing_version=typing_version,
    )


def test_directory_restart_recovery():
    """A restarted (state-less) directory recovers the full global verdict.

    The pod's ``lease_renew`` heartbeat answered with ``unknown-pod`` is
    the recovery signal; the test forces the resync deterministically by
    sending ``lease_renew`` *to the pod* instead of waiting a heartbeat.
    """
    workload = build_workload(seed=9, invalid_rate=0.2)
    directory = DirectoryServer(port=0)
    with ServiceHandle(directory).start() as dir_handle:
        pod = PodServer(
            port=0,
            pod_id="pod-r",
            directory_host=dir_handle.host,
            directory_port=dir_handle.port,
            lease_interval=60.0,  # heartbeats out of the picture: resync is forced
        )
        with ServiceHandle(pod).start() as pod_handle:
            with ServiceClient(pod_handle.host, pod_handle.port) as pod_client:
                _register_over_wire(pod_client, workload, "restart")
                with ServiceClient(dir_handle.host, dir_handle.port) as dir_client:
                    before = dir_client.global_verdict("restart")
                assert before["complete"]
                dir_port = dir_handle.port
            dir_handle.close()

            # A fresh directory on the same port knows nothing.
            replacement = DirectoryServer(port=dir_port)
            with ServiceHandle(replacement).start() as new_handle:
                with ServiceClient(new_handle.host, new_handle.port) as dir_client:
                    empty = dir_client.global_verdict("restart")
                    assert not empty["complete"]
                    assert empty["pods"] == 0
                    # Force the pod to resync (what its lease loop would do
                    # on the next unknown-pod heartbeat answer).
                    with ServiceClient(pod_handle.host, pod_handle.port) as pod_client:
                        assert pod_client.lease_renew("pod-r")["synced"] is True
                    after = dir_client.global_verdict("restart")
            assert after["complete"]
            assert after["acks"] == before["acks"]
            assert after["valid"] == before["valid"]


def test_directory_partition_never_fails_client_ops():
    """A partitioned directory is an observability event, not an outage."""
    workload = build_workload(seed=4, invalid_rate=0.0)
    directory = DirectoryServer(port=0)
    with ServiceHandle(directory).start() as dir_handle:
        # Every frame to/from the directory is severed: the pod can never
        # complete a join or a verdict push.
        proxy = FaultyTransport(
            dir_handle.host, dir_handle.port, FaultPlan(seed=1, sever=1.0)
        ).start()
        try:
            pod = PodServer(
                port=0,
                pod_id="pod-p",
                directory_host=proxy.host,
                directory_port=proxy.port,
                lease_interval=60.0,
            )
            with ServiceHandle(pod).start() as pod_handle:
                with ServiceClient(pod_handle.host, pod_handle.port) as client:
                    _register_over_wire(client, workload, "part")
                    function, payload = next(iter(rounds_of(workload)[-1]))
                    result = client.publish("part", function, payload)
                    assert result["valid"] in (True, False)
                    # The pod kept serving; the partition is visible in the
                    # error counter, and the directory saw nothing.
                    assert pod.directory_errors > 0
                with ServiceClient(dir_handle.host, dir_handle.port) as dir_client:
                    marooned = dir_client.global_verdict("part")
                assert marooned["pods"] == 0
                assert not marooned["complete"]
        finally:
            proxy.close()


def test_typing_update_fences_stale_acks():
    """A new typing version parks the global verdict until fresh acks arrive."""
    workload = build_workload(seed=6, invalid_rate=0.0)
    directory = DirectoryServer(port=0)
    with ServiceHandle(directory).start() as dir_handle:
        pod = PodServer(
            port=0,
            pod_id="pod-t",
            directory_host=dir_handle.host,
            directory_port=dir_handle.port,
            lease_interval=60.0,
        )
        with ServiceHandle(pod).start() as pod_handle:
            with ServiceClient(pod_handle.host, pod_handle.port) as pod_client:
                _register_over_wire(pod_client, workload, "fence", typing_version=1)
                with ServiceClient(dir_handle.host, dir_handle.port) as dir_client:
                    dir_client.typing_update(1)
                    assert dir_client.global_verdict("fence")["complete"]
                    # Version 2 fences every recorded ack as stale.
                    dir_client.typing_update(2)
                    fenced = dir_client.global_verdict("fence")
                    assert not fenced["complete"]
                    assert fenced["valid"] is None
                    assert fenced["stale"]
                    # Re-registering under the new version refreshes them.
                    _register_over_wire(pod_client, workload, "fence", typing_version=2)
                    fresh = dir_client.global_verdict("fence")
                    assert fresh["complete"]
                    assert fresh["valid"] is True


def test_merged_pod_state_is_the_runtime_state():
    """pod_state exports merge into exactly the single-runtime export."""
    workload = build_workload(seed=8, invalid_rate=0.4)
    _verdicts, _acks, expected_digest = replay_in_process(workload)
    with Federation(
        workload.kernel, workload.typing, workload.initial_documents, pods=2, spawn="thread"
    ) as federation:
        for publications in rounds_of(workload):
            for function, payload in publications:
                federation.publish(function, payload)
        merged = federation.export_state()
        assert state_digest_of(merged) == expected_digest
        assert federation.close()["clean"]
