"""The pod federation under load: publish latency across directory + pods.

The pytest-benchmark view of the ``federation_publish_2pods`` scenario
that ``run_all.py`` records into ``BENCH_core.json``: a directory plus
two peer pods are booted (thread spawn -- in-process servers on real
loopback sockets), a workload's publications are routed to the owning
pod, and each timed round re-publishes the steady state and reads the
directory's global verdict.  Relative to the single-server scenarios
this adds the orchestrator's routing plus the pod's ``peer_verdict``
push and the directory round-trip per publication.

The module doubles as the CI smoke entry point::

    PYTHONPATH=src python benchmarks/bench_federation.py --smoke

which boots a 2-pod federation, replays a workload, checks the global
verdicts and merged state digest against the in-process runtime, shuts
down, and prints a JSON summary.
"""

from __future__ import annotations

import pytest

from repro.distributed.network import DistributedDocument
from repro.distributed.runtime import ValidationRuntime
from repro.federation import Federation
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import distributed_workload

WORKLOAD_DOCUMENTS = 14


def build(peers: int = 4, seed: int = 0, documents: int = WORKLOAD_DOCUMENTS):
    return distributed_workload(
        peers=peers, documents=documents, seed=seed, invalid_rate=0.05,
        records=5, fields=3,
    )


@pytest.fixture
def federated():
    """A running 2-pod thread-spawn federation; closed (leak-checked) per test."""
    import threading

    workload = build()
    federation = Federation(
        workload.kernel, workload.typing, workload.initial_documents,
        pods=2, spawn="thread",
    )
    try:
        yield federation, workload
    finally:
        assert federation.close()["clean"]
    leaked = [t.name for t in threading.enumerate() if t.name.startswith("repro-")]
    assert leaked == [], f"federation threads leaked: {leaked}"


def test_publish_roundtrip_latency(benchmark, federated):
    """One publish through the owning pod, verdict push included."""
    federation, workload = federated
    payload = tree_to_xml(workload.initial_documents["f1"]).encode("utf-8")
    federation.publish("f1", payload)  # first sight: validates
    result = benchmark(lambda: federation.publish("f1", payload))
    assert result["clean"] is True


def test_global_verdict_roundtrip(benchmark, federated):
    """Reading the directory's collected verdict (no publication)."""
    federation, workload = federated
    for function, doc in workload.initial_documents.items():
        federation.publish(function, tree_to_xml(doc).encode("utf-8"))
    verdict = benchmark(federation.global_verdict)
    assert verdict["complete"]


def test_full_round_republish(benchmark, federated):
    """A whole round of steady-state re-publications plus the verdict."""
    federation, workload = federated
    payloads = {f: tree_to_xml(doc).encode("utf-8") for f, doc in workload.initial_documents.items()}
    for function, payload in payloads.items():
        federation.publish(function, payload)

    def round_trip():
        for function, payload in payloads.items():
            federation.publish(function, payload)
        return federation.global_verdict()

    verdict = benchmark(round_trip)
    assert verdict["complete"]


# --------------------------------------------------------------------------- #
# the CI smoke entry point
# --------------------------------------------------------------------------- #


def _replay_in_process(workload):
    document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
    with ValidationRuntime(document) as runtime:
        runtime.propagate_typing(workload.typing)
        for function, doc in workload.initial_documents.items():
            runtime.publish(function, tree_to_xml(doc))
        for event in workload.events:
            runtime.publish(event.function, tree_to_xml(event.document))
        verdict = runtime.validate_locally().valid
        return verdict, runtime.state_digest()


def smoke() -> dict:
    """Boot, replay, differential-check, shut down; returns the CI summary."""
    import threading
    import time

    workload = build()
    expected_verdict, expected_digest = _replay_in_process(workload)
    latencies_ms = []
    with Federation(
        workload.kernel, workload.typing, workload.initial_documents,
        pods=2, spawn="thread",
    ) as federation:
        publications = [
            *workload.initial_documents.items(),
            *((event.function, event.document) for event in workload.events),
        ]
        for function, doc in publications:
            started = time.perf_counter()
            federation.publish(function, tree_to_xml(doc))
            latencies_ms.append(1000 * (time.perf_counter() - started))
        verdict = federation.global_verdict()
        digest = federation.state_digest()
        description = federation.describe()
        clean = federation.close()["clean"]
    leaked = [t.name for t in threading.enumerate() if t.name.startswith("repro-")]
    assert leaked == [], f"federation threads leaked: {leaked}"
    assert clean, "federation shutdown was not clean"
    assert verdict["complete"], verdict
    assert verdict["valid"] == expected_verdict
    assert digest == expected_digest
    return {
        "pods": len(description["pods"]),
        "spawn": description["spawn"],
        "publications": len(publications),
        "global_verdict": verdict["valid"],
        "verdict_matches_runtime": verdict["valid"] == expected_verdict,
        "digest_matches_runtime": digest == expected_digest,
        "mean_publish_ms": round(sum(latencies_ms) / len(latencies_ms), 4),
        "max_publish_ms": round(max(latencies_ms), 4),
        "clean_shutdown": clean,
        "leaked_threads": leaked,
    }


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="run the CI smoke sequence")
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("run the timings via pytest; the script entry point only supports --smoke")
    summary = smoke()
    print(json.dumps(summary, indent=2, sort_keys=True))
    print("\nfederation smoke OK: verdicts and digest match the runtime, shutdown clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
