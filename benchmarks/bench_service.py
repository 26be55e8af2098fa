"""The validation service under load: latency and throughput over loopback.

The pytest-benchmark view of the service scenarios that ``run_all.py``
records into ``BENCH_core.json`` (``service_publish_p50/p99``,
``service_throughput_8/100``): a server is booted on an ephemeral
loopback port and driven through real sockets -- frame encoding, asyncio
scheduling, admission-controller batching and the runtime's fingerprint
fast path are all on the clock.

The module doubles as the CI smoke entry point::

    PYTHONPATH=src python benchmarks/bench_service.py --smoke

which boots a server, replays a small closed- and open-loop workload,
checks the verdicts and graceful shutdown, and prints a JSON summary.
"""

from __future__ import annotations

import pytest

from repro.service.client import ServiceClient
from repro.service.loadgen import run_load
from repro.service.server import ServiceHandle, ValidationServer
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import distributed_workload

WORKLOAD_DOCUMENTS = 40


def build(peers: int, seed: int = 0, documents: int = WORKLOAD_DOCUMENTS):
    return distributed_workload(
        peers=peers, documents=documents, seed=seed, invalid_rate=0.05
    )


@pytest.fixture
def served():
    """A running server; closed (and leak-checked) per test."""
    import threading

    server = ValidationServer()
    with ServiceHandle(server).start() as handle:
        yield handle
    leaked = [t.name for t in threading.enumerate() if t.name.startswith("repro-")]
    assert leaked == [], f"service threads leaked: {leaked}"


def test_publish_roundtrip_latency(benchmark, served):
    """One blocking publish round-trip (clean re-publication steady state)."""
    workload = build(8)
    with ServiceClient(served.host, served.port) as client:
        client.register_design(
            "bench",
            str(workload.kernel.tree),
            dict(workload.typing.items()),
            {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()},
        )
        payload = tree_to_xml(workload.initial_documents["f1"]).encode("utf-8")
        client.publish("bench", "f1", payload)  # first sight: validates
        result = benchmark(lambda: client.publish("bench", "f1", payload))
        assert result["clean"] is True and result["valid"] is True


def test_closed_loop_throughput(benchmark, served):
    """The full closed-loop replay (what service_throughput_8 records)."""
    workload = build(8, documents=24)
    report = run_load(served.host, served.port, workload, design="bench", clients=4, pipeline=8)
    assert report.errors == 0
    assert report.publications == 17 * 8
    result = benchmark(
        lambda: run_load(
            served.host, served.port, workload, design="bench", clients=4, pipeline=8,
            register=False,
        )
    )
    assert result.errors == 0


def test_wire_fastpath_no_engine_misses(served):
    """Byte-identical re-publication over the wire: zero batch-validate misses."""
    workload = build(8, documents=8)
    with ServiceClient(served.host, served.port) as client:
        client.register_design(
            "fast",
            str(workload.kernel.tree),
            dict(workload.typing.items()),
            {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()},
        )
        payloads = {
            f: tree_to_xml(doc).encode("utf-8") for f, doc in workload.initial_documents.items()
        }
        for function, payload in payloads.items():
            client.publish("fast", function, payload)

        def tree_memo_misses() -> int:
            # A wire-registered design folds no Tree, so it may have no
            # ``batch-validate`` kind at all.
            kinds = client.stats()["designs"]["fast"]["engine"]["by_kind"]
            return kinds.get("batch-validate", {}).get("misses", 0)

        before = tree_memo_misses()
        for function, payload in payloads.items():
            assert client.publish("fast", function, payload)["clean"] is True
        assert tree_memo_misses() - before == 0


def test_open_loop_latency_under_offered_rate(benchmark, served):
    """Open loop at a fixed offered rate: latency, not saturation."""
    workload = build(4, documents=12)
    run_load(served.host, served.port, workload, design="open", clients=2, mode="open", rate=2000.0)
    result = benchmark(
        lambda: run_load(
            served.host, served.port, workload, design="open", clients=2, mode="open",
            rate=2000.0, register=False,
        )
    )
    assert result.errors == 0
    assert result.p50_ms <= result.p99_ms


# --------------------------------------------------------------------------- #
# the CI smoke entry point
# --------------------------------------------------------------------------- #


def smoke() -> dict:
    """Boot, drive, shut down; returns the JSON-ready summary CI prints."""
    import threading

    workload = build(8, documents=24)
    with ServiceHandle(ValidationServer()).start() as handle:
        closed = run_load(handle.host, handle.port, workload, design="smoke", clients=4, pipeline=8)
        reheat = run_load(
            handle.host, handle.port, workload, design="smoke", clients=4, pipeline=8,
            register=False,
        )
        opened = run_load(
            handle.host, handle.port, workload, design="smoke", mode="open", rate=1000.0,
            clients=2, register=False,
        )
    leaked = [t.name for t in threading.enumerate() if t.name.startswith("repro-")]
    assert leaked == [], f"service threads leaked: {leaked}"
    assert closed.errors == reheat.errors == opened.errors == 0
    assert closed.final_valid == reheat.final_valid == opened.final_valid
    return {
        "closed_cold": closed.to_dict(),
        "closed_warm": reheat.to_dict(),
        "open": opened.to_dict(),
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
    print("\nservice smoke OK: round-trips verified, shutdown clean, no leaked threads")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
