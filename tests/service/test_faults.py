"""The seeded chaos suite: every failure mode is a reproducible test.

A :class:`FaultyTransport` proxy sits between client and server and
injects drops, delays, duplicates, truncations and connection kills from
a deterministic seed.  Retry/backoff clients must land every publication
exactly once (content-addressed dedup absorbs the duplicates), and a
connection severed mid-stream must leave the runtime byte-identical to a
run where the stream never started.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.service.client import RetryPolicy, ServiceClient, ServiceError
from repro.service.faults import FaultPlan, FaultyTransport
from repro.service.server import ServiceHandle, ValidationServer
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import distributed_workload


def repro_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-")]


@pytest.fixture
def workload():
    return distributed_workload(peers=4, documents=12, seed=5, invalid_rate=0.0)


@pytest.fixture
def served(workload):
    server = ValidationServer()
    server.preload_design("d", workload.kernel, workload.typing, workload.initial_documents)
    with ServiceHandle(server).start() as handle:
        yield handle


def payloads_of(workload) -> dict[str, str]:
    return {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()}


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=12, drop=0.2, duplicate=0.2, delay=0.2, sever=0.1)
        first = [plan.decide(random.Random(plan.pump_seed(0, True))) for _ in range(1)]
        replay = [plan.decide(random.Random(plan.pump_seed(0, True))) for _ in range(1)]
        assert first == replay
        rng_a, rng_b = (random.Random(plan.pump_seed(3, True)) for _ in range(2))
        assert [plan.decide(rng_a) for _ in range(64)] == [
            plan.decide(rng_b) for _ in range(64)
        ]

    def test_pump_seeds_are_distinct_per_connection_and_direction(self):
        plan = FaultPlan(seed=5)
        seeds = {
            plan.pump_seed(index, inbound)
            for index in range(8)
            for inbound in (True, False)
        }
        assert len(seeds) == 16

    def test_direction_filter(self):
        inbound_only = FaultPlan(direction="inbound")
        assert inbound_only.applies(True) is True
        assert inbound_only.applies(False) is False
        assert FaultPlan(direction="both").applies(False) is True

    def test_zero_plan_never_fires(self):
        plan = FaultPlan(seed=0)
        rng = random.Random(plan.pump_seed(0, True))
        assert all(plan.decide(rng) is None for _ in range(256))


class TestTransparentProxy:
    def test_zero_probabilities_forward_everything(self, served, workload):
        plan = FaultPlan(seed=1)
        with FaultyTransport(served.host, served.port, plan).start() as proxy:
            with ServiceClient(proxy.host, proxy.port, timeout=10.0) as client:
                assert client.ping()["pong"] is True
                result = client.publish("d", "f1", payloads_of(workload)["f1"])
                assert result["design"] == "d"
                assert client.revalidate("d")["valid"] is True
            assert proxy.injected["frames"] > 0
            assert sum(proxy.injected[a] for a in ("sever", "truncate", "drop",
                                                   "duplicate", "delay")) == 0


class TestChaosPublish:
    def test_retrying_clients_land_every_publication_exactly_once(
        self, served, workload
    ):
        """Drop/delay/duplicate/sever on both directions; retries win."""
        plan = FaultPlan(
            seed=1306,
            sever=0.02,
            drop=0.04,
            duplicate=0.06,
            delay=0.10,
            delay_seconds=0.002,
        )
        payloads = payloads_of(workload)
        # Three rounds over every peer: enough frames for the plan to bite.
        schedule = [(f, p) for _ in range(3) for f, p in sorted(payloads.items())]
        policy = RetryPolicy(attempts=10, base_delay=0.01, max_delay=0.1, seed=99)
        retried: list[str] = []
        with FaultyTransport(served.host, served.port, plan).start() as proxy:
            client = ServiceClient(proxy.host, proxy.port, timeout=1.0)
            try:
                for function, payload in schedule:
                    result = client.publish_with_retry(
                        "d", function, payload, policy=policy,
                        on_retry=lambda e, _d: retried.append(e.code),
                    )
                    assert result["function"] == function
            finally:
                client.close()
            assert proxy.injected["frames"] >= len(schedule)
            assert all(code in ("timeout", "connection-closed", "connection-lost",
                                "overloaded") for code in retried)
        # Exactly once: after the chaos, the server state is the fixpoint --
        # globally valid, every peer acknowledged, and every re-publication
        # of the final content is a clean (deduplicated) skip.
        with ServiceClient(served.host, served.port) as direct:
            assert direct.revalidate("d")["valid"] is True
            stats = direct.stats()
            assert stats["open_streams"] == 0
            assert all(stats["designs"]["d"]["acks"][f] is True for f in payloads)
            for function, payload in sorted(payloads.items()):
                assert direct.publish("d", function, payload)["clean"] is True


class TestChaosStream:
    def test_streams_survive_delay_and_sever_with_whole_stream_retry(
        self, served, workload
    ):
        plan = FaultPlan(seed=402, sever=0.05, delay=0.15, delay_seconds=0.002)
        payloads = payloads_of(workload)
        with FaultyTransport(served.host, served.port, plan).start() as proxy:
            for function, payload in sorted(payloads.items()):
                landed = False
                for _attempt in range(8):
                    client = ServiceClient(proxy.host, proxy.port, timeout=1.0)
                    try:
                        result = client.publish_stream(
                            "d", function, payload, chunk_bytes=256
                        )
                        assert result["function"] == function
                        landed = True
                        break
                    except ServiceError as error:
                        assert error.retryable, error.code
                    finally:
                        client.close()
                assert landed, f"stream for {function} never landed"
            assert proxy.injected["frames"] > 0
        with ServiceClient(served.host, served.port) as direct:
            assert direct.revalidate("d")["valid"] is True
            assert direct.stats()["open_streams"] == 0


def _memo_signature(engine_stats: dict) -> dict:
    """What the cache *contains*: compilations and evictions, not lookups."""
    return {
        "misses": engine_stats["misses"],
        "evictions": engine_stats["evictions"],
        "by_kind_misses": {
            kind: counters["misses"]
            for kind, counters in engine_stats["by_kind"].items()
        },
    }


class TestCrashMidStream:
    def test_severed_stream_leaves_state_byte_identical(self, served, workload):
        """A connection killed between begin and end must be invisible.

        The fault plan severs the *second* inbound frame: the begin opens
        the stream server-side, the first chunk dies on the wire.  The
        runtime must end up byte-identical to a run where the stream never
        started: same state digest (documents, acks, verdicts, pending),
        same engine memos, zero open streams.
        """
        payloads = payloads_of(workload)
        # Warm the streaming path so the crashed stream compiles nothing.
        with ServiceClient(served.host, served.port) as direct:
            direct.publish_stream("d", "f1", payloads["f1"], chunk_bytes=128)

        runtime = served.server._designs["d"].runtime
        digest_before = runtime.state_digest()
        memos_before = _memo_signature(runtime.engine_stats())

        # Deterministically pick a seed whose inbound pump forwards the
        # first frame (begin) and severs the second (the chunk).
        probe = FaultPlan(sever=0.5)
        seed = next(
            s for s in range(1000)
            if (rng := random.Random(FaultPlan(seed=s, sever=0.5).pump_seed(0, True)))
            and probe.decide(rng) is None and probe.decide(rng) == "sever"
        )
        plan = FaultPlan(seed=seed, sever=0.5, direction="inbound")
        with FaultyTransport(served.host, served.port, plan).start() as proxy:
            client = ServiceClient(proxy.host, proxy.port, timeout=2.0)
            try:
                begun = client._call(
                    "publish_stream_begin",
                    {"design": "d", "function": "f1", "stream": "doomed"},
                )
                assert begun["stream"] == "doomed"
                with pytest.raises(ServiceError) as excinfo:
                    client._call(
                        "publish_stream_chunk", {"stream": "doomed"},
                        payloads["f1"].encode("utf-8"),
                    )
                assert excinfo.value.retryable, excinfo.value.code
            finally:
                client.close()
            assert proxy.injected["sever"] == 1

        # The server notices the dead connection and discards the stream.
        with ServiceClient(served.host, served.port) as direct:
            deadline = time.time() + 5.0
            while time.time() < deadline:
                if direct.stats()["open_streams"] == 0:
                    break
                time.sleep(0.02)
            assert direct.stats()["open_streams"] == 0

        assert runtime.state_digest() == digest_before
        assert _memo_signature(runtime.engine_stats()) == memos_before
        # And the runtime still works: the same function streams cleanly.
        with ServiceClient(served.host, served.port) as direct:
            result = direct.publish_stream("d", "f1", payloads["f1"], chunk_bytes=128)
            assert result["clean"] is True
            assert direct.revalidate("d")["valid"] is True


def test_no_thread_leaks_module_wide():
    """Every server and every chaos proxy above tore down cleanly."""
    assert repro_threads() == []
