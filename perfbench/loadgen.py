"""Closed-loop publication load, the verdict oracle checks, typing-change storms.

Each peer keeps exactly one publication in flight and sends its next one
only after the verdict of the previous one arrives.  Peers share the
run's two connections (one per pod on a federation, since a peer dials
the pod that owns its function).
"""

from __future__ import annotations

import asyncio
import time
from array import array
from dataclasses import dataclass, field

from inputs import DESIGN, Doc, Plan, kernel_term, perfect_typing

#: Chunk size of streamed publications (the client's default).
CHUNK_BYTES = 65536

#: Per-request deadline: a wedged server fails the run instead of hanging it.
REQUEST_TIMEOUT = 30.0


@dataclass
class Tally:
    """What the generator saw: outcomes, latencies and each peer's state."""

    attempted: int = 0
    acknowledged: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    latencies_ms: array = field(default_factory=lambda: array("d"))
    #: ``perf_counter_ns`` at which each latency of ``latencies_ms`` ended.
    completed_ns: array = field(default_factory=lambda: array("q"))
    #: function -> the document of its last publication (malformed or not).
    last: dict = field(default_factory=dict)
    #: function -> its last well-formed document: what the peer holds.
    current: dict = field(default_factory=dict)
    started: float = 0.0
    ended: float = 0.0

    def fail(self, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(detail)

    def expected_verdict(self, functions) -> bool:
        """The global verdict: the conjunction of the peers' expected acks."""
        return all(self.last[function].valid() for function in functions)


async def connect(endpoints) -> list:
    from repro.service.client import AsyncServiceClient

    return [
        await AsyncServiceClient.connect(host, port, timeout=REQUEST_TIMEOUT)
        for host, port in endpoints
    ]


async def publish_checked(client, function: str, doc: Doc, streamed: bool, tally: Tally) -> None:
    """Publish one prepared document and check its reply against the oracle."""
    from repro.service.protocol import ServiceError

    tally.attempted += 1
    started = time.perf_counter()
    try:
        if streamed:
            result = await client.publish_stream(
                DESIGN, function, doc.payload, chunk_bytes=CHUNK_BYTES
            )
        else:
            result = await client.publish(DESIGN, function, doc.payload)
    except ServiceError as error:
        elapsed = time.perf_counter() - started
        if not (doc.malformed and error.code == "invalid-xml"):
            tally.fail(f"{function}: [{error.code}] {error.message}")
            return
    else:
        elapsed = time.perf_counter() - started
        if doc.malformed:
            tally.fail(f"{function}: a malformed payload was accepted")
            return
        if result.get("peer_valid") is not doc.valid():
            tally.fail(
                f"{function}: peer_valid {result.get('peer_valid')!r}, expected {doc.valid()}"
            )
            return
    tally.acknowledged += 1
    tally.latencies_ms.append(elapsed * 1000.0)
    tally.completed_ns.append(time.perf_counter_ns())
    tally.last[function] = doc
    if not doc.malformed:
        tally.current[function] = doc


async def publish_round(route: dict, docs: dict, streamed: bool, tally: Tally) -> None:
    """Every peer publishes one given document, off the clock."""
    await asyncio.gather(
        *(
            publish_checked(route[function], function, doc, streamed, tally)
            for function, doc in docs.items()
        )
    )


async def closed_loop(route: dict, plan: Plan, seconds: float, streamed: bool, tally: Tally) -> None:
    """Drive every peer for ``seconds``; in-flight publications then finish."""
    deadline = time.perf_counter() + seconds

    async def peer(function: str) -> None:
        client = route[function]
        sequence = plan.sequences[function]
        index = 0
        while time.perf_counter() < deadline:
            await publish_checked(
                client, function, sequence[index % len(sequence)], streamed, tally
            )
            index += 1

    tally.started = time.perf_counter()
    await asyncio.gather(*(peer(function) for function in plan.functions))
    tally.ended = time.perf_counter()


def _check_acks(acks: dict, docs: dict, version: int, tally: Tally, where: str) -> None:
    for function, doc in docs.items():
        if acks.get(function) is not doc.valid(version):
            tally.fail(
                f"{where} v{version}: {function} ack {acks.get(function)!r}, "
                f"expected {doc.valid(version)}"
            )


async def storm_single(client, plan: Plan, tally: Tally, versions) -> list[float]:
    """Typing changes on one server: re-register with the peers' current documents.

    Returns each change's milliseconds, from computing the perfect typing
    to a registration verdict that matched the oracle.
    """
    docs = {function: tally.current.get(function, plan.seeds[function]) for function in plan.functions}
    documents = {function: doc.text() for function, doc in docs.items()}
    kernel = kernel_term(plan.functions)
    elapsed = []
    for version in versions:
        started = time.perf_counter()
        typing = perfect_typing(version, plan.functions)
        result = await client.register_design(DESIGN, kernel, typing, documents, replace=True)
        expected = all(doc.valid(version) for doc in docs.values())
        if result.get("valid") is not expected:
            tally.fail(f"retype v{version}: verdict {result.get('valid')!r}, expected {expected}")
        elapsed.append((time.perf_counter() - started) * 1000.0)
        stats = await client.stats()
        _check_acks(stats["designs"][DESIGN]["acks"], docs, version, tally, "retype")
    return elapsed


async def storm_federation(pods: list, directory, plan: Plan, tally: Tally, versions, base: int) -> list[float]:
    """Typing changes on a federation, pod by pod with current documents.

    ``pods`` is ``[(client, functions), ...]``.  Each change bumps the
    directory's typing version (``base + version``), re-registers every
    pod's fragment with its peers' current documents, and reads the
    directory's global verdict.  ``Federation.propagate_typing`` is not
    used: it re-registers the seed documents (see NOTES.md).
    """
    docs = {function: tally.current.get(function, plan.seeds[function]) for function in plan.functions}
    documents = {function: doc.text() for function, doc in docs.items()}
    elapsed = []
    for version in versions:
        started = time.perf_counter()
        typing = perfect_typing(version, plan.functions)
        wire_version = base + version
        await directory.typing_update(wire_version)
        results = await asyncio.gather(
            *(
                client.register_design(
                    DESIGN,
                    kernel_term(functions),
                    {function: typing[function] for function in functions},
                    {function: documents[function] for function in functions},
                    replace=True,
                    typing_version=wire_version,
                )
                for client, functions in pods
            )
        )
        verdict = await directory.global_verdict(DESIGN)
        elapsed.append((time.perf_counter() - started) * 1000.0)
        for (_client, functions), result in zip(pods, results):
            expected = all(docs[function].valid(version) for function in functions)
            if result.get("valid") is not expected:
                tally.fail(f"retype v{version}: pod verdict {result.get('valid')!r}, expected {expected}")
        expected = all(doc.valid(version) for doc in docs.values())
        if verdict.get("valid") is not expected:
            tally.fail(f"retype v{version}: global verdict {verdict.get('valid')!r}, expected {expected}")
        _check_acks(verdict.get("acks", {}), docs, version, tally, "retype")
    return elapsed
