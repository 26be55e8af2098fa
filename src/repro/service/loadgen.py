"""Open- and closed-loop load generation against a running service.

The generator replays a :class:`~repro.workloads.synthetic.DistributedWorkload`
publication stream over the wire, exactly the way the in-process
:class:`~repro.distributed.runtime.driver.WorkloadDriver` replays it
locally: each round every peer re-publishes its current document as
serialised XML while one peer changes content.  Publications are
materialised before the clock starts -- the generator is not part of the
system under test.

Two loop disciplines:

* **closed** -- ``clients`` pipelined connections, each keeping up to
  ``pipeline`` publications in flight; throughput is whatever the server
  sustains (the classic closed-loop saturation measurement);
* **open** -- publications fire on a fixed schedule of ``rate`` per
  second regardless of completions (latency under a target arrival rate;
  a server that cannot keep up shows queueing delay, not lower offered
  load).

Per-function publication order is preserved in both modes (a peer's
stream is sticky to one connection), so clean/dirty semantics over the
wire match the local replay.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import DesignError
from repro.metrics import Histogram
from repro.observability.logs import new_trace_id
from repro.service.client import AsyncServiceClient, RetryPolicy, ServiceError
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import DistributedWorkload

__all__ = ["LoadReport", "publication_stream", "run_load"]

#: The loop disciplines :func:`run_load` implements.
MODES = ("closed", "open")


@dataclass(frozen=True)
class LoadReport:
    """The outcome of one load-generation run."""

    mode: str
    clients: int
    publications: int
    clean: int
    errors: int
    wall_seconds: float
    p50_ms: float
    p99_ms: float
    max_ms: float
    final_valid: Optional[bool]
    #: Publications refused with ``overloaded`` at least once (shed then
    #: usually landed by a retry).
    shed: int = 0
    #: Total retry attempts across all publications.
    retries: int = 0
    #: Open-loop target arrival rate (None in closed-loop runs).
    offered_rate: Optional[float] = None

    @property
    def throughput(self) -> float:
        """Publications acknowledged per second of wall-clock."""
        return self.publications / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def goodput(self) -> float:
        """*Successful* publications per second of wall-clock.

        Under overload this is the number that matters: offered load minus
        everything that ultimately failed (shed past its retry budget,
        transport-dead, invalid).
        """
        if self.wall_seconds <= 0:
            return 0.0
        return max(0, self.publications - self.errors) / self.wall_seconds

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "clients": self.clients,
            "publications": self.publications,
            "clean": self.clean,
            "errors": self.errors,
            "shed": self.shed,
            "retries": self.retries,
            "offered_rate": self.offered_rate,
            "wall_seconds": round(self.wall_seconds, 6),
            "throughput_per_s": round(self.throughput, 1),
            "goodput_per_s": round(self.goodput, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "final_valid": self.final_valid,
        }

    def summary(self) -> str:
        overload = ""
        if self.shed or self.retries:
            overload = f", {self.shed} shed, {self.retries} retried"
        return (
            f"{self.mode}-loop: {self.publications} publications over {self.clients} client(s) "
            f"in {self.wall_seconds:.3f}s = {self.throughput:.0f}/s "
            f"(goodput {self.goodput:.0f}/s, p50 {self.p50_ms:.2f} ms, p99 {self.p99_ms:.2f} ms, "
            f"{self.clean} clean, {self.errors} error(s){overload}, "
            f"final verdict {self.final_valid})"
        )


def publication_stream(workload: DistributedWorkload) -> list[tuple[str, str]]:
    """Flatten the workload into an ordered ``(function, payload)`` stream.

    Round structure follows the in-process driver: every peer re-publishes
    its current serialisation each round, the workload's event stream
    changes one peer per round.
    """
    current = {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()}
    stream: list[tuple[str, str]] = []
    for event in (None, *workload.events):
        if event is not None:
            current[event.function] = tree_to_xml(event.document)
        stream.extend(current.items())
    return stream


async def _drive_closed(
    host: str,
    port: int,
    design: str,
    lanes: list[list[tuple[str, bytes]]],
    pipeline: int,
    stream_chunk_bytes: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    trace: bool = False,
) -> tuple[list[float], dict]:
    """Closed loop: each lane is one pipelined connection with a window."""
    latencies: list[float] = []
    counters = {"clean": 0, "errors": 0, "shed": 0, "retries": 0}
    noted = _retry_hook(counters)

    async def lane_task(lane: list[tuple[str, bytes]]) -> None:
        client = await AsyncServiceClient.connect(host, port)
        # With chunked streaming, a function's publications must still
        # settle in order even when the window has several in flight.
        function_locks: dict[str, asyncio.Lock] = {}
        try:
            window: set[asyncio.Task] = set()

            async def one(function: str, payload: bytes) -> None:
                trace_id = new_trace_id() if trace else None
                started = time.perf_counter()
                try:
                    if stream_chunk_bytes is not None:
                        lock = function_locks.setdefault(function, asyncio.Lock())
                        async with lock:
                            result = await client.publish_stream(
                                design, function, payload,
                                chunk_bytes=stream_chunk_bytes, trace_id=trace_id,
                            )
                    elif retry is not None:
                        result = await client.publish_with_retry(
                            design, function, payload, policy=retry, on_retry=noted
                        )
                    else:
                        result = await client.publish(
                            design, function, payload, trace_id=trace_id
                        )
                    if result.get("clean"):
                        counters["clean"] += 1
                except ServiceError:
                    counters["errors"] += 1
                latencies.append(time.perf_counter() - started)

            for function, payload in lane:
                if len(window) >= pipeline:
                    done, window = await asyncio.wait(
                        window, return_when=asyncio.FIRST_COMPLETED
                    )
                window.add(asyncio.ensure_future(one(function, payload)))
            if window:
                await asyncio.wait(window)
        finally:
            await client.close()

    await asyncio.gather(*(lane_task(lane) for lane in lanes))
    return latencies, counters


def _retry_hook(counters: dict):
    """Shed/retry accounting shared by both loop disciplines."""

    def noted(error: ServiceError, _delay: float) -> None:
        counters["retries"] += 1
        if error.code == "overloaded":
            counters["shed"] += 1

    return noted


async def _drive_open(
    host: str,
    port: int,
    design: str,
    stream: list[tuple[str, bytes]],
    clients: int,
    rate: float,
    stream_chunk_bytes: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    trace: bool = False,
) -> tuple[list[float], dict]:
    """Open loop: fire on schedule, never waiting for completions.

    A function's publications always go out on the same connection (same
    stickiness as the closed loop), so the server ingests each peer's
    stream in publication order even with many requests in flight.
    """
    latencies: list[float] = []
    counters = {"clean": 0, "errors": 0, "shed": 0, "retries": 0}
    noted = _retry_hook(counters)
    connections = await asyncio.gather(
        *(AsyncServiceClient.connect(host, port) for _ in range(clients))
    )
    functions = sorted({function for function, _payload in stream})
    lane_of = {function: index % clients for index, function in enumerate(functions)}
    try:
        interval = 1.0 / rate
        in_flight: list[asyncio.Task] = []
        epoch = time.perf_counter()

        function_locks: dict[str, asyncio.Lock] = {}

        async def one(client: AsyncServiceClient, function: str, payload: bytes) -> None:
            trace_id = new_trace_id() if trace else None
            started = time.perf_counter()
            try:
                if stream_chunk_bytes is not None:
                    lock = function_locks.setdefault(function, asyncio.Lock())
                    async with lock:
                        result = await client.publish_stream(
                            design, function, payload,
                            chunk_bytes=stream_chunk_bytes, trace_id=trace_id,
                        )
                elif retry is not None:
                    result = await client.publish_with_retry(
                        design, function, payload, policy=retry, on_retry=noted
                    )
                else:
                    result = await client.publish(
                        design, function, payload, trace_id=trace_id
                    )
                if result.get("clean"):
                    counters["clean"] += 1
            except ServiceError:
                counters["errors"] += 1
            latencies.append(time.perf_counter() - started)

        for index, (function, payload) in enumerate(stream):
            target = epoch + index * interval
            delay = target - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            client = connections[lane_of[function]]
            in_flight.append(asyncio.ensure_future(one(client, function, payload)))
        if in_flight:
            await asyncio.wait(in_flight)
    finally:
        for client in connections:
            await client.close()
    return latencies, counters


async def _run(
    host: str,
    port: int,
    workload: DistributedWorkload,
    design: str,
    mode: str,
    clients: int,
    pipeline: int,
    rate: Optional[float],
    register: bool,
    stream_chunk_bytes: Optional[int],
    retry: Optional[RetryPolicy],
    trace: bool,
) -> LoadReport:
    # Bytes ride as the frame's attachment, hashed exactly as received.
    stream = [(function, text.encode("utf-8")) for function, text in publication_stream(workload)]
    setup = await AsyncServiceClient.connect(host, port)
    try:
        if register:
            await setup.register_design(
                design,
                str(workload.kernel.tree),
                dict(workload.typing.items()),
                {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()},
                replace=True,
            )
        started = time.perf_counter()
        if mode == "closed":
            # A function's publications stay on one lane, in order.
            functions = sorted({function for function, _payload in stream})
            lane_of = {f: i % clients for i, f in enumerate(functions)}
            lanes: list[list[tuple[str, bytes]]] = [[] for _ in range(clients)]
            for function, payload in stream:
                lanes[lane_of[function]].append((function, payload))
            latencies, counters = await _drive_closed(
                host, port, design, [lane for lane in lanes if lane], pipeline,
                stream_chunk_bytes=stream_chunk_bytes, retry=retry, trace=trace,
            )
        else:
            if not rate or rate <= 0:
                raise DesignError("open-loop load generation needs a positive --rate")
            latencies, counters = await _drive_open(
                host, port, design, stream, clients, rate,
                stream_chunk_bytes=stream_chunk_bytes, retry=retry, trace=trace,
            )
        wall = time.perf_counter() - started
        final = await setup.revalidate(design)
    finally:
        await setup.close()
    # One percentile implementation for the whole system (repro.metrics).
    histogram = Histogram(reservoir=max(1, len(latencies)))
    for latency in latencies:
        histogram.record(latency * 1000.0)
    summary = histogram.snapshot()
    return LoadReport(
        mode=mode,
        clients=clients,
        publications=len(latencies),
        clean=counters["clean"],
        errors=counters["errors"],
        wall_seconds=wall,
        p50_ms=summary["p50"],
        p99_ms=summary["p99"],
        max_ms=summary["max"],
        final_valid=final.get("valid"),
        shed=counters["shed"],
        retries=counters["retries"],
        offered_rate=rate if mode == "open" else None,
    )


def run_load(
    host: str,
    port: int,
    workload: DistributedWorkload,
    design: str = "bench",
    mode: str = "closed",
    clients: int = 4,
    pipeline: int = 8,
    rate: Optional[float] = None,
    register: bool = True,
    stream_chunk_bytes: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    trace: bool = False,
) -> LoadReport:
    """Replay ``workload`` against a live service and measure it.

    ``register=True`` (the default) registers/replaces the design over the
    wire first, so the generator is self-contained against a fresh server.
    ``stream_chunk_bytes`` switches publications to the chunked
    ``publish_stream`` path with that chunk size (per-function order is
    then serialised per lane, as the streaming protocol requires).
    ``retry`` makes every whole-frame publication go through
    ``publish_with_retry`` with that policy -- the overload-survival
    discipline: shed publications back off and re-land, and the report's
    ``shed``/``retries``/``goodput`` fields say what it cost.
    ``trace=True`` mints a fresh trace id per publication (the
    observability-overhead benchmark's worst case: every publication's
    lifecycle is recorded in the server's event ring).
    """
    if mode not in MODES:
        raise DesignError(f"unknown load mode {mode!r}; expected one of {MODES}")
    if clients < 1:
        raise DesignError("the load generator needs at least one client")
    return asyncio.run(
        _run(
            host, port, workload, design, mode, clients, max(1, pipeline), rate, register,
            stream_chunk_bytes, retry, trace,
        )
    )
