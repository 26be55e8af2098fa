"""The asyncio validation server: validation-as-a-service over the runtime.

:class:`ValidationServer` is a TCP server speaking the frame protocol of
:mod:`repro.service.protocol`.  Each connection gets a reader loop; each
request is answered by its own task, so a pipelined client can have many
requests in flight on one connection.  Every op calls the runtime on the
event-loop thread: each call holds the GIL for its whole run (C parse,
Python fold, hashing), so a thread pool would only add hand-offs.  The
trade-off: a runtime call holds the loop for its whole run, and no frame
is read meanwhile.  Stream feeds yield to the loop every
:data:`FEED_SLICE_BYTES`, so a large ``publish``, chunk or ``validate``
lets other connections in between its slices; the longest uninterrupted
runs are a large ``register_design``, a forced ``revalidate`` and a
micro-batch of publications just under the inline-stream threshold.

The **admission controller** is the piece that makes ``publish`` scale:
concurrently-pending publications are coalesced into micro-batches, each
batch is ingested through :meth:`ValidationRuntime.publish` (so the
byte-level fingerprint fast path applies before any parsing) and settled
by at most one validation round.  A batch of byte-identical
re-publications therefore costs one digest per publication and *zero*
validation rounds -- the verdict is re-derived from cached
acknowledgements.

Shutdown is graceful: the listener closes first, queued publications are
drained through a final batch, and every still-open connection receives a
typed ``shutting-down`` error frame before :meth:`ValidationServer.aclose`
returns -- no orphan threads, no lost in-flight work.
"""

from __future__ import annotations

import asyncio
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Mapping, Optional, Union

from repro.core.kernel import KernelTree
from repro.core.typing import TreeTyping
from repro.distributed.network import DistributedDocument
from repro.distributed.runtime.runtime import ValidationRuntime
from repro.errors import InvalidXMLError, ReproError
from repro.observability.logs import LogRecorder
from repro.observability.profiling import SamplingProfiler
from repro.observability.slo import SloEvaluator
from repro.schemas.dtd_text import parse_dtd_text
from repro.service import protocol
from repro.service.metrics import ServiceMetrics
from repro.streaming.machine import streaming_validator_for
from repro.trees.document import Tree
from repro.trees.term import parse_term

if TYPE_CHECKING:
    from repro.observability.exposition import MetricsExporter

__all__ = ["OpError", "RegisteredDesign", "ValidationServer", "ServiceHandle"]

#: Default ceiling on publications coalesced into one micro-batch.
DEFAULT_MAX_BATCH = 128

#: Default ceiling on queued-but-unbatched publications before shedding.
DEFAULT_MAX_QUEUE_DEPTH = 1024

#: Default idle TTL (seconds) before an abandoned publication stream is
#: reaped and its shard slot reclaimed.
DEFAULT_STREAM_TTL = 120.0

#: Default payload size (bytes) at which a whole-frame ``publish`` is
#: routed through the streaming ingest instead of the micro-batch queue,
#: and a ``validate`` through a streaming run.
DEFAULT_STREAM_INLINE_THRESHOLD = 1 << 20

#: Default per-shard ceiling on concurrently-open wire streams.
DEFAULT_MAX_STREAMS_PER_SHARD = 64

#: Payload bytes a stream is fed per event-loop turn (about 2 ms of
#: parsing), so a large document does not stall every other connection
#: while it streams.
FEED_SLICE_BYTES = 1 << 14

#: Operations the per-client token bucket meters: the ones that admit new
#: content into a runtime.  Reads, chunk traffic on an already-admitted
#: stream, and lifecycle ops stay free.
_RATE_LIMITED_OPS = frozenset({"publish", "publish_stream_begin"})

#: How long :meth:`ServiceHandle.close` waits for the server thread.
_JOIN_TIMEOUT = 30.0

#: Seconds one runtime call may run before ``/readyz`` reports the
#: runtime as stalled (a wedged runtime call).
RUNTIME_STALL_SECONDS = 5.0

#: Chatty read-path ops whose ``op`` event is ``debug``, so an ``info``
#: view of the event ring stays about admission and state changes.
_QUIET_OPS = frozenset({"ping", "stats", "trace", "logs", "publish_stream_chunk"})

#: The server-side name for a typed request failure: the same class the
#: clients raise when they receive the resulting error frame.
OpError = protocol.ServiceError


def _payload_of(body: dict, blob: bytes) -> Union[bytes, str]:
    """A request's attachment, else its ``payload`` text: parsed as the
    characters it is, whatever encoding it declares (like a ``str`` given
    to :meth:`ValidationRuntime.publish`)."""
    if blob:
        return blob
    payload = body.get("payload", "")
    if not isinstance(payload, str):
        raise OpError("bad-request", "'payload' must be XML text")
    try:
        payload.encode("utf-8")
    except UnicodeEncodeError:  # a JSON "\ud800" escape decodes to a lone surrogate
        raise OpError("bad-request", "'payload' holds a lone surrogate") from None
    return payload


async def _feed(target, data: Union[bytes, str]) -> None:
    """Feed ``data`` to a stream ingest or run, one slice per loop turn."""
    for start in range(0, len(data), FEED_SLICE_BYTES):
        if start:
            await asyncio.sleep(0)
        target.feed(data[start:start + FEED_SLICE_BYTES])


@dataclass
class RegisteredDesign:
    """One design being served: its document, runtime and identifiers."""

    design_id: str
    document: DistributedDocument
    runtime: ValidationRuntime
    #: shard index -> number of wire streams currently holding a slot.
    #: Mutated only from the event loop thread, like the registry itself.
    open_streams_by_shard: dict = field(default_factory=dict)

    def describe(self) -> dict:
        return {
            "design": self.design_id,
            "peers": len(self.document.resources),
            "shards": self.runtime.shard_map.shard_count,
        }


class TokenBucket:
    """A per-client admission meter: ``rate`` tokens/second, ``burst`` deep.

    ``try_take`` refills lazily from the supplied monotonic timestamp and
    either spends one token (returning ``0.0``) or reports how many
    seconds until the next token exists -- that number goes straight into
    the ``retry_after`` hint of the ``overloaded`` frame.
    """

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.stamp = now

    def try_take(self, now: float) -> float:
        self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


@dataclass
class _StreamState:
    """One in-flight chunked publication on one connection.

    ``lock`` serialises the stream's chunk/end requests, whose feeds yield
    between slices: request tasks are created in frame-arrival order and
    reach the lock before their first await, so FIFO acquisition preserves
    chunk order even though every request runs in its own task.
    """

    entry: RegisteredDesign
    ingest: object  # repro.distributed.runtime.runtime.StreamIngest
    lock: asyncio.Lock
    function: str
    #: Runtime shard whose stream slot this publication holds.
    shard: int = 0
    #: Loop time of the last frame touching this stream (TTL reaping).
    touched: float = 0.0
    #: Wire-propagated trace id from ``publish_stream_begin``.
    trace_id: Optional[str] = None


@dataclass
class _Publication:
    """One queued ``publish`` awaiting its micro-batch."""

    design: str
    function: str
    payload: Union[bytes, str]
    future: asyncio.Future = field(compare=False)
    #: Wire-propagated trace id (``None`` for untraced traffic).
    trace_id: Optional[str] = None
    #: ``perf_counter`` at enqueue; the batch settles a ``queue.wait``
    #: trace event from it.
    enqueued: float = 0.0


class AdmissionController:
    """Coalesce concurrently-pending publications into micro-batches.

    One loop task pulls from the queue; everything that queued up while
    the previous batch ran joins the next batch (up to ``max_batch``), so
    burst traffic amortises validation rounds without adding artificial
    latency.  ``batch_window`` optionally waits that
    many seconds after the first publication of a batch to let stragglers
    join -- zero (the default) coalesces only what is already pending.

    The queue is bounded: once ``max_queue_depth`` publications are
    pending, further submissions are shed with a typed ``overloaded``
    error carrying a ``retry_after`` hint derived from the observed
    per-publication batch wall time -- the queue never grows without
    bound, and shed clients learn *when* to come back, not just that
    they should.
    """

    def __init__(
        self,
        server: "ValidationServer",
        max_batch: int,
        batch_window: float,
        max_queue_depth: Optional[int] = DEFAULT_MAX_QUEUE_DEPTH,
    ) -> None:
        self._server = server
        self.max_batch = max(1, max_batch)
        self.batch_window = batch_window
        self.max_queue_depth = max_queue_depth
        #: ``None`` is the drain sentinel appended once at shutdown.
        self._queue: asyncio.Queue[Optional[_Publication]] = asyncio.Queue()
        self._task: Optional[asyncio.Task] = None
        self._stopping = False
        #: EWMA of per-publication batch wall seconds; seeds the
        #: ``retry_after`` hint before the first batch lands.
        self._item_seconds = 0.002

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._loop(), name="repro-admission")

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def retry_after_hint(self, depth: Optional[int] = None) -> float:
        """Seconds until the queue has plausibly drained (clamped 50ms-5s)."""
        if depth is None:
            depth = self._queue.qsize()
        return round(min(5.0, max(0.05, depth * self._item_seconds)), 4)

    async def submit(self, item: _Publication) -> dict:
        """Queue one publication and await its batch's verdict."""
        if self._stopping:
            raise OpError("shutting-down", "the server is shutting down")
        depth = self._queue.qsize()
        if self.max_queue_depth is not None and depth >= self.max_queue_depth:
            self._server.metrics.record_shed("queue-full")
            self._server.logger.log_flat(
                "warning", "op.shed", item.trace_id, "reason", "queue-full",
                "design", item.design, "function", item.function, "depth", depth,
            )
            raise OpError(
                "overloaded",
                f"admission queue is full ({depth} publications pending)",
                retry_after=self.retry_after_hint(depth),
            )
        self._queue.put_nowait(item)
        return await item.future

    async def _loop(self) -> None:
        while True:
            item = await self._queue.get()
            if item is None:  # the drain sentinel
                return
            if self.batch_window > 0:
                await asyncio.sleep(self.batch_window)
            batch = [item]
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    self._queue.put_nowait(None)  # keep the sentinel for the next spin
                    break
                batch.append(extra)
            await self._run_batch(batch)

    async def _run_batch(self, batch: list[_Publication]) -> None:
        depth = self._queue.qsize()
        started = time.perf_counter()
        try:
            with self._server._runtime_busy():
                settled = self._server.execute_publications(batch)
        except BaseException as error:  # never strand a future
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(
                        OpError("internal-error", f"batch execution failed: {error}")
                    )
            return
        finally:
            elapsed = time.perf_counter() - started
            self._item_seconds = 0.8 * self._item_seconds + 0.2 * (elapsed / len(batch))
            self._server.metrics.record_batch(len(batch), depth, elapsed)
        for item, outcome in settled:
            if item.future.done():
                continue
            if isinstance(outcome, Exception):
                item.future.set_exception(outcome)
            else:
                item.future.set_result(outcome)

    async def drain(self) -> None:
        """Refuse new work, settle everything queued, stop the loop.

        Robust against being called on a different event loop than the one
        the controller ran on (the CLI's last-resort close path): a loop
        task that died with its loop is treated as already stopped, and
        whatever is still queued gets a typed error instead of silence.
        """
        self._stopping = True
        task = self._task
        if task is not None and not task.done():
            self._queue.put_nowait(None)
            try:
                await task
            except asyncio.CancelledError:
                pass
        while not self._queue.empty():
            leftover = self._queue.get_nowait()
            if leftover is not None and not leftover.future.done():
                leftover.future.set_exception(
                    OpError("shutting-down", "the server is shutting down")
                )


class ValidationServer:
    """An asyncio TCP server exposing the distributed-validation runtime."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        max_batch: int = DEFAULT_MAX_BATCH,
        batch_window: float = 0.0,
        runtime_shards: Optional[int] = None,
        max_queue_depth: Optional[int] = DEFAULT_MAX_QUEUE_DEPTH,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[float] = None,
        stream_ttl: Optional[float] = DEFAULT_STREAM_TTL,
        stream_inline_threshold: Optional[int] = DEFAULT_STREAM_INLINE_THRESHOLD,
        max_streams_per_shard: Optional[int] = DEFAULT_MAX_STREAMS_PER_SHARD,
        metrics_port: Optional[int] = None,
        logger: Optional[LogRecorder] = None,
        log_sink: Optional[IO[str]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self.runtime_shards = runtime_shards
        #: Per-client (peer host) admission rate in publications/second;
        #: ``None`` disables the token bucket entirely.
        self.rate_limit = rate_limit
        self.rate_burst = (
            rate_burst if rate_burst is not None
            else (max(1.0, rate_limit) if rate_limit is not None else 1.0)
        )
        #: Idle seconds before an abandoned stream is reaped (None: never).
        self.stream_ttl = stream_ttl
        #: ``publish`` and ``validate`` payloads at least this big are
        #: streamed a slice per loop turn; such a publish skips the queue.
        self.stream_inline_threshold = stream_inline_threshold
        #: Ceiling on concurrently-open wire streams per runtime shard.
        self.max_streams_per_shard = max_streams_per_shard
        self.metrics = ServiceMetrics()
        #: ``None`` keeps the HTTP exposition off; ``0`` binds ephemeral.
        self.metrics_port = metrics_port
        self._exporter: Optional[MetricsExporter] = None
        #: The event ring (traces and logs); shared with every registered
        #: design's runtime so shard tasks emit into it.  ``log_sink``
        #: (e.g. ``sys.stderr``) mirrors every kept event as one JSON line.
        self.logger = logger if logger is not None else LogRecorder(component="server")
        if log_sink is not None:
            self.logger.sink = log_sink
        #: Per-op latency objectives + availability burn rates, exported
        #: as ``repro_slo_*`` gauges refreshed on every scrape.
        self.slo = SloEvaluator(self.metrics)
        #: The live sampling profiler driven by the ``profile`` wire op.
        self.profiler = SamplingProfiler()
        #: Monotonic stamp while a batch, registration or revalidation runs
        #: (``/readyz`` calls the runtime stalled past RUNTIME_STALL_SECONDS).
        self._runtime_busy_since: Optional[float] = None
        self.admission = AdmissionController(
            self, max_batch, batch_window, max_queue_depth=max_queue_depth
        )
        self._buckets: dict[str, TokenBucket] = {}
        #: Injectable monotonic clock for deterministic rate-limit tests.
        self._bucket_clock = time.monotonic
        self._reaper_task: Optional[asyncio.Task] = None
        self._designs: dict[str, RegisteredDesign] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set["_Connection"] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._request_tasks: set[asyncio.Task] = set()
        self._shutdown_event = asyncio.Event()
        self._closing = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the listener (resolving an ephemeral port) and start serving."""
        self._server = await asyncio.start_server(self._on_connection, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        if self.metrics_port is not None and self._exporter is None:
            from repro.observability.exposition import MetricsExporter

            self._exporter = MetricsExporter(
                self._render_metrics,
                host=self.host,
                port=self.metrics_port,
                routes={"/healthz": self._healthz_route, "/readyz": self._readyz_route},
            ).start()
            self.metrics_port = self._exporter.port
        self.logger.info(
            "server.listen", host=self.host, port=self.port, metrics_port=self.metrics_port
        )
        self.admission.start()
        if self.stream_ttl is not None:
            self._reaper_task = asyncio.get_running_loop().create_task(
                self._reap_loop(), name="repro-stream-reaper"
            )

    async def serve_forever(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`request_shutdown`)."""
        await self._shutdown_event.wait()
        await self.aclose()

    def request_shutdown(self) -> None:
        """Trigger a graceful shutdown (thread-unsafe; see ServiceHandle)."""
        self._shutdown_event.set()

    async def aclose(self) -> None:
        """Graceful shutdown: drain, notify, join every thread."""
        if self._closed:
            return
        self._closing = True
        self._closed = True
        self.logger.info("server.shutdown", host=self.host, port=self.port)
        self.profiler.stop()
        self._close_exporter()
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            try:
                await self._reaper_task
            except asyncio.CancelledError:
                pass
            self._reaper_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Settle queued publications before anything is torn down.
        await self.admission.drain()
        if self._request_tasks:
            await asyncio.gather(*self._request_tasks, return_exceptions=True)
        # Every still-open connection learns the server is going away.
        for connection in list(self._connections):
            await connection.send_safely(
                protocol.error_frame(None, "shutting-down", "the server is shutting down")
            )
            connection.close()
        if self._conn_tasks:
            done, pending = await asyncio.wait(self._conn_tasks, timeout=5.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    def close_threads(self) -> None:
        """Best-effort synchronous cleanup when the event loop is already gone.

        The last-resort path (e.g. a KeyboardInterrupt on a platform without
        loop signal handlers): connections and queued work are beyond help,
        but the profiler and exporter threads can still be joined, so the
        process exits without orphan threads.
        """
        self._closing = True
        self._closed = True
        self.profiler.stop()
        self._close_exporter()

    def _close_exporter(self) -> None:
        exporter, self._exporter = self._exporter, None
        if exporter is not None:
            exporter.close()

    def _render_metrics(self) -> str:
        """The exposition text ``/metrics`` serves (roles may add gauges)."""
        from repro.observability.exposition import render_exposition

        self.slo.refresh()
        return render_exposition(self.metrics.registry.collect())

    @contextmanager
    def _runtime_busy(self):
        """Stamp the runtime busy for ``/readyz`` (no lock: these calls never await)."""
        self._runtime_busy_since = time.monotonic()
        try:
            yield
        finally:
            self._runtime_busy_since = None

    # ------------------------------------------------------------------ #
    # health and readiness
    # ------------------------------------------------------------------ #

    def health(self) -> dict:
        """Liveness: the process answers, nothing more is claimed."""
        return {"status": "ok", "role": type(self).__name__, "closing": self._closing}

    def _readiness_checks(self) -> dict:
        """Named boolean checks; federation roles extend this dict.

        Reads only GIL-atomic attributes, so the exporter's scrape thread
        can call it without touching the event loop.
        """
        depth = self.admission.queue_depth
        ceiling = self.admission.max_queue_depth
        busy_since = self._runtime_busy_since
        return {
            "accepting": not self._closing,
            "admission_queue": ceiling is None or depth < ceiling,
            "runtime_lock": (
                busy_since is None
                or time.monotonic() - busy_since < RUNTIME_STALL_SECONDS
            ),
        }

    def readiness(self) -> dict:
        """Readiness: should a balancer route new work here right now?"""
        checks = self._readiness_checks()
        return {
            "ready": all(checks.values()),
            "checks": checks,
            "queue_depth": self.admission.queue_depth,
            "retry_after_hint": self.admission.retry_after_hint(),
        }

    def _healthz_route(self) -> tuple[int, dict]:
        payload = self.health()
        return (200 if payload["status"] == "ok" else 503), payload

    def _readyz_route(self) -> tuple[int, dict]:
        payload = self.readiness()
        return (200 if payload["ready"] else 503), payload

    # ------------------------------------------------------------------ #
    # design registry
    # ------------------------------------------------------------------ #

    def build_design(
        self,
        design_id: str,
        kernel: KernelTree,
        typing: TreeTyping,
        documents: Mapping[str, Union[Tree, str]],
    ) -> RegisteredDesign:
        """Compile a design into a runtime (registry untouched).

        Each document is a :class:`Tree` (:meth:`preload_design`) or, from
        ``register_design``, the document's text.  A text is seeded through
        the runtime's bytes path (:meth:`ValidationRuntime.seed`): one
        parser pass in the peer's shard task gives its verdict and its
        ``tree:`` fingerprint, and the peer holds a record keeping the
        text -- no ``Tree`` is built.  A text that is not XML raises
        :class:`~repro.errors.InvalidXMLError`.
        """
        texts = {f: text for f, text in documents.items() if isinstance(text, str)}
        document = DistributedDocument(
            kernel, {f: None if f in texts else tree for f, tree in documents.items()}
        )
        runtime = ValidationRuntime(document, shards=self.runtime_shards, logger=self.logger)
        runtime.propagate_typing(typing)
        for function in document.resources:
            if function in texts:
                runtime.seed(function, texts[function])
        report = runtime.validate_locally()
        if report.parse_failures:
            raise InvalidXMLError(f"initial document for {report.parse_failures[0]!r} is not XML")
        return RegisteredDesign(design_id, document, runtime)

    def install_design(self, entry: RegisteredDesign) -> RegisteredDesign:
        """Put a built design into the registry, replacing any predecessor.

        The registry is only ever mutated here, and only from the event
        loop thread (or before :meth:`start`) -- ``stats``/``ping`` iterate
        it on the loop without a lock.
        """
        self._designs[entry.design_id] = entry
        return entry

    def preload_design(
        self,
        design_id: str,
        kernel: KernelTree,
        typing: TreeTyping,
        documents: Mapping[str, Tree],
    ) -> RegisteredDesign:
        """Register a design from in-process objects (no wire round-trip).

        Used by :meth:`repro.api.DesignSession.serve` and the benchmarks to
        boot a server with a design already installed; the wire path is
        ``register_design``.  Call before :meth:`start`.
        """
        return self.install_design(self.build_design(design_id, kernel, typing, documents))

    def design(self, design_id) -> RegisteredDesign:
        entry = self._designs.get(design_id)
        if entry is None:
            raise OpError("unknown-design", f"no design registered under {design_id!r}")
        return entry

    # ------------------------------------------------------------------ #
    # overload tier: rate limiting, stream slots, TTL reaping
    # ------------------------------------------------------------------ #

    def _rate_admit(self, op: str, connection: "_Connection") -> None:
        """Charge the per-client token bucket; shed when it is empty."""
        if self.rate_limit is None or op not in _RATE_LIMITED_OPS:
            return
        now = self._bucket_clock()
        bucket = self._buckets.get(connection.peer_host)
        if bucket is None:
            if len(self._buckets) >= 4096:  # bounded even under host churn
                self._buckets.clear()
            bucket = TokenBucket(self.rate_limit, self.rate_burst, now)
            self._buckets[connection.peer_host] = bucket
        wait = bucket.try_take(now)
        if wait > 0.0:
            self.metrics.record_shed("rate-limited")
            self.logger.log_flat(
                "warning", "op.shed", None, "reason", "rate-limited",
                "op", op, "client", connection.peer_host, "retry_after", round(wait, 4),
            )
            raise OpError(
                "overloaded",
                f"client {connection.peer_host} exceeded "
                f"{self.rate_limit:g} admissions/s",
                retry_after=round(wait, 4),
            )

    def _acquire_stream_slot(self, entry: RegisteredDesign, function: str) -> int:
        """Claim one of ``function``'s shard's stream slots (loop thread only)."""
        try:
            shard = entry.runtime.shard_map.shard_of(function)
        except ReproError as error:
            raise OpError("unknown-function", str(error)) from None
        open_now = entry.open_streams_by_shard.get(shard, 0)
        if self.max_streams_per_shard is not None and open_now >= self.max_streams_per_shard:
            self.metrics.record_shed("shard-busy")
            raise OpError(
                "overloaded",
                f"shard {shard} of design {entry.design_id!r} already has "
                f"{open_now} publication streams in flight",
                retry_after=self.admission.retry_after_hint(),
            )
        entry.open_streams_by_shard[shard] = open_now + 1
        return shard

    def _release_stream_slot(self, entry: RegisteredDesign, shard: int) -> None:
        remaining = entry.open_streams_by_shard.get(shard, 0) - 1
        if remaining > 0:
            entry.open_streams_by_shard[shard] = remaining
        else:
            entry.open_streams_by_shard.pop(shard, None)

    def _discard_streams(self, connection: "_Connection") -> None:
        """Abort a dying connection's open streams and return their slots."""
        for state in connection.streams.values():
            state.ingest.abort()
            self._release_stream_slot(state.entry, state.shard)
        connection.streams.clear()

    async def _reap_loop(self) -> None:
        """Reclaim streams idle past :attr:`stream_ttl` (and their slots)."""
        loop = asyncio.get_running_loop()
        interval = max(0.01, min(1.0, self.stream_ttl / 4.0))
        while True:
            await asyncio.sleep(interval)
            now = loop.time()
            for connection in list(self._connections):
                expired = [
                    stream_id
                    for stream_id, state in connection.streams.items()
                    # A held lock means a frame of this stream is being
                    # fed: it is alive no matter what ``touched`` says.
                    if not state.lock.locked() and now - state.touched > self.stream_ttl
                ]
                for stream_id in expired:
                    state = connection.streams.pop(stream_id)
                    state.ingest.abort()
                    self._release_stream_slot(state.entry, state.shard)
                    connection.note_reaped(stream_id)
                    self.metrics.record_reaped_stream()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        connection = _Connection(self, writer)
        self._connections.add(connection)
        self._conn_tasks.add(asyncio.current_task())
        self.metrics.record_connection(True)
        try:
            await self._read_loop(connection, reader)
        finally:
            self._connections.discard(connection)
            self._discard_streams(connection)
            task = asyncio.current_task()
            if task is not None:
                self._conn_tasks.discard(task)
            self.metrics.record_connection(False)
            connection.close()

    async def _read_loop(self, connection: "_Connection", reader: asyncio.StreamReader):
        while True:
            try:
                frame = await protocol.read_frame(reader, self.max_frame_bytes)
            except protocol.ProtocolError as error:
                # Typed error frame for every malformed input; only errors
                # that desynchronise the stream also close the connection.
                self.metrics.record_error(error.code)
                await connection.send_safely(protocol.error_frame(None, error.code, error.message))
                if error.recoverable:
                    continue
                return
            except (ConnectionError, asyncio.CancelledError):
                return
            if frame is None:
                return  # clean EOF
            body, blob, nbytes = frame
            self.metrics.inbound.record(nbytes)
            task = asyncio.get_running_loop().create_task(self._answer(connection, body, blob))
            self._request_tasks.add(task)
            task.add_done_callback(self._request_tasks.discard)

    async def _answer(self, connection: "_Connection", body: dict, blob: bytes) -> None:
        raw_id = body.get("id")
        request_id = raw_id if isinstance(raw_id, int) else None
        op = body.get("op")
        raw_trace = body.get("trace")
        trace_id = raw_trace if isinstance(raw_trace, str) and raw_trace else None
        started = time.perf_counter()
        try:
            if self._closing:
                raise OpError("shutting-down", "the server is shutting down")
            if not isinstance(op, str) or op not in protocol.OPERATIONS:
                raise OpError("unknown-op", f"unknown operation {op!r}")
            missing = [name for name in protocol.OPERATIONS[op] if name not in body]
            if missing:
                raise OpError("bad-request", f"operation {op!r} is missing field(s) {missing}")
            self._rate_admit(op, connection)
            result = await self._execute(op, body, blob, connection)
            # Role hook (federation pods push verdicts to their directory
            # here): runs after the op mutated state but *before* the
            # result frame is sent, so a client that sees a publish reply
            # can immediately observe its effect at the directory.
            await self._post_op(op, body, result)
        except OpError as error:
            self.metrics.record_error(error.code)
            self.logger.log_flat("warning", "op.error", trace_id, "op", str(op), "code", error.code)
            await connection.send_safely(
                protocol.error_frame(
                    request_id, error.code, error.message, retry_after=error.retry_after
                )
            )
            return
        except Exception as error:  # a bug, not a protocol situation -- still typed
            self.metrics.record_error("internal-error")
            self.logger.log_flat(
                "error", "op.error", trace_id,
                "op", str(op), "code", "internal-error", "exception", type(error).__name__,
            )
            await connection.send_safely(
                protocol.error_frame(request_id, "internal-error", f"{type(error).__name__}: {error}")
            )
            return
        elapsed = time.perf_counter() - started
        self.metrics.record_request(op, elapsed)
        design = body.get("design")
        self.logger.log_flat(
            "debug" if op in _QUIET_OPS else "info", "op", trace_id,
            "op", op, "design", design if isinstance(design, str) else None,
            "ms", round(elapsed * 1000.0, 3),
        )
        await connection.send_safely(protocol.result_frame(request_id, result))
        if op == "shutdown":
            # After the acknowledgement is on the wire, let serve_forever
            # run the graceful close.
            self._shutdown_event.set()

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #

    async def _execute(self, op: str, body: dict, blob: bytes, connection: "_Connection") -> dict:
        if op == "ping":
            return {
                "pong": True,
                "protocol": protocol.PROTOCOL_VERSION,
                "designs": sorted(self._designs),
                "limits": {
                    "max_frame_bytes": self.max_frame_bytes,
                    "max_queue_depth": self.admission.max_queue_depth,
                    "rate_limit": self.rate_limit,
                    "stream_ttl": self.stream_ttl,
                    "stream_inline_threshold": self.stream_inline_threshold,
                    "max_streams_per_shard": self.max_streams_per_shard,
                    "metrics_port": self.metrics_port,
                    # Observability capabilities: what this member serves
                    # beyond the core ops (logs/profile wire ops; /healthz
                    # and /readyz beside /metrics when exporting).
                    "logs": True,
                    "profile": True,
                    "health": self.metrics_port is not None,
                },
            }
        if op == "shutdown":
            return {"stopping": True}
        if op == "stats":
            return self._stats()
        if op in ("trace", "logs"):
            return self._events(op, body)
        if op == "profile":
            return self._profile(body)
        if op == "register_design":
            return await self._register(body)
        if op == "publish":
            return await self._publish(body, blob)
        if op == "publish_stream_begin":
            return await self._stream_begin(body, blob, connection)
        if op == "publish_stream_chunk":
            return await self._stream_chunk(body, blob, connection)
        if op == "publish_stream_end":
            return await self._stream_end(body, blob, connection)
        if op == "validate":
            return await self._validate(body, blob)
        if op == "revalidate":
            return await self._revalidate(body)
        # Ops that exist in the protocol vocabulary but that this server
        # role does not serve (the federation ops on a plain validation
        # server).  Distinct from ``unknown-op``: the client spoke the
        # protocol correctly, it just dialled the wrong kind of server.
        raise OpError(
            "unsupported-op",
            f"operation {op!r} is not served by this {type(self).__name__}",
        )

    async def _post_op(self, op: str, body: dict, result: dict) -> None:
        """Role hook called after every successful op, before the reply.

        The base server does nothing; :class:`repro.federation.PodServer`
        overrides it to push verdict updates to its directory so the
        directory view is consistent by the time the client's reply lands.
        """
        return None

    def _events(self, op: str, body: dict) -> dict:
        """Export the event ring, optionally one trace id's and the last ``limit``.

        ``trace`` keeps the events that carry a trace id; ``logs`` keeps
        those at or above the ``level`` floor (default: the recorder's).
        """
        trace_id = body.get("trace_id")
        if trace_id is not None and not isinstance(trace_id, str):
            raise OpError("bad-request", "'trace_id' must be a string")
        limit = body.get("limit")
        if limit is not None and not isinstance(limit, int):
            raise OpError("bad-request", "'limit' must be an integer")
        level = body.get("level")
        if level is not None and not isinstance(level, str):
            raise OpError("bad-request", "'level' must be a string")
        try:
            if op == "trace":
                events = self.logger.export(trace_id, limit, traced=True)
            else:
                events = self.logger.export(trace_id, limit, level or self.logger.level)
        except ValueError as error:  # unknown level name, negative limit
            raise OpError("bad-request", str(error)) from None
        return {
            "component": self.logger.component,
            "enabled": self.logger.enabled,
            "level": self.logger.level,
            "events": events,
        }

    def _profile(self, body: dict) -> dict:
        """Drive the sampling profiler: start/stop/status/fetch."""
        action = body.get("action")
        if action not in ("start", "stop", "status", "fetch"):
            raise OpError(
                "bad-request",
                "'action' must be one of 'start', 'stop', 'status', 'fetch'",
            )
        if action == "start":
            hz = body.get("hz")
            if hz is not None and not isinstance(hz, (int, float)):
                raise OpError("bad-request", "'hz' must be a number")
            try:
                started = self.profiler.start(
                    hz=float(hz) if hz is not None else None,
                    reset=bool(body.get("reset", True)),
                )
            except ValueError as error:
                raise OpError("bad-request", str(error)) from None
            self.logger.info("profiler.start", hz=self.profiler.hz, fresh=started)
            return {"started": started, **self.profiler.snapshot()}
        if action == "stop":
            stopped = self.profiler.stop()
            self.logger.info("profiler.stop", was_running=stopped)
            return {"stopped": stopped, **self.profiler.snapshot()}
        if action == "fetch":
            limit = body.get("limit")
            if limit is not None and not isinstance(limit, int):
                raise OpError("bad-request", "'limit' must be an integer")
            return {
                "collapsed": self.profiler.collapsed(limit),
                **self.profiler.snapshot(),
            }
        return self.profiler.snapshot()

    def _stats(self) -> dict:
        designs = {}
        for design_id, entry in self._designs.items():
            snapshot = entry.document.network.snapshot()
            designs[design_id] = {
                **entry.describe(),
                "runtime": entry.runtime.stats.snapshot(),
                "engine": entry.runtime.engine_stats(),
                "network": {"messages": snapshot.messages, "bytes": snapshot.bytes},
                "acks": entry.runtime.peer_acks(),
            }
        return {
            "service": self.metrics.snapshot(),
            "slo": self.slo.refresh(),
            "readiness": self.readiness(),
            "queue_depth": self.admission.queue_depth,
            "open_streams": sum(len(c.streams) for c in self._connections),
            "admission": {
                "max_queue_depth": self.admission.max_queue_depth,
                "retry_after_hint": self.admission.retry_after_hint(),
                "rate_limited_clients": len(self._buckets),
            },
            "designs": designs,
        }

    async def _register(self, body: dict) -> dict:
        """``register_design``: parse the kernel and schemas, seed every peer.

        The documents stay the text they arrived as: :meth:`build_design`
        seeds each peer from its text (a ``replace`` is the paper's typing
        change -- every peer re-checks its document against its new local
        type), so registration builds no ``Tree``.  A document that is
        not XML answers ``invalid-xml``.
        """
        design_id = body["design"]
        if not isinstance(design_id, str) or not design_id:
            raise OpError("bad-request", "'design' must be a non-empty string")
        if design_id in self._designs and not body.get("replace", False):
            raise OpError(
                "design-exists", f"design {design_id!r} is already registered (pass replace)"
            )
        schemas = body["schemas"]
        documents = body["documents"]
        if not isinstance(schemas, dict) or not isinstance(documents, dict):
            raise OpError("bad-request", "'schemas' and 'documents' must be objects")
        if not all(isinstance(text, str) for text in documents.values()):
            raise OpError("bad-request", "'documents' must map functions to XML text")
        with self._runtime_busy():
            try:
                kernel = KernelTree(parse_term(body["kernel"]))
                types = {}
                for function, schema in schemas.items():
                    if isinstance(schema, dict):
                        types[function] = parse_dtd_text(
                            schema.get("text", ""), start=schema.get("start")
                        )
                    else:
                        types[function] = parse_dtd_text(schema)
                entry = self.build_design(design_id, kernel, TreeTyping(types), documents)
            except InvalidXMLError as error:
                raise OpError("invalid-xml", str(error)) from None
            except ReproError as error:
                raise OpError("bad-request", str(error)) from None
            self.install_design(entry)
        self.logger.info(
            "design.register",
            trace_id=body.get("trace") if isinstance(body.get("trace"), str) else None,
            design=design_id, functions=len(documents),
        )
        verdict = entry.runtime.current_verdict()
        return {**entry.describe(), "valid": verdict}

    async def _publish(self, body: dict, blob: bytes) -> dict:
        design_id, function = body["design"], body["function"]
        payload = _payload_of(body, blob)
        if not payload:
            raise OpError("bad-request", "publish carries no payload")
        entry = self.design(design_id)  # fail fast before queueing
        raw_trace = body.get("trace")
        trace_id = raw_trace if isinstance(raw_trace, str) and raw_trace else None
        if (
            self.stream_inline_threshold is not None
            and len(payload) >= self.stream_inline_threshold
        ):
            return await self._publish_streamed(entry, function, payload, trace_id)
        future = asyncio.get_running_loop().create_future()
        return await self.admission.submit(
            _Publication(
                design_id, function, payload, future,
                trace_id=trace_id, enqueued=time.perf_counter(),
            )
        )

    async def _publish_streamed(
        self,
        entry: RegisteredDesign,
        function: str,
        payload: Union[bytes, str],
        trace_id: Optional[str] = None,
    ) -> dict:
        """Settle one oversized ``publish`` through the streaming ingest.

        Bypasses the micro-batch queue entirely: the payload is hashed and
        DFA-stepped in O(depth) memory, a slice per loop turn, and settled
        at once -- large documents never occupy the admission queue.
        """
        shard = self._acquire_stream_slot(entry, function)
        try:
            ingest = entry.runtime.begin_stream(function)
            await _feed(ingest, payload)
            report, verdict = entry.runtime.settle_stream(ingest, trace_id=trace_id)
        except ReproError as error:  # unknown function
            raise OpError("unknown-function", str(error)) from None
        finally:
            self._release_stream_slot(entry, shard)
        self.metrics.record_inline_stream()
        if report.malformed:
            raise OpError("invalid-xml", f"payload for {function!r} is not XML")
        return {
            "design": entry.design_id,
            "clean": report.clean,
            "function": function,
            "valid": verdict,
            "peer_valid": report.valid,
            "peers_validated": 0 if report.clean else 1,
        }

    def execute_publications(self, batch: list[_Publication]) -> list[tuple[_Publication, object]]:
        """Ingest one micro-batch and settle it with as few rounds as possible.

        Runs on the event loop, stamped busy for ``/readyz``.  Per design:
        every payload goes through the runtime's wire ingest (hash before
        parse), then a single validation round settles all dirty peers at
        once; if *every* publication was byte-identical to validated
        content the round is skipped entirely and the verdict comes from
        cached acknowledgements.  A function appearing twice in one batch
        splits it into segments -- the runtime keeps only the latest
        pending payload per function, so each occurrence must be settled
        by its own round to get its own parse/verdict.
        """
        settled: list[tuple[_Publication, object]] = []
        by_design: dict[str, list[_Publication]] = {}
        for item in batch:
            by_design.setdefault(item.design, []).append(item)
        for design_id, group in by_design.items():
            entry = self._designs.get(design_id)
            if entry is None:
                error = OpError("unknown-design", f"no design registered under {design_id!r}")
                settled.extend((item, error) for item in group)
                continue
            segment: list[_Publication] = []
            seen: set[str] = set()
            for item in group:
                if item.function in seen:
                    self._settle_segment(entry, segment, settled)
                    segment, seen = [], set()
                segment.append(item)
                seen.add(item.function)
            self._settle_segment(entry, segment, settled)
        return settled

    def _settle_segment(
        self,
        entry: RegisteredDesign,
        segment: list[_Publication],
        settled: list[tuple[_Publication, object]],
    ) -> None:
        """Ingest one per-function-unique run of publications and settle it."""
        admitted: list[tuple[_Publication, bool]] = []
        for item in segment:
            if item.trace_id and item.enqueued:
                self.logger.log_flat(
                    "debug", "queue.wait", item.trace_id, "function", item.function,
                    "ms", round(1000 * (time.perf_counter() - item.enqueued), 3),
                )
            try:
                clean = entry.runtime.publish(
                    item.function, item.payload, trace_id=item.trace_id
                )
            except ReproError as error:
                settled.append((item, OpError("unknown-function", str(error))))
                continue
            except Exception as error:  # a bug: fail this publication, not its batch
                settled.append((item, error))
                continue
            admitted.append((item, clean))
        if not admitted:
            return
        # A publication that was not clean left its peer dirty, so only an
        # all-clean segment can take its verdict from the cached acks.
        clean_segment = all(clean for _item, clean in admitted)
        verdict = entry.runtime.current_verdict() if clean_segment else None
        parse_failures: frozenset[str] = frozenset()
        validated = 0
        if verdict is None:
            report = entry.runtime.validate_locally()
            verdict = report.valid
            parse_failures = frozenset(report.parse_failures)
            validated = report.peers_validated
        acks = entry.runtime.peer_acks()
        for item, clean in admitted:
            # A clean re-publication of malformed bytes is as malformed
            # as the first one.
            if item.function in parse_failures or (
                clean and entry.runtime.is_malformed(item.function)
            ):
                settled.append(
                    (item, OpError("invalid-xml", f"payload for {item.function!r} is not XML"))
                )
                continue
            settled.append(
                (
                    item,
                    {
                        "design": entry.design_id,
                        "clean": clean,
                        "function": item.function,
                        "valid": verdict,
                        "peer_valid": acks.get(item.function),
                        "peers_validated": validated,
                    },
                )
            )

    # ------------------------------------------------------------------ #
    # chunked streamed publication
    # ------------------------------------------------------------------ #

    def _stream_state(self, body: dict, connection: "_Connection") -> _StreamState:
        stream_id = body["stream"]
        state = connection.streams.get(stream_id)
        if state is None:
            if stream_id in connection.reaped:
                raise OpError(
                    "stream-expired",
                    f"publication stream {stream_id!r} idled past the "
                    f"{self.stream_ttl}s TTL and was reaped; restart it",
                )
            raise OpError("unknown-stream", f"no open publication stream {stream_id!r}")
        state.touched = asyncio.get_running_loop().time()
        return state

    async def _stream_begin(self, body: dict, blob: bytes, connection: "_Connection") -> dict:
        design_id, function, stream_id = body["design"], body["function"], body["stream"]
        if not isinstance(stream_id, (str, int)):
            raise OpError("bad-request", "'stream' must be a string or integer id")
        if stream_id in connection.streams:
            raise OpError("stream-exists", f"publication stream {stream_id!r} is already open")
        data = _payload_of(body, blob)
        entry = self.design(design_id)
        shard = self._acquire_stream_slot(entry, function)
        try:
            ingest = entry.runtime.begin_stream(function)
        except ReproError as error:
            self._release_stream_slot(entry, shard)
            raise OpError("unknown-function", str(error)) from None
        raw_trace = body.get("trace")
        state = _StreamState(
            entry, ingest, asyncio.Lock(), function,
            shard=shard, touched=asyncio.get_running_loop().time(),
            trace_id=raw_trace if isinstance(raw_trace, str) and raw_trace else None,
        )
        connection.streams[stream_id] = state
        connection.reaped.discard(stream_id)
        await self._feed_stream(state, data)
        return {"design": design_id, "function": function, "stream": stream_id,
                "received": state.ingest.payload_bytes}

    async def _stream_chunk(self, body: dict, blob: bytes, connection: "_Connection") -> dict:
        state = self._stream_state(body, connection)
        await self._feed_stream(state, _payload_of(body, blob))
        return {"stream": body["stream"], "received": state.ingest.payload_bytes}

    async def _feed_stream(self, state: _StreamState, data: Union[bytes, str]) -> None:
        """Feed one frame's payload to an open stream, after its earlier frames."""
        async with state.lock:
            try:
                await _feed(state.ingest, data)
            except ReproError:  # its connection died and discarded the stream
                raise OpError("unknown-stream", "the publication stream was discarded") from None

    async def _stream_end(self, body: dict, blob: bytes, connection: "_Connection") -> dict:
        state = self._stream_state(body, connection)
        data = _payload_of(body, blob)
        del connection.streams[body["stream"]]
        try:
            # No frame can join the stream now: once this feed is in, all are.
            await self._feed_stream(state, data)
            report, verdict = state.entry.runtime.settle_stream(state.ingest, state.trace_id)
        finally:
            self._release_stream_slot(state.entry, state.shard)
        if report.malformed:
            raise OpError("invalid-xml", f"streamed payload for {state.function!r} is not XML")
        return {
            "design": state.entry.design_id,
            "function": state.function,
            "stream": body["stream"],
            "clean": report.clean,
            "valid": verdict,
            "peer_valid": report.valid,
            "payload_bytes": report.payload_bytes,
            "max_depth": report.max_depth,
        }

    async def _validate(self, body: dict, blob: bytes) -> dict:
        """Stateless validation of a payload against one peer's local type."""
        entry = self.design(body["design"])
        function = body["function"]
        peer = entry.document.resources.get(function)
        if peer is None:
            raise OpError("unknown-function", f"no resource peer serves function {function!r}")
        if peer.validator is None:  # pragma: no cover - registration always propagates
            raise OpError("bad-request", f"no local type propagated to {function!r}")
        payload = _payload_of(body, blob)
        try:
            if (
                self.stream_inline_threshold is not None
                and len(payload) >= self.stream_inline_threshold
            ):
                # Streamed a slice per loop turn, like a large publish.
                run = streaming_validator_for(peer.validator.compiled).run()
                await _feed(run, payload)
                valid = run.finish()
            else:
                valid = peer.validator.validate_payload(payload)
        except InvalidXMLError as error:
            raise OpError("invalid-xml", f"payload for {function!r}: {error}") from None
        return {"design": entry.design_id, "function": function, "valid": valid}

    async def _revalidate(self, body: dict) -> dict:
        entry = self.design(body["design"])
        force = bool(body.get("force", False))
        with self._runtime_busy():
            report = entry.runtime.validate_locally(force=force)
        return {
            "design": entry.design_id,
            "valid": report.valid,
            "peers_validated": report.peers_validated,
            "peers_skipped": report.peers_skipped,
            "messages": report.messages,
            "bytes_shipped": report.bytes_shipped,
            "wall_ms": report.wall_seconds * 1000.0,
            "parse_failures": list(report.parse_failures),
        }


class _Connection:
    """One accepted socket: a writer plus its drain lock and accounting."""

    __slots__ = ("_server", "_writer", "_high_water", "_lock", "streams", "peer_host", "reaped")

    def __init__(self, server: ValidationServer, writer: asyncio.StreamWriter) -> None:
        self._server = server
        self._writer = writer
        self._high_water = writer.transport.get_write_buffer_limits()[1]
        #: Serialises ``drain()`` waits: older Pythons allow one at a time.
        self._lock = asyncio.Lock()
        #: Open chunked-publication streams, keyed by client stream id.  An
        #: unfinished stream dies with its connection: nothing was settled,
        #: so the runtime never saw it.
        self.streams: dict = {}
        peername = writer.get_extra_info("peername")
        #: The token-bucket key: one bucket per client host, so a client's
        #: pipelined connections share one admission budget.
        self.peer_host: str = peername[0] if peername else "unknown"
        #: Stream ids recently reclaimed by the TTL reaper, so a late
        #: chunk/end gets a typed ``stream-expired`` instead of the
        #: indistinguishable ``unknown-stream``.
        self.reaped: set = set()

    def note_reaped(self, stream_id) -> None:
        if len(self.reaped) >= 128:  # bounded per connection
            self.reaped.clear()
        self.reaped.add(stream_id)

    async def send_safely(self, frame: bytes) -> None:
        """Write one frame; a peer that vanished is not an error.

        Waits for the transport to drain only above its high-water mark.
        """
        writer = self._writer
        try:
            if writer.is_closing():
                return
            writer.write(frame)
            if writer.transport.get_write_buffer_size() > self._high_water:
                async with self._lock:
                    await writer.drain()
            self._server.metrics.outbound.record(len(frame))
        except (ConnectionError, RuntimeError):
            pass

    def close(self) -> None:
        try:
            self._writer.close()
        except RuntimeError:  # event loop already gone
            pass


class ServiceHandle:
    """A server running on its own thread and event loop.

    What the blocking world (tests, benchmarks, :meth:`DesignSession.serve`) uses
    to get a live endpoint: ``start()`` returns once the port is bound,
    ``close()`` performs the full graceful shutdown and joins the thread.
    """

    def __init__(self, server: ValidationServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started: "threading.Event" = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServiceHandle":
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        self._started.wait(_JOIN_TIMEOUT)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._started.is_set():
            raise TimeoutError("the service loop did not come up in time")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # pragma: no cover - surfaced via start()
            if not self._started.is_set():
                self._startup_error = error
                self._started.set()

    async def _main(self) -> None:
        try:
            await self.server.start()
        except BaseException as error:
            self._startup_error = error
            try:
                # Closes any preloaded design runtimes and the exporter, so
                # a failed bind leaks nothing into the caller's process.
                await self.server.aclose()
            except BaseException:  # pragma: no cover - cleanup best effort
                pass
            self._started.set()
            return
        self._loop = asyncio.get_running_loop()
        self._started.set()
        await self.server.serve_forever()

    def close(self) -> None:
        """Graceful shutdown from any thread; joins the loop thread."""
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            try:
                loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:  # loop already closed
                pass
        if thread is not None:
            thread.join(_JOIN_TIMEOUT)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()
