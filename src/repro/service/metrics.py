"""Service-side metrics: labeled families covering sockets, batches, latency.

:class:`ServiceMetrics` wraps a :class:`~repro.metrics.MetricsRegistry`
with the *labeled families* the server records -- ``repro_requests_total``
and ``repro_request_latency_ms`` keyed by ``op``, typed error and shed
counters keyed by ``code``/``reason``, admission-controller batch sizes
and queue depths, and inbound/outbound
:class:`~repro.metrics.TrafficLedger` pairs.  The ledgers are the *same
class* the simulated peer :class:`~repro.distributed.network.Network`
accounts with, which is what keeps the service's "bytes in/out" and the
runtime's "bytes shipped" comparable in one ``stats`` response.

The families are the primary store (what ``/metrics`` exposes); the
dotted-name shape older clients and tests consume
(``counters["requests.ping"]``) is *derived* from them in
:meth:`ServiceMetrics.snapshot` -- the unlabeled API survives as a thin
compatibility layer with no double recording on the hot path.
"""

from __future__ import annotations

from typing import Optional

from repro.metrics import (
    Counter,
    Histogram,
    LedgerSnapshot,
    MetricsRegistry,
    TrafficLedger,
)

__all__ = [
    "Counter",
    "Histogram",
    "LedgerSnapshot",
    "MetricsRegistry",
    "ServiceMetrics",
    "TrafficLedger",
]


class ServiceMetrics:
    """The labeled counters/histograms one validation server maintains."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        #: Real socket traffic (frames and their bytes), per direction.
        self.inbound = self.registry.ledger("wire.in")
        self.outbound = self.registry.ledger("wire.out")
        registry = self.registry
        self.requests = registry.counter_family(
            "repro_requests_total", "requests answered, by wire operation", ("op",)
        )
        self.latency = registry.histogram_family(
            "repro_request_latency_ms", "request wall-clock, by wire operation", ("op",)
        )
        self.errors = registry.counter_family(
            "repro_errors_total", "typed error frames sent, by error code", ("code",)
        )
        self.connections = registry.counter_family(
            "repro_connections_total", "connection lifecycle events", ("event",)
        )
        self.shed = registry.counter_family(
            "repro_shed_total", "requests refused by the overload tier", ("reason",)
        )
        self.streams_reaped = registry.counter_family(
            "repro_streams_reaped_total", "idle publication streams reclaimed by the TTL reaper"
        )
        self.inline_streamed = registry.counter_family(
            "repro_publish_inline_streamed_total",
            "oversized publishes routed through the streaming ingest",
        )
        self.batches = registry.counter_family(
            "repro_batches_total", "admission-controller batches settled"
        )
        self.batched_publications = registry.counter_family(
            "repro_batched_publications_total", "publications settled through batches"
        )
        self.batch_size = registry.histogram_family(
            "repro_batch_size", "publications per admission batch"
        )
        self.batch_queue_depth = registry.histogram_family(
            "repro_batch_queue_depth", "admission queue depth at batch start"
        )
        self.batch_wall = registry.histogram_family(
            "repro_batch_wall_ms", "admission batch settle wall-clock"
        )
        #: The hot path's children, looked up on first use (so a series
        #: still appears only once recorded): op -> (requests, latency),
        #: and the five unlabeled batch series.
        self._request_series: dict[str, tuple[Counter, Histogram]] = {}
        self._batch_series: Optional[tuple] = None

    # -- request accounting --------------------------------------------- #

    def record_request(self, op: str, seconds: float) -> None:
        series = self._request_series.get(op)
        if series is None:
            series = self._request_series[op] = (
                self.requests.labels(op=op),
                self.latency.labels(op=op),
            )
        series[0].inc()
        series[1].record(seconds * 1000.0)

    def record_error(self, code: str) -> None:
        self.errors.labels(code=code).inc()

    def record_connection(self, opened: bool) -> None:
        self.connections.labels(event="opened" if opened else "closed").inc()

    # -- admission-controller accounting -------------------------------- #

    def record_shed(self, reason: str) -> None:
        """One request refused by the overload tier (``reason`` is the why)."""
        self.shed.labels(reason=reason).inc()

    def record_reaped_stream(self) -> None:
        """One idle publication stream reclaimed by the TTL reaper."""
        self.streams_reaped.labels().inc()

    def record_inline_stream(self) -> None:
        """One oversized ``publish`` routed through the streaming ingest."""
        self.inline_streamed.labels().inc()

    def record_batch(self, size: int, queue_depth: int, seconds: float) -> None:
        series = self._batch_series
        if series is None:
            series = self._batch_series = tuple(
                family.labels()
                for family in (
                    self.batches,
                    self.batched_publications,
                    self.batch_size,
                    self.batch_queue_depth,
                    self.batch_wall,
                )
            )
        batches, publications, sizes, depths, walls = series
        batches.inc()
        publications.inc(size)
        sizes.record(float(size))
        depths.record(float(queue_depth))
        walls.record(seconds * 1000.0)

    # -- reporting ------------------------------------------------------- #

    def publish_latency(self) -> Histogram:
        return self.latency.labels(op="publish")

    def snapshot(self) -> dict:
        """The legacy dotted-name stats shape, derived from the families.

        ``counters["requests.ping"]`` and friends keep their exact
        pre-family names and lazy-appearance semantics: a series shows up
        only once it has been recorded, and ``shed.total`` is the sum
        over the reason-labeled shed family.
        """
        snapshot = self.registry.snapshot()
        counters: dict[str, int] = {}
        histograms: dict[str, dict] = {}
        for family, prefix in ((self.requests, "requests"), (self.errors, "errors"),
                               (self.connections, "connections"), (self.shed, "shed")):
            for (value_key,), child in family.children():
                counters[f"{prefix}.{value_key}"] = child.value
        shed_children = self.shed.children()
        if shed_children:
            counters["shed.total"] = sum(child.value for _key, child in shed_children)
        for family, name in (
            (self.streams_reaped, "streams.reaped"),
            (self.inline_streamed, "publish.inline_streamed"),
            (self.batches, "batches"),
            (self.batched_publications, "batched_publications"),
        ):
            for _key, child in family.children():
                counters[name] = child.value
        for (op,), child in self.latency.children():
            histograms[f"latency.{op}"] = child.snapshot()
        for family, name in (
            (self.batch_size, "batch.size"),
            (self.batch_queue_depth, "batch.queue_depth"),
            (self.batch_wall, "batch.wall_ms"),
        ):
            for _key, child in family.children():
                histograms[name] = child.snapshot()
        snapshot["counters"] = dict(sorted(counters.items()))
        snapshot["histograms"] = dict(sorted(histograms.items()))
        return snapshot
