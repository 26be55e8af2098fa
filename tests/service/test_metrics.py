"""The shared counter/histogram/ledger implementation and its two users."""

from __future__ import annotations

import threading

import pytest

from repro.distributed.network import DistributedDocument
from repro.metrics import Counter, Histogram, LedgerSnapshot, MetricsRegistry, TrafficLedger
from repro.service.metrics import ServiceMetrics
from repro.workloads.synthetic import distributed_workload


class TestCounter:
    def test_counts(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_thread_safety(self):
        counter = Counter()

        def spin():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 40_000


class TestHistogram:
    def test_percentiles(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.record(float(value))
        assert histogram.count == 100
        assert histogram.percentile(0.0) == 1.0
        assert histogram.percentile(1.0) == 100.0
        assert 45.0 <= histogram.percentile(0.5) <= 55.0
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 100 and snapshot["max"] == 100.0
        assert snapshot["p50"] <= snapshot["p99"] <= snapshot["max"]

    def test_empty_histogram(self):
        histogram = Histogram()
        assert histogram.percentile(0.5) == 0.0
        assert histogram.snapshot() == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
            "p999": 0.0, "max": 0.0,
        }

    def test_reservoir_wraps_but_totals_stay_exact(self):
        histogram = Histogram(reservoir=8)
        for value in range(100):
            histogram.record(float(value))
        assert histogram.count == 100
        # Only the most recent 8 observations are retained for percentiles.
        assert histogram.percentile(0.0) >= 92.0
        snapshot = histogram.snapshot()
        # The snapshot's quantiles come from the same post-wrap reservoir
        # window, while count/mean/max keep accounting for every record.
        assert snapshot["count"] == 100
        assert snapshot["p50"] >= 92.0
        assert snapshot["p999"] <= snapshot["max"] == 99.0
        assert snapshot["mean"] == pytest.approx(sum(range(100)) / 100)

    def test_concurrent_record_from_threads(self):
        histogram = Histogram(reservoir=64)

        def spin(base: float) -> None:
            for i in range(5_000):
                histogram.record(base + i % 7)

        threads = [threading.Thread(target=spin, args=(float(n),)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = histogram.snapshot()
        assert histogram.count == 20_000
        assert snapshot["count"] == 20_000
        assert 0.0 <= snapshot["p50"] <= snapshot["max"] <= 9.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            Histogram(reservoir=0)
        with pytest.raises(ValueError):
            Histogram().percentile(1.5)


class TestTrafficLedger:
    def test_record_and_snapshot(self):
        ledger = TrafficLedger()
        ledger.record(100)
        ledger.record(50, messages=2)
        assert ledger.snapshot() == LedgerSnapshot(3, 150)
        assert ledger.messages == 3 and ledger.bytes == 150

    def test_since_window(self):
        ledger = TrafficLedger()
        ledger.record(10)
        base = ledger.snapshot()
        ledger.record(32)
        ledger.record(8)
        assert ledger.since(base) == LedgerSnapshot(2, 40)

    def test_reset(self):
        ledger = TrafficLedger()
        ledger.record(10)
        ledger.reset()
        assert ledger.snapshot() == LedgerSnapshot(0, 0)


class TestRegistry:
    def test_metrics_created_on_first_use_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("requests.ping").inc()
        registry.counter("requests.ping").inc()
        registry.histogram("latency").record(2.0)
        registry.ledger("wire.in").record(64)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"requests.ping": 2}
        assert snapshot["histograms"]["latency"]["count"] == 1
        assert snapshot["ledgers"]["wire.in"] == {"messages": 1, "bytes": 64}

    def test_service_metrics_names(self):
        metrics = ServiceMetrics()
        metrics.record_request("publish", 0.002)
        metrics.record_error("bad-json")
        metrics.record_batch(8, 3, 0.001)
        metrics.inbound.record(128)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["requests.publish"] == 1
        assert snapshot["counters"]["errors.bad-json"] == 1
        assert snapshot["counters"]["batched_publications"] == 8
        assert snapshot["histograms"]["batch.size"]["max"] == 8.0
        assert snapshot["ledgers"]["wire.in"]["bytes"] == 128

    def test_service_series_appear_only_once_recorded(self):
        metrics = ServiceMetrics()
        empty = metrics.snapshot()
        assert empty["counters"] == {} and empty["histograms"] == {}
        for _ in range(2):
            metrics.record_request("publish", 0.001)
            metrics.record_batch(4, 1, 0.001)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {
            "batched_publications": 8, "batches": 2, "requests.publish": 2
        }
        assert snapshot["histograms"]["latency.publish"]["count"] == 2
        assert snapshot["histograms"]["batch.size"]["count"] == 2
        assert snapshot["families"]["repro_requests_total"] == {"op=publish": 2}


class TestMetricFamilies:
    def test_name_convention_enforced(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter_family("Bad-Name", "nope")
        with pytest.raises(ValueError):
            registry.counter_family("not_repro_prefixed", "nope")
        with pytest.raises(ValueError):
            registry.counter_family("repro_ok_total", "nope", ("Bad-Label",))

    def test_reregistration_must_match(self):
        registry = MetricsRegistry()
        family = registry.counter_family("repro_things_total", "things", ("op",))
        assert registry.counter_family("repro_things_total", "things", ("op",)) is family
        with pytest.raises(ValueError):
            registry.counter_family("repro_things_total", "things", ("other",))
        with pytest.raises(ValueError):
            registry.gauge_family("repro_things_total", "things", ("op",))

    def test_labels_must_name_exactly_the_family_labels(self):
        registry = MetricsRegistry()
        family = registry.counter_family("repro_ops_total", "ops", ("op", "design"))
        family.labels(design="d1", op="publish").inc()  # keyword order is free
        for wrong in (
            {},
            {"op": "publish"},
            {"op": "publish", "pod": "p0"},
            {"op": "publish", "design": "d1", "pod": "p0"},
        ):
            with pytest.raises(ValueError, match="takes labels"):
                family.labels(**wrong)
        with pytest.raises(ValueError, match="takes labels"):
            registry.counter_family("repro_batches_total", "batches").labels(op="publish")
        with pytest.raises(ValueError, match="repeats a label"):
            registry.counter_family("repro_twice_total", "twice", ("op", "op"))
        assert family.snapshot() == {"op=publish,design=d1": 1}

    def test_labeled_snapshot_is_deterministic(self):
        def build(order):
            registry = MetricsRegistry()
            family = registry.counter_family("repro_ops_total", "ops", ("op", "design"))
            for op, design, amount in order:
                family.labels(op=op, design=design).inc(amount)
            return registry

        forward = [("publish", "d1", 3), ("ping", "d1", 1), ("publish", "d2", 2)]
        first = build(forward)
        second = build(list(reversed(forward)))
        assert first.snapshot()["families"] == second.snapshot()["families"]
        assert first.collect() == second.collect()
        samples = dict(
            next(f for f in first.collect() if f["name"] == "repro_ops_total")["samples"]
        )
        assert samples[(("op", "publish"), ("design", "d1"))] == 3

    def test_gauge_family_set_and_clear(self):
        registry = MetricsRegistry()
        family = registry.gauge_family("repro_live", "live things", ("pod",))
        family.labels(pod="a").set(2)
        family.labels(pod="a").inc()
        family.labels(pod="b").set(7)
        snapshot = family.snapshot()
        assert snapshot == {"pod=a": 3.0, "pod=b": 7.0}
        family.clear()
        assert family.snapshot() == {}

    def test_histogram_family_children(self):
        registry = MetricsRegistry()
        family = registry.histogram_family(
            "repro_latency_ms", "latency", ("op",), reservoir=16
        )
        for value in (1.0, 2.0, 3.0):
            family.labels(op="publish").record(value)
        snapshot = family.snapshot()["op=publish"]
        assert snapshot["count"] == 3 and snapshot["max"] == 3.0


class TestNetworkUnification:
    """The simulated peer network accounts through the same ledger class."""

    def test_network_ledger_is_a_traffic_ledger(self):
        workload = distributed_workload(peers=3, documents=3)
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        assert isinstance(document.network.ledger, TrafficLedger)
        base = document.network.ledger.snapshot()
        document.validate_locally(workload.typing)
        window = document.network.ledger.since(base)
        assert window.messages == document.network.message_count
        assert window.bytes == document.network.bytes_shipped
        assert window.messages == len(document.network.log)

    def test_network_reset_clears_ledger_and_log(self):
        workload = distributed_workload(peers=2, documents=2)
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        document.validate_locally(workload.typing)
        document.network.reset()
        assert document.network.snapshot() == LedgerSnapshot(0, 0)
        assert not document.network.log
