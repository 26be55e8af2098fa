"""Shared counters, histograms and traffic ledgers.

One counter implementation serves every accounting need of the system:

* :class:`Counter` -- a thread-safe monotonic counter;
* :class:`Gauge` -- a thread-safe settable value (queue depths, live pods);
* :class:`Histogram` -- a bounded-reservoir histogram with percentile
  queries (request latencies, batch sizes, queue depths);
* :class:`TrafficLedger` -- the message/byte pair used both by the
  simulated peer :class:`~repro.distributed.network.Network` and by the
  validation service's socket accounting
  (:mod:`repro.service.metrics`), so "bytes shipped" means the same thing
  whether the traffic is simulated control messages or real TCP frames;
* :class:`CounterFamily` / :class:`GaugeFamily` / :class:`HistogramFamily`
  -- labeled metric families with a *frozen* label set (``op``,
  ``design``, ``shard``, ``backend``, ``pod``...), the unit the
  Prometheus exposition in :mod:`repro.observability` renders;
* :class:`MetricsRegistry` -- a named collection of the above with one
  ``snapshot()`` (what the service's ``stats`` request returns) and a
  ``collect()`` view the exposition renderer consumes.

The module sits beside :mod:`repro.engine` at the bottom of the layer
stack on purpose: ``distributed`` and ``service`` both import it, never
each other's accounting.  Everything here is synchronised with plain
locks and safe to update from any server's event-loop thread and the
metrics exporter's scrape thread alike.
"""

from __future__ import annotations

import re
import threading
from typing import Iterable, NamedTuple, Optional, Sequence

#: Default reservoir bound of a histogram (observations beyond it wrap around).
DEFAULT_RESERVOIR = 65536

#: The repo's metric-name convention, checked at family creation (and by
#: the CI lint): a ``repro_`` prefix, lower-snake, optional unit suffix.
METRIC_NAME_RE = re.compile(r"^repro_[a-z][a-z0-9_]*$")

#: Label names are plain lower-snake identifiers.
LABEL_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _quantiles(values: Sequence[float], fractions: Iterable[float]) -> list[float]:
    """Nearest-rank quantiles of an already-sorted sequence.

    The single home of the index math both :meth:`Histogram.percentile`
    and :meth:`Histogram.snapshot` use; an empty sequence yields zeros.
    """
    if not values:
        return [0.0 for _ in fractions]
    top = len(values) - 1
    return [values[min(top, int(round(fraction * top)))] for fraction in fractions]


class Counter:
    """A thread-safe monotonic counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A thread-safe settable value (the non-monotonic sibling of Counter)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A bounded-reservoir histogram with percentile queries.

    Observations are kept in a ring buffer of ``reservoir`` slots: the
    histogram never grows beyond its bound, and once it wraps the
    percentiles describe the most recent ``reservoir`` observations --
    the steady state, which is what a latency distribution should show.
    ``count``/``total`` keep exact all-time totals regardless of the bound.
    """

    __slots__ = ("_lock", "_reservoir", "_values", "_next", "_count", "_total", "_max")

    def __init__(self, reservoir: int = DEFAULT_RESERVOIR) -> None:
        if reservoir < 1:
            raise ValueError("the reservoir needs at least one slot")
        self._lock = threading.Lock()
        self._reservoir = reservoir
        self._values: list[float] = []
        self._next = 0
        self._count = 0
        self._total = 0.0
        self._max = 0.0

    def record(self, value: float) -> None:
        with self._lock:
            if len(self._values) < self._reservoir:
                self._values.append(value)
            else:
                self._values[self._next] = value
                self._next = (self._next + 1) % self._reservoir
            self._count += 1
            self._total += value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def percentile(self, quantile: float) -> float:
        """The ``quantile``-th percentile (0..1) of the retained observations."""
        if not 0.0 <= quantile <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        with self._lock:
            values = sorted(self._values)
        return _quantiles(values, (quantile,))[0]

    def snapshot(self) -> dict:
        with self._lock:
            values = sorted(self._values)
            count, total, maximum = self._count, self._total, self._max
        p50, p90, p99, p999 = _quantiles(values, (0.50, 0.90, 0.99, 0.999))
        return {
            "count": count,
            "mean": total / count if count else 0.0,
            "p50": p50,
            "p90": p90,
            "p99": p99,
            "p999": p999,
            "max": maximum,
        }


class LedgerSnapshot(NamedTuple):
    """An atomically-read ``(messages, bytes)`` point of a :class:`TrafficLedger`."""

    messages: int
    bytes: int

    def delta(self, base: "LedgerSnapshot") -> "LedgerSnapshot":
        """The traffic recorded between ``base`` and this snapshot."""
        return LedgerSnapshot(self.messages - base.messages, self.bytes - base.bytes)


class TrafficLedger:
    """A message/byte pair with O(1) atomic reads.

    The simulated peer network and the service's socket layer both account
    their traffic through this one class, so the ``stats`` request can
    report simulated control-message costs and real wire bytes side by
    side without two drifting implementations.
    """

    __slots__ = ("_lock", "_messages", "_bytes")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._messages = 0
        self._bytes = 0

    def record(self, nbytes: int, messages: int = 1) -> None:
        with self._lock:
            self._messages += messages
            self._bytes += nbytes

    @property
    def messages(self) -> int:
        with self._lock:
            return self._messages

    @property
    def bytes(self) -> int:
        with self._lock:
            return self._bytes

    def snapshot(self) -> LedgerSnapshot:
        with self._lock:
            return LedgerSnapshot(self._messages, self._bytes)

    def since(self, base: LedgerSnapshot) -> LedgerSnapshot:
        """The traffic recorded since ``base`` (one atomic read)."""
        return self.snapshot().delta(base)

    def reset(self) -> None:
        with self._lock:
            self._messages = 0
            self._bytes = 0


class _MetricFamily:
    """A labeled metric family: one name, a frozen label set, many children.

    ``labels(op="publish")`` returns (creating on first use) the child
    metric for that label combination; the label *names* are fixed at
    family creation and every ``labels()`` call must supply exactly those
    names, so a family can never grow surprise dimensions.  Children are
    memoized -- the hot path is one dict lookup under the family lock,
    and call sites are encouraged to cache the child itself.
    """

    kind = "untyped"
    _child_factory = staticmethod(lambda: None)

    __slots__ = ("name", "help", "label_names", "_label_set", "_lock", "_children")

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        if not METRIC_NAME_RE.match(name):
            raise ValueError(
                f"metric family name {name!r} violates the convention {METRIC_NAME_RE.pattern}"
            )
        for label in labels:
            if not LABEL_NAME_RE.match(label):
                raise ValueError(f"label name {label!r} violates {LABEL_NAME_RE.pattern}")
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        if len(set(self.label_names)) != len(self.label_names):
            raise ValueError(f"family {name!r} repeats a label name: {self.label_names}")
        self._label_set = frozenset(self.label_names)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labels: str):
        if labels.keys() != self._label_set:
            raise ValueError(
                f"family {self.name!r} takes labels {self.label_names}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._child_factory()
            return child

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        """``(label_values, child)`` pairs in deterministic (sorted) order."""
        with self._lock:
            return sorted(self._children.items())

    def snapshot(self) -> dict:
        """A JSON-ready ``{"label=value,...": value_or_snapshot}`` mapping."""
        return {
            ",".join(
                f"{name}={value}" for name, value in zip(self.label_names, key)
            ): self._child_value(child)
            for key, child in self.children()
        }

    @staticmethod
    def _child_value(child):
        return child.value


class CounterFamily(_MetricFamily):
    kind = "counter"
    _child_factory = staticmethod(Counter)
    __slots__ = ()


class GaugeFamily(_MetricFamily):
    kind = "gauge"
    _child_factory = staticmethod(Gauge)

    __slots__ = ()

    def clear(self) -> None:
        """Drop every child (federation aggregates are rebuilt per scrape)."""
        with self._lock:
            self._children.clear()


class HistogramFamily(_MetricFamily):
    kind = "histogram"

    __slots__ = ("_reservoir",)

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        reservoir: int = DEFAULT_RESERVOIR,
    ) -> None:
        super().__init__(name, help, labels)
        self._reservoir = reservoir

    def _child_factory(self):  # type: ignore[override]
        return Histogram(self._reservoir)

    @staticmethod
    def _child_value(child):
        return child.snapshot()


class MetricsRegistry:
    """A named collection of counters, histograms and ledgers.

    Metrics are created on first use (``counter("requests.ping")``), so
    call sites never need registration boilerplate, and ``snapshot()``
    returns one JSON-ready dict -- the payload of the service's ``stats``
    request.
    """

    def __init__(self, reservoir: int = DEFAULT_RESERVOIR) -> None:
        self._lock = threading.Lock()
        self._reservoir = reservoir
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._ledgers: dict[str, TrafficLedger] = {}
        self._families: dict[str, _MetricFamily] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
            return counter

    def histogram(self, name: str, reservoir: Optional[int] = None) -> Histogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(reservoir or self._reservoir)
            return histogram

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge()
            return gauge

    def ledger(self, name: str) -> TrafficLedger:
        with self._lock:
            ledger = self._ledgers.get(name)
            if ledger is None:
                ledger = self._ledgers[name] = TrafficLedger()
            return ledger

    # -- labeled families ------------------------------------------------ #

    def _family(self, cls, name: str, help: str, labels: Sequence[str], **kwargs):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = cls(name, help, labels, **kwargs)
            elif not isinstance(family, cls) or family.label_names != tuple(labels):
                raise ValueError(
                    f"family {name!r} already registered as {type(family).__name__}"
                    f" with labels {family.label_names}"
                )
            return family

    def counter_family(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> CounterFamily:
        return self._family(CounterFamily, name, help, labels)

    def gauge_family(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> GaugeFamily:
        return self._family(GaugeFamily, name, help, labels)

    def histogram_family(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        reservoir: Optional[int] = None,
    ) -> HistogramFamily:
        return self._family(
            HistogramFamily, name, help, labels, reservoir=reservoir or self._reservoir
        )

    def families(self) -> list[_MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def collect(self) -> list[dict]:
        """A normalized, renderer-ready view of every family and ledger.

        Each entry is ``{"name", "kind", "help", "samples"}`` where a
        sample is ``(label_pairs, value)`` for counters/gauges and
        ``(label_pairs, snapshot_dict)`` for histograms; ``label_pairs``
        is a tuple of ``(label_name, label_value)`` tuples.  Ledgers
        surface as two counter families (``<name>_messages_total`` /
        ``<name>_bytes_total``).  Unlabeled legacy metrics are *not*
        included -- the exposition renders families, the compat
        ``snapshot()`` renders dotted names.
        """
        collected = []
        for family in self.families():
            samples = [
                (tuple(zip(family.label_names, key)), family._child_value(child))
                for key, child in family.children()
            ]
            collected.append(
                {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "samples": samples,
                }
            )
        with self._lock:
            ledgers = sorted(self._ledgers.items())
        for name, ledger in ledgers:
            snap = ledger.snapshot()
            base = "repro_" + re.sub(r"[^a-z0-9_]", "_", name.lower())
            for suffix, value in (("messages", snap.messages), ("bytes", snap.bytes)):
                collected.append(
                    {
                        "name": f"{base}_{suffix}_total",
                        "kind": "counter",
                        "help": f"{suffix} recorded by the {name!r} traffic ledger",
                        "samples": [((), value)],
                    }
                )
        return collected

    def snapshot(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            ledgers = dict(self._ledgers)
            families = dict(self._families)
        snapshot = {
            "counters": {name: counter.value for name, counter in sorted(counters.items())},
            "histograms": {name: hist.snapshot() for name, hist in sorted(histograms.items())},
            "ledgers": {
                name: {"messages": snap.messages, "bytes": snap.bytes}
                for name, snap in sorted(
                    (name, ledger.snapshot()) for name, ledger in ledgers.items()
                )
            },
        }
        if gauges:
            snapshot["gauges"] = {name: gauge.value for name, gauge in sorted(gauges.items())}
        if families:
            snapshot["families"] = {
                name: family.snapshot() for name, family in sorted(families.items())
            }
        return snapshot
