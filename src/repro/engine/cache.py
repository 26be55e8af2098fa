"""A bounded LRU cache with hit / miss / eviction accounting.

The cache is deliberately simple: an :class:`collections.OrderedDict` keyed
by hashable tuples, move-to-end on access, popitem(last=False) on overflow.
Statistics are kept both globally and per *kind* (the first element of every
key the :class:`~repro.engine.compilation.CompilationEngine` uses), so the
``--stats`` report can show where the hits come from.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional


@dataclass
class CacheStats:
    """Counters of one cache (or one kind of entry within a cache)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    by_kind: dict[str, "CacheStats"] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def _kind(self, kind: str) -> "CacheStats":
        if kind not in self.by_kind:
            self.by_kind[kind] = CacheStats()
        return self.by_kind[kind]

    def kind_counters(self, kind: str) -> "CacheStats":
        """The per-kind counter leaf, for hot paths that bump counters inline.

        ``record_hit``/``record_miss`` cost a dict probe and two increments
        per call; kernel-step counters (the label automata of
        :class:`~repro.engine.batch.CompiledSchema`) instead hoist the leaf
        once and do plain int adds.  Those counters appear in the per-kind
        breakdown of :meth:`snapshot`/:meth:`report` but are deliberately
        *not* folded into the global hit/miss totals, which keep describing
        the engine memo caches alone.
        """
        return self._kind(kind)

    def record_hit(self, kind: Optional[str] = None) -> None:
        self.hits += 1
        if kind is not None:
            self._kind(kind).hits += 1

    def record_miss(self, kind: Optional[str] = None) -> None:
        self.misses += 1
        if kind is not None:
            self._kind(kind).misses += 1

    def record_eviction(self, kind: Optional[str] = None) -> None:
        self.evictions += 1
        if kind is not None:
            self._kind(kind).evictions += 1

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict view (what :class:`~repro.api.DesignReport` stores)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "by_kind": {
                kind: {
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "evictions": stats.evictions,
                    "hit_rate": stats.hit_rate,
                }
                for kind, stats in sorted(self.by_kind.items())
            },
        }

    def delta(self, before: dict[str, Any]) -> dict[str, Any]:
        """The counters accumulated since an earlier :meth:`snapshot`.

        Returns the same plain-dict shape as :meth:`snapshot` (without the
        per-kind breakdown), with the hit rate computed over the delta.
        """
        hits = self.hits - before["hits"]
        misses = self.misses - before["misses"]
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": self.evictions - before["evictions"],
            "hit_rate": hits / lookups if lookups else 0.0,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = 0
        self.by_kind.clear()

    def report(self, title: str = "engine cache") -> str:
        """A small human-readable table (what the CLI ``--stats`` flag prints)."""
        lines = [
            f"{title}: {self.hits} hits / {self.lookups} lookups "
            f"({100.0 * self.hit_rate:.1f}% hit rate), {self.evictions} evictions"
        ]
        for kind, stats in sorted(self.by_kind.items()):
            lines.append(
                f"  {kind:<18} hits={stats.hits:<6} misses={stats.misses:<6} "
                f"hit_rate={100.0 * stats.hit_rate:.1f}%"
            )
        return "\n".join(lines)


_MISSING = object()


class LRUCache:
    """A least-recently-used mapping with bounded capacity and statistics.

    The cache may be shared across threads (the servers of one process settle
    rounds and feed streams on their loop threads), so it must tolerate concurrent use --
    but it sits on every engine hot path, so it takes no lock.  Safety
    rests on the GIL: each individual
    ``OrderedDict`` operation used here (``get``, ``__setitem__``,
    ``move_to_end``, ``popitem``) is a C method that runs atomically for
    the hashable key types the engine uses (tuples of strings and ints --
    no Python-level ``__hash__``/``__eq__`` callbacks).  The benign races
    that remain are documented inline: a ``move_to_end`` may race an
    eviction (caught and ignored -- only recency is lost), two threads may
    compute the same missing value (the results are interchangeable by
    construction, either insert may win), and statistics counters may
    undercount under contention.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def _touch(self, key: Hashable) -> None:
        try:
            self._entries.move_to_end(key)
        except KeyError:
            # The entry was evicted between lookup and touch (another
            # thread's insert overflowed the cache); recency is lost, the
            # value already read stays valid.
            pass

    def get(self, key: Hashable, kind: Optional[str] = None) -> Any:
        """Return the cached value or ``None``, recording a hit or a miss."""
        entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            self.stats.record_miss(kind)
            return None
        self._touch(key)
        self.stats.record_hit(kind)
        return entry[0]

    def put(self, key: Hashable, value: Any, kind: Optional[str] = None) -> Any:
        """Insert a value, evicting the least recently used entry on overflow.

        An eviction is attributed to the kind of the entry being *dropped*,
        not the one being inserted -- the per-kind report must show which
        pipeline stage is thrashing.
        """
        self._entries[key] = (value, kind)
        self._touch(key)
        if len(self._entries) > self.capacity:
            try:
                _evicted_key, (_evicted_value, evicted_kind) = self._entries.popitem(last=False)
            except KeyError:
                pass  # a concurrent eviction got there first
            else:
                self.stats.record_eviction(evicted_kind)
        return value

    def get_or_compute(self, key: Hashable, thunk: Callable[[], Any], kind: Optional[str] = None) -> Any:
        """The memoisation primitive: one lookup, one compute-and-store on miss.

        ``None`` is a legal cached value (inclusion counter-examples use it
        for "no counter-example"), which is why this does not layer on
        :meth:`get`.
        """
        entry = self._entries.get(key, _MISSING)
        if entry is not _MISSING:
            self._touch(key)
            self.stats.record_hit(kind)
            return entry[0]
        self.stats.record_miss(kind)
        return self.put(key, thunk(), kind)

    def clear(self) -> None:
        self._entries.clear()
