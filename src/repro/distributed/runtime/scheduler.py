"""The scheduler running a validation round's per-shard work.

One :class:`ShardScheduler` owns one
:class:`~repro.engine.compilation.CompilationEngine` per shard.  Work is
given as *shard tasks*: a callable receiving ``(shard, engine)`` that
processes every peer of that shard sequentially.  While a task runs, its
shard engine is installed as the thread's default engine
(:func:`~repro.engine.compilation.use_engine`), so any library code the
task calls into compiles on the shard's cache.

Every task runs in the calling thread -- the one settling the round.  A
peer's check is one C-parser pass and a Python label-state fold, both
under the GIL, so a thread pool never ran two checks at once: it only
added a submit, a wake-up and a GIL hand-off per shard per round.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, TypeVar

from repro.engine.compilation import CompilationEngine, use_engine

from repro.distributed.runtime.sharding import ShardMap

T = TypeVar("T")


class ShardScheduler:
    """Run shard tasks in the calling thread with per-shard engine reuse."""

    def __init__(self, shard_map: ShardMap) -> None:
        self.shard_map = shard_map
        self.engines: tuple[CompilationEngine, ...] = tuple(
            CompilationEngine() for _ in shard_map.shards()
        )

    # ------------------------------------------------------------------ #
    # engines
    # ------------------------------------------------------------------ #

    def engine_stats(self) -> dict:
        """Aggregate cache counters across all shard engines.

        The per-kind breakdown is summed too, so tests can assert e.g. "the
        incremental revalidation ran exactly one ``batch-validate`` miss"
        regardless of which shard the dirty peer lives on.
        """
        totals = {"hits": 0, "misses": 0, "evictions": 0, "by_kind": {}}
        for engine in self.engines:
            snapshot = engine.stats.snapshot()
            for counter in ("hits", "misses", "evictions"):
                totals[counter] += snapshot[counter]
            for kind, counters in snapshot["by_kind"].items():
                merged = totals["by_kind"].setdefault(
                    kind, {"hits": 0, "misses": 0, "evictions": 0}
                )
                for counter in ("hits", "misses", "evictions"):
                    merged[counter] += counters[counter]
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        return totals

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def map_shards(
        self,
        task: Callable[[int, CompilationEngine], T],
        shards: Optional[Iterable[int]] = None,
    ) -> list[T]:
        """Run ``task(shard, engine)`` for each shard, in shard order.

        ``shards`` defaults to every shard with members.  The first
        exception a task raises propagates; later shards do not run.
        """
        targets = shards if shards is not None else [
            shard for shard in self.shard_map.shards() if self.shard_map.members(shard)
        ]
        results: list[T] = []
        for shard in targets:
            engine = self.engines[shard]
            with use_engine(engine):
                results.append(task(shard, engine))
        return results
