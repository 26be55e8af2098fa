"""The scheduler running a validation round's per-shard work.

Work is given as *shard tasks*: a callable receiving a shard index that
processes every peer of that shard sequentially.  While the tasks run,
the runtime's one :class:`~repro.engine.compilation.CompilationEngine` is
installed as the thread's default engine
(:func:`~repro.engine.compilation.use_engine`), so any library code a task
calls into compiles on the memo the typing compiled on.

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
    """Run shard tasks in the calling thread on one engine."""

    def __init__(self, shard_map: ShardMap, engine: CompilationEngine) -> None:
        self.shard_map = shard_map
        self.engine = engine

    def map_shards(
        self,
        task: Callable[[int], T],
        shards: Optional[Iterable[int]] = None,
    ) -> list[T]:
        """Run ``task(shard)`` for each shard, in shard order, on the engine.

        ``shards`` defaults to every shard with members.  The first
        exception a task raises propagates; later shards do not run.
        """
        targets = shards if shards is not None else [
            shard for shard in self.shard_map.shards() if self.shard_map.members(shard)
        ]
        with use_engine(self.engine):
            return [task(shard) for shard in targets]
