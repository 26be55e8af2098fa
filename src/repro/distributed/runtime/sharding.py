"""Assignment of resource peers to shards.

A *shard* is a fixed group of peers: a validation round runs one task
per shard holding dirty peers, and the validation server keeps its
per-shard wire-stream slots by it.  Shard tasks run one after another in
the thread settling the round (:mod:`~repro.distributed.runtime.scheduler`).

The assignment is deterministic (round-robin over the kernel's function
order), so two runtimes built over the same document agree on which shard
serves which peer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.errors import DesignError

#: The most shards a runtime gets unless told otherwise.
DEFAULT_SHARD_LIMIT = 4


def resolve_shards(peer_count: int, shards: Optional[int]) -> int:
    """The shard count a runtime over ``peer_count`` peers resolves to.

    ``shards`` when given, else ``min(peer_count, DEFAULT_SHARD_LIMIT)``;
    never below one.  Shared by the runtime and the workload driver, so a
    reported shard count cannot drift from the runtime's own.
    """
    return max(1, shards if shards is not None else min(peer_count, DEFAULT_SHARD_LIMIT))


@dataclass(frozen=True)
class ShardMap:
    """A deterministic ``function -> shard`` assignment."""

    assignment: Mapping[str, int]
    shard_count: int
    _members: tuple[tuple[str, ...], ...] = field(repr=False, default=())

    @classmethod
    def over(cls, functions: Iterable[str], shard_count: int) -> "ShardMap":
        """Round-robin the functions (in the given order) over the shards."""
        functions = tuple(functions)
        if shard_count <= 0:
            raise DesignError("a shard map needs at least one shard")
        assignment = {function: index % shard_count for index, function in enumerate(functions)}
        members: list[list[str]] = [[] for _ in range(shard_count)]
        for function, shard in assignment.items():
            members[shard].append(function)
        return cls(assignment, shard_count, tuple(tuple(shard) for shard in members))

    def shard_of(self, function: str) -> int:
        try:
            return self.assignment[function]
        except KeyError as error:
            raise DesignError(f"{function!r} is not assigned to any shard") from error

    def members(self, shard: int) -> tuple[str, ...]:
        """The functions of one shard, in kernel order."""
        return self._members[shard]

    def shards(self) -> range:
        return range(self.shard_count)

    def __len__(self) -> int:
        return len(self.assignment)

    def describe(self) -> str:
        lines = [f"{self.shard_count} shard(s) over {len(self.assignment)} peer(s)"]
        for shard in self.shards():
            lines.append(f"  shard {shard}: {', '.join(self.members(shard)) or '(empty)'}")
        return "\n".join(lines)
