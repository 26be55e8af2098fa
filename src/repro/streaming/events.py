"""Chunking: how a payload reaches a streaming run.

A :class:`~repro.streaming.machine.StreamingRun` accepts chunks of any
size and from anywhere -- a socket, a file, a generator -- with no
contiguous buffer required; the run itself bounds how much the parser
reads between two prunes.  :func:`iter_chunks` cuts a whole payload into
the bounded chunks the wire and CLI surfaces feed.
"""

from __future__ import annotations

from typing import Iterator, Union

__all__ = ["iter_chunks"]

Chunk = Union[bytes, str]


def iter_chunks(payload: Chunk, chunk_bytes: int = 65536) -> Iterator[Chunk]:
    """Slice a payload into bounded chunks (what the wire/CLI surfaces feed)."""
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    for start in range(0, len(payload), chunk_bytes):
        yield payload[start : start + chunk_bytes]
