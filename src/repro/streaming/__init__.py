"""Event-driven streaming validation: wire bytes to verdict, no tree.

Every other validation path of the library materialises a
:class:`~repro.trees.document.Tree` or the C parser's element tree before
the compact-DFA run loop of :class:`~repro.engine.batch.CompiledSchema`
fires.  This package is the execution mode that never does:

* :mod:`repro.streaming.events` configures the expat parser that turns
  XML *bytes* -- fed chunk by chunk, no contiguous buffer required -- into
  element start and end callbacks, classifying malformed input exactly
  like ElementTree;
* :mod:`repro.streaming.machine` owns one such parser per document and
  steps one frame of horizontal-DFA state sets per *open* element (a
  stack, not a tree) straight from those callbacks, producing exactly the
  verdict :class:`~repro.engine.batch.BatchValidator` would, for DTDs,
  SDTDs and EDTDs alike, in O(depth) working memory, rejecting early the
  moment no state assignment can exist any more.

The distributed runtime (:meth:`ValidationRuntime.publish_stream`), the
network service (the ``publish_stream_*`` operations) and the public
facade (:meth:`repro.api.DesignSession.stream_validate`) all ride on these
two modules.
"""

from __future__ import annotations

from repro.streaming.events import iter_chunks
from repro.streaming.machine import (
    StreamingRun,
    StreamingValidator,
    streaming_validator_for,
)

__all__ = [
    "StreamingRun",
    "StreamingValidator",
    "iter_chunks",
    "streaming_validator_for",
]
