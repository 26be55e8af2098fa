"""Streaming validation: wire bytes to verdict in O(depth) memory.

Every other validation path of the library holds the whole document --
a :class:`~repro.trees.document.Tree`, or the C parser's element tree --
before the compact-DFA fold of :class:`~repro.engine.batch.CompiledSchema`
runs.  This package is the execution mode that never does:

* :mod:`repro.streaming.machine` owns one ElementTree C parser per
  document and feeds it XML *bytes* -- chunk by chunk, no contiguous
  buffer required -- one bounded slice at a time.  After each slice it
  folds every element the slice completed into its parent's label state
  (the states the batch folds step too) and deletes it, and drops the
  slice's text, so it holds the open root-to-leaf path plus one slice's
  elements.  It produces exactly
  the verdict :class:`~repro.engine.batch.BatchValidator` would, for
  DTDs, SDTDs and EDTDs alike, classifies malformed input exactly like
  :func:`~repro.trees.xml_io.tree_from_xml`, and rejects early once no
  state assignment can exist any more;
* :mod:`repro.streaming.events` cuts whole payloads into the bounded
  chunks the wire and CLI surfaces feed.

The distributed runtime (:meth:`ValidationRuntime.publish_stream`), the
network service (the ``publish_stream_*`` operations) and the public
facade (:meth:`repro.api.DesignSession.stream_validate`) all ride on these
two modules.

The names below are re-exported lazily (:func:`repro.lazy_exports`): each
submodule is imported when one of its names is first read.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "events": ("iter_chunks",),
        "machine": ("StreamingRun", "StreamingValidator", "streaming_validator_for"),
    },
)
