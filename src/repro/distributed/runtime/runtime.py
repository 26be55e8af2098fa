"""The sharded, concurrent validation runtime.

:class:`ValidationRuntime` layers three things on top of the serial
:class:`~repro.distributed.network.DistributedDocument` simulation:

* **Parallel local validation** -- peers are partitioned into shards
  (:mod:`~repro.distributed.runtime.sharding`) and validated concurrently
  by a thread-pool scheduler with one compilation engine per shard
  (:mod:`~repro.distributed.runtime.scheduler`).  Compiled schemas are
  shared read-only, so per-peer document runs are embarrassingly parallel.
* **Incremental revalidation** -- every validated document is
  content-addressed with :func:`~repro.engine.fingerprint.tree_fingerprint`.
  A peer is *dirty* only when its current content differs from the content
  its cached acknowledgement was computed for; clean peers are skipped
  entirely (no validation run, no control messages) and the global verdict
  is re-derived from the cached per-peer acks.  In particular a peer that
  re-publishes equal content as a fresh object -- the normal case after a
  round-trip through serialisation -- stays clean, which the per-object
  identity memo of :class:`~repro.engine.batch.CompiledSchema` cannot see.
* **Wire-level ingest, bytes to verdict** -- :meth:`ValidationRuntime.publish`
  accepts a publication as serialised XML and content-addresses the
  *bytes* (:func:`~repro.engine.fingerprint.payload_fingerprint`) before
  any parsing.  Hashing runs at native speed, so a byte-identical
  re-publication costs one digest and nothing else.  A changed payload is
  validated from its bytes inside the shard task, off the coordinator
  (:meth:`BatchValidator.validate_payload
  <repro.engine.batch.BatchValidator.validate_payload>`: one C-parser
  pass and the element fold) -- no :class:`~repro.trees.document.Tree`
  is built.  The peer then holds a content-addressed
  :class:`~repro.distributed.peer.PublicationRecord` retaining the
  payload bytes, so a typing change re-validates from them.
  :meth:`ValidationRuntime.seed` sends a registration document, given as
  text, down the same path; its parser pass also yields the peer's
  ``tree:`` fingerprint, so the peer addresses exactly as if it had been
  seeded with the equal ``Tree``.
* **Streamed ingest** -- :meth:`ValidationRuntime.publish_stream` /
  :meth:`ValidationRuntime.begin_stream` take the publication as *chunks*:
  each chunk is hashed and handed to the peer's
  :class:`~repro.streaming.machine.StreamingRun`, whose expat callbacks
  step the schema's label states as elements start and end -- one pass,
  no element objects, so working memory is O(document depth) and the
  verdict settles at ingest time (no validation round).  The peer's
  :class:`~repro.distributed.peer.PublicationRecord` keeps no bytes, so
  after a typing change a streamed publication must be re-published.
  Streamed and whole-frame publications dedupe against each other
  because both address the same payload bytes.  A publication given as
  ``str`` is parsed as the characters it is, whatever encoding it
  declares, and addressed by its UTF-8 encoding.
* **Malformed publications** -- a latest publication that does not parse
  is an invalid one: the peer keeps its previous document, but its ack
  stays ``False`` and its fingerprint stays the malformed bytes' under
  every typing, until the peer publishes again.
* **Cost/statistics accounting** -- a :class:`RuntimeReport` extends the
  serial :class:`~repro.distributed.network.ValidationReport` with how many
  peers actually revalidated, and :class:`RuntimeStats` accumulates the
  totals across rounds (what the workload driver and the benchmarks read).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.core.typing import TreeTyping
from repro.distributed.network import DistributedDocument, ValidationReport
from repro.distributed.peer import PublicationRecord
from repro.distributed.runtime.scheduler import ShardScheduler
from repro.distributed.runtime.sharding import ShardMap
from repro.engine.batch import BatchValidator
from repro.engine.compilation import CompilationEngine, use_engine
from repro.engine.fingerprint import (
    payload_fingerprint,
    payload_hasher,
    payload_hexdigest,
    tree_fingerprint,
)
from repro.errors import DesignError, InvalidXMLError
from repro.streaming.events import iter_chunks
from repro.streaming.machine import streaming_validator_for

#: Fingerprint recorded for a peer with no document (validation returns False).
_NO_DOCUMENT = "<no-document>"


def state_digest_of(state: dict) -> str:
    """The canonical digest of an exported runtime state dict.

    Module-level so a federation orchestrator can merge the per-pod
    exports of :meth:`ValidationRuntime.export_state` and digest the
    union with exactly the encoding a single-process runtime uses --
    the digests are then comparable byte for byte.
    """
    encoded = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def merge_states(states) -> dict:
    """Union per-function validation states exported by disjoint runtimes.

    Each pod of a federation owns a disjoint subset of the design's
    functions, so its :meth:`ValidationRuntime.export_state` covers only
    those; the union over all pods reconstructs the state a single
    runtime holding every function would export.  ``pending`` entries
    (queued wire publications) are unioned and re-sorted.
    """
    merged: dict = {"acks": {}, "validated_fp": {}, "current_fp": {}, "pending": []}
    pending: set[str] = set()
    for state in states:
        merged["acks"].update(state.get("acks", {}))
        merged["validated_fp"].update(state.get("validated_fp", {}))
        merged["current_fp"].update(state.get("current_fp", {}))
        pending.update(state.get("pending", ()))
    merged["pending"] = sorted(pending)
    return merged


def resolve_pool(peer_count: int, max_workers: Optional[int], shards: Optional[int]) -> tuple[int, int]:
    """The ``(workers, shard_count)`` a runtime resolves its defaults to.

    Shared with :class:`~repro.distributed.runtime.driver.WorkloadDriver`
    so reported shard counts can never drift from the runtime's own.
    """
    workers = max(1, max_workers if max_workers is not None else min(8, peer_count))
    shard_count = max(1, shards if shards is not None else min(peer_count, workers))
    return workers, shard_count


@dataclass
class RuntimeStats:
    """Totals accumulated by one runtime across validation rounds."""

    rounds: int = 0
    validations_run: int = 0
    validations_skipped: int = 0
    fingerprints_computed: int = 0
    publications: int = 0
    clean_publications: int = 0
    streamed_publications: int = 0
    wall_seconds: float = 0.0

    def snapshot(self) -> dict:
        return {
            "rounds": self.rounds,
            "validations_run": self.validations_run,
            "validations_skipped": self.validations_skipped,
            "fingerprints_computed": self.fingerprints_computed,
            "publications": self.publications,
            "clean_publications": self.clean_publications,
            "streamed_publications": self.streamed_publications,
            "wall_seconds": self.wall_seconds,
        }


@dataclass(frozen=True)
class RuntimeReport(ValidationReport):
    """A :class:`ValidationReport` plus the runtime's incremental accounting."""

    peers_validated: int = 0
    peers_skipped: int = 0
    wall_seconds: float = 0.0
    #: Functions whose queued wire publication failed to parse this round.
    #: The network service maps these to typed ``invalid-xml`` error frames;
    #: the verdict accounting is unchanged (a malformed publication is an
    #: invalid publication, ack ``False``).
    parse_failures: tuple[str, ...] = ()

    def __str__(self) -> str:
        base = super().__str__()
        return f"{base} validated={self.peers_validated} skipped={self.peers_skipped}"


@dataclass(frozen=True)
class _PeerOutcome:
    """What one shard task reports back for one peer."""

    function: str
    fingerprint: str
    ack: bool
    validated: bool
    fingerprinted: bool
    malformed: bool = False


@dataclass(frozen=True)
class StreamPublishReport:
    """The settled outcome of one streamed publication."""

    function: str
    fingerprint: str
    clean: bool
    valid: bool
    malformed: bool = False
    payload_bytes: int = 0
    max_depth: int = 0
    events: int = 0

    def __str__(self) -> str:
        state = "clean" if self.clean else ("malformed" if self.malformed else "validated")
        return f"stream-publish {self.function}: {state} valid={self.valid}"


class StreamIngest:
    """One in-flight streamed publication: digest + validate in a single pass.

    Created by :meth:`ValidationRuntime.begin_stream`.  Every chunk fed is
    simultaneously hashed (the same content address
    :meth:`ValidationRuntime.publish` computes over whole payloads) and
    pushed through the peer's streaming validator -- no :class:`Tree` is
    ever materialised and no contiguous payload buffer exists anywhere.
    :meth:`finish` settles the publication against the runtime's
    incremental state: a byte-identical re-publication is reported clean
    (the cached acknowledgement stands), anything else records its fresh
    verdict immediately -- a streamed publication never waits for a
    validation round.

    Not safe to drive concurrently with other runtime mutations; callers
    (the service) serialise settlement exactly like ``publish`` rounds.
    """

    __slots__ = (
        "_runtime",
        "function",
        "_validator",
        "_hasher",
        "_run",
        "_malformed",
        "_payload_bytes",
        "_finished",
    )

    def __init__(self, runtime: "ValidationRuntime", function: str) -> None:
        if function not in runtime.document.resources:
            raise DesignError(f"no resource peer serves function {function!r}")
        peer = runtime.document.resources[function]
        if peer.validator is None:
            raise DesignError(f"no local type propagated to {function!r}")
        self._runtime = runtime
        self.function = function
        #: Pinned at begin time: the verdict is recorded against the
        #: validator the bytes actually streamed through, even if a typing
        #: re-propagation races the stream.
        self._validator = peer.validator
        self._hasher = payload_hasher()
        self._run = streaming_validator_for(peer.validator.compiled).run()
        self._malformed = False
        self._payload_bytes = 0
        self._finished = False

    def abort(self) -> None:
        """Discard the stream without settling anything.

        What a severed connection or an idle-stream reaper calls: the
        runtime never learns the stream existed (no stats, no acks, no
        document update), and the run drops its parser, so an abandoned
        stream leaves no parser/run reference cycle for the garbage
        collector.  A chunk still feeding on another thread stops at the
        next element.  Idempotent, and safe to call after :meth:`finish`.
        """
        self._finished = True
        self._run.abort()

    def feed(self, chunk: str | bytes) -> None:
        """Hash and validate one chunk (malformed input flips to hash-only).

        A ``str`` chunk is hashed as its UTF-8 encoding and parsed as the
        characters it is.
        """
        if self._finished:
            raise DesignError("this streamed publication is already settled")
        data = chunk.encode("utf-8") if isinstance(chunk, str) else chunk
        self._hasher.update(data)
        self._payload_bytes += len(data)
        if not self._malformed:
            try:
                self._run.feed(chunk)
            except InvalidXMLError:
                # Keep hashing (the content address must cover the whole
                # payload so re-publishing the same bad bytes clean-skips);
                # the run has already dropped its parser.
                self._malformed = True

    def finish(self) -> StreamPublishReport:
        """Settle the publication: clean skip, fresh verdict, or malformed.

        Settlement mutates the runtime's incremental state, so it runs
        under the runtime's state lock -- concurrent streams *feed* fully
        in parallel (the heavy DFA stepping touches only this object) and
        serialise only for this final, cheap bookkeeping step.
        """
        if self._finished:
            raise DesignError("this streamed publication is already settled")
        with self._runtime._state_lock:
            return self._finish_locked()

    def _finish_locked(self) -> StreamPublishReport:
        self._finished = True
        runtime = self._runtime
        function = self.function
        peer = runtime.document.resources[function]
        fingerprint = "wire:" + payload_hexdigest(self._hasher)
        runtime.stats.publications += 1
        runtime.stats.streamed_publications += 1
        runtime.stats.fingerprints_computed += 1
        run = self._run
        malformed = self._malformed
        ack = False
        # Finish on every path, a clean one included: finishing drops the
        # run's parser and with it the parser/run reference cycle.
        if not malformed:
            try:
                ack = run.finish()
            except InvalidXMLError:
                malformed = True
        if (
            function in runtime._acks
            and function not in runtime._pending_payloads
            and runtime._current_fp[function] == fingerprint
            and runtime._validated_fp.get(function) == fingerprint
            and peer.document is runtime._fp_document.get(function)
            and peer.validator is runtime._ack_validator.get(function)
        ):
            runtime.stats.clean_publications += 1
            return StreamPublishReport(
                function,
                fingerprint,
                clean=True,
                valid=runtime._acks[function],
                payload_bytes=self._payload_bytes,
                max_depth=run.max_depth,
                events=run.events,
            )
        validator = self._validator
        if malformed:
            # An unparseable publication is an invalid one; the peer keeps
            # whatever it held before, like the whole-frame wire path.
            validator = peer.validator
            runtime._malformed_latest.add(function)
        else:
            peer.update_document(PublicationRecord(fingerprint, ack, validator, self._payload_bytes))
            runtime._malformed_latest.discard(function)
        # A streamed publication supersedes any queued whole-payload one.
        runtime._pending_payloads.pop(function, None)
        runtime._current_fp[function] = fingerprint
        runtime._validated_fp[function] = fingerprint
        runtime._acks[function] = ack
        runtime._fp_document[function] = peer.document
        runtime._ack_validator[function] = validator
        runtime.stats.validations_run += 1
        coordinator = runtime.document.coordinator.name
        runtime.network.send_control(coordinator, peer.name, "validate-request", function)
        runtime.network.send_control(peer.name, coordinator, "validate-result", str(ack))
        return StreamPublishReport(
            function,
            fingerprint,
            clean=False,
            valid=ack,
            malformed=malformed,
            payload_bytes=self._payload_bytes,
            max_depth=run.max_depth,
            events=run.events,
        )


class ValidationRuntime:
    """Concurrent, incremental local validation over a distributed document.

    Parameters
    ----------
    document:
        The :class:`DistributedDocument` whose peers this runtime drives.
        The runtime shares the document's network (all traffic lands in one
        ledger) but *not* its engine: each shard compiles on its own.
    max_workers:
        Thread-pool size (default: ``min(8, peer count)``).
    shards:
        Number of shards (default: ``min(peer count, max_workers)`` -- one
        task per worker, which keeps dispatch overhead proportional to the
        pool, not to the peer count).
    backend:
        ``"thread"`` (default) or ``"serial"`` (inline execution, used by
        the differential tests).

    Every peer validates through one :class:`CompiledSchema
    <repro.engine.batch.CompiledSchema>` per local type: ``publish`` folds
    the parsed payload, ``publish_stream`` steps the same label states
    from its expat callbacks, chunk by chunk, in O(depth) memory.
    """

    def __init__(
        self,
        document: DistributedDocument,
        max_workers: Optional[int] = None,
        shards: Optional[int] = None,
        backend: str = "thread",
        logger=None,
    ) -> None:
        self.document = document
        self.network = document.network
        #: Optional :class:`repro.observability.LogRecorder`.  Trace ids
        #: ride with publications (``_pending_traces``), so the shard task
        #: that eventually validates a payload can stamp its settle event
        #: with the publication's trace even when the validation round
        #: runs later, from another thread.
        self.logger = logger
        functions = tuple(document.resources)
        peer_count = max(1, len(functions))
        workers, shard_count = resolve_pool(peer_count, max_workers, shards)
        self.shard_map = ShardMap.over(functions, shard_count)
        self.scheduler = ShardScheduler(self.shard_map, max_workers=workers, backend=backend)
        self.stats = RuntimeStats()
        #: Serialises every mutation of (and consistent read over) the
        #: incremental state below.  Reentrant so a validation round may
        #: call ``propagate_typing`` while already holding it.  The lock
        #: is what lets many streamed publications settle from different
        #: executor threads without the service's global asyncio lock.
        self._state_lock = threading.RLock()
        #: function -> fingerprint of the current (possibly unvalidated)
        #: document; ``None`` means the content changed and has not been
        #: fingerprinted yet (it is re-fingerprinted inside the shard task).
        self._current_fp: dict[str, Optional[str]] = {function: None for function in functions}
        #: function -> fingerprint the cached ack was computed for.
        self._validated_fp: dict[str, str] = {}
        #: function -> cached acknowledgement of the last validation.
        self._acks: dict[str, bool] = {}
        #: function -> (wire digest, raw payload) awaiting validation; the
        #: digest is ``None`` for a registration seed (see :meth:`seed`).
        self._pending_payloads: dict[str, tuple[Optional[str], str | bytes]] = {}
        #: function -> trace id of the publication that queued the pending
        #: payload (drained alongside ``_pending_payloads`` by the round).
        self._pending_traces: dict[str, str] = {}
        #: Functions whose latest publication did not parse.  Such a peer
        #: keeps its previous document, but it answers ``False`` under
        #: every typing (no re-validation) until it publishes again.
        self._malformed_latest: set[str] = set()
        #: function -> the Tree object the current fingerprint was computed
        #: for.  A fingerprint is only trusted while the peer still holds
        #: that exact object, so updates applied behind the runtime's back
        #: (``document.update_resource`` / ``peer.update_document``) are
        #: detected and re-fingerprinted instead of reusing a stale ack.
        self._fp_document: dict[str, object] = {}
        #: function -> the validator object the cached ack was computed
        #: with.  An ack is only trusted while the peer still holds that
        #: validator, so re-propagating a typing behind the runtime's back
        #: (``document.propagate_typing``) forces revalidation.
        self._ack_validator: dict[str, object] = {}
        #: Incremented on every typing propagation.  Federation pods stamp
        #: their exported verdicts with it so the directory can fence acks
        #: computed against a superseded typing.
        self.typing_version = 0

    # ------------------------------------------------------------------ #
    # typing propagation (serial compilation, one engine)
    # ------------------------------------------------------------------ #

    def propagate_typing(self, typing: TreeTyping) -> None:
        """Install a typing: compile every local type, then hand it to its peer.

        Compilation is Python under the GIL, so the shard pool would only
        add dispatch and split the compilation memo across engines: every
        local type compiles in the calling thread on the first shard's
        engine (which :meth:`engine_stats` counts with the others), and
        the shards validate with the compiled validators.  Every cached
        acknowledgement is invalidated -- an ack is only meaningful
        against the type it was computed for.
        """
        with self._state_lock:
            self._propagate_typing_locked(typing)

    def _propagate_typing_locked(self, typing: TreeTyping) -> None:
        missing = [f for f in self.document.resources if f not in typing]
        if missing:
            raise DesignError(f"the typing has no component for {missing[0]!r}")

        engine = self.scheduler.engines[0]
        with use_engine(engine):
            validators = {
                function: BatchValidator(typing[function], engine=engine)
                for function in self.document.resources
            }
        for function, validator in validators.items():
            peer = self.document.resources[function]
            peer.assign_type(typing[function], validator)
            self.network.send_control(
                self.document.coordinator.name,
                peer.name,
                "propagate-type",
                f"local type for {function}",
                extra_bytes=typing[function].size,
            )
        self._acks.clear()
        self._validated_fp.clear()
        self._ack_validator.clear()
        self.typing_version += 1

    # ------------------------------------------------------------------ #
    # document updates (content-addressed dirtiness)
    # ------------------------------------------------------------------ #

    def update_document(self, function: str, document) -> None:
        """A peer publishes a new document version.

        The content is fingerprinted lazily (inside the next validation
        round's shard task, off the coordinator); a re-publication of equal
        content is detected there and skipped.
        """
        if function not in self.document.resources:
            raise DesignError(f"no resource peer serves function {function!r}")
        with self._state_lock:
            self.document.resources[function].update_document(document)
            self._pending_payloads.pop(function, None)
            self._pending_traces.pop(function, None)
            self._malformed_latest.discard(function)
            self._current_fp[function] = None

    def publish(self, function: str, payload: str | bytes, trace_id: Optional[str] = None) -> bool:
        """A peer publishes its document as serialised XML (the wire format).

        The payload is content-addressed *before* any parsing: when the
        digest matches the bytes the peer's cached acknowledgement was
        computed for, the publication is dropped on the spot -- one native
        hash, no parse, no validation, no dispatch.  Otherwise the payload
        is queued; the next :meth:`validate_locally` round validates it
        from its bytes inside the peer's shard task (no ``Tree`` is
        built) and the peer holds a
        :class:`~repro.distributed.peer.PublicationRecord` retaining them.
        A payload that fails to parse counts as an invalid publication:
        the peer acknowledges ``False`` and keeps its previous document,
        and it keeps answering ``False``, under any typing, until it
        publishes again.  A ``str`` payload is parsed as the characters it
        is and addressed by its UTF-8 encoding.

        Returns ``True`` when the publication was clean (dropped unparsed).
        """
        if function not in self.document.resources:
            raise DesignError(f"no resource peer serves function {function!r}")
        fingerprint = "wire:" + payload_fingerprint(payload)
        with self._state_lock:
            self.stats.publications += 1
            if (
                function in self._acks
                and function not in self._pending_payloads
                and self._current_fp[function] == fingerprint
                and self._validated_fp.get(function) == fingerprint
                and self.document.resources[function].document is self._fp_document.get(function)
                and self.document.resources[function].validator is self._ack_validator.get(function)
            ):
                self.stats.clean_publications += 1
                if self.logger is not None:
                    self.logger.log_flat(
                        "debug", "runtime.publish", trace_id, "function", function, "clean", True
                    )
                return True
            self._pending_payloads[function] = (fingerprint, payload)
            if trace_id is not None:
                self._pending_traces[function] = trace_id
            self._current_fp[function] = None
        if self.logger is not None:
            self.logger.log_flat(
                "info", "runtime.publish", trace_id,
                "function", function, "clean", False, "bytes", len(payload),
            )
        return False

    def seed(self, function: str, text: str | bytes) -> None:
        """Queue a peer's registration document, given as its text.

        The next :meth:`validate_locally` round validates it inside the
        peer's shard task through the same bytes path a :meth:`publish`
        takes: one C-parser pass, whose elements give both the verdict and
        the peer's ``tree:`` fingerprint -- the address a
        :class:`~repro.trees.document.Tree` of equal content gets, so a
        wire re-publication of the same document is still new content.
        No ``Tree`` is built; the peer then holds a
        :class:`~repro.distributed.peer.PublicationRecord` keeping the
        text, from which a later typing change re-validates.  A seed that
        fails to parse is reported in the round's ``parse_failures``.
        """
        if function not in self.document.resources:
            raise DesignError(f"no resource peer serves function {function!r}")
        with self._state_lock:
            self._pending_payloads[function] = (None, text)
            self._pending_traces.pop(function, None)
            self._current_fp[function] = None

    def begin_stream(self, function: str) -> StreamIngest:
        """Start a streamed publication for one peer (digest + validate, one pass).

        The returned :class:`StreamIngest` accepts payload chunks of any
        size through ``feed`` and settles on ``finish`` -- no ``Tree`` is
        materialised, working memory stays O(document depth), and the
        verdict is available immediately (no validation round needed).
        The peer afterwards holds a content-addressed
        :class:`~repro.distributed.peer.PublicationRecord` without payload
        bytes; re-validating it after a typing change requires
        re-publishing (the bytes were deliberately not retained).
        """
        return StreamIngest(self, function)

    def publish_stream(
        self, function: str, payload, chunk_bytes: int = 65536
    ) -> StreamPublishReport:
        """Publish serialised XML through the streaming path in one call.

        ``payload`` may be ``bytes``/``str`` (sliced into bounded chunks
        internally) or any iterable of chunks -- what the wire service
        feeds frame by frame.
        """
        ingest = self.begin_stream(function)
        chunks = (
            iter_chunks(payload, chunk_bytes) if isinstance(payload, (bytes, str)) else payload
        )
        for chunk in chunks:
            ingest.feed(chunk)
        return ingest.finish()

    def settle_stream(
        self, ingest: StreamIngest, trace_id: Optional[str] = None
    ) -> tuple[StreamPublishReport, Optional[bool]]:
        """Settle a streamed publication and read the global verdict atomically.

        What the service calls when a chunked stream ends: the settlement
        and the verdict read happen under one acquisition of the state
        lock, so a concurrent batch round or another stream cannot tear
        the pair.
        """
        started = time.perf_counter()
        with self._state_lock:
            report = ingest.finish()
            verdict = self.current_verdict()
        if self.logger is not None:
            self.logger.log_flat(
                "warning" if report.malformed else "info", "stream.settle", trace_id,
                "function", report.function, "peer_valid", report.valid, "bytes", report.payload_bytes,
                "malformed", report.malformed,
                "ms", round(1000 * (time.perf_counter() - started), 3),
            )
        return report, verdict

    def dirty_peers(self) -> tuple[str, ...]:
        """Peers whose next validation round cannot reuse a cached ack.

        Peers with un-fingerprinted content are reported dirty even though
        the fingerprint may later prove them clean -- this is the
        conservative pre-round view.
        """
        with self._state_lock:
            return tuple(
                function
                for function, peer in self.document.resources.items()
                if function not in self._acks
                or self._current_fp[function] is None
                or peer.document is not self._fp_document.get(function)
                or peer.validator is not self._ack_validator.get(function)
                or self._current_fp[function] != self._validated_fp.get(function)
            )

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def validate_locally(
        self,
        typing: Optional[TreeTyping] = None,
        typing_is_local: bool = True,
        force: bool = False,
    ) -> RuntimeReport:
        """Validate every peer's document in parallel, incrementally.

        Matches the serial
        :meth:`~repro.distributed.network.DistributedDocument.validate_locally`
        verdict-for-verdict; ``force=True`` revalidates every peer even when
        its cached ack is still good (what the first round does anyway).
        """
        with self._state_lock:
            return self._validate_locally_locked(typing, typing_is_local, force)

    def _validate_locally_locked(
        self,
        typing: Optional[TreeTyping],
        typing_is_local: bool,
        force: bool,
    ) -> RuntimeReport:
        started = time.perf_counter()
        before_messages, before_bytes = self.network.snapshot()
        if typing is not None:
            self.propagate_typing(typing)

        # Peers that need any work this round: an unknown fingerprint (the
        # content changed, was re-published, or was swapped behind the
        # runtime's back -- the fingerprint is only trusted while the peer
        # still holds the object it was computed for), a missing ack, or a
        # forced run.  Shards whose members are all clean are not dispatched.
        payloads, self._pending_payloads = self._pending_payloads, {}
        traces, self._pending_traces = self._pending_traces, {}
        attention = {
            function
            for function, peer in self.document.resources.items()
            if force
            or self._current_fp[function] is None
            or function not in self._acks
            or peer.document is not self._fp_document.get(function)
            or peer.validator is not self._ack_validator.get(function)
        }
        pending_shards = [
            shard
            for shard in self.shard_map.shards()
            if any(function in attention for function in self.shard_map.members(shard))
        ]

        def run_shard(shard: int, engine: CompilationEngine) -> list[_PeerOutcome]:
            shard_started = time.perf_counter()
            outcomes = []
            for function in self.shard_map.members(shard):
                if function not in attention:
                    continue
                peer = self.document.resources[function]
                pending = payloads.get(function)
                if pending is not None:
                    # Validate the queued publication or seed from its
                    # text here, off the coordinator; the peer holds its
                    # record.
                    fingerprint, payload = pending
                    try:
                        fingerprint, ack = peer.publish_payload(fingerprint, payload)
                    except InvalidXMLError:
                        # Malformed XML: an invalid publication.  The peer's
                        # previous document is kept; re-publishing the same
                        # bytes is clean-skipped like any other content.
                        outcomes.append(
                            _PeerOutcome(
                                function, fingerprint or _NO_DOCUMENT, False, True, True,
                                malformed=True,
                            )
                        )
                        continue
                    outcomes.append(_PeerOutcome(function, fingerprint, ack, True, True))
                    continue
                if (
                    function in self._malformed_latest
                    and peer.document is self._fp_document.get(function)
                ):
                    # The latest publication did not parse: it stays
                    # invalid, whatever the typing -- the kept previous
                    # document is not what the peer last published.
                    outcomes.append(
                        _PeerOutcome(function, self._current_fp[function], False, True, False)
                    )
                    continue
                fingerprint = self._current_fp[function]
                fingerprinted = (
                    fingerprint is None or peer.document is not self._fp_document.get(function)
                )
                if fingerprinted:
                    fingerprint = (
                        "tree:" + tree_fingerprint(peer.document)
                        if peer.document is not None
                        else _NO_DOCUMENT
                    )
                stale = (
                    force
                    or function not in self._acks
                    or fingerprint != self._validated_fp.get(function)
                    or peer.validator is not self._ack_validator.get(function)
                )
                ack = peer.validate_locally() if stale else self._acks[function]
                outcomes.append(_PeerOutcome(function, fingerprint, ack, stale, fingerprinted))
            if self.logger is not None and traces:
                shard_ms = round(1000 * (time.perf_counter() - shard_started), 3)
                for outcome in outcomes:
                    trace_id = traces.get(outcome.function)
                    if trace_id:
                        self.logger.log_flat(
                            "info", "shard.settle", trace_id,
                            "shard", shard, "function", outcome.function,
                            "ack", outcome.ack, "validated", outcome.validated,
                            "ms", shard_ms,
                        )
            return outcomes

        validated = skipped = fingerprinted = 0
        valid = True
        coordinator = self.document.coordinator.name
        handled: set[str] = set()
        parse_failures: list[str] = []
        try:
            shard_outcomes = self.scheduler.map_shards(run_shard, pending_shards)
        except BaseException:
            # A failed round must not swallow queued publications: re-queue
            # whatever this round took (newer publishes, if any, win).
            self._pending_payloads = {**payloads, **self._pending_payloads}
            self._pending_traces = {**traces, **self._pending_traces}
            raise
        for outcomes in shard_outcomes:
            for outcome in outcomes:
                handled.add(outcome.function)
                if outcome.malformed:
                    parse_failures.append(outcome.function)
                    self._malformed_latest.add(outcome.function)
                elif outcome.function in payloads or outcome.fingerprinted:
                    # A new publication parsed, or the document changed
                    # behind the runtime's back: the malformed one is past.
                    self._malformed_latest.discard(outcome.function)
                self._current_fp[outcome.function] = outcome.fingerprint
                self._fp_document[outcome.function] = self.document.resources[
                    outcome.function
                ].document
                fingerprinted += outcome.fingerprinted
                if outcome.validated:
                    validated += 1
                    peer_name = self.document.resources[outcome.function].name
                    self.network.send_control(
                        coordinator, peer_name, "validate-request", outcome.function
                    )
                    self.network.send_control(
                        peer_name, coordinator, "validate-result", str(outcome.ack)
                    )
                    self._acks[outcome.function] = outcome.ack
                    self._validated_fp[outcome.function] = outcome.fingerprint
                    self._ack_validator[outcome.function] = self.document.resources[
                        outcome.function
                    ].validator
                else:
                    skipped += 1
                valid = valid and outcome.ack
        # Peers not dispatched at all reuse their cached acknowledgements.
        for function in self.document.resources:
            if function not in handled:
                skipped += 1
                valid = valid and self._acks[function]

        after_messages, after_bytes = self.network.snapshot()
        elapsed = time.perf_counter() - started
        self.stats.rounds += 1
        self.stats.validations_run += validated
        self.stats.validations_skipped += skipped
        self.stats.fingerprints_computed += fingerprinted
        self.stats.wall_seconds += elapsed
        guarantee = (
            "sound & complete: local success is equivalent to global validity"
            if typing_is_local
            else "sound: local success implies global validity"
        )
        return RuntimeReport(
            strategy="local-parallel",
            valid=valid,
            messages=after_messages - before_messages,
            bytes_shipped=after_bytes - before_bytes,
            guarantee=guarantee,
            peers_validated=validated,
            peers_skipped=skipped,
            wall_seconds=elapsed,
            parse_failures=tuple(sorted(parse_failures)),
        )

    # ------------------------------------------------------------------ #
    # cached-verdict views (what the network service reports per request)
    # ------------------------------------------------------------------ #

    def peer_acks(self) -> dict[str, bool]:
        """The cached per-peer acknowledgements (function -> last verdict)."""
        with self._state_lock:
            return dict(self._acks)

    def current_verdict(self) -> Optional[bool]:
        """The global verdict derivable from cached acks alone, if any.

        ``None`` when some peer has no cached acknowledgement or has
        pending/unfingerprinted content -- callers must run a
        :meth:`validate_locally` round to get a verdict.  When every peer
        is clean this answers without dispatching anything, which is what
        lets the service acknowledge byte-identical re-publications at
        hashing speed.
        """
        with self._state_lock:
            if self.dirty_peers():
                return None
            return all(self._acks[function] for function in self.document.resources)

    def export_state(self) -> dict:
        """The runtime's observable validation state, as plain JSON data.

        Covers the per-peer content fingerprints (which address the
        documents themselves), the cached acknowledgements and the
        fingerprints they were computed for, and the set of queued wire
        publications.  Because every fingerprint is content-addressed
        (``tree:`` over the document structure, ``wire:`` over payload
        bytes), exports are comparable across processes: a federation
        merges per-pod exports with :func:`merge_states` and digests the
        union with :func:`state_digest_of` to compare against a
        single-process runtime.
        """
        with self._state_lock:
            return {
                "acks": dict(self._acks),
                "validated_fp": dict(self._validated_fp),
                "current_fp": dict(self._current_fp),
                "pending": sorted(self._pending_payloads),
            }

    def state_digest(self) -> str:
        """A content address over the runtime's observable validation state.

        Two runtimes that answer every future request identically digest
        identically -- what the crash-mid-stream tests compare: a
        connection severed before ``publish_stream_end`` must leave this
        digest byte-identical to a run where the stream never began.
        """
        return state_digest_of(self.export_state())

    # ------------------------------------------------------------------ #
    # statistics and lifecycle
    # ------------------------------------------------------------------ #

    def engine_stats(self) -> dict:
        """Aggregated cache counters across the shard engines."""
        return self.scheduler.engine_stats()

    def describe(self) -> str:
        lines = [
            f"validation runtime over {len(self.shard_map)} peer(s), "
            f"{self.shard_map.shard_count} shard(s), "
            f"{self.scheduler.max_workers} worker(s) [{self.scheduler.backend}]"
        ]
        lines.extend("  " + line for line in self.shard_map.describe().splitlines()[1:])
        return "\n".join(lines)

    def close(self) -> None:
        self.scheduler.close()

    def __enter__(self) -> "ValidationRuntime":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()
