"""The sharded, incremental validation runtime.

:class:`ValidationRuntime` layers three things on top of the serial
:class:`~repro.distributed.network.DistributedDocument` simulation:

* **Sharded local validation** -- peers are partitioned into shards
  (:mod:`~repro.distributed.runtime.sharding`); a round runs one task per
  shard holding dirty peers, in the thread that settles the round
  (:mod:`~repro.distributed.runtime.scheduler`), on the runtime's one
  compilation engine.  Each check holds the GIL throughout, so a thread
  pool would run none of them at once.  A shard task settles each of its
  dirty peers in place, and the round's verdict is the conjunction of the
  acks after it.  A round that raises keeps what it settled before the
  failure; every publication it had not settled stays queued.
* **One settle step** -- every validation the runtime records (a queued
  publication or seed, a malformed latest publication, a ``Tree``
  document, a streamed publication) goes through ``_record``.
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
  validated from its bytes inside the shard task
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
  :class:`~repro.streaming.machine.StreamingRun`, which folds the C
  parser's elements into the schema's label states slice by slice and
  deletes them -- one pass, so working memory is O(document depth) plus
  one parser slice and the verdict settles at ingest time (no validation
  round).  The peer's
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
from repro.distributed.network import LOCAL_GUARANTEE, DistributedDocument, ValidationReport
from repro.distributed.peer import PublicationRecord
from repro.distributed.runtime.scheduler import ShardScheduler
from repro.distributed.runtime.sharding import ShardMap, resolve_shards
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
        "payload_bytes",
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
        #: Bytes hashed so far (a ``str`` chunk counts its UTF-8 bytes).
        self.payload_bytes = 0
        self._finished = False

    def abort(self) -> None:
        """Discard the stream without settling anything.

        What a severed connection or an idle-stream reaper calls: the
        runtime never learns the stream existed (no stats, no acks, no
        document update), and the run drops its parser.  A chunk still
        feeding on another thread stops before its next parser slice.
        Idempotent, and safe to call after :meth:`finish`.
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
        self.payload_bytes += len(data)
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

        A byte-identical re-publication passes the same clean check a
        whole-frame ``publish`` makes and reports the cached ack.
        Otherwise the verdict is recorded through the runtime's one
        settle step, like a round's: against the validator pinned at
        begin, or, for a malformed publication, as ``False`` against the
        peer's current one while the peer keeps its previous document.
        A queued whole-frame publication of the peer is superseded.

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
        fingerprint = "wire:" + payload_hexdigest(self._hasher)
        runtime.stats.publications += 1
        runtime.stats.streamed_publications += 1
        runtime.stats.fingerprints_computed += 1
        run = self._run
        malformed = self._malformed
        ack = False
        # Finish on every path, a clean one included: the report's
        # max_depth and events are exact only once the run is finished.
        if not malformed:
            try:
                ack = run.finish()
            except InvalidXMLError:
                malformed = True
        peer = runtime.document.resources[function]
        clean = runtime._clean(function, fingerprint)
        if clean:
            runtime.stats.clean_publications += 1
            ack = runtime._acks[function]
            # A clean skip of a malformed latest publication is one.
            malformed = function in runtime._malformed_latest
        elif malformed:
            # An unparseable publication is an invalid one; the peer keeps
            # whatever it held before, like the whole-frame wire path.
            runtime._record(function, fingerprint, False, peer.validator, True)
        else:
            peer.update_document(PublicationRecord(fingerprint, ack, self._validator, self.payload_bytes))
            runtime._record(function, fingerprint, ack, self._validator, False)
        return StreamPublishReport(
            function,
            fingerprint,
            clean=clean,
            valid=ack,
            malformed=malformed,
            payload_bytes=self.payload_bytes,
            max_depth=run.max_depth,
            events=run.events,
        )


class ValidationRuntime:
    """Sharded, incremental local validation over a distributed document.

    Parameters
    ----------
    document:
        The :class:`DistributedDocument` whose peers this runtime drives.
        The runtime shares the document's network (all traffic lands in one
        ledger) but *not* its engine: the runtime compiles on its own, so
        its compile memo lives exactly as long as the runtime.
    shards:
        Number of shards (default: ``min(peer count, 4)``).  A runtime
        starts no thread: every shard task runs in the caller's thread.

    Every peer validates through one :class:`CompiledSchema
    <repro.engine.batch.CompiledSchema>` per local type: ``publish`` folds
    the parsed payload, ``publish_stream`` steps the same label states
    over the parser's elements slice by slice, in O(depth) memory.
    """

    def __init__(
        self,
        document: DistributedDocument,
        shards: Optional[int] = None,
        logger=None,
    ) -> None:
        self.document = document
        self.network = document.network
        #: Optional :class:`repro.observability.LogRecorder`.  Trace ids
        #: ride with queued publications (``_pending_payloads``), so the
        #: shard task that eventually validates a payload can stamp its
        #: settle event with the publication's trace even when the
        #: validation round runs later.
        self.logger = logger
        functions = tuple(document.resources)
        self.shard_map = ShardMap.over(functions, resolve_shards(len(functions), shards))
        #: Every typing compiles and every shard task runs on this engine.
        self.engine = CompilationEngine()
        self.scheduler = ShardScheduler(self.shard_map, self.engine)
        self.stats = RuntimeStats()
        #: Serialises every mutation of (and consistent read over) the
        #: incremental state below.  Reentrant so a validation round may
        #: call ``propagate_typing`` while already holding it.  The lock
        #: is what lets a streamed publication settle without the
        #: service's global asyncio lock.
        self._state_lock = threading.RLock()
        #: function -> fingerprint of the current (possibly unvalidated)
        #: document; ``None`` means the content changed and has not been
        #: fingerprinted yet (it is re-fingerprinted inside the shard task).
        self._current_fp: dict[str, Optional[str]] = {function: None for function in functions}
        #: function -> fingerprint the cached ack was computed for.
        self._validated_fp: dict[str, str] = {}
        #: function -> cached acknowledgement of the last validation.
        self._acks: dict[str, bool] = {}
        #: function -> (wire digest, raw payload, trace id) awaiting
        #: validation; the digest is ``None`` for a registration seed (see
        #: :meth:`seed`).  An entry leaves only once its peer is settled.
        self._pending_payloads: dict[str, tuple[Optional[str], str | bytes, Optional[str]]] = {}
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

        Every local type compiles on the runtime's engine.  Rules compile
        over their own symbols and are memoized by content, so the peers
        of a typing share one compiled automaton per distinct rule, and a
        later typing on this runtime compiles only the rules it changed.
        The memo lives as long as the runtime.  Every cached
        acknowledgement is invalidated -- an ack is only meaningful
        against the type it was computed for.
        """
        with self._state_lock:
            self._propagate_typing_locked(typing)

    def _propagate_typing_locked(self, typing: TreeTyping) -> None:
        missing = [f for f in self.document.resources if f not in typing]
        if missing:
            raise DesignError(f"the typing has no component for {missing[0]!r}")

        with use_engine(self.engine):
            validators = {
                function: BatchValidator(typing[function], engine=self.engine)
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
        round's shard task); a re-publication of equal content is detected
        there and skipped.
        """
        if function not in self.document.resources:
            raise DesignError(f"no resource peer serves function {function!r}")
        with self._state_lock:
            self.document.resources[function].update_document(document)
            self._pending_payloads.pop(function, None)
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
        publishes again; re-publishing the same bytes is clean, and
        :meth:`is_malformed` still reports it.  A ``str`` payload is parsed
        as the characters it is and addressed by its UTF-8 encoding.

        Returns ``True`` when the publication was clean (dropped unparsed).
        """
        if function not in self.document.resources:
            raise DesignError(f"no resource peer serves function {function!r}")
        fingerprint = "wire:" + payload_fingerprint(payload)
        with self._state_lock:
            self.stats.publications += 1
            if self._clean(function, fingerprint):
                self.stats.clean_publications += 1
                if self.logger is not None:
                    self.logger.log_flat(
                        "debug", "runtime.publish", trace_id, "function", function, "clean", True
                    )
                return True
            self._pending_payloads[function] = (fingerprint, payload, trace_id)
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
            self._pending_payloads[function] = (None, text, None)
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
        (:meth:`StreamIngest.finish`, which records a fresh verdict
        through the same settle step a validation round uses) and the
        verdict read happen under one acquisition of the state lock, so a
        concurrent batch round or another stream cannot tear the pair.
        The verdict is ``None`` while another peer is dirty.
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

    def is_malformed(self, function: str) -> bool:
        """Did the peer's latest publication fail to parse?"""
        with self._state_lock:
            return function in self._malformed_latest

    def dirty_peers(self) -> tuple[str, ...]:
        """Peers whose next validation round cannot reuse a cached ack.

        Peers with un-fingerprinted content are reported dirty even though
        the fingerprint may later prove them clean -- this is the
        conservative pre-round view.  The rule is :meth:`_clean`'s, in one
        inline pass over every peer: the service reads it once per settled
        segment.
        """
        with self._state_lock:
            current_fp, validated_fp = self._current_fp, self._validated_fp
            fp_document, ack_validator = self._fp_document, self._ack_validator
            return tuple(
                function
                for function, peer in self.document.resources.items()
                if current_fp[function] is None
                or current_fp[function] != validated_fp.get(function)
                or peer.document is not fp_document.get(function)
                or peer.validator is not ack_validator.get(function)
            )

    def _clean(self, function: str, fingerprint: str) -> bool:
        """Does the peer's cached ack stand for the content ``fingerprint``?

        It does while the peer's current content has that fingerprint, the
        ack was computed for it, and the peer still holds the document and
        the validator the ack was computed with.  A queued publication
        leaves the current fingerprint unknown, so its peer is never clean.
        """
        peer = self.document.resources[function]
        return (
            self._current_fp[function] == fingerprint == self._validated_fp.get(function)
            and peer.document is self._fp_document.get(function)
            and peer.validator is self._ack_validator.get(function)
        )

    def _record(self, function: str, fingerprint: str, ack: bool, validator, malformed: bool) -> None:
        """Record one validation of a peer: the runtime's one settle step.

        The cached ack now stands for ``fingerprint``, for the document the
        peer holds and for ``validator``, and the peer's queued publication,
        if any, is settled or superseded.  ``malformed`` marks a latest
        publication that did not parse, which keeps the peer ``False``
        under every typing until it publishes again; any other validation
        ends that state.  The coordinator's request and the peer's result
        go out as two control messages.
        """
        peer = self.document.resources[function]
        self._pending_payloads.pop(function, None)
        self._current_fp[function] = self._validated_fp[function] = fingerprint
        self._acks[function] = ack
        self._fp_document[function] = peer.document
        self._ack_validator[function] = validator
        if malformed:
            self._malformed_latest.add(function)
        else:
            self._malformed_latest.discard(function)
        self.stats.validations_run += 1
        coordinator = self.document.coordinator.name
        self.network.send_control(coordinator, peer.name, "validate-request", function)
        self.network.send_control(peer.name, coordinator, "validate-result", str(ack))

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def validate_locally(self, typing: Optional[TreeTyping] = None, force: bool = False) -> RuntimeReport:
        """Validate every dirty peer's document, shard by shard.

        Matches the serial
        :meth:`~repro.distributed.network.DistributedDocument.validate_locally`
        verdict-for-verdict; ``force=True`` revalidates every peer even when
        its cached ack is still good (what the first round does anyway).
        Each shard task settles its peers in place, so a round that raises
        keeps what it settled and leaves the rest of the queued
        publications queued for the next round.
        """
        with self._state_lock:
            return self._validate_locally_locked(typing, force)

    def _validate_locally_locked(self, typing: Optional[TreeTyping], force: bool) -> RuntimeReport:
        started = time.perf_counter()
        before_messages, before_bytes = self.network.snapshot()
        validations_before = self.stats.validations_run
        if typing is not None:
            self.propagate_typing(typing)

        # Peers that need any work this round, or every peer on a forced
        # run.  Shards whose members are all clean are not dispatched.
        attention = set(self.document.resources if force else self.dirty_peers())
        pending_shards = [
            shard
            for shard in self.shard_map.shards()
            if any(function in attention for function in self.shard_map.members(shard))
        ]
        parse_failures: list[str] = []

        def run_shard(shard: int) -> None:
            shard_started = time.perf_counter()
            traced = []
            for function in self.shard_map.members(shard):
                if function not in attention:
                    continue
                peer = self.document.resources[function]
                pending = self._pending_payloads.get(function)
                if pending is not None:
                    # Validate the queued publication or seed from its
                    # text; the peer holds its record.
                    fingerprint, payload, trace_id = pending
                    try:
                        fingerprint, ack = peer.publish_payload(fingerprint, payload)
                        malformed = False
                    except InvalidXMLError:
                        # Malformed XML: an invalid publication.  The peer's
                        # previous document is kept; re-publishing the same
                        # bytes is clean-skipped like any other content.
                        fingerprint, ack, malformed = fingerprint or _NO_DOCUMENT, False, True
                        parse_failures.append(function)
                    self.stats.fingerprints_computed += 1
                    self._record(function, fingerprint, ack, peer.validator, malformed)
                    if trace_id:
                        traced.append((trace_id, function, ack))
                elif (
                    function in self._malformed_latest
                    and peer.document is self._fp_document.get(function)
                ):
                    # The latest publication did not parse: it stays
                    # invalid, whatever the typing -- the kept previous
                    # document is not what the peer last published.
                    self._record(function, self._current_fp[function], False, peer.validator, True)
                else:
                    fingerprint = self._current_fp[function]
                    if fingerprint is None or peer.document is not self._fp_document.get(function):
                        # The content changed, or was swapped behind the
                        # runtime's back (a fingerprint is only trusted while
                        # the peer holds the object it was computed for):
                        # address it, which ends a malformed publication.
                        fingerprint = (
                            "tree:" + tree_fingerprint(peer.document)
                            if peer.document is not None
                            else _NO_DOCUMENT
                        )
                        self._current_fp[function] = fingerprint
                        self._fp_document[function] = peer.document
                        self._malformed_latest.discard(function)
                        self.stats.fingerprints_computed += 1
                    if force or not self._clean(function, fingerprint):
                        ack = peer.validate_locally()
                        self._record(function, fingerprint, ack, peer.validator, False)
            if self.logger is not None and traced:
                shard_ms = round(1000 * (time.perf_counter() - shard_started), 3)
                for trace_id, function, ack in traced:
                    self.logger.log_flat(
                        "info", "shard.settle", trace_id,
                        "shard", shard, "function", function,
                        "ack", ack, "validated", True,
                        "ms", shard_ms,
                    )

        self.scheduler.map_shards(run_shard, pending_shards)
        validated = self.stats.validations_run - validations_before
        skipped = len(self.document.resources) - validated
        after_messages, after_bytes = self.network.snapshot()
        elapsed = time.perf_counter() - started
        self.stats.rounds += 1
        self.stats.validations_skipped += skipped
        self.stats.wall_seconds += elapsed
        return RuntimeReport(
            strategy="local-parallel",
            valid=all(self._acks[function] for function in self.document.resources),
            messages=after_messages - before_messages,
            bytes_shipped=after_bytes - before_bytes,
            guarantee=LOCAL_GUARANTEE,
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
        """The cache counters of the runtime's engine, per kind too."""
        return self.engine.stats.snapshot()

    def describe(self) -> str:
        lines = [
            f"validation runtime over {len(self.shard_map)} peer(s), "
            f"{self.shard_map.shard_count} shard(s)"
        ]
        lines.extend("  " + line for line in self.shard_map.describe().splitlines()[1:])
        return "\n".join(lines)

    def close(self) -> None:
        """Release the runtime; it holds no thread or socket, so nothing to do."""

    def __enter__(self) -> "ValidationRuntime":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()
