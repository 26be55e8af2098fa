"""The streaming validator: one DFA frame per open element, no tree.

:class:`~repro.engine.batch.CompiledSchema` validates bottom-up: a node's
set of assignable vertical states is a bitmask, computed from its
children's masks by running the horizontal automata of the node's label.
That recursion needs the whole tree -- but its *data flow* is exactly a
stack: a node's horizontal automata only ever consume children masks in
document order, and a child's mask is final the moment the child closes.

:class:`StreamingRun` exploits this.  Each open element owns one **frame**
holding, for every rule ``(state, label)`` of the schema's tree automaton
that could assign ``state`` to this element, the current state set of that
rule's horizontal automaton (a bitmask, stepped with the same per-symbol
successor arrays as the batch loop).  On ``open`` a frame is pushed; on
``close`` the frame is folded into the element's possible-state mask and
fed -- as one symbol-set -- into the parent frame.  Working memory is
O(depth x rules-per-label); no per-node allocation survives a close.

Verdicts are **identical** to :meth:`BatchValidator.validate` for every
schema kind: a frame *is* the pending suffix of
:meth:`CompiledSchema._possible_mask` for that node, and the per-frame
state-set semantics is precisely the EDTD "possible states" lift -- for
DTDs each label has a single rule and the masks collapse to one bit.

Early rejection: the instant some element's mask is empty (no rule of its
label survived) -- or an element's label has no rule at all -- no state
assignment can exist for any completion of the document, so the run dies
immediately (``rejected_at`` records the event index).  Dead runs ignore
further events at O(1) cost; callers typically keep feeding the event
source anyway so malformed documents are still classified as malformed,
matching the parse-first tree path.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Optional, Union

from repro.engine.backends import resolve_backend
from repro.engine.batch import CompiledSchema
from repro.errors import DesignError
from repro.streaming.events import CLOSE, OPEN, XMLEventSource, iter_chunks

__all__ = ["StreamingRun", "StreamingValidator", "streaming_validator_for"]


def streaming_validator_for(schema, engine=None, backend=None) -> "StreamingValidator":
    """The memoized streaming validator of a schema object.

    Compiled once per schema identity through the engine (memo kind
    ``streaming-machine``, next to the schema-to-UTA memo that
    :class:`CompiledSchema` uses), so repeated streaming validations --
    the runtime's publish path, the service, the benchmarks -- share one
    compiled machine exactly like peers share compiled batch validators.

    ``backend`` defaults to the schema's own backend when the schema is a
    :class:`CompiledSchema` (so the runtime's stream ingest inherits the
    runtime's validation backend), then to the usual resolution
    (``$REPRO_BACKEND``, else ``python``).  Different backends memoize
    under distinct kinds so they never collide on one schema object.
    """
    from repro.engine.compilation import STREAMING_MACHINE_KIND, get_default_engine

    active = engine if engine is not None else get_default_engine()
    if backend is None and isinstance(schema, CompiledSchema):
        backend = schema.backend
    resolved = resolve_backend(backend)
    kind = (
        STREAMING_MACHINE_KIND
        if resolved == "python"
        else f"{STREAMING_MACHINE_KIND}:{resolved}"
    )
    return active.memo_identity(
        kind, schema, lambda: StreamingValidator(schema, active, backend=resolved)
    )


class StreamingValidator:
    """A schema compiled for event-driven validation (many runs, one machine).

    Wraps the same :class:`CompiledSchema` the batch path uses (so the
    horizontal automata are shared, content-memoized kernels) and
    pre-flattens its per-label rules into the tuple layout the hot event
    loop wants: ``(state_bit, delta, finals_closed)`` plus the initial
    state-set template per label.
    """

    __slots__ = ("compiled", "backend", "_codegen", "_label_rules", "_finals_mask")

    def __init__(self, schema, engine=None, backend=None) -> None:
        if isinstance(schema, CompiledSchema):
            self.compiled = schema
            self.backend = schema.backend if backend is None else resolve_backend(backend)
        else:
            self.compiled = CompiledSchema(schema, engine, backend=backend)
            self.backend = self.compiled.backend
        #: The generated whole-payload validator (codegen/numpy backends);
        #: ``None`` on the interpreted path.  Shared with the batch side
        #: through the ``codegen-validator`` engine memo.
        self._codegen = None
        if self.backend != "python":
            from repro.engine.codegen import codegen_validator_for

            self._codegen = codegen_validator_for(self.compiled, engine)
        #: label -> frame template; an entry is ``(state_bit, delta,
        #: finals_closed)`` with ``delta`` the dense per-symbol successor
        #: arrays over the schema's shared state order.  A frame is the
        #: template's shallow copy ``[entries, current_0, ..., current_k]``
        #: -- one flat list per open element, currents start at each rule's
        #: initial state set.
        self._label_rules: dict[str, list] = {}
        for label, rules in self.compiled._rules_by_label.items():
            entries = tuple(
                (state_bit, nfa.delta, nfa.finals_closed) for state_bit, nfa in rules
            )
            self._label_rules[label] = [entries] + [1 << nfa.initial for _sb, nfa in rules]
        self._finals_mask = self.compiled._finals_mask

    @property
    def schema(self):
        return self.compiled.schema

    def run(self) -> "StreamingRun":
        """A fresh single-document run over this machine."""
        return StreamingRun(self)

    # ------------------------------------------------------------------ #
    # whole-payload conveniences
    # ------------------------------------------------------------------ #

    def validate_chunks(self, chunks: Iterable[Union[bytes, str]]) -> bool:
        """Validate one document fed as byte/text chunks.

        Raises :class:`~repro.errors.InvalidXMLError` on malformed or
        truncated input -- the same classification the tree path gives --
        and otherwise returns the :class:`BatchValidator`-identical
        verdict.  The event source keeps parsing after an early rejection
        so a document that is both invalid and malformed is reported as
        malformed, exactly like parse-then-validate.

        On the ``codegen``/``numpy`` backends the verdict comes from the
        generated whole-payload fold (O(document) memory -- the parser's
        element tree is materialized); any parse anomaly replays the
        buffered chunks through this interpreted path so the typed error
        classification is identical.  Incremental consumers
        (:meth:`run`) always get the interpreted O(depth) machine.
        """
        codegen = self._codegen
        if codegen is not None:
            fed: list = []
            verdict = codegen.try_validate_chunks(chunks, fed)
            if verdict is not None:
                return verdict
            chunks = chain(fed, chunks)
        return self._interpreted_chunks(chunks)

    def _interpreted_chunks(self, chunks: Iterable[Union[bytes, str]]) -> bool:
        run = self.run()
        source = XMLEventSource()
        for chunk in chunks:
            source.pump(chunk, run)
        run.consume(source.close())
        return run.verdict()

    def validate_payload(self, payload: Union[bytes, str], chunk_bytes: int = 65536) -> bool:
        """Validate one whole payload (sliced into bounded chunks internally).

        On the ``codegen``/``numpy`` backends this is the compiled schema's
        bytes entry (:meth:`CompiledSchema.accepts_payload
        <repro.engine.batch.CompiledSchema.accepts_payload>`: one parse,
        the generated fold, this interpreted machine as the fallback); the
        ``python`` backend keeps the O(depth) interpreted machine.
        """
        if self._codegen is not None:
            return self.compiled.accepts_payload(payload)
        return self._interpreted_chunks(iter_chunks(payload, chunk_bytes))


class StreamingRun:
    """The mutable state of validating one document event-by-event."""

    __slots__ = (
        "_machine",
        "_stack",
        "_depth",
        "_max_depth",
        "_events",
        "_rejected_at",
        "_root_mask",
    )

    def __init__(self, machine: StreamingValidator) -> None:
        self._machine = machine
        #: One frame per open element: ``[entries, current_0, ...]``.
        #: ``entries`` is the machine's shared per-label tuple (never
        #: copied); only the flat frame list is allocated per open element
        #: -- O(depth) live, nothing survives a close.
        self._stack: list[list] = []
        self._depth = 0
        self._max_depth = 0
        self._events = 0
        self._rejected_at: Optional[int] = None
        self._root_mask: Optional[int] = None

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def rejected(self) -> bool:
        """Did the run already prove the document invalid?"""
        return self._rejected_at is not None

    @property
    def rejected_at(self) -> Optional[int]:
        """Event index (1-based) at which the run died, if it did."""
        return self._rejected_at

    @property
    def max_depth(self) -> int:
        return self._max_depth

    @property
    def events(self) -> int:
        return self._events

    @property
    def complete(self) -> bool:
        """Has the root element closed (or the run died early)?"""
        return self._root_mask is not None or self.rejected

    @property
    def root_mask(self) -> Optional[int]:
        """The root's possible-state bitmask (``CompiledSchema._possible_mask``)."""
        if self.rejected:
            return 0
        return self._root_mask

    # ------------------------------------------------------------------ #
    # events
    # ------------------------------------------------------------------ #

    def open(self, label: str) -> None:
        """An element with ``label`` starts."""
        self._events += 1
        self._depth += 1
        if self._depth > self._max_depth:
            self._max_depth = self._depth
        if self._rejected_at is not None:
            return
        template = self._machine._label_rules.get(label)
        if template is None:
            # No rule can ever assign a state to this element: its mask
            # will be 0, so no completion of the document is valid.
            self._rejected_at = self._events
            return
        self._stack.append(template.copy())

    def close(self) -> None:
        """The innermost open element ends."""
        self._events += 1
        self._depth -= 1
        if self._depth < 0:
            raise DesignError("streaming run saw a close event with no open element")
        if self._rejected_at is not None:
            return
        stack = self._stack
        frame = stack.pop()
        entries = frame[0]
        if len(entries) == 1:
            # The single-rule fast path (every DTD label; most SDTD ones).
            state_bit, _delta, finals_closed = entries[0]
            mask = state_bit if frame[1] & finals_closed else 0
        else:
            mask = 0
            for index, (state_bit, _delta, finals_closed) in enumerate(entries):
                if frame[index + 1] & finals_closed:
                    mask |= state_bit
        if not mask:
            self._rejected_at = self._events
            return
        if not stack:
            self._root_mask = mask
            return
        # Feed the closed child's mask -- its set of assignable states is
        # the symbol-set its parent's horizontal automata read -- into the
        # parent frame.  Same integer kernel step as the batch loop.
        parent = stack[-1]
        alive = 0
        for index, (_state_bit, delta, _finals_closed) in enumerate(parent[0]):
            current = parent[index + 1]
            if not current:
                continue
            moved = 0
            symbols_left = mask
            while symbols_left:
                low = symbols_left & -symbols_left
                row = delta[low.bit_length() - 1]
                states_left = current
                while states_left:
                    state_low = states_left & -states_left
                    moved |= row[state_low.bit_length() - 1]
                    states_left ^= state_low
                symbols_left ^= low
            parent[index + 1] = moved
            alive |= moved
        if not alive:
            # Every rule of the parent's label is dead: the parent's mask
            # will be 0 no matter what siblings follow.
            self._rejected_at = self._events

    def consume(self, events: Iterable[tuple[str, str]]) -> None:
        """Dispatch a batch of ``(kind, label)`` events (the hot loop)."""
        open_, close_ = self.open, self.close
        for kind, label in events:
            if kind == OPEN:
                open_(label)
            elif kind == CLOSE:
                close_()
            else:  # pragma: no cover - event sources only emit open/close
                raise DesignError(f"unknown streaming event kind {kind!r}")

    # ------------------------------------------------------------------ #
    # verdict
    # ------------------------------------------------------------------ #

    def verdict(self) -> bool:
        """The document's membership verdict (BatchValidator-identical).

        Only meaningful once the document is complete; an incomplete run
        raises (the event source is responsible for classifying truncated
        input as :class:`~repro.errors.InvalidXMLError` before this).
        """
        if self._rejected_at is not None:
            return False
        if self._root_mask is None:
            raise DesignError("streaming run is incomplete: the root element never closed")
        return bool(self._root_mask & self._machine._finals_mask)
