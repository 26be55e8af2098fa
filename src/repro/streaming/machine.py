"""The streaming validator: one label state per open element, no tree.

:class:`~repro.engine.batch.CompiledSchema` validates bottom-up: a node's
set of assignable vertical states is a bitmask, computed from its
children's masks by the lazily determinized automaton of the node's label
(:class:`~repro.engine.batch.LabelState`).  That recursion needs the whole
tree -- but its *data flow* is exactly a stack: a label state consumes its
children's masks in document order, and a child's mask is final the
moment the child closes.

:class:`StreamingRun` exploits this.  The run owns an expat parser
(:func:`~repro.streaming.events.element_parser`) whose callbacks do the
work: an element start pushes its label's initial state, an element end
pops the element's state, reads its close mask and steps the parent's
state on it -- one dict probe once the schema's tables are warm.  Working
memory is one state reference per open element; the states themselves
live in the schema's bounded, shared tables, and no per-node allocation
survives an element's end.

Verdicts are **identical** to :meth:`BatchValidator.validate` for every
schema kind: the run steps the very states the Tree fold
(:meth:`CompiledSchema._possible_mask`) steps, in the same order.

Early rejection: the instant some element's mask is empty (no rule of its
label survived), every rule of an element's label dies, or an element's
label has no rule at all, no state assignment can exist for any completion
of the document, so the run dies immediately (``rejected_at`` records the
event index).  The run then swaps in callbacks that only count events and
depth, and keeps parsing, so a document that is both invalid and malformed
is still classified as malformed, matching the parse-first tree path.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union
from xml.parsers.expat import ExpatError

from repro.engine.batch import CompiledSchema
from repro.errors import InvalidXMLError
from repro.streaming.events import element_parser, expat_name, iter_chunks

__all__ = ["StreamingRun", "StreamingValidator", "streaming_validator_for"]


def streaming_validator_for(schema, engine=None) -> "StreamingValidator":
    """The memoized streaming validator of a schema object.

    Compiled once per schema identity through the engine (memo kind
    ``streaming-machine``, next to the schema-to-UTA memo that
    :class:`CompiledSchema` uses), so repeated streaming validations --
    the runtime's publish path, the service, the benchmarks -- share one
    compiled machine exactly like peers share compiled batch validators.
    A :class:`CompiledSchema` memoizes on its own engine by default, so
    its machine lives no longer than the engine that compiled it.
    """
    from repro.engine.compilation import STREAMING_MACHINE_KIND, get_default_engine

    if engine is None:
        engine = schema.engine if isinstance(schema, CompiledSchema) else get_default_engine()
    return engine.memo_identity(
        STREAMING_MACHINE_KIND, schema, lambda: StreamingValidator(schema, engine)
    )


class StreamingValidator:
    """A schema compiled for event-driven validation (many runs, one machine).

    Wraps the same :class:`CompiledSchema` the batch path uses, so stream
    runs, Tree folds and element folds step one set of label states.
    """

    __slots__ = ("compiled", "_initial")

    def __init__(self, schema, engine=None) -> None:
        if isinstance(schema, CompiledSchema):
            self.compiled = schema
        else:
            self.compiled = CompiledSchema(schema, engine)
        #: label, as expat names it (:func:`~repro.streaming.events.expat_name`)
        #: -> the label's initial state, so no string work runs per event.
        self._initial = {
            expat_name(label): state for label, state in self.compiled._initial.items()
        }

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
        verdict.  The run keeps parsing after an early rejection, so a
        document that is both invalid and malformed is reported as
        malformed, exactly like parse-then-validate.
        """
        run = self.run()
        for chunk in chunks:
            run.feed(chunk)
        return run.finish()

    def validate_payload(self, payload: Union[bytes, str], chunk_bytes: int = 65536) -> bool:
        """Validate one whole payload (sliced into bounded chunks internally)."""
        return self.validate_chunks(iter_chunks(payload, chunk_bytes))


class StreamingRun:
    """Validating one document: an expat parser stepping label states.

    :meth:`feed` hands each chunk to the run's own expat parser, whose
    start and end callbacks push and step the label states directly;
    :meth:`finish` ends the input and returns the verdict.  Malformed or
    truncated input raises :class:`~repro.errors.InvalidXMLError`.  One
    run parses one document.

    The parser holds the run's bound methods, so the two form a reference
    cycle; the run drops its parser on :meth:`finish`, on a parse error
    and on :meth:`abort`, leaving nothing for the cyclic collector.
    """

    __slots__ = (
        "_initial",
        "_step",
        "_finals_mask",
        "_parser",
        "_stack",
        "_depth",
        "_max_depth",
        "_opens",
        "_rejected_at",
        "_root_mask",
    )

    def __init__(self, machine: StreamingValidator) -> None:
        self._initial = machine._initial
        self._step = machine.compiled._step
        self._finals_mask = machine.compiled._finals_mask
        self._parser = element_parser(self._open, self._close)
        #: One label state per open element -- O(depth) live references
        #: into the schema's shared tables, nothing allocated per element.
        self._stack: list = []
        #: Open elements once the run is dead (the state stack is dropped).
        self._depth = 0
        self._max_depth = 0
        #: Element starts seen.  Every end closes an open element, so the
        #: events so far are ``2 * opens - open elements``: only starts
        #: need counting.
        self._opens = 0
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
        """Deepest nesting seen so far (the O(depth) bound's witness)."""
        return self._max_depth

    @property
    def events(self) -> int:
        """Element starts plus element ends seen so far."""
        depth = self._depth if self._rejected_at is not None else len(self._stack)
        return 2 * self._opens - depth

    @property
    def root_mask(self) -> Optional[int]:
        """The root's possible-state bitmask (``CompiledSchema._possible_mask``)."""
        if self.rejected:
            return 0
        return self._root_mask

    # ------------------------------------------------------------------ #
    # input
    # ------------------------------------------------------------------ #

    def feed(self, chunk: Union[bytes, str]) -> None:
        """Parse one chunk of any size, stepping the states it completes."""
        self._parse(chunk, False)

    def finish(self) -> bool:
        """End the input; the document's BatchValidator-identical verdict.

        Raises :class:`~repro.errors.InvalidXMLError` when the document is
        truncated or empty, even if it was already rejected.
        """
        self._parse(b"", True)
        self._parser = None
        if self._rejected_at is not None:
            return False
        return bool(self._root_mask & self._finals_mask)

    def abort(self) -> None:
        """Drop the parser without a verdict (idempotent).

        A feed may still be running on another thread (a dying connection
        aborts its streams): clearing the callbacks silences it.
        """
        parser, self._parser = self._parser, None
        if parser is not None:
            parser.StartElementHandler = parser.EndElementHandler = None

    def _parse(self, data: Union[bytes, str], final: bool) -> None:
        parser = self._parser
        if parser is None:
            raise InvalidXMLError("this run is finished; one run parses one document")
        try:
            parser.Parse(data, final)
        except ExpatError as error:
            self._parser = None
            raise InvalidXMLError(f"malformed XML: {error}") from None
        except InvalidXMLError:  # an entity reference the parser refused
            self._parser = None
            raise

    # ------------------------------------------------------------------ #
    # parser callbacks
    # ------------------------------------------------------------------ #

    def _open(self, name: str, _attributes) -> None:
        self._opens += 1
        state = self._initial.get(name)
        stack = self._stack
        if state is None:
            # No rule can ever assign a state to this element: its mask
            # will be 0, so no completion of the document is valid.
            self._reject(len(stack) + 1)
            return
        stack.append(state)
        if len(stack) > self._max_depth:
            self._max_depth = len(stack)

    def _close(self, _name: str) -> None:
        stack = self._stack
        # The closed element's mask -- its set of assignable states -- is
        # the symbol-set its parent's label state reads next.  A zero mask
        # steps to the dead state like a parent whose every rule died.
        mask = stack.pop().close
        if stack:
            parent = stack[-1]
            state = parent.next.get(mask)
            if state is None:
                state = self._step(parent, mask)
            if state:
                stack[-1] = state
                return
        elif mask:
            self._root_mask = mask
            return
        self._reject(len(stack))

    def _reject(self, depth: int) -> None:
        """Die at the current event; from here on only count the rest."""
        self._rejected_at = 2 * self._opens - depth
        self._stack = []
        self._depth = depth
        if depth > self._max_depth:
            self._max_depth = depth
        parser = self._parser
        if parser is not None:  # None only once aborted from another thread
            parser.StartElementHandler = self._open_dead
            parser.EndElementHandler = self._close_dead

    def _open_dead(self, _name: str, _attributes) -> None:
        self._opens += 1
        self._depth += 1
        if self._depth > self._max_depth:
            self._max_depth = self._depth

    def _close_dead(self, _name: str) -> None:
        self._depth -= 1
