"""The streaming validator: the C parser builds, the run folds and prunes.

:class:`~repro.engine.batch.CompiledSchema` validates bottom-up: a node's
set of assignable vertical states is a bitmask, computed from its
children's masks by the lazily determinized automaton of the node's label
(:class:`~repro.engine.batch.LabelState`).  A child's mask is final the
moment the child is complete, so the fold never needs more of a document
than its open root-to-leaf path and the children it has not read yet.

:class:`StreamingRun` exploits this.  It feeds its input, one bounded
slice at a time, to ElementTree's C parser and tree builder, which build
the slice's elements with no Python call per element.  The builder
reports no end tags, but an element with a later sibling is complete.
So after each slice the run walks the open path -- the last child at
each level -- folds every complete element into its parent's label state
(the fold the bytes entry takes over whole payloads: one dict probe per
child once the schema's tables are warm) and deletes it.  No fold reads
character data, so the run then drops the text the builder collected.
Between slices the run holds one element and one label state per level
of the open path: O(depth).  :meth:`StreamingRun.finish` folds the open
path bottom-up.  The fold recurses; a subtree too deep for the recursion
limit is redone by an iterative walk, which also finds the exact event at
which an invalid document dies.

Verdicts are **identical** to :meth:`BatchValidator.validate` for every
schema kind: the run steps the very states the Tree fold
(:meth:`CompiledSchema._possible_mask`) steps, in the same order.  It
parses with the parser :func:`~repro.trees.xml_io.tree_from_xml` uses, so
it classifies malformed input identically too.

Early rejection: once some element's mask is empty (no rule of its label
survived), every rule of an element's label dies, or an element's label
has no rule at all, no state assignment can exist for any completion of
the document, so the run dies (``rejected_at`` records the event index).
It notices at the first prune after the offending element is known to
be complete, or at :meth:`~StreamingRun.finish`.  A dead run keeps
parsing and only counts the rest, so a document that is both invalid and
malformed is still classified as malformed, matching the parse-first tree
path.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Iterable, Optional, Union

from repro.engine.batch import CompiledSchema
from repro.errors import InvalidXMLError
from repro.streaming.events import iter_chunks

__all__ = ["StreamingRun", "StreamingValidator", "fold_element", "streaming_validator_for"]

#: Most input (bytes, or characters of a ``str`` chunk) the C parser
#: reads between two prunes.  The elements and text of one slice are what
#: a run holds beyond its open path, about 100 bytes per element.
SLICE = 1 << 12


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


def fold_element(compiled: CompiledSchema, root: ET.Element) -> bool:
    """Membership of a document the C parser already parsed, at any depth.

    The stream run's iterative fold, for documents too deep for the
    recursive :meth:`CompiledSchema.accepts_element`.  ``root`` is only read.
    """
    wrapper = ET.Element("")
    wrapper.append(root)
    return _PathFold(compiled, wrapper)._settle()


class StreamingValidator:
    """A schema compiled for streaming validation (many runs, one machine).

    Wraps the same :class:`CompiledSchema` the batch path uses, so stream
    runs, Tree folds and element folds step one set of label states.
    """

    __slots__ = ("compiled",)

    def __init__(self, schema, engine=None) -> None:
        if isinstance(schema, CompiledSchema):
            self.compiled = schema
        else:
            self.compiled = CompiledSchema(schema, engine)

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


class _PathFold:
    """Label states along the open path of a C-built element tree.

    ``wrapper`` is the parent of the document's root, whether the root is
    already parsed or a parser builds it later.  The walk (:meth:`_walk`)
    folds the complete elements below the path into their parents'
    states and deletes them; :meth:`_settle` folds a complete document.
    """

    __slots__ = (
        "_initial",
        "_step",
        "_finals_mask",
        "_path",
        "_states",
        "_opens",
        "_max_depth",
        "_rejected_at",
        "_root_mask",
    )

    def __init__(self, compiled: CompiledSchema, wrapper: ET.Element) -> None:
        self._initial = compiled._initial
        self._step = compiled._step
        self._finals_mask = compiled._finals_mask
        #: The open path: the wrapper, then the last child at each level,
        #: so ``_path[depth]`` sits at ``depth``.  A path element keeps
        #: only its last child: the others are complete, folded and deleted.
        self._path: list = [wrapper]
        #: Per path element, its label state after the children folded so
        #: far (``None`` for the wrapper, and all ``None`` once dead).
        self._states: list = [None]
        #: Element starts seen.  An element leaves the open path once it is
        #: known to be complete, so the events so far are ``2 * opens`` less
        #: the elements on the path.
        self._opens = 0
        self._max_depth = 0
        self._rejected_at: Optional[int] = None
        self._root_mask: Optional[int] = None

    def _settle(self) -> bool:
        """Fold the open path of a complete document; its verdict."""
        self._walk(-1)
        del self._path[0][:]
        if self._rejected_at is not None:
            return False
        return bool(self._root_mask & self._finals_mask)

    def _walk(self, level: int) -> None:
        """Fold and delete the complete elements, counting every event.

        An iterative depth-first walk resumed from the open path.  Path
        elements deeper than ``level`` are complete (all of them for
        ``level`` -1, the whole document), and so is every element with a
        later sibling.  It dies at the exact event, then only counts.
        """
        path, initial, step = self._path, self._initial, self._step
        alive = self._rejected_at is None
        opens, max_depth = self._opens, self._max_depth
        events = 2 * opens - len(path) + 1
        # One frame per open element: [element, state, next child, complete].
        stack = [
            [element, state, 1, depth > level]
            for depth, (element, state) in enumerate(zip(path, self._states))
        ]
        stack[-1][2] = 0
        while True:
            frame = stack[-1]
            element, state, index, complete = frame
            if index < len(element):
                frame[2] = index + 1
                child = element[index]
                opens += 1
                events += 1
                if len(stack) > max_depth:
                    max_depth = len(stack)
                child_state = initial.get(child.tag) if alive else None
                if alive and child_state is None:
                    alive = False
                    self._rejected_at = events
                stack.append([child, child_state, 0, complete or index + 1 < len(element)])
                continue
            if not complete or len(stack) == 1:
                break
            stack.pop()
            events += 1
            if not alive:
                continue
            # The closed element's mask is the symbol its parent reads
            # next; a zero mask steps to the dead state.
            mask = state.close
            parent = stack[-1]
            if len(stack) > 1:
                following = parent[1].next.get(mask)
                if following is None:
                    following = step(parent[1], mask)
                if following:
                    parent[1] = following
                    continue
            elif mask:
                self._root_mask = mask
                continue
            alive = False
            self._rejected_at = events
        self._opens, self._max_depth = opens, max_depth
        self._path = [frame[0] for frame in stack]
        self._states = [frame[1] if alive else None for frame in stack]
        for element in self._path[max(level, 0) : -1]:
            del element[:-1]


class _Rejected(Exception):
    """The fast fold stepped into a dead state."""


class StreamingRun(_PathFold):
    """Validating one document: a C-built element tree, folded and pruned.

    :meth:`feed` parses each chunk, at most :data:`SLICE` of it at a time,
    and after each slice folds and deletes the elements the slice showed
    complete and drops all text (a run deeper than ``SLICE / 8`` levels
    does so only every 8 bytes per level); :meth:`finish` ends the input
    and returns the verdict.  Malformed or truncated input raises
    :class:`~repro.errors.InvalidXMLError`.  One run parses one document.

    The builder reports no end tags, so the run learns that an element
    ended only once a later start tag, or :meth:`finish`, is parsed.
    Until then :attr:`events` counts the element as open, and a rejection
    its end causes is not yet reported.  Every value read after
    :meth:`finish` is exact.
    """

    __slots__ = ("_builder", "_parser", "_unpruned")

    def __init__(self, machine: StreamingValidator) -> None:
        self._builder = builder = ET.TreeBuilder()
        self._parser = ET.XMLParser(target=builder)
        # A wrapper element, opened on the builder before any input, so
        # that the document's root becomes its child.
        super().__init__(machine.compiled, builder.start("", {}))
        #: Input parsed since the last prune.
        self._unpruned = 0

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
        """Element starts plus the element ends known so far."""
        return 2 * self._opens - len(self._path) + 1

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
        """Parse one chunk of any size, folding the elements it completes."""
        parser = self._parser
        if parser is None:
            raise InvalidXMLError("this run is finished; one run parses one document")
        if len(chunk) <= SLICE:
            self._parse(parser, chunk)
            return
        data = chunk if isinstance(chunk, str) else memoryview(chunk)
        for start in range(0, len(data), SLICE):
            if self._parser is not parser:  # aborted from another thread
                return
            self._parse(parser, data[start : start + SLICE])

    def finish(self) -> bool:
        """End the input; the document's BatchValidator-identical verdict.

        Raises :class:`~repro.errors.InvalidXMLError` when the document is
        truncated or empty, even if it was already rejected.
        """
        parser = self._parser
        if parser is None:
            raise InvalidXMLError("this run is finished; one run parses one document")
        self._parser = None
        try:
            parser.close()
        except ET.ParseError as error:
            raise InvalidXMLError(f"malformed XML: {error}") from None
        return self._settle()

    def abort(self) -> None:
        """Drop the parser without a verdict (idempotent).

        A feed may still be running on another thread (a dying connection
        aborts its streams): it stops before its next slice.
        """
        self._parser = None

    def _parse(self, parser: ET.XMLParser, data) -> None:
        try:
            parser.feed(data)
        except ET.ParseError as error:
            self._parser = None
            raise InvalidXMLError(f"malformed XML: {error}") from None
        # A prune scans the open path, so a run deeper than SLICE / 8
        # levels prunes only every 8 bytes per level: the scans stay linear
        # in the input, and what it holds stays O(depth).
        self._unpruned += len(data)
        if self._unpruned + SLICE >= 8 * len(self._path):
            self._unpruned = 0
            self._prune()
            # No fold reads character data, yet the builder keeps a text
            # run whole until the next tag.  Its comment() hands the run
            # to the element it belongs to, which is on the open path, and
            # the path lets go of all text.
            self._builder.comment(None)
            for element in self._path:
                element.text = element.tail = None

    # ------------------------------------------------------------------ #
    # the fold
    # ------------------------------------------------------------------ #

    def _prune(self) -> None:
        """Fold and delete every element the last slice showed complete."""
        path = self._path
        last = len(path) - 1
        # The topmost path element with a child after the next path
        # element: everything below it on the path is complete.  Failing
        # that, only the deepest can have gained children.
        for level in range(last):
            if len(path[level]) > 1:
                break
        else:
            level = last
            if not len(path[last]):
                return
        if self._rejected_at is None:
            max_depth = self._max_depth
            try:
                self._fold_slice(level)
                return
            except (_Rejected, KeyError, RecursionError):
                # A rejection (a label without rules raises KeyError) or a
                # subtree too deep to recurse: nothing is committed yet, so
                # the exact walk redoes the slice.
                self._max_depth = max_depth
        self._walk(level)

    def _fold_slice(self, level: int) -> None:
        """:meth:`_prune`'s fast path: recursive, and counts no events.

        Raises on a rejection; commits nothing before it returns.
        """
        path, states, fold = self._path, self._states, self._fold
        mask = None
        for depth in range(len(path) - 1, level, -1):  # complete, deepest first
            element, state = path[depth], states[depth]
            if mask is None:
                state = fold(state, element, depth + 1)
            else:
                state = fold(self._advance(state, mask), element[1:], depth + 1)
            mask = state.close
        element, state = path[level], states[level]
        if mask is None:  # the deepest; the wrapper (no state) has only the root
            state = fold(state, element[:-1], level + 1)
        else:
            state = fold(self._advance(state, mask), element[1:-1], level + 1)
        # The new open path below ``level``: the chain of last children.
        chain, chain_states = [], [state]
        depth = level
        while len(element):
            element = element[-1]
            depth += 1
            state = self._initial[element.tag]
            if len(element):
                state = fold(state, element[:-1], depth + 1)
            chain.append(element)
            chain_states.append(state)
        # Every element below ``level`` is new but the old path's.
        self._opens += sum(map(len, path[level].iter())) - (len(path) - 1 - level)
        if depth > self._max_depth:
            self._max_depth = depth
        del path[level + 1 :]
        del states[level:]
        path += chain
        states += chain_states
        for element in path[level:-1]:
            del element[:-1]

    def _advance(self, state, mask: int):
        following = state.next.get(mask)
        if following is None:
            following = self._step(state, mask)
        if not following:
            raise _Rejected
        return following

    def _fold(self, state, children, depth: int):
        """``state`` stepped over complete ``children`` that sit at ``depth``."""
        if depth > self._max_depth and len(children):
            self._max_depth = depth
        initial, step = self._initial, self._step
        for child in children:
            if len(child):
                mask = self._fold(initial[child.tag], child, depth + 1).close
            else:
                mask = initial[child.tag].close
            following = state.next.get(mask)
            if following is None:
                following = step(state, mask)
            if not following:
                raise _Rejected
            state = following
        return state
