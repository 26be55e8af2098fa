"""Batch validation: compile a schema once, validate many documents.

The seed's ``schema.validate(tree)`` rebuilt the unranked tree automaton
*and* re-ran every horizontal automaton with epsilon closures on every call
-- per document, per peer, per benchmark round.  :class:`CompiledSchema`
performs that work once: the tree automaton is built a single time, each
horizontal NFA is lifted to the integer/bitset kernel over the symbols it
reads and memoized by its content on the
:class:`~repro.engine.compilation.CompilationEngine` (so the peers of a
typing, whose local types repeat the same rules, share one compiled
automaton per distinct rule), and a node's set of assignable states is
one ``int``.

The bottom-up run is one memoized fold.  At a node labelled ``l`` only
the rules ``(state, l)`` can fire, and the node's children are read left
to right by every such rule's horizontal automaton at once; a
:class:`LabelState` is that tuple of per-rule current state sets, i.e. one
state of ``l``'s horizontal automata determinized together.  States are
built lazily -- the subset construction runs only for the child masks
documents actually contain -- interned in the label's :class:`LabelTable`,
and each carries its close mask (the states assignable if the element
ended here) and a dict of memoized successors keyed by child mask.  The
schemas compiled on one engine share one table per distinct label rule
set, so the peers of a typing warm their shared rules once.  After
warm-up a child costs one dict probe, whichever driver steps the states:
the Tree fold (:meth:`CompiledSchema.accepts`), the element fold over
the C parser's output (:meth:`CompiledSchema.accepts_element`), the incremental
element fold of :class:`~repro.streaming.machine.StreamingRun`, which
folds and prunes the C parser's output slice by slice, or the
tree-language search of :mod:`repro.trees.automata` (emptiness,
inclusion, equivalence) and the EDTD normalisation built on it, which
step every label's states on the masks of all reachable children.

:class:`BatchValidator` is the user-facing wrapper: it validates one
document, a batch of documents in a single pass, or produces a
:class:`BatchReport` for monitoring.  Its bytes entry
(:meth:`BatchValidator.validate_payload`) takes serialised XML straight
to a verdict: one C-parser pass (:func:`parse_payload`), then the element
fold, with no :class:`Tree` built and nothing memoized per document.  The
two steps are public so that a caller can use one parse twice: the
runtime also fingerprints a registration document's elements.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.automata.kernel.compact import CompactNFA, iter_bits
from repro.errors import InvalidXMLError
from repro.trees.automata import UnrankedTreeAutomaton
from repro.trees.document import Tree

#: Bound on the per-schema memo of already-validated document objects.
_DOCUMENT_MEMO_CAPACITY = 512

#: ``engine_stats`` kind of the label automata: ``misses`` counts computed
#: steps, ``evictions`` counts dropped tables (no hits are counted: a hit
#: is the hot path, one dict probe).
LABEL_DFA_KIND = "label-dfa"

#: Engine memo kind of the :class:`LabelTable` of one label rule set:
#: ``misses`` counts the tables built.
LABEL_TABLE_KIND = "label-table"


def parse_payload(payload: Union[bytes, str]) -> ET.Element:
    """One pass of the C parser over a serialised document: its root element.

    Bytes are decoded as their XML declaration says; a ``str`` is read as
    the characters it already is, whatever encoding it declares -- the
    reading ``tree_from_xml`` gives it.  Malformed input raises
    :class:`xml.etree.ElementTree.ParseError`.
    """
    parser = ET.XMLParser()
    parser.feed(payload)
    return parser.close()


class LabelState:
    """One state of a label's lazily determinized horizontal automata.

    ``currents`` holds, per rule ``(state, label)`` of the schema, the
    current state set of that rule's horizontal NFA (a bitmask), after the
    children read so far.  ``close`` is the element's mask if it ended
    here: the bits of the rules whose current set is accepting.  ``next``
    memoizes successors by child mask; a dead successor (every rule's set
    empty) is stored as ``0``, so a lookup reads ``None`` for a miss and
    something falsy for a rejection.
    """

    __slots__ = ("label", "currents", "close", "next")

    def __init__(self, label: str, currents: tuple, close: int) -> None:
        self.label = label
        self.currents = currents
        self.close = close
        self.next: dict = {}


class LabelTable:
    """The label automata of one label's rules: the rules, the initial state, the states reached.

    ``rules`` holds one ``(state_bit, CompactNFA, rows)`` entry per rule
    ``(state, label)``; ``rows`` maps each state bit of the schema to the
    rule's delta row, or to None if the rule never reads that state.
    ``states`` interns every state a step reached, keyed by its
    ``currents``.  Everything a step reads is in the table, so schemas
    whose rules for the label are equal -- same state bits, same automata
    reading the same symbol bits, same number of states -- share one
    table: a state one of them computed is warm for all.
    """

    __slots__ = ("label", "rules", "initial", "states")

    def __init__(self, label: str, entries: list, width: int) -> None:
        """``entries``: ``(state_index, CompactNFA, symbol_indices)`` per rule, over ``width`` states."""
        self.label = label
        rules = []
        for index, compiled, symbol_indices in entries:
            rows: list = [None] * width
            for symbol_index, row in zip(symbol_indices, compiled.delta):
                rows[symbol_index] = row
            rules.append((1 << index, compiled, tuple(rows)))
        self.rules = tuple(rules)
        currents = tuple(nfa.initial_mask for _bit, nfa, _rows in rules)
        #: Fixed for the table's lifetime; evictions only clear its successors.
        self.initial = LabelState(label, currents, self.close_mask(currents))
        self.states: dict[tuple, LabelState] = {}

    def close_mask(self, currents: tuple) -> int:
        mask = 0
        for (state_bit, nfa, _rows), current in zip(self.rules, currents):
            if current & nfa.finals_closed:
                mask |= state_bit
        return mask


class CompiledSchema:
    """A schema compiled for repeated membership tests.

    Parameters
    ----------
    schema:
        Anything with a ``to_uta()`` method (DTD / SDTD / EDTD /
        NormalizedEDTD) or an :class:`UnrankedTreeAutomaton` directly.
    engine:
        The compilation engine that lifts the horizontal automata; defaults
        to the thread's default engine.  Every rule compiles over its own
        symbols and is keyed by its content alone, so equal rules compile
        once across all the schemas compiled on one engine -- whatever
        their state orders -- and each schema only maps its state bits to
        the shared rule's rows.  The label automata are shared the same
        way: schemas on one engine take one :class:`LabelTable` per
        distinct label rule set from the engine's memo (kind
        ``label-table``), keyed by the label, the schema's state count and,
        per rule, its state bit, its automaton's fingerprint and the bit of
        each symbol it reads -- everything a step reads.

    The label automata are shared, without locks, by every thread that
    validates against a schema sharing them (the event-loop threads of the
    servers in one process).  Their tables are filled with single dict
    operations, which the GIL makes atomic, and are bounded: at most
    :attr:`state_capacity` interned states per label table and
    :attr:`transition_capacity` successors per state, each checked by the
    schema whose step adds the entry, so a table shared by schemas with
    different caps stays within the largest of them.  A full table is
    dropped and refilled on demand, counted as an eviction under the
    ``label-dfa`` kind of ``engine_stats``.
    """

    #: Bound on the interned (non-initial) states of one label table.
    state_capacity = 4096
    #: Bound on the memoized successors of one label state.
    transition_capacity = 256

    def __init__(self, schema, engine=None) -> None:
        from repro.engine.compilation import SCHEMA_TO_UTA_KIND, get_default_engine

        self.engine = engine if engine is not None else get_default_engine()
        self.schema = schema
        if isinstance(schema, UnrankedTreeAutomaton):
            uta = schema
        else:
            # Same identity memo as repro.schemas.compare.schema_to_uta: a
            # schema object converts once no matter which layer asks.
            uta = self.engine.memo_identity(SCHEMA_TO_UTA_KIND, schema, schema.to_uta)
        self.uta = uta
        self.finals = uta.finals
        # One interning for the whole schema: the vertical states double as
        # the symbols every horizontal automaton reads, so a node's set of
        # assignable states *is* the child-symbol bitmask of its parent.
        self._state_order: tuple = tuple(sorted(uta.states, key=repr))
        index_of = {state: i for i, state in enumerate(self._state_order)}
        self._finals_mask = 0
        for state in uta.finals:
            self._finals_mask |= 1 << index_of[state]
        # Rules grouped by label: at a node labelled `l` only the (state, l)
        # horizontal automata can fire.  A rule compiles over the symbols it
        # reads, keyed by its content alone, so equal rules of schemas with
        # different state orders share it.
        rules: dict[str, list] = {}
        keys: dict[str, list] = {}
        for (state, label), nfa in uta.horizontal.items():
            fingerprint = self.engine.fingerprint(nfa)
            compiled = self.engine.memo(
                "compact-horizontal", (fingerprint,), lambda nfa=nfa: CompactNFA(nfa)
            )
            symbol_indices = tuple(index_of[symbol] for symbol in compiled.symbols)
            rules.setdefault(label, []).append((index_of[state], compiled, symbol_indices))
            keys.setdefault(label, []).append((index_of[state], fingerprint, symbol_indices))
        width = len(index_of)
        #: label -> its :class:`LabelTable`, shared with every schema on the
        #: engine whose rules for the label are equal.
        self._tables: dict[str, LabelTable] = {
            label: self.engine.memo(
                LABEL_TABLE_KIND,
                (label, width, tuple(keys[label])),
                lambda label=label, entries=entries: LabelTable(label, entries, width),
            )
            for label, entries in rules.items()
        }
        #: label -> its initial state.
        self._initial: dict[str, LabelState] = {
            label: table.initial for label, table in self._tables.items()
        }
        self._dfa_stats = self.engine.stats.kind_counters(LABEL_DFA_KIND)
        self._document_memo: OrderedDict[int, tuple[Tree, int]] = OrderedDict()

    # ------------------------------------------------------------------ #
    # the label automata
    # ------------------------------------------------------------------ #

    def _step(self, state: LabelState, child_mask: int):
        """The successor of ``state`` on a child's mask: a miss, computed and memoized.

        Every rule's current set moves over every symbol of ``child_mask``
        through the ε-free ``CompactNFA.delta`` row that the rule's
        ``rows`` give for the symbol's bit; a symbol the rule never reads
        moves nothing.  Returns the interned successor, or ``0`` when every
        rule died (a zero ``child_mask`` always does).
        """
        table = self._tables[state.label]
        currents = []
        alive = 0
        for (_state_bit, _nfa, rows), current in zip(table.rules, state.currents):
            moved = 0
            if current:
                symbols_left = child_mask
                while symbols_left:
                    low = symbols_left & -symbols_left
                    row = rows[low.bit_length() - 1]
                    if row is not None:
                        states_left = current
                        while states_left:
                            state_low = states_left & -states_left
                            moved |= row[state_low.bit_length() - 1]
                            states_left ^= state_low
                    symbols_left ^= low
            currents.append(moved)
            alive |= moved
        successor = self._intern(table, tuple(currents)) if alive else 0
        transitions = state.next
        if len(transitions) >= self.transition_capacity:
            transitions.clear()
            self._dfa_stats.evictions += 1
        transitions[child_mask] = successor
        self._dfa_stats.misses += 1
        return successor

    def _intern(self, table: LabelTable, currents: tuple) -> LabelState:
        states = table.states
        state = states.get(currents)
        if state is not None:
            return state
        if len(states) >= self.state_capacity:
            # Drop the table's graph: its interned states, and its initial
            # state's edges into them.  Runs in flight keep the states they
            # hold (each is still correct) and step on into the new table;
            # a step racing this drop may re-link one old state, which the
            # next drop detaches again.
            states.clear()
            table.initial.next.clear()
            self._dfa_stats.evictions += 1
        # Two threads may build the same state at once; setdefault keeps
        # one, and an eviction in between can leave two equal states alive.
        # Either is harmless: equal states give equal verdicts.
        return states.setdefault(
            currents, LabelState(table.label, currents, table.close_mask(currents))
        )

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    def _possible_mask(self, tree: Tree) -> int:
        """The states assignable to the root of ``tree`` (a bitmask)."""
        initial = self._initial
        state = initial.get(tree.label)
        if state is None:
            return 0
        for child in tree.children:
            if child.children:
                mask = self._possible_mask(child)
            else:  # a leaf's mask is its label's initial close mask
                leaf = initial.get(child.label)
                mask = leaf.close if leaf is not None else 0
            following = state.next.get(mask)
            if following is None:
                following = self._step(state, mask)
            if not following:
                return 0
            state = following
        return state.close

    def _element_mask(self, element: ET.Element) -> int:
        """:meth:`_possible_mask` over a parsed element (tags are labels)."""
        initial = self._initial
        state = initial.get(element.tag)
        if state is None:
            return 0
        for child in element:
            if len(child):
                mask = self._element_mask(child)
            else:
                leaf = initial.get(child.tag)
                mask = leaf.close if leaf is not None else 0
            following = state.next.get(mask)
            if following is None:
                following = self._step(state, mask)
            if not following:
                return 0
            state = following
        return state.close

    def _memoized_mask(self, tree: Tree) -> int:
        """:meth:`_possible_mask`, memoized per document object.

        The memo is keyed by object identity with the document pinned, so
        re-validating the same (immutable) document object -- the common
        case for resource peers -- is a dictionary lookup.
        """
        entry = self._document_memo.get(id(tree))
        if entry is not None and entry[0] is tree:
            # Lock-free like the engine caches: move_to_end may race a
            # concurrent eviction (recency lost, value valid).
            try:
                self._document_memo.move_to_end(id(tree))
            except KeyError:
                pass
            self.engine.stats.record_hit("batch-validate")
            return entry[1]
        self.engine.stats.record_miss("batch-validate")
        mask = self._possible_mask(tree)
        self._document_memo[id(tree)] = (tree, mask)
        if len(self._document_memo) > _DOCUMENT_MEMO_CAPACITY:
            try:
                self._document_memo.popitem(last=False)
            except KeyError:
                pass
            else:
                self.engine.stats.record_eviction("batch-validate")
        return mask

    def states_of(self, mask: int) -> frozenset:
        """The states whose bits ``mask`` sets."""
        order = self._state_order
        return frozenset(order[index] for index in iter_bits(mask))

    def possible_states(self, tree: Tree) -> frozenset:
        """The states assignable to the root of ``tree``, memoized per document."""
        return self.states_of(self._memoized_mask(tree))

    def accepts(self, tree: Tree) -> bool:
        return bool(self._memoized_mask(tree) & self._finals_mask)

    def accepts_payload(self, payload: Union[bytes, str]) -> bool:
        """Membership of one serialised document, from its bytes.

        One pass of the C parser (:func:`parse_payload`), then
        :meth:`accepts_element` over the parsed elements.  Nothing is
        memoized per document -- a publication is validated once, so an
        identity memo would only pin it.  Malformed input raises
        :class:`~repro.errors.InvalidXMLError` with the parser's message,
        as every parsing surface does.
        """
        try:
            root = parse_payload(payload)
        except ET.ParseError as error:
            raise InvalidXMLError(f"malformed XML: {error}") from None
        return self.accepts_element(root)

    def accepts_element(self, root: ET.Element) -> bool:
        """Membership of a document the C parser already parsed.

        The element fold over the parsed elements.  A document too deep
        for the recursive fold gets its verdict from the streaming run's
        iterative fold.
        """
        try:
            mask = self._element_mask(root)
        except RecursionError:
            from repro.streaming.machine import fold_element

            return fold_element(self, root)
        return bool(mask & self._finals_mask)


@dataclass(frozen=True)
class BatchReport:
    """The outcome of validating a batch of documents against one schema."""

    results: tuple[bool, ...]

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def valid_count(self) -> int:
        return sum(self.results)

    @property
    def all_valid(self) -> bool:
        return all(self.results)

    def __str__(self) -> str:
        return f"{self.valid_count}/{self.total} documents valid"


class BatchValidator:
    """Validate many documents (or many peers' documents) against one schema."""

    def __init__(self, schema, engine=None) -> None:
        self.compiled = CompiledSchema(schema, engine)

    @property
    def schema(self):
        return self.compiled.schema

    def validate(self, document: Tree) -> bool:
        """Membership of one document in the compiled schema's language."""
        return self.compiled.accepts(document)

    def validate_payload(self, payload: Union[bytes, str]) -> bool:
        """Membership of one serialised document, bytes to verdict.

        Raises :class:`~repro.errors.InvalidXMLError` on malformed or
        truncated input; see :meth:`CompiledSchema.accepts_payload`.
        """
        return self.compiled.accepts_payload(payload)

    def validate_many(self, documents: Iterable[Tree]) -> list[bool]:
        """Validate a batch against the compiled automaton, one verdict each."""
        return [self.compiled.accepts(document) for document in documents]

    def report(self, documents: Iterable[Tree]) -> BatchReport:
        return BatchReport(tuple(self.validate_many(documents)))

    def first_invalid(self, documents: Iterable[Tree]) -> Optional[Tree]:
        """The first document rejected by the schema, or ``None``."""
        for document in documents:
            if not self.compiled.accepts(document):
                return document
        return None
