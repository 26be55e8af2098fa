"""Batch validation: compile a schema once, validate many documents.

The seed's ``schema.validate(tree)`` rebuilt the unranked tree automaton
*and* re-ran every horizontal automaton with epsilon closures on every call
-- per document, per peer, per benchmark round.  :class:`CompiledSchema`
performs that work once: the tree automaton is built a single time, its
horizontal NFAs are lifted to the integer/bitset kernel through the
:class:`~repro.engine.compilation.CompilationEngine` (so peers whose local
types share content models share the compiled automata too), and the
bottom-up run loop works entirely on bitmasks -- a node's set of assignable
states is one ``int``, and each horizontal step is an OR over per-symbol
successor arrays, with no epsilon closures and no set objects.

:class:`BatchValidator` is the user-facing wrapper: it validates one
document, a batch of documents in a single pass, or produces a
:class:`BatchReport` for monitoring.  Its bytes entry
(:meth:`BatchValidator.validate_payload`) takes serialised XML straight
to a verdict: one C-parser pass (:func:`parse_payload`), then the same
bottom-up fold over the parser's elements
(:meth:`CompiledSchema.accepts_element`), with no :class:`Tree` built and
nothing memoized.  The two steps are public so that a caller can use one
parse twice: the runtime also fingerprints a registration document's
elements.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from repro.automata.kernel.compact import CompactNFA, iter_bits
from repro.trees.automata import UnrankedTreeAutomaton
from repro.trees.document import Tree

#: Bound on the per-schema memo of already-validated document objects.
_DOCUMENT_MEMO_CAPACITY = 512

#: Bound on each automaton's dense union-row cache (distinct child masks).
_UNION_ROW_CAPACITY = 4096


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


def _union_row(compiled: CompactNFA, child_mask: int) -> list[int]:
    """The dense successor row of a child symbol-set: entry ``q`` is
    ``Δ(closure(q), child_mask)``.  Single-symbol masks (the overwhelming
    DTD case) alias the automaton's own delta row -- no copy."""
    delta = compiled.delta
    low = child_mask & -child_mask
    if low == child_mask:
        return delta[low.bit_length() - 1]
    row = list(delta[low.bit_length() - 1])
    symbols_left = child_mask ^ low
    while symbols_left:
        low = symbols_left & -symbols_left
        symbols_left ^= low
        extra = delta[low.bit_length() - 1]
        for index in range(len(row)):
            value = extra[index]
            if value:
                row[index] |= value
    return row


class CompiledSchema:
    """A schema compiled for repeated membership tests.

    Parameters
    ----------
    schema:
        Anything with a ``to_uta()`` method (DTD / SDTD / EDTD /
        NormalizedEDTD) or an :class:`UnrankedTreeAutomaton` directly.
    engine:
        The compilation engine used to epsilon-free the horizontal automata;
        defaults to the process-wide engine, so structurally identical
        content models compile once across all schemas and peers.
    backend:
        Validation backend name (``python`` / ``codegen`` / ``numpy``),
        resolved through :func:`~repro.engine.backends.resolve_backend`
        (explicit argument > ``$REPRO_BACKEND`` > ``python``).  The
        non-``python`` backends attach a generated validator
        (:mod:`repro.engine.codegen`) that :meth:`accepts` routes through;
        verdicts are bit-identical to the interpreted kernel.
    """

    def __init__(self, schema, engine=None, backend=None) -> None:
        from repro.engine.backends import resolve_backend
        from repro.engine.compilation import SCHEMA_TO_UTA_KIND, get_default_engine
        from repro.engine.fingerprint import alphabet_key

        self.engine = engine if engine is not None else get_default_engine()
        self.schema = schema
        self.backend = resolve_backend(backend)
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
        self._state_bit = {state: 1 << i for i, state in enumerate(self._state_order)}
        self._finals_mask = 0
        for state in uta.finals:
            self._finals_mask |= self._state_bit[state]
        shared_alphabet = alphabet_key(map(repr, self._state_order))
        # Rules grouped by label: at a node labelled `l` only the (state, l)
        # horizontal automata can fire, so the bottom-up pass never scans the
        # full state set the way the seed's UTA membership did.  Each rule's
        # horizontal NFA is lifted to the kernel once, memoized by content
        # fingerprint, so peers whose local types share content models share
        # the compiled automata too.
        self._rules_by_label: dict[str, list[tuple[int, CompactNFA]]] = {}
        for (state, label), nfa in uta.horizontal.items():
            compiled = self.engine.memo(
                "compact-horizontal",
                (self.engine.fingerprint(nfa), shared_alphabet),
                lambda nfa=nfa: CompactNFA(nfa, self._state_order),
            )
            self._rules_by_label.setdefault(label, []).append(
                (self._state_bit[state], compiled)
            )
        self._document_memo: OrderedDict[int, tuple[Tree, frozenset]] = OrderedDict()
        #: Union-row cache counters (plain int adds on the kernel hot path;
        #: surfaced in ``engine_stats`` under the ``union-row`` kind).
        self._union_stats = self.engine.stats.kind_counters("union-row")
        self._codegen = None
        #: Verdict memo of the generated path (identity-keyed like
        #: ``_document_memo``, same ``batch-validate`` stats kind; kept
        #: separate so the two paths never mix value types under one id).
        self._codegen_verdicts: OrderedDict[int, tuple[Tree, bool]] = OrderedDict()
        if self.backend != "python":
            from repro.engine.codegen import codegen_validator_for

            self._codegen = codegen_validator_for(self, self.engine)

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    @staticmethod
    def _horizontal_accepts(
        compiled: CompactNFA, child_masks: Sequence[int], stats=None
    ) -> bool:
        """Does ``compiled`` accept some word drawn from the child bitmasks?

        Runs the ε-free (pre-closure convention) simulation entirely on
        integers: the current state set and every child's symbol set are
        bitmasks.  Each step reads one dense union row -- ``row[q] =
        Δ(closure(q), child_mask)`` -- from the automaton's bounded
        :attr:`~repro.automata.kernel.compact.CompactNFA.union_rows` cache
        (child symbol-sets recur constantly across sibling words), so the
        inner symbol scan runs only on a cache miss.  ``stats`` is an
        optional per-kind counter leaf (``union-row`` in ``engine_stats``)
        updated with plain int adds.
        """
        current = compiled.initial_mask
        if child_masks:
            union_rows = compiled.union_rows
            for child_mask in child_masks:
                row = union_rows.get(child_mask)
                if row is None:
                    if len(union_rows) >= _UNION_ROW_CAPACITY:
                        union_rows.clear()
                        if stats is not None:
                            stats.evictions += 1
                    row = union_rows[child_mask] = _union_row(compiled, child_mask)
                    if stats is not None:
                        stats.misses += 1
                elif stats is not None:
                    stats.hits += 1
                moved = 0
                states_left = current
                while states_left:
                    state_low = states_left & -states_left
                    moved |= row[state_low.bit_length() - 1]
                    states_left ^= state_low
                if not moved:
                    return False
                current = moved
        return bool(current & compiled.finals_closed)

    def _possible_mask(self, tree: Tree) -> int:
        child_masks = []
        for child in tree.children:
            mask = self._possible_mask(child)
            if not mask:
                return 0
            child_masks.append(mask)
        return self._label_mask(tree.label, child_masks)

    def _element_mask(self, element: ET.Element) -> int:
        """:meth:`_possible_mask` over a parsed element (tags are labels)."""
        child_masks = []
        for child in element:
            mask = self._element_mask(child)
            if not mask:
                return 0
            child_masks.append(mask)
        return self._label_mask(element.tag, child_masks)

    def _label_mask(self, label: str, child_masks: list[int]) -> int:
        """The states assignable to a ``label`` node with these children."""
        rules = self._rules_by_label.get(label)
        if not rules:
            return 0
        result = 0
        accepts = self._horizontal_accepts
        stats = self._union_stats
        for state_bit, compiled in rules:
            if accepts(compiled, child_masks, stats):
                result |= state_bit
        return result

    def _possible_states(self, tree: Tree) -> frozenset:
        order = self._state_order
        return frozenset(order[index] for index in iter_bits(self._possible_mask(tree)))

    def possible_states(self, tree: Tree) -> frozenset:
        """The states assignable to the root of ``tree``, memoized per document.

        The memo is keyed by object identity with the document pinned, so
        re-validating the same (immutable) document object -- the common case
        for resource peers -- is a dictionary lookup.
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
        states = self._possible_states(tree)
        self._document_memo[id(tree)] = (tree, states)
        if len(self._document_memo) > _DOCUMENT_MEMO_CAPACITY:
            try:
                self._document_memo.popitem(last=False)
            except KeyError:
                pass
            else:
                self.engine.stats.record_eviction("batch-validate")
        return states

    def accepts(self, tree: Tree) -> bool:
        if self._codegen is not None:
            # Same identity-keyed document memo contract as the interpreted
            # path (kind ``batch-validate``): re-validating the same pinned
            # document object is a dictionary hit, not a re-fold.
            memo = self._codegen_verdicts
            entry = memo.get(id(tree))
            if entry is not None and entry[0] is tree:
                try:
                    memo.move_to_end(id(tree))
                except KeyError:
                    pass
                self.engine.stats.record_hit("batch-validate")
                return entry[1]
            self.engine.stats.record_miss("batch-validate")
            verdict = self._codegen.validate_tree(tree)
            memo[id(tree)] = (tree, verdict)
            if len(memo) > _DOCUMENT_MEMO_CAPACITY:
                try:
                    memo.popitem(last=False)
                except KeyError:
                    pass
                else:
                    self.engine.stats.record_eviction("batch-validate")
            return verdict
        return bool(self.possible_states(tree) & self.finals)

    def accepts_payload(self, payload: Union[bytes, str]) -> bool:
        """Membership of one serialised document, from its bytes.

        One pass of the C parser (:func:`parse_payload`), then
        :meth:`accepts_element` over the parsed elements.  Nothing is
        memoized -- a publication is validated once, so an identity memo
        would only pin it.  A payload the parser rejects is replayed
        through the interpreted streaming machine, which raises the same
        typed :class:`~repro.errors.InvalidXMLError` the streaming surface
        does.
        """
        try:
            root = parse_payload(payload)
        except ET.ParseError:
            return self._replay(payload)
        return self.accepts_element(root, payload)

    def accepts_element(self, root: ET.Element, payload: Union[bytes, str]) -> bool:
        """Membership of a document the C parser already parsed from ``payload``.

        The backend's fold over the parsed elements: the interpreted
        :meth:`_horizontal_accepts` kernel on ``python``, the generated
        ``_mask_of`` on ``codegen``/``numpy``.  A document too deep for
        the recursive fold gets its verdict by replaying ``payload``
        through the iterative streaming machine.
        """
        try:
            if self._codegen is not None:
                mask = self._codegen._mask_of(root)
            else:
                mask = self._element_mask(root)
        except RecursionError:
            return self._replay(payload)
        return bool(mask & self._finals_mask)

    def _replay(self, payload: Union[bytes, str]) -> bool:
        from repro.streaming.machine import streaming_validator_for

        machine = streaming_validator_for(self, self.engine, backend="python")
        return machine.validate_payload(payload)


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
    """Validate many documents (or many peers' documents) against one schema.

    ``backend`` selects the validation strategy (see
    :mod:`repro.engine.backends`); verdicts are identical across backends.
    """

    def __init__(self, schema, engine=None, backend=None) -> None:
        self.compiled = CompiledSchema(schema, engine, backend=backend)

    @property
    def schema(self):
        return self.compiled.schema

    @property
    def backend(self) -> str:
        return self.compiled.backend

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
        """Validate a batch in one pass over the compiled automaton.

        The ``numpy`` backend steps the whole batch level-by-level through
        vectorized boolean tensors (many documents, one schema); the other
        backends validate per document.
        """
        if self.compiled.backend == "numpy":
            from repro.engine.backends import validate_many_vectorized

            return validate_many_vectorized(self.compiled, list(documents))
        return [self.compiled.accepts(document) for document in documents]

    def report(self, documents: Iterable[Tree]) -> BatchReport:
        return BatchReport(tuple(self.validate_many(documents)))

    def first_invalid(self, documents: Iterable[Tree]) -> Optional[Tree]:
        """The first document rejected by the schema, or ``None``."""
        for document in documents:
            if not self.compiled.accepts(document):
                return document
        return None
