"""Canonical fingerprints for content-addressing automata.

A fingerprint is a short hex digest over a canonical serialisation of an
automaton's states, transitions, finals and alphabet.  Two automata with the
same fingerprint are structurally identical up to the canonical state
renaming, hence define the same language -- which is what makes fingerprints
sound both as cache keys and as an equivalence fast-path.

Canonicalisation orders states by breadth-first discovery from the initial
state (labels visited in sorted order, targets in a stable order), so the
fingerprint does not depend on the incidental iteration order of the
underlying dictionaries and sets.  For DFAs the breadth-first order is fully
determined by the transition structure, so the DFA fingerprint is invariant
under state renaming; for NFAs ties among targets of one transition are
broken by ``repr`` (the same stable order the rest of the library uses), so
the NFA fingerprint is stable for identically-constructed automata, which is
exactly the sharing that occurs when content models are reused across rules,
nodes and peers.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET
from collections import deque
from collections.abc import Iterable
from operator import attrgetter
from typing import Union

from repro.automata.dfa import DFA
from repro.automata.nfa import EPSILON, NFA
from repro.trees.document import Tree

#: Number of hex characters kept from the sha256 digest (128 bits).
_DIGEST_LENGTH = 32

_tag_of = attrgetter("tag")


def _digest(parts: Iterable[str]) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()[:_DIGEST_LENGTH]


def alphabet_key(symbols: Iterable[str]) -> str:
    """A canonical digest of a symbol set (used inside pairwise cache keys)."""
    return _digest(sorted(symbols))


def _nfa_state_order(nfa: NFA) -> dict[object, int]:
    """Canonical state indices: BFS from the initial state, then leftovers."""
    order: dict[object, int] = {nfa.initial: 0}
    queue = deque([nfa.initial])
    while queue:
        state = queue.popleft()
        row = nfa.transitions.get(state, {})
        for label in sorted(row):
            for target in sorted(row[label], key=repr):
                if target not in order:
                    order[target] = len(order)
                    queue.append(target)
    for state in sorted(nfa.states - order.keys(), key=repr):
        order[state] = len(order)
    return order


def nfa_fingerprint(nfa: NFA) -> str:
    """Content-address an NFA (epsilon transitions included verbatim)."""
    order = _nfa_state_order(nfa)
    triples = sorted(
        (order[src], label if label != EPSILON else "\x00ε", order[dst])
        for src, label, dst in nfa.iter_transitions()
    )
    parts = [
        "nfa",
        str(len(nfa.states)),
        ",".join(sorted(nfa.alphabet)),
        ",".join(str(order[state]) for state in sorted(nfa.finals, key=order.__getitem__)),
        ";".join(f"{src}>{label}>{dst}" for src, label, dst in triples),
    ]
    return _digest(parts)


def _dfa_state_order(dfa: DFA) -> dict[object, int]:
    order: dict[object, int] = {dfa.initial: 0}
    queue = deque([dfa.initial])
    symbols = sorted(dfa.alphabet)
    while queue:
        state = queue.popleft()
        for symbol in symbols:
            target = dfa.transitions.get((state, symbol))
            if target is not None and target not in order:
                order[target] = len(order)
                queue.append(target)
    for state in sorted(dfa.states - order.keys(), key=repr):
        order[state] = len(order)
    return order


def dfa_fingerprint(dfa: DFA) -> str:
    """Content-address a DFA; invariant under renaming of reachable states."""
    order = _dfa_state_order(dfa)
    triples = sorted(
        (order[src], symbol, order[dst]) for (src, symbol), dst in dfa.transitions.items()
    )
    parts = [
        "dfa",
        str(len(dfa.states)),
        ",".join(sorted(dfa.alphabet)),
        ",".join(str(order[state]) for state in sorted(dfa.finals, key=order.__getitem__)),
        ";".join(f"{src}>{symbol}>{dst}" for src, symbol, dst in triples),
    ]
    return _digest(parts)


def tree_fingerprint(tree: Union[Tree, ET.Element]) -> str:
    """Content-address a document (an ordered unranked tree).

    Two trees share a fingerprint iff they are equal as values (same shape,
    same labels) -- regardless of object identity.  This is what lets the
    distributed runtime detect that a peer re-published the *same content*
    as a fresh object (the common case after a round-trip through
    serialisation) and skip revalidating it.

    ``tree`` is a :class:`Tree` or the root of the C parser's element tree,
    whose tags are the labels: a document parsed from text addresses
    exactly like the :class:`Tree` built from the same elements, so the
    runtime can content-address a registration document without building
    that tree.

    The canonical serialisation is ``arities ; label-lengths \\x01 labels``
    over the preorder traversal: the preorder arity sequence determines the
    shape, the length sequence splits the concatenated labels unambiguously
    (whatever characters they contain), and the metadata prefix is pure
    digits/punctuation so the first ``\\x01`` is always the delimiter.  It
    sits on the runtime's per-round hot path, so everything is built with
    bulk string operations and hashed in one call; both traversals are
    iterative because documents can be deeper than the recursion limit.
    """
    if isinstance(tree, Tree):
        labels: list[str] = []
        arities: list[int] = []
        stack: list[Tree] = [tree]
        pop = stack.pop
        add_label = labels.append
        add_arity = arities.append
        while stack:
            node = pop()
            add_label(node.label)
            children = node.children
            add_arity(len(children))
            if children:
                stack.extend(reversed(children))
    else:
        # Element.iter() walks in document (pre)order with its own stack.
        elements = list(tree.iter())
        labels = list(map(_tag_of, elements))
        arities = list(map(len, elements))
    blob = "%s;%s\x01%s" % (
        ",".join(map(str, arities)),
        ",".join(map(str, map(len, labels))),
        "".join(labels),
    )
    return hashlib.sha256(b"tree\x00" + blob.encode("utf-8")).hexdigest()[:_DIGEST_LENGTH]


def payload_fingerprint(payload: str | bytes) -> str:
    """Content-address a serialised document (its wire bytes).

    Hashing the bytes of a publication is an order of magnitude cheaper
    than parsing it -- sha256 runs at native speed -- so the runtime checks
    this digest *before* parsing and skips clean re-publications entirely.
    Byte equality is sufficient (not necessary) for content equality: a
    peer serialising the same document differently merely loses the
    skip, never soundness.
    """
    data = payload.encode("utf-8") if isinstance(payload, str) else payload
    return hashlib.sha256(b"payload\x00" + data).hexdigest()[:_DIGEST_LENGTH]


def payload_hasher():
    """An incremental hasher whose digest matches :func:`payload_fingerprint`.

    The streaming ingest path hashes a publication chunk by chunk while
    validating it -- feed each chunk with ``update()`` and finish with
    :func:`payload_hexdigest`; the result equals
    ``payload_fingerprint(b"".join(chunks))``, so streamed and whole-payload
    publications of the same bytes content-address identically.
    """
    return hashlib.sha256(b"payload\x00")


def payload_hexdigest(hasher) -> str:
    """Finish an incremental :func:`payload_hasher` (canonical truncation)."""
    return hasher.hexdigest()[:_DIGEST_LENGTH]


def uta_fingerprint(uta) -> str:
    """Content-address an unranked tree automaton through its horizontal NFAs.

    The digest covers the vertical states, the label alphabet, the final
    states and, for every ``(state, label)`` rule, the fingerprint of its
    horizontal automaton -- so two schemas compiled to structurally identical
    tree automata share one fingerprint (and hence one cached verdict for
    every tree-language comparison they take part in).
    """
    rules = sorted(
        (repr(state), label, nfa_fingerprint(nfa))
        for (state, label), nfa in uta.horizontal.items()
    )
    parts = [
        "uta",
        ",".join(sorted(map(repr, uta.states))),
        ",".join(sorted(uta.alphabet)),
        ",".join(sorted(map(repr, uta.finals))),
        ";".join(f"{state}@{label}:{digest}" for state, label, digest in rules),
    ]
    return _digest(parts)
