"""Fingerprint stability: equal structure ⟹ equal digest, and the converse risks."""

from __future__ import annotations

import sys

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.automata.regex import parse_regex
from repro.engine.batch import parse_payload
from repro.engine.fingerprint import (
    alphabet_key,
    dfa_fingerprint,
    nfa_fingerprint,
    tree_fingerprint,
    uta_fingerprint,
)
from repro.trees.document import Tree


def _nfa_of(text: str) -> NFA:
    return parse_regex(text).to_nfa()


def test_identical_construction_same_fingerprint():
    assert nfa_fingerprint(_nfa_of("a*, b")) == nfa_fingerprint(_nfa_of("a*, b"))


def test_fingerprint_is_deterministic_per_object():
    nfa = _nfa_of("(a | b)*, c")
    assert nfa_fingerprint(nfa) == nfa_fingerprint(nfa)


def test_different_languages_different_fingerprints():
    assert nfa_fingerprint(_nfa_of("a, b")) != nfa_fingerprint(_nfa_of("b, a"))
    assert nfa_fingerprint(_nfa_of("a*")) != nfa_fingerprint(_nfa_of("a+"))


def test_finals_and_alphabet_affect_fingerprint():
    base = NFA({0, 1}, {"a"}, {0: {"a": {1}}}, 0, {1})
    no_finals = NFA({0, 1}, {"a"}, {0: {"a": {1}}}, 0, set())
    wider = NFA({0, 1}, {"a", "b"}, {0: {"a": {1}}}, 0, {1})
    assert nfa_fingerprint(base) != nfa_fingerprint(no_finals)
    assert nfa_fingerprint(base) != nfa_fingerprint(wider)


def test_dfa_fingerprint_invariant_under_state_renaming():
    transitions = {("p", "a"): "q", ("q", "b"): "p"}
    left = DFA({"p", "q"}, {"a", "b"}, transitions, "p", {"q"})
    renamed = DFA(
        {"x", "y"}, {"a", "b"}, {("x", "a"): "y", ("y", "b"): "x"}, "x", {"y"}
    )
    assert dfa_fingerprint(left) == dfa_fingerprint(renamed)


def test_dfa_fingerprint_separates_structures():
    left = DFA({"p", "q"}, {"a"}, {("p", "a"): "q"}, "p", {"q"})
    loop = DFA({"p", "q"}, {"a"}, {("p", "a"): "q", ("q", "a"): "q"}, "p", {"q"})
    assert dfa_fingerprint(left) != dfa_fingerprint(loop)


def test_epsilon_transitions_are_fingerprinted():
    with_eps = NFA({0, 1}, {"a"}, {0: {"": {1}}, 1: {"a": {1}}}, 0, {1})
    without = NFA({0, 1}, {"a"}, {0: {"a": {1}}, 1: {"a": {1}}}, 0, {1})
    assert nfa_fingerprint(with_eps) != nfa_fingerprint(without)


def test_alphabet_key_is_order_insensitive():
    assert alphabet_key(["b", "a"]) == alphabet_key(("a", "b"))
    assert alphabet_key(["a"]) != alphabet_key(["a", "b"])


def test_uta_fingerprint_tracks_schema_structure():
    from repro.api import dtd

    left = dtd("s", {"s": "a*, b"})
    right = dtd("s", {"s": "a*, b"})
    other = dtd("s", {"s": "a*, c"})
    assert uta_fingerprint(left.to_uta()) == uta_fingerprint(right.to_uta())
    assert uta_fingerprint(left.to_uta()) != uta_fingerprint(other.to_uta())


# --------------------------------------------------------------------------- #
# tree addresses
# --------------------------------------------------------------------------- #

#: Labels made of digits, separators and non-ASCII: the characters a
#: decimal or delimited encoding of the tree would itself be written in.
labels = st.text(alphabet="01,;x\u00e9\u00df\u4e2d\x01", min_size=1, max_size=3)

trees = st.recursive(
    labels.map(Tree.leaf),
    lambda children: st.builds(Tree, labels, st.lists(children, max_size=3).map(tuple)),
    max_leaves=8,
)


def same_tree(left: Tree, right: Tree) -> bool:
    """Equality of values, walked without recursion (trees can be deeper than its limit)."""
    pending = [(left, right)]
    while pending:
        one, other = pending.pop()
        if one.label != other.label or len(one.children) != len(other.children):
            return False
        pending.extend(zip(one.children, other.children))
    return True


def chain(cycle: list, depth: int) -> Tree:
    """A path of ``depth`` nodes labelled by repeating ``cycle`` from the leaf up."""
    tree = Tree.leaf(cycle[0])
    for level in range(1, depth):
        tree = Tree(cycle[level % len(cycle)], (tree,))
    return tree


def rebuilt(tree: Tree) -> Tree:
    """An equal tree made of fresh objects."""
    return Tree(tree.label, tuple(rebuilt(child) for child in tree.children))


@given(trees, trees)
def test_equal_tree_fingerprints_only_for_equal_trees(left, right):
    assert (tree_fingerprint(left) == tree_fingerprint(right)) is same_tree(left, right)
    assert tree_fingerprint(rebuilt(left)) == tree_fingerprint(left)


@given(trees)
def test_regrouped_labels_address_apart(tree):
    """Moving label text between a node and its child, or splitting it, changes the address."""
    joined = Tree(tree.label + "1,", tree.children)
    split = Tree(tree.label, (Tree.leaf("1,"),) + tree.children)
    assert len({tree_fingerprint(tree), tree_fingerprint(joined), tree_fingerprint(split)}) == 3


@settings(max_examples=10)
@given(st.lists(labels, min_size=1, max_size=3), st.lists(labels, min_size=1, max_size=3))
def test_documents_deeper_than_the_recursion_limit(left_cycle, right_cycle):
    depth = sys.getrecursionlimit() + 100
    left, right = chain(left_cycle, depth), chain(right_cycle, depth)
    assert (tree_fingerprint(left) == tree_fingerprint(right)) is same_tree(left, right)
    assert tree_fingerprint(chain(left_cycle, depth + 1)) != tree_fingerprint(left)


def test_deep_element_addresses_like_its_tree():
    depth = sys.getrecursionlimit() + 100
    payload = "<r>" + "<\u00e9>" * depth + "</\u00e9>" * depth + "</r>"
    assert tree_fingerprint(parse_payload(payload)) == tree_fingerprint(
        Tree("r", (chain(["\u00e9"], depth),))
    )
