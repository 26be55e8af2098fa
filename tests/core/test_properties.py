"""Property-based tests for the design-theory core.

The invariants checked here are the paper's own lemmas:

* the automaton ``w(τn)`` defines exactly the extension language
  (Section 2.3),
* ``[Ω] ⊆ [A]`` (Lemma 6.1),
* every typing made of single legal fragments is sound (Lemma 6.2),
* every sound typing is component-wise below ``(Ωn)`` (Theorem 6.3),
* ``[T(τn)] = extT(τn)`` for tree designs (Theorem 3.2),
* every perfect typing found is a unique maximal local typing
  (Theorem 2.1).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.automata.equivalence import includes
from repro.automata.nfa import NFA
from repro.automata.regex import Concat, Epsilon, Opt, Regex, Star, Sym, Union
from repro.core.consistency import build_combined_type
from repro.core.kernel import KernelTree
from repro.core.locality import is_local, is_maximal_local, is_perfect
from repro.core.perfect import PerfectAutomaton, word_find_perfect_typing, word_is_perfect
from repro.core.typing import TreeTyping
from repro.core.words import KernelString, word_is_sound
from repro.schemas.dtd import DTD
from repro.trees.document import Tree

ALPHABET = ("a", "b", "c")
symbols = st.sampled_from(ALPHABET)

regexes = st.recursive(
    st.one_of(symbols.map(Sym), st.just(Epsilon())),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda pair: Union(pair)),
        st.tuples(children, children).map(lambda pair: Concat(pair)),
        children.map(Star),
        children.map(Opt),
    ),
    max_leaves=4,
)

#: Kernel strings with one or two functions and short fixed words.
kernel_strings = st.builds(
    lambda w0, w1, w2, two: KernelString(
        [w0, w1, w2] if two else [w0, w1],
        ["f1", "f2"] if two else ["f1"],
    ),
    st.lists(symbols, max_size=2).map(tuple),
    st.lists(symbols, max_size=2).map(tuple),
    st.lists(symbols, max_size=2).map(tuple),
    st.booleans(),
)


def _typing_for(kernel: KernelString, components: list[Regex]) -> list[NFA]:
    return [components[i % len(components)].to_nfa() for i in range(kernel.n)]


class TestWordLevelInvariants:
    @given(kernel_strings, regexes, regexes)
    def test_extension_automaton_matches_brute_force(self, kernel, first, second):
        typing = _typing_for(kernel, [first, second])
        automaton = kernel.build(typing)
        expected = kernel.extension_words(typing, max_component_length=2)
        bound = max((len(word) for word in expected), default=0)
        observed = {word for word in automaton.enumerate_language(bound)}
        assert expected <= observed
        for word in observed:
            assert automaton.accepts(word)

    @given(kernel_strings, regexes)
    def test_omega_is_contained_in_the_target(self, kernel, target_regex):
        target = target_regex.to_nfa()
        perfect = PerfectAutomaton(target, kernel)
        if perfect.compatible:
            assert includes(perfect.target, perfect.omega_nfa())

    @given(kernel_strings, regexes)
    def test_single_fragment_typings_are_sound(self, kernel, target_regex):
        # Lemma 6.2: any typing built from one legal local automaton per gap is sound.
        target = target_regex.to_nfa()
        perfect = PerfectAutomaton(target, kernel)
        if not perfect.compatible:
            return
        typing = []
        for gap in range(1, kernel.n + 1):
            fragments = perfect.local_automata(gap)
            if not fragments:
                return
            typing.append(fragments[0])
        assert word_is_sound(perfect.target, kernel, typing)

    @given(kernel_strings, regexes, regexes)
    def test_sound_typings_are_below_omega(self, kernel, target_regex, component_regex):
        # Theorem 6.3: (τn) sound implies (τn) ≤ (Ωn).
        target = target_regex.to_nfa()
        typing = _typing_for(kernel, [component_regex])
        if not word_is_sound(target, kernel, typing):
            return
        perfect = PerfectAutomaton(target, kernel)
        omega = perfect.omega_typing()
        for component, bound in zip(typing, omega):
            assert includes(bound, component, perfect.alphabet)

    @given(kernel_strings, regexes)
    @settings(max_examples=15)
    def test_found_perfect_typings_verify(self, kernel, target_regex):
        target = target_regex.to_nfa()
        found = word_find_perfect_typing(target, kernel)
        if found is None:
            return
        assert word_is_perfect(target, kernel, list(found))


class TestTreeLevelInvariants:
    @given(st.lists(st.sampled_from(["a", "b"]), min_size=0, max_size=3), regexes)
    @settings(max_examples=15)
    def test_combined_type_accepts_exactly_the_extensions(self, fixed_children, component):
        # Theorem 3.2 on a one-function kernel: T = s0(<fixed children> f1).
        children = list(fixed_children) + ["f1"]
        kernel = KernelTree(Tree("s0", tuple(Tree.leaf(label) for label in children)))
        schema = DTD("s1", {"s1": component})
        typing = TreeTyping({"f1": schema})
        combined = build_combined_type(kernel, typing)
        # Sample a few documents of the resource and check their extensions validate.
        for word in list(schema.content("s1").nfa.enumerate_language(2))[:5]:
            forest = tuple(Tree.leaf(symbol) for symbol in word)
            extension = kernel.extension_from_forests({"f1": forest})
            assert combined.validate(extension)
        # A document not of the extension shape is rejected.
        assert not combined.validate(Tree.leaf("zzz"))

    @given(regexes)
    @settings(max_examples=10)
    def test_perfect_typings_are_unique_maximal_local(self, target_regex):
        # Theorem 2.1 on the design <s0 -> r, s0(f1 a f2)>.
        target = DTD("s0", {"s0": Concat((target_regex, Sym("a"), Opt(target_regex)))})
        from repro.core.design import TopDownDesign
        from repro.core.existence import find_maximal_local_typings, find_perfect_typing

        design = TopDownDesign(target, KernelTree("s0(f1 a f2)"))
        perfect = find_perfect_typing(design)
        if perfect is None:
            return
        assert is_local(design, perfect)
        assert is_maximal_local(design, perfect)
        assert is_perfect(design, perfect)
        others = find_maximal_local_typings(design, limit=4)
        for other in others:
            assert other.equivalent_to(perfect)
