"""R-DTDs: the paper's abstraction of W3C DTDs (Definition 3).

An R-DTD is a triple ``<Sigma, pi, s>``: an alphabet of element names, a
mapping from element names to content models (R-types over ``Sigma``) and a
start symbol.  A tree is valid when its root is labelled ``s`` and the
children string of every node belongs to the content model of the node's
label.

The module also implements the *dual* automaton (Definition 4), the notion
of *reduced* DTD (Definition 5) with the reduction procedure sketched in the
paper, and DTD equivalence via Proposition 4.1.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable, Optional

from repro.errors import SchemaError
from repro.automata import operations as ops
from repro.automata.dfa import DFA
from repro.automata.equivalence import equivalent as nfa_equivalent
from repro.automata.nfa import NFA
from repro.schemas.content_model import ContentModel, Formalism, LanguageLike, content_model
from repro.trees.automata import UnrankedTreeAutomaton
from repro.trees.document import Tree


class DTD:
    """An R-DTD ``<Sigma, pi, s>``.

    Parameters
    ----------
    start:
        The start symbol ``s``.
    rules:
        Mapping from element names to content models (anything accepted by
        :class:`~repro.schemas.content_model.ContentModel`).  Element names
        that occur in content models but have no rule are leaf-only, i.e.
        their content model is ``ε`` -- this is the convention the paper
        adopts ("if no rule is given for a label, nodes with this label are
        assumed to be (solely) leaves").
    formalism:
        The content-model formalism ``R``; it applies to every rule given as
        text or expression.
    alphabet:
        Optional extra element names to include in ``Sigma``.
    """

    schema_language = "DTD"

    def __init__(
        self,
        start: str,
        rules: Mapping[str, LanguageLike],
        formalism: Formalism | str = Formalism.NRE,
        alphabet: Iterable[str] = (),
    ) -> None:
        self.start = start
        self.formalism = Formalism(formalism)
        self.rules: dict[str, ContentModel] = {
            name: content_model(model, self.formalism) for name, model in rules.items()
        }
        names = set(alphabet) | {start} | set(self.rules)
        for model in self.rules.values():
            names |= set(model.nfa.alphabet)
        self.alphabet = frozenset(names)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    def content(self, name: str) -> ContentModel:
        """``pi(name)``; element names without a rule are leaf-only (``ε``)."""
        if name not in self.alphabet:
            raise SchemaError(f"{name!r} is not an element name of this DTD")
        model = self.rules.get(name)
        if model is None:
            return content_model("ε", self.formalism)  # one automaton for every leaf
        return model

    @property
    def size(self) -> int:
        """Size measure: element names plus the sizes of all content models."""
        return len(self.alphabet) + sum(model.size for model in self.rules.values())

    def describe(self) -> str:
        """A textual rendering in the paper's arrow notation (Figure 4 style)."""
        lines = []
        for name in sorted(self.rules):
            lines.append(f"{name} -> {self.rules[name]}")
        return "\n".join(lines) if lines else f"{self.start} (all elements are leaves)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DTD(start={self.start!r}, elements={len(self.alphabet)})"

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def validate(self, tree: Tree) -> bool:
        """Is ``tree`` in ``[tau]``?"""
        return self.validation_error(tree) is None

    def validation_error(self, tree: Tree) -> Optional[str]:
        """``None`` when valid, otherwise a human-readable reason."""
        if tree.label != self.start:
            return f"root is {tree.label!r} but the DTD requires {self.start!r}"
        for path, node in tree.nodes():
            if node.label not in self.alphabet:
                return f"unknown element {node.label!r} at {path!r}"
            model = self.content(node.label)
            child_string = tuple(child.label for child in node.children)
            if not model.accepts(child_string):
                return (
                    f"children {' '.join(child_string) or 'ε'} of {node.label!r} at {path!r} "
                    f"do not match its content model {model}"
                )
        return None

    # ------------------------------------------------------------------ #
    # automata views
    # ------------------------------------------------------------------ #

    def to_uta(self) -> UnrankedTreeAutomaton:
        """The unranked tree automaton with one state per element name.

        Each horizontal automaton is the content model's own NFA, over the
        names the rule reads, so equal rules of different DTDs compile once.
        """
        horizontal = {(name, name): self.content(name).nfa for name in self.alphabet}
        return UnrankedTreeAutomaton(self.alphabet, self.alphabet, horizontal, {self.start})

    def dual(self) -> DFA:
        """The dual dFA of Definition 4 (the *vertical* language of the DTD)."""
        initial = "__q0__"
        states = {initial} | {f"q_{name}" for name in self.alphabet}
        transitions: dict[tuple[str, str], str] = {(initial, self.start): f"q_{self.start}"}
        finals = set()
        for name in self.alphabet:
            model = self.content(name)
            for child in model.used_symbols():
                transitions[(f"q_{name}", child)] = f"q_{child}"
            if model.accepts_epsilon():
                finals.add(f"q_{name}")
        return DFA(states, self.alphabet, transitions, initial, finals)

    # ------------------------------------------------------------------ #
    # reduction (Definition 5)
    # ------------------------------------------------------------------ #

    def bound_names(self) -> frozenset[str]:
        """Element names that can derive a finite tree (the *bound* states of Definition 5)."""
        bound: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name in self.alphabet:
                if name in bound:
                    continue
                model = self.content(name)
                allowed = ops.sigma_star(bound) if bound else NFA.epsilon_language()
                if not ops.intersection(model.nfa.with_alphabet(self.alphabet), allowed.with_alphabet(self.alphabet)).is_empty_language():
                    bound.add(name)
                    changed = True
        return frozenset(bound)

    def useful_names(self) -> frozenset[str]:
        """Element names that occur in at least one valid tree."""
        bound = self.bound_names()
        if self.start not in bound:
            return frozenset()
        useful = {self.start}
        queue = [self.start]
        while queue:
            name = queue.pop()
            model = self.content(name)
            realizable = ops.intersection(
                model.nfa.with_alphabet(self.alphabet), ops.sigma_star(bound).with_alphabet(self.alphabet)
            )
            for child in realizable.used_symbols():
                if child not in useful:
                    useful.add(child)
                    queue.append(child)
        return frozenset(useful)

    def is_empty(self) -> bool:
        """Does the DTD define the empty tree language?"""
        return self.start not in self.bound_names()

    def is_reduced(self) -> bool:
        """Is the DTD reduced in the sense of Definition 5?"""
        useful = self.useful_names()
        if not useful:
            return False
        if useful != self.alphabet:
            return False
        for name in self.alphabet:
            if not self.content(name).used_symbols() <= useful:
                return False
        return True

    def reduced(self) -> "DTD":
        """The reduced DTD describing the same language (Definition 5).

        Raises :class:`SchemaError` when the language is empty, because an
        empty language has no reduced DTD (the paper restricts attention to
        reduced types, for which ``[tau] != ∅``).
        """
        useful = self.useful_names()
        if not useful:
            raise SchemaError("the DTD defines the empty language and cannot be reduced")
        rules = {}
        for name in useful:
            if name not in self.rules:
                continue
            restricted = self.rules[name].nfa.restrict_alphabet(useful).trim()
            rules[name] = ContentModel(restricted, self.formalism, check=False)
        return DTD(self.start, rules, self.formalism, alphabet=useful)

    # ------------------------------------------------------------------ #
    # equivalence (Proposition 4.1)
    # ------------------------------------------------------------------ #

    def equivalent_to(self, other: "DTD") -> bool:
        """Language equivalence of two DTDs via Proposition 4.1.

        Both DTDs are reduced first; per the proposition, two reduced DTDs
        are equivalent iff they have the same root, the same element names
        and element-wise equivalent content models.
        """
        self_empty = self.is_empty()
        other_empty = other.is_empty()
        if self_empty or other_empty:
            return self_empty == other_empty
        left = self.reduced()
        right = other.reduced()
        if left.start != right.start:
            return False
        if left.alphabet != right.alphabet:
            return False
        for name in left.alphabet:
            if not nfa_equivalent(left.content(name).nfa, right.content(name).nfa, left.alphabet):
                return False
        return True
