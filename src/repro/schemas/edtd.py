"""R-EDTDs: extended DTDs / regular tree grammars (Definition 7).

An R-EDTD is a quintuple ``<Sigma, Sigma~, pi, s~, mu>``: a set of
*specialised* element names ``Sigma~``, an R-DTD over them, and a mapping
``mu`` onto the plain element names.  A tree over ``Sigma`` is valid when
some *witness* tree over ``Sigma~`` is valid for the underlying DTD and maps
to it under ``mu``.  EDTDs capture exactly the unranked regular tree
languages (Relax NG); SDTDs (W3C XSD) are the single-type restriction and
are implemented as a subclass in :mod:`repro.schemas.sdtd`.

The module also provides the *normalisation* of Section 4.3: every EDTD is
converted, through tree-automaton determinisation, into an equivalent
:class:`NormalizedEDTD` in which two distinct specialisations of the same
element name always denote disjoint tree languages (Lemma 4.10).  The
normalised form is what the top-down EDTD typing algorithms work on.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from typing import Iterable

from repro.errors import SchemaError
from repro.automata import operations as ops
from repro.automata.nfa import NFA
from repro.schemas.content_model import ContentModel, Formalism, LanguageLike, content_model
from repro.trees.automata import UnrankedTreeAutomaton, deterministic_state_assignments
from repro.trees.document import Tree


class EDTD:
    """An R-EDTD ``<Sigma, Sigma~, pi, s~, mu>``.

    Parameters
    ----------
    start:
        The start specialised name ``s~``.
    rules:
        Mapping from specialised names to content models *over specialised
        names*.  Specialised names that occur only inside content models are
        leaf-only.
    mu:
        Mapping from specialised names to element names.  Names missing from
        the mapping map to themselves (i.e. they are not really specialised),
        which keeps simple examples concise.
    formalism:
        The content-model formalism ``R``.
    """

    schema_language = "EDTD"

    def __init__(
        self,
        start: str,
        rules: Mapping[str, LanguageLike],
        mu: Mapping[str, str] | None = None,
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
        self.specialized_names = frozenset(names)
        mapping = dict(mu or {})
        for name in self.specialized_names:
            mapping.setdefault(name, name)
        unknown = set(mapping) - set(self.specialized_names)
        if unknown:
            raise SchemaError(f"mu maps unknown specialised names {sorted(unknown)!r}")
        self.mu = mapping
        self.alphabet = frozenset(self.mu[name] for name in self.specialized_names)
        self._post_init_check()

    def _post_init_check(self) -> None:
        """Hook for subclasses (the single-type requirement of SDTDs)."""

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    def content(self, name: str) -> ContentModel:
        """``pi(name)`` over specialised names; missing rules mean leaf-only."""
        if name not in self.specialized_names:
            raise SchemaError(f"{name!r} is not a specialised name of this type")
        model = self.rules.get(name)
        if model is None:
            return content_model("ε", self.formalism)
        return model

    def specializations(self, element: str) -> frozenset[str]:
        """``Sigma~(a)``: the specialised names mapping to ``element``."""
        return frozenset(name for name in self.specialized_names if self.mu[name] == element)

    def element_of(self, name: str) -> str:
        """``mu(name)``."""
        return self.mu[name]

    @property
    def root_element(self) -> str:
        """The element name of the root (``mu(s~)``)."""
        return self.mu[self.start]

    @property
    def size(self) -> int:
        """Size measure: specialised names plus the sizes of all content models."""
        return len(self.specialized_names) + sum(model.size for model in self.rules.values())

    def describe(self) -> str:
        """A textual rendering in the paper's arrow notation (Figure 6 style)."""
        lines = []
        for name in sorted(self.rules):
            element = self.mu[name]
            shown = name if element == name else f"{name}[{element}]"
            lines.append(f"{shown} -> {self.rules[name]}")
        return "\n".join(lines) if lines else f"{self.start} (all elements are leaves)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(start={self.start!r}, "
            f"specialized={len(self.specialized_names)}, elements={len(self.alphabet)})"
        )

    # ------------------------------------------------------------------ #
    # semantics
    # ------------------------------------------------------------------ #

    def to_uta(self) -> UnrankedTreeAutomaton:
        """The nUTA whose states are the specialised names (see ``DTD.to_uta``)."""
        horizontal = {
            (name, self.mu[name]): self.content(name).nfa for name in self.specialized_names
        }
        return UnrankedTreeAutomaton(
            self.specialized_names, self.alphabet, horizontal, {self.start}
        )

    def validate(self, tree: Tree) -> bool:
        """Is ``tree`` in ``[tau]``?  (Some witness over ``Sigma~`` exists.)"""
        return self.to_uta().accepts(tree)

    def possible_witness_names(self, tree: Tree) -> frozenset[str]:
        """The specialised names assignable to the root of ``tree``."""
        return self.to_uta().possible_states(tree)

    def with_start(self, start: str) -> "EDTD":
        """The type ``tau(a~)`` of Lemma 3.4: same rules, different start."""
        return EDTD(start, self.rules, self.mu, self.formalism, alphabet=self.specialized_names)

    # ------------------------------------------------------------------ #
    # reduction
    # ------------------------------------------------------------------ #

    def bound_names(self) -> frozenset[str]:
        """Specialised names that can derive a finite tree."""
        bound: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name in self.specialized_names:
                if name in bound:
                    continue
                model = self.content(name)
                allowed = ops.sigma_star(bound)
                # The fixpoint only needs non-emptiness of the product with
                # ``bound*``; the kernel decides that on the fly without
                # materialising the product automaton.
                if ops.intersects(
                    model.nfa.with_alphabet(self.specialized_names),
                    allowed.with_alphabet(self.specialized_names),
                ):
                    bound.add(name)
                    changed = True
        return frozenset(bound)

    def useful_names(self) -> frozenset[str]:
        """Specialised names occurring in at least one witness of a valid tree."""
        bound = self.bound_names()
        if self.start not in bound:
            return frozenset()
        useful = {self.start}
        queue = [self.start]
        while queue:
            name = queue.pop()
            realizable = ops.intersection(
                self.content(name).nfa.with_alphabet(self.specialized_names),
                ops.sigma_star(bound).with_alphabet(self.specialized_names),
            )
            for child in realizable.used_symbols():
                if child not in useful:
                    useful.add(child)
                    queue.append(child)
        return frozenset(useful)

    def is_empty(self) -> bool:
        return self.start not in self.bound_names()

    def is_reduced(self) -> bool:
        useful = self.useful_names()
        if not useful or useful != self.specialized_names:
            return False
        return all(self.content(name).used_symbols() <= useful for name in self.specialized_names)

    def reduced(self) -> "EDTD":
        """An equivalent reduced type (only useful specialised names remain)."""
        useful = self.useful_names()
        if not useful:
            raise SchemaError("the type defines the empty language and cannot be reduced")
        rules = {}
        for name in useful:
            if name not in self.rules:
                continue
            restricted = self.rules[name].nfa.restrict_alphabet(useful).trim()
            rules[name] = ContentModel(restricted, self.formalism, check=False)
        mu = {name: self.mu[name] for name in useful}
        return type(self)(self.start, rules, mu, self.formalism, alphabet=useful)


# --------------------------------------------------------------------------- #
# normalisation (Section 4.3)
# --------------------------------------------------------------------------- #


class NormalizedEDTD:
    """The normalised form of an EDTD used by the top-down EDTD algorithms.

    Its "states" are specialised names with the property of Lemma 4.10: two
    distinct specialisations of the same element name denote disjoint tree
    languages.  Because the normalised automaton is obtained by
    determinisation it may need *several* admissible root names (all the
    subset-states containing the original start), which is why this is a
    separate class rather than an :class:`EDTD`.
    """

    def __init__(
        self,
        element_of: Mapping[str, str],
        content: Mapping[str, NFA],
        roots: Iterable[str],
        subset_of: Mapping[str, frozenset[str]] | None = None,
    ) -> None:
        self.element_of = dict(element_of)
        self.content = dict(content)
        self.roots = frozenset(roots)
        self.names = frozenset(self.element_of)
        self.subset_of = dict(subset_of or {name: frozenset({name}) for name in self.names})
        if not self.roots <= self.names:
            raise SchemaError("roots of a normalised EDTD must be among its names")

    @classmethod
    def from_disjoint_edtd(cls, edtd: EDTD) -> "NormalizedEDTD":
        """View an already-normalised EDTD (pairwise disjoint specialisations) directly."""
        content = {
            name: edtd.content(name).nfa.with_alphabet(edtd.specialized_names)
            for name in edtd.specialized_names
        }
        return cls(dict(edtd.mu), content, {edtd.start})

    def specializations(self, element: str) -> frozenset[str]:
        """The normalised names of a given element name."""
        return frozenset(name for name in self.names if self.element_of[name] == element)

    @property
    def alphabet(self) -> frozenset[str]:
        return frozenset(self.element_of.values())

    def content_union(self, names: Iterable[str]) -> NFA:
        """``pi(kappa(x))``: the union of the content models of a set of names."""
        selected = [self.content[name] for name in names]
        if not selected:
            return NFA.empty_language(self.names)
        return ops.union_all(selected).with_alphabet(self.names)

    def to_uta(self) -> UnrankedTreeAutomaton:
        horizontal = {
            (name, self.element_of[name]): self.content[name] for name in self.names
        }
        return UnrankedTreeAutomaton(self.names, self.alphabet, horizontal, self.roots)

    def validate(self, tree: Tree) -> bool:
        return self.to_uta().accepts(tree)

    @property
    def size(self) -> int:
        return len(self.names) + sum(nfa.size for nfa in self.content.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NormalizedEDTD(names={len(self.names)}, roots={len(self.roots)})"


def is_normalized(edtd: EDTD) -> bool:
    """Does the EDTD satisfy Lemma 4.10 (disjoint specialisation languages)?

    Decided with a single reachable-subset construction: two specialisations
    of the same element name overlap iff some tree can be assigned both.
    """
    return _disjoint(deterministic_state_assignments(edtd.to_uta()))


def _disjoint(subsets: Iterable[frozenset[str]]) -> bool:
    # A node labelled ``a`` is only assigned specialisations of ``a``, so a
    # subset of two or more names is an overlap.
    return all(len(subset) == 1 for subset in subsets)


def normalize(edtd: EDTD, max_subsets: int = 4096) -> NormalizedEDTD:
    """Normalise an EDTD via bottom-up determinisation (Section 4.3).

    The result is language-equivalent and satisfies Lemma 4.10.  When the
    EDTD is already normalised it is returned as a direct view so that the
    original specialised names (and hence the typings reported to the user)
    stay readable.
    """
    reduced = edtd if edtd.is_reduced() else edtd.reduced()
    uta = reduced.to_uta()
    subsets = sorted(deterministic_state_assignments(uta), key=sorted)
    if _disjoint(subsets):
        return NormalizedEDTD.from_disjoint_edtd(reduced)
    if len(subsets) > max_subsets:
        raise MemoryError("EDTD normalisation exceeded the subset budget")

    element_of: dict[str, str] = {}
    names: dict[frozenset[str], str] = {}
    counters: dict[str, int] = {}
    for subset in subsets:
        element = reduced.mu[min(subset)]
        counters[element] = counters.get(element, 0) + 1
        names[subset] = f"{element}#{counters[element]}"
        element_of[names[subset]] = element
    content = _normalized_contents(uta, names, element_of)
    roots = {names[subset] for subset in subsets if reduced.start in subset}
    return NormalizedEDTD(element_of, content, roots, {name: subset for subset, name in names.items()})


def _normalized_contents(
    uta: UnrankedTreeAutomaton, names: Mapping[frozenset[str], str], element_of: Mapping[str, str]
) -> dict[str, NFA]:
    """Horizontal DFA (as an NFA) of every normalised name ``(element, target)``.

    It reads strings of normalised names ``N1 ... Nk`` and accepts exactly
    those for which the set of original specialisations of ``element``
    compatible with the children is ``target``.  The DFA is ``element``'s
    label states in the :class:`~repro.engine.batch.CompiledSchema` of
    ``uta``, stepped on the names' subset masks and explored once per
    element; its finals for ``target`` are the states whose close mask is
    ``target``'s.
    """
    from repro.engine.batch import CompiledSchema

    compiled = CompiledSchema(uta)
    bit = {state: 1 << index for index, state in enumerate(compiled._state_order)}
    masks = {subset: sum(bit[name] for name in subset) for subset in names}
    targets: dict[str, list[frozenset[str]]] = {}
    for subset, name in names.items():
        targets.setdefault(element_of[name], []).append(subset)
    content: dict[str, NFA] = {}
    for element, subsets in targets.items():
        start = compiled._initial[element]
        states = {start.currents: start}
        transitions: dict[tuple, dict[str, set]] = {}
        queue = deque([start])
        while queue:
            state = queue.popleft()
            row = transitions[state.currents] = {}
            for subset, mask in masks.items():
                following = state.next.get(mask)
                if following is None:
                    following = compiled._step(state, mask)
                if following:
                    row[names[subset]] = {following.currents}
                    if following.currents not in states:
                        states[following.currents] = following
                        queue.append(following)
        for target in subsets:
            finals = {key for key, state in states.items() if state.close == masks[target]}
            dfa = NFA(states, names.values(), transitions, start.currents, finals)
            content[names[target]] = dfa.relabel(f"{names[target]}_h").trim()
    return content
