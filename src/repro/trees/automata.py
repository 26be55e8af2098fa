"""Unranked tree automata (Section 2.1.3): nUTA and dUTA.

A nondeterministic unranked tree automaton is a quadruple
``A = <K, Sigma, Delta, F>`` where ``Delta`` maps pairs ``(state, label)``
to *horizontal* NFAs over the state set ``K``.  A tree is accepted when its
nodes can be labelled with states so that the root gets a final state and
every node's children-state string is accepted by the horizontal automaton
of its own state and label.

The decision procedures needed by the paper (emptiness, inclusion and
equivalence of regular tree languages -- ``equiv[R-EDTD]`` is
EXPTIME-complete, Theorem 4.7) are implemented by a *joint reachable-subset
construction*: the bottom-up deterministic view of an nUTA assigns to every
tree the set of states assignable to it, and the construction enumerates all
jointly reachable tuples of such sets for several automata at once, together
with witness trees.  This is the determinisation of [15] (TATA) specialised
to what the library needs, and it also powers the EDTD normalisation of
Section 4.3.  It steps the same lazily determinized label states as the
validators (:class:`~repro.engine.batch.CompiledSchema`); only membership
(:meth:`UnrankedTreeAutomaton.possible_states`) simulates the horizontal
NFAs over sets of states, as the independent reference semantics.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from typing import Optional

from repro.automata.nfa import NFA
from repro.trees.document import Tree

State = str
Label = str

#: A *profile* is the tuple of "assignable state sets", one per automaton,
#: that some tree jointly produces in a family of automata.
Profile = tuple[frozenset[State], ...]


class UnrankedTreeAutomaton:
    """A nondeterministic unranked tree automaton (nUTA)."""

    __slots__ = ("states", "alphabet", "horizontal", "finals")

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable[Label],
        horizontal: Mapping[tuple[State, Label], NFA],
        finals: Iterable[State],
    ) -> None:
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.finals = frozenset(finals)
        self.horizontal = dict(horizontal)
        self._validate()

    def _validate(self) -> None:
        if not self.finals <= self.states:
            raise ValueError("final states must be states")
        for (state, label), nfa in self.horizontal.items():
            if state not in self.states:
                raise ValueError(f"horizontal automaton attached to unknown state {state!r}")
            if label not in self.alphabet:
                raise ValueError(f"horizontal automaton attached to unknown label {label!r}")
            extra = nfa.alphabet - self.states
            if extra:
                raise ValueError(
                    f"horizontal automaton for {(state, label)!r} reads non-states {sorted(extra)!r}"
                )

    # ------------------------------------------------------------------ #
    # size accounting
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """States plus the sizes of all horizontal automata (Table 2 measure)."""
        return len(self.states) + sum(nfa.size for nfa in self.horizontal.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UnrankedTreeAutomaton(states={len(self.states)}, labels={len(self.alphabet)}, "
            f"rules={len(self.horizontal)})"
        )

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    def _horizontal_accepts_sets(self, nfa: NFA, child_sets: Sequence[frozenset[State]]) -> bool:
        """Does ``nfa`` accept some word ``w`` with ``w[i]`` drawn from ``child_sets[i]``?"""
        current = nfa.epsilon_closure({nfa.initial})
        for child_set in child_sets:
            moved: set = set()
            for symbol in child_set:
                moved |= nfa.step(current, symbol)
            current = frozenset(moved)
            if not current:
                return False
        return bool(current & nfa.finals)

    def possible_states(self, tree: Tree) -> frozenset[State]:
        """The set of states assignable to the root of ``tree`` (bottom-up)."""
        child_sets = [self.possible_states(child) for child in tree.children]
        if any(not child_set for child_set in child_sets):
            return frozenset()
        result = set()
        for state in self.states:
            nfa = self.horizontal.get((state, tree.label))
            if nfa is None:
                continue
            if self._horizontal_accepts_sets(nfa, child_sets):
                result.add(state)
        return frozenset(result)

    def accepts(self, tree: Tree) -> bool:
        """Membership of ``tree`` in the tree language ``[A]``."""
        return bool(self.possible_states(tree) & self.finals)

    def __contains__(self, tree: Tree) -> bool:
        return self.accepts(tree)


# --------------------------------------------------------------------------- #
# joint reachable-subset construction
# --------------------------------------------------------------------------- #


def joint_reachable_profiles(
    automata: Sequence[UnrankedTreeAutomaton],
    max_profiles: int = 200_000,
) -> dict[Profile, Tree]:
    """All profiles jointly reachable by some tree, with one witness tree each.

    This is the joint determinisation of the automata: a profile
    ``(S_1, ..., S_m)`` is in the result iff there exists a tree ``t`` such
    that, for every ``i``, ``S_i`` is exactly the set of states automaton
    ``i`` can assign to ``t``.  The witness tree realises the profile.

    Each automaton is stepped as the label states of its
    :class:`~repro.engine.batch.CompiledSchema`, compiled on the default
    engine: a node is one label state per automaton, its profile is their
    close masks, and a child steps every state on the child's mask.

    ``max_profiles`` bounds the construction (it is exponential in the worst
    case, which is exactly the EXPTIME lower bound of Theorem 4.7).
    """
    from repro.engine.batch import CompiledSchema

    compiled = [CompiledSchema(automaton) for automaton in automata]
    labels = sorted(set().union(*[automaton.alphabet for automaton in automata]))
    known: dict[tuple[int, ...], Tree] = {}
    changed = True
    while changed:
        changed = False
        for label in labels:
            for profile, witness in _explore_label(compiled, label, list(known.items())).items():
                if profile not in known:
                    known[profile] = witness
                    changed = True
                    if len(known) > max_profiles:
                        raise MemoryError(
                            "joint reachable-subset construction exceeded its profile budget"
                        )
    return {
        tuple(each.states_of(mask) for each, mask in zip(compiled, profile)): witness
        for profile, witness in known.items()
    }


def _explore_label(compiled: Sequence, label: Label, known_items: list) -> dict:
    """Profiles (as close masks) of a ``label`` node whose children realise known profiles.

    A breadth-first search over tuples of label states, one per automaton;
    ``None`` stands for an automaton with no rule at ``label`` and ``0`` for
    a dead one.  The seen-set is keyed by the states' ``currents``, so a
    table drop at ``CompiledSchema.state_capacity`` only costs recomputation.
    """
    start = tuple(each._initial.get(label) for each in compiled)
    # Each queue entry carries the label states and the child forest (as a
    # tuple of witness trees) used to reach them.
    queue: deque[tuple[tuple, tuple[Tree, ...]]] = deque([(start, ())])
    seen = {tuple(state.currents if state else None for state in start)}
    results: dict[tuple[int, ...], Tree] = {}
    while queue:
        states, forest = queue.popleft()
        profile = tuple(state.close if state else 0 for state in states)
        if profile not in results:
            # Even an all-empty profile is informative for inclusion checks
            # (it witnesses a tree that none of the automata can process).
            results[profile] = Tree(label, forest)
        for child_profile, child_witness in known_items:
            following = []
            for each, state, mask in zip(compiled, states, child_profile):
                if state:
                    successor = state.next.get(mask)
                    state = each._step(state, mask) if successor is None else successor
                following.append(state)
            if not any(following):
                continue  # every horizontal run is dead
            key = tuple(state.currents if state else None for state in following)
            if key not in seen:
                seen.add(key)
                queue.append((tuple(following), forest + (child_witness,)))
    return results


# --------------------------------------------------------------------------- #
# decision procedures
# --------------------------------------------------------------------------- #


def tree_language_is_empty(automaton: UnrankedTreeAutomaton) -> bool:
    """Decide ``[A] = ∅``."""
    profiles = joint_reachable_profiles([automaton])
    return not any(profile[0] & automaton.finals for profile in profiles)


def tree_language_counterexample(
    left: UnrankedTreeAutomaton, right: UnrankedTreeAutomaton
) -> Optional[Tree]:
    """Return a tree in ``[left] − [right]`` or ``None`` if ``[left] ⊆ [right]``."""
    profiles = joint_reachable_profiles([left, right])
    for (left_states, right_states), witness in profiles.items():
        if (left_states & left.finals) and not (right_states & right.finals):
            return witness
    return None


def tree_language_includes(big: UnrankedTreeAutomaton, small: UnrankedTreeAutomaton) -> bool:
    """Decide ``[small] ⊆ [big]``."""
    return tree_language_counterexample(small, big) is None


def tree_language_equivalent(left: UnrankedTreeAutomaton, right: UnrankedTreeAutomaton) -> bool:
    """Decide ``[left] = [right]`` (``equiv`` for regular tree languages)."""
    return tree_language_equivalence_counterexample(left, right) is None


def tree_language_equivalence_counterexample(
    left: UnrankedTreeAutomaton, right: UnrankedTreeAutomaton
) -> Optional[tuple[str, Tree]]:
    """A witness of non-equivalence: ``("left-only" | "right-only", tree)``."""
    profiles = joint_reachable_profiles([left, right])
    for (left_states, right_states), witness in profiles.items():
        left_accepts = bool(left_states & left.finals)
        right_accepts = bool(right_states & right.finals)
        if left_accepts and not right_accepts:
            return ("left-only", witness)
        if right_accepts and not left_accepts:
            return ("right-only", witness)
    return None


def deterministic_state_assignments(
    automaton: UnrankedTreeAutomaton,
) -> dict[frozenset[State], Tree]:
    """The reachable states of the bottom-up determinisation of ``automaton``.

    Each key is a reachable "subset state" of the dUTA obtained by the
    standard determinisation (Section 4.3 uses this to *normalise* an EDTD);
    the value is a witness tree realising it.
    """
    profiles = joint_reachable_profiles([automaton])
    return {profile[0]: witness for profile, witness in profiles.items() if profile[0]}
