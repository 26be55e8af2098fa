"""Compact integer/bitset representation of finite automata.

The hashable-object :class:`~repro.automata.nfa.NFA` /
:class:`~repro.automata.dfa.DFA` classes are the faithful, paper-notation
substrate; every hot decision procedure bottoms out in set algebra over
their states.  This module *interns* states and symbols to dense integers
once and re-expresses that set algebra on Python big-int bitsets:

* a set of states is one ``int`` (bit ``q`` set iff state ``q`` is in the
  set), so union is ``|``, intersection ``&``, subset testing
  ``a | b == b``, and emptiness ``== 0``;
* transitions are per-symbol successor arrays ``delta[a][q] -> bitmask``;
* per-state ε-closures are computed once at lift time and folded into the
  successor arrays, so downstream algorithms never see ε again.

The lift keeps the original state and symbol objects around
(:attr:`CompactNFA.states`, :attr:`CompactNFA.symbols`), which makes
lowering back to the public API cheap and exact: the subset construction of
:mod:`repro.automata.kernel.determinize` reproduces the legacy
``DFA.from_nfa`` output *state-for-state*.

Two transition conventions appear below; both define the same language:

* ``delta`` (the *pre-closure* convention, matching
  :meth:`NFA.remove_epsilon`): ``delta[a][q] = Δ(closure(q), a)`` with no
  trailing closure, paired with closure-adjusted finals;
* the *closed* step used by subset construction:
  ``step(S, a) = closure(Δ(S, a))`` for an already-closed ``S``, paired
  with the raw finals.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.automata.nfa import EPSILON, NFA, Symbol


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    """The bitmask with exactly the given bits set."""
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


class CompactNFA:
    """An ε-free integer/bitset view of an :class:`NFA`.

    Parameters
    ----------
    nfa:
        The automaton to lift.
    symbols:
        Optional shared symbol universe (a sequence of symbols).  When
        several automata take part in one product construction they must be
        lifted over the *same* symbol ordering; symbols of ``nfa`` outside
        the universe are dropped (they cannot fire in a product anyway) and
        universe symbols unused by ``nfa`` get all-zero successor rows.
        Defaults to ``sorted(nfa.alphabet)``.
    """

    __slots__ = (
        "nfa",
        "states",
        "state_index",
        "n",
        "rows",
        "closures",
        "initial",
        "initial_closed",
        "finals_raw",
        "finals_closed",
        "_symbols",
        "_symbol_index",
        "_delta",
        "_reach",
        "_coreach",
        "initial_mask",
    )

    def __init__(self, nfa: NFA, symbols: Optional[Iterable[Symbol]] = None) -> None:
        self.nfa = nfa
        states = sorted(nfa.states, key=repr)
        self.states: tuple = tuple(states)
        self.state_index = {state: index for index, state in enumerate(states)}
        self.n = len(states)
        self._symbols: Optional[tuple] = tuple(symbols) if symbols is not None else None
        self._symbol_index: Optional[dict] = None
        self._delta: Optional[list[list[int]]] = None

        index_of = self.state_index
        # Raw transition masks, per state: {symbol -> successor mask}.
        raw: list[dict[Symbol, int]] = [dict() for _ in range(self.n)]
        eps: list[int] = [0] * self.n
        for src, row in nfa.transitions.items():
            q = index_of[src]
            masks = raw[q]
            for label, dsts in row.items():
                mask = 0
                for dst in dsts:
                    mask |= 1 << index_of[dst]
                if label == EPSILON:
                    eps[q] = mask
                else:
                    masks[label] = mask

        # Per-state ε-closures (one pass; reused for every convention).
        closures = [0] * self.n
        for q in range(self.n):
            closure = 1 << q
            frontier = eps[q] & ~closure
            while frontier:
                closure |= frontier
                new = 0
                remaining = frontier
                while remaining:
                    low = remaining & -remaining
                    new |= eps[low.bit_length() - 1]
                    remaining ^= low
                frontier = new & ~closure
            closures[q] = closure
        self.closures = closures

        # Sparse pre-closure successor rows: rows[q][a] = Δ(closure(q), a).
        # Sparse keeps the lift linear in the transition count -- crucial
        # for product constructions over large shared alphabets, where a
        # dense per-symbol table would cost O(|Σ|·n) per lift.
        if any(eps):
            rows: list[dict[Symbol, int]] = []
            for q in range(self.n):
                closure = closures[q]
                if closure == (1 << q):
                    rows.append(raw[q])
                    continue
                combined: dict[Symbol, int] = dict(raw[q])
                remaining = closure & ~(1 << q)
                while remaining:
                    low = remaining & -remaining
                    remaining ^= low
                    for label, mask in raw[low.bit_length() - 1].items():
                        if label in combined:
                            combined[label] |= mask
                        else:
                            combined[label] = mask
                rows.append(combined)
            self.rows = rows
        else:
            self.rows = raw

        self.initial = index_of[nfa.initial]
        self.initial_closed = closures[self.initial]
        self.initial_mask = 1 << self.initial
        finals_raw = 0
        for state in nfa.finals:
            finals_raw |= 1 << index_of[state]
        self.finals_raw = finals_raw
        finals_closed = 0
        for q in range(self.n):
            if closures[q] & finals_raw:
                finals_closed |= 1 << q
        self.finals_closed = finals_closed
        self._reach: Optional[list[int]] = None
        self._coreach: Optional[list[int]] = None

    # ------------------------------------------------------------------ #
    # dense per-symbol view (built on first use)
    # ------------------------------------------------------------------ #

    @property
    def symbols(self) -> tuple:
        """The symbol universe, in the order the dense ``delta`` uses."""
        if self._symbols is None:
            self._symbols = tuple(sorted(self.nfa.alphabet))
        return self._symbols

    @property
    def symbol_index(self) -> dict:
        if self._symbol_index is None:
            self._symbol_index = {symbol: index for index, symbol in enumerate(self.symbols)}
        return self._symbol_index

    @property
    def delta(self) -> list[list[int]]:
        """Dense pre-closure successor arrays ``delta[a][q]`` (lazy).

        Symbols of the automaton outside the configured universe are
        dropped; universe symbols the automaton never reads give all-zero
        rows.  Algorithms that iterate the whole symbol universe per state
        set (subset construction, the batch-validation run loop) want this
        layout; purely sparse consumers use :attr:`rows` directly.
        """
        if self._delta is None:
            index_of = self.symbol_index
            delta: list[list[int]] = [[0] * self.n for _ in range(len(self.symbols))]
            for q, row in enumerate(self.rows):
                for label, mask in row.items():
                    a = index_of.get(label)
                    if a is not None:
                        delta[a][q] = mask
            self._delta = delta
        return self._delta

    # ------------------------------------------------------------------ #
    # steps
    # ------------------------------------------------------------------ #

    def closure_of(self, mask: int) -> int:
        """The ε-closure of a state set given as a bitmask."""
        closures = self.closures
        result = 0
        while mask:
            low = mask & -mask
            result |= closures[low.bit_length() - 1]
            mask ^= low
        return result

    def step_closed(self, mask: int, symbol_id: int) -> int:
        """``closure(Δ(mask, symbol))`` for an already ε-closed ``mask``.

        This is exactly the macro-step of the legacy subset construction
        (:meth:`NFA.step`), so iterating it from :attr:`initial_closed`
        enumerates the same subset states.
        """
        row = self.delta[symbol_id]
        moved = 0
        while mask:
            low = mask & -mask
            moved |= row[low.bit_length() - 1]
            mask ^= low
        return self.closure_of(moved)

    def accepts_mask(self, mask: int) -> bool:
        """Does an ε-closed state set contain an accepting state?"""
        return bool(mask & self.finals_raw)

    # ------------------------------------------------------------------ #
    # reachability (transitive closures as bitsets)
    # ------------------------------------------------------------------ #

    def _adjacency(self) -> list[int]:
        """Successor mask per state over *all* labels (ε included)."""
        adjacency = [0] * self.n
        index_of = self.state_index
        for src, row in self.nfa.transitions.items():
            q = index_of[src]
            mask = 0
            for dsts in row.values():
                for dst in dsts:
                    mask |= 1 << index_of[dst]
            adjacency[q] = mask
        return adjacency

    @staticmethod
    def _transitive_closure(adjacency: list[int]) -> list[int]:
        """``reach[q]`` = all states reachable from ``q`` (including ``q``).

        Tarjan condensation: strongly connected components share one reach
        mask, and components finish in reverse topological order, so each
        component's mask is its own states OR'd with its successors' already
        final masks -- one linear pass, no fixpoint iteration.
        """
        n = len(adjacency)
        reach = [0] * n
        index_of: list[int] = [-1] * n
        lowlink: list[int] = [0] * n
        on_stack = 0  # bitmask of states on the Tarjan stack
        stack: list[int] = []
        counter = 0
        for root in range(n):
            if index_of[root] >= 0:
                continue
            work = [(root, adjacency[root])]
            index_of[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack |= 1 << root
            while work:
                node, pending = work[-1]
                advanced = False
                while pending:
                    low = pending & -pending
                    pending ^= low
                    successor = low.bit_length() - 1
                    if index_of[successor] < 0:
                        work[-1] = (node, pending)
                        index_of[successor] = lowlink[successor] = counter
                        counter += 1
                        stack.append(successor)
                        on_stack |= 1 << successor
                        work.append((successor, adjacency[successor]))
                        advanced = True
                        break
                    if (on_stack >> successor) & 1:
                        if index_of[successor] < lowlink[node]:
                            lowlink[node] = index_of[successor]
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
                if lowlink[node] == index_of[node]:
                    component_mask = 0
                    members = []
                    while True:
                        member = stack.pop()
                        on_stack &= ~(1 << member)
                        component_mask |= 1 << member
                        members.append(member)
                        if member == node:
                            break
                    # Successor components are already finished (reverse
                    # topological order), so their reach masks are final.
                    result = component_mask
                    for member in members:
                        targets = adjacency[member] & ~component_mask
                        while targets:
                            low = targets & -targets
                            targets ^= low
                            result |= reach[low.bit_length() - 1]
                    for member in members:
                        reach[member] = result
        return reach

    @property
    def reach(self) -> list[int]:
        """Per-state forward reachability bitsets (computed once, cached)."""
        if self._reach is None:
            self._reach = self._transitive_closure(self._adjacency())
        return self._reach

    @property
    def coreach(self) -> list[int]:
        """Per-state backward reachability bitsets (computed once, cached)."""
        if self._coreach is None:
            adjacency = self._adjacency()
            reverse = [0] * self.n
            for q in range(self.n):
                for dst in iter_bits(adjacency[q]):
                    reverse[dst] |= 1 << q
            self._coreach = self._transitive_closure(reverse)
        return self._coreach

    def reachable_from(self, mask: int) -> int:
        """All states reachable from the given state set (bitmask in/out)."""
        reach = self.reach
        result = 0
        while mask:
            low = mask & -mask
            result |= reach[low.bit_length() - 1]
            mask ^= low
        return result

    def coreachable_to(self, mask: int) -> int:
        """All states from which the given state set is reachable."""
        coreach = self.coreach
        result = 0
        while mask:
            low = mask & -mask
            result |= coreach[low.bit_length() - 1]
            mask ^= low
        return result

    # ------------------------------------------------------------------ #
    # lowering helpers
    # ------------------------------------------------------------------ #

    def mask_for(self, states: Iterable) -> int:
        """Lift a set of original state objects to a bitmask."""
        index_of = self.state_index
        mask = 0
        for state in states:
            mask |= 1 << index_of[state]
        return mask

    def states_for(self, mask: int) -> frozenset:
        """Lower a bitmask back to a frozenset of original state objects."""
        states = self.states
        lowered = []
        while mask:
            low = mask & -mask
            lowered.append(states[low.bit_length() - 1])
            mask ^= low
        return frozenset(lowered)
