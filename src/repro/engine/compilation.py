"""The :class:`CompilationEngine`: one cache for every automaton pipeline.

The engine memoizes, behind a single LRU cache keyed by content fingerprints:

* the compilation pipeline ``NFA → ε-free NFA → DFA → minimal DFA``;
* one-unambiguity verdicts (the ``one-unamb[nRE]`` oracle of Theorems
  3.10/3.13);
* pairwise inclusion / equivalence of string languages, including the
  shortest counter-examples (``equiv[R]``, Definition 1);
* pairwise inclusion / equivalence of *tree* languages through the joint
  reachable-subset construction (``equiv[S]`` across schema languages),
  which steps the label states of :class:`~repro.engine.batch.CompiledSchema`
  compiled on this engine.

Equal fingerprints mean structurally identical automata, so the engine also
answers equivalence queries on fingerprint equality alone without exploring
any product ("fingerprint fast-path").

A process-wide default engine exists so that the mid-level modules
(:mod:`repro.automata.equivalence`, :mod:`repro.schemas.compare`,
:mod:`repro.schemas.content_model`) stay dependency-free: they fetch the
default engine lazily.  Callers that want isolated caches or statistics
(e.g. :func:`repro.api.analyze_design` or the CLI) inject their own engine
with :func:`use_engine`.
"""

from __future__ import annotations

import threading as _threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Hashable, Iterable, Optional

from repro.automata.dfa import DFA
from repro.automata.equivalence import counterexample_inclusion_uncached
from repro.automata.kernel.inclusion import nfa_included, product_is_empty
from repro.automata.nfa import NFA, Symbol, Word
from repro.engine.cache import CacheStats, LRUCache
from repro.engine.fingerprint import (
    alphabet_key,
    dfa_fingerprint,
    nfa_fingerprint,
    uta_fingerprint,
)
from repro.trees.automata import (
    UnrankedTreeAutomaton,
    tree_language_counterexample,
    tree_language_equivalence_counterexample,
)
from repro.trees.document import Tree

#: Default number of memoized results (automata, verdicts, witnesses).
DEFAULT_CAPACITY = 4096

#: Default number of pinned per-object entries (fingerprints, identity memos).
DEFAULT_IDENTITY_CAPACITY = 8192

#: Identity-memo kind for schema → tree-automaton conversion.  Shared by
#: :func:`repro.schemas.compare.schema_to_uta` and
#: :class:`repro.engine.batch.CompiledSchema` so both paths hit one memo.
SCHEMA_TO_UTA_KIND = "schema-to-uta"

#: Identity-memo kind for schema → streaming validator compilation (the
#: event-driven twin of :class:`~repro.engine.batch.CompiledSchema`; see
#: :func:`repro.streaming.machine.streaming_validator_for`).
STREAMING_MACHINE_KIND = "streaming-machine"


class _IdentityMemo:
    """A bounded per-object memo keyed by ``id``.

    The value pins the object itself, so an entry can never describe a
    different object than the one it was stored for (ids are only reused
    after the object is garbage collected, and a pinned object is not).

    Like :class:`~repro.engine.cache.LRUCache`, the memo is lock-free and
    relies on the GIL-atomicity of the individual ``OrderedDict``
    operations (the keys are ``(str, int)`` tuples, so no Python-level
    hash/eq callbacks run); a ``move_to_end`` racing an eviction only
    loses recency, and a duplicated compute produces an interchangeable
    value.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, int], tuple[Any, Any]] = OrderedDict()

    def get_or_compute(self, kind: str, obj: Any, thunk: Callable[[], Any]) -> tuple[Any, bool]:
        key = (kind, id(obj))
        entry = self._entries.get(key)
        if entry is not None and entry[0] is obj:
            try:
                self._entries.move_to_end(key)
            except KeyError:
                pass  # concurrently evicted; the value stays valid
            return entry[1], True
        value = thunk()
        self._entries[key] = (obj, value)
        if len(self._entries) > self.capacity:
            try:
                self._entries.popitem(last=False)
            except KeyError:
                pass  # a concurrent eviction got there first
        return value, False

    def clear(self) -> None:
        self._entries.clear()


class CompilationEngine:
    """Content-addressed compilation and comparison of automata.

    Parameters
    ----------
    capacity:
        Bound on the number of memoized compiled automata and verdicts.
    identity_capacity:
        Bound on the per-object fingerprint / identity memos.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        identity_capacity: int = DEFAULT_IDENTITY_CAPACITY,
    ) -> None:
        self.cache = LRUCache(capacity)
        self._identity = _IdentityMemo(identity_capacity)
        #: Equivalence queries answered by fingerprint equality alone.  Kept
        #: out of the LRU CacheStats so the reported hit rate stays a
        #: truthful property of the cache.
        self.fingerprint_fast_path_hits = 0

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    def stats_report(self) -> str:
        report = self.stats.report()
        if self.fingerprint_fast_path_hits:
            report += f"\n  fingerprint fast-path: {self.fingerprint_fast_path_hits} equivalences"
        return report

    def reset_stats(self) -> None:
        self.stats.reset()
        self.fingerprint_fast_path_hits = 0

    def clear(self) -> None:
        """Drop every cached result (statistics are kept)."""
        self.cache.clear()
        self._identity.clear()

    # ------------------------------------------------------------------ #
    # fingerprints
    # ------------------------------------------------------------------ #

    def fingerprint(self, automaton: NFA | DFA | UnrankedTreeAutomaton) -> str:
        """The content fingerprint, memoized per object identity."""

        def compute() -> str:
            if isinstance(automaton, DFA):
                return dfa_fingerprint(automaton)
            if isinstance(automaton, NFA):
                return nfa_fingerprint(automaton)
            return uta_fingerprint(automaton)

        value, _cached = self._identity.get_or_compute("fingerprint", automaton, compute)
        return value

    def memo(self, kind: str, key: tuple[Hashable, ...], thunk: Callable[[], Any]) -> Any:
        """Memoize an arbitrary computation under ``(kind, *key)``."""
        return self.cache.get_or_compute((kind,) + key, thunk, kind)

    def memo_identity(self, kind: str, obj: Any, thunk: Callable[[], Any]) -> Any:
        """Memoize per object identity (for unhashable or mutable owners)."""
        value, cached = self._identity.get_or_compute(kind, obj, thunk)
        if cached:
            self.stats.record_hit(kind)
        else:
            self.stats.record_miss(kind)
        return value

    # ------------------------------------------------------------------ #
    # the compilation pipeline
    # ------------------------------------------------------------------ #

    def epsilon_free(self, nfa: NFA) -> NFA:
        """The ε-free automaton of ``[nfa]`` (cached)."""
        if not nfa.has_epsilon_transitions():
            return nfa
        return self.memo("eps-free", (self.fingerprint(nfa),), nfa.remove_epsilon)

    def determinize(self, nfa: NFA) -> DFA:
        """Subset construction over the ε-free automaton (cached)."""
        fingerprint = self.fingerprint(nfa)
        return self.memo(
            "determinize", (fingerprint,), lambda: DFA.from_nfa(self.epsilon_free(nfa))
        )

    def minimal_dfa(self, nfa: NFA) -> DFA:
        """The full pipeline NFA → ε-free → DFA → minimal DFA (cached)."""
        fingerprint = self.fingerprint(nfa)
        return self.memo(
            "minimal-dfa", (fingerprint,), lambda: self.determinize(nfa).minimized()
        )

    def one_unambiguous(self, nfa: NFA) -> bool:
        """The ``one-unamb[nRE]`` oracle (cached verdict)."""
        from repro.automata.determinism import is_one_unambiguous

        return self.memo(
            "one-unambiguous", (self.fingerprint(nfa),), lambda: is_one_unambiguous(nfa)
        )

    # ------------------------------------------------------------------ #
    # pairwise string-language verdicts
    # ------------------------------------------------------------------ #

    def _pair_key(self, left: NFA, right: NFA, symbols: frozenset[Symbol]) -> tuple[str, str, str]:
        return (self.fingerprint(left), self.fingerprint(right), alphabet_key(symbols))

    def inclusion_verdict(
        self, left: NFA, right: NFA, alphabet: Iterable[Symbol] | None = None
    ) -> bool:
        """Decide ``[left] ⊆ [right]`` (cached antichain verdict, no witness).

        This is the boolean fast path: the kernel's antichain search never
        determinises the left side or materialises a complement automaton.
        Callers that need the witness word go through
        :meth:`inclusion_counterexample`, which keeps the legacy
        breadth-first product search as its (tie-breaking) oracle.
        """
        if self.fingerprint(left) == self.fingerprint(right):
            self.fingerprint_fast_path_hits += 1
            return True
        symbols = frozenset(alphabet) if alphabet is not None else left.alphabet | right.alphabet
        return self.memo(
            "inclusion-verdict",
            self._pair_key(left, right, symbols),
            lambda: nfa_included(left, right, symbols),
        )

    def inclusion_counterexample(
        self, left: NFA, right: NFA, alphabet: Iterable[Symbol] | None = None
    ) -> Optional[Word]:
        """A shortest word of ``[left] − [right]``, or ``None`` (cached).

        The cached antichain verdict answers the included case without any
        product search; only a *failed* inclusion pays for the legacy
        breadth-first search that extracts the shortest witness.
        """
        symbols = frozenset(alphabet) if alphabet is not None else left.alphabet | right.alphabet

        def compute() -> Optional[Word]:
            if self.inclusion_verdict(left, right, symbols):
                return None
            return counterexample_inclusion_uncached(left, right, symbols)

        return self.memo("inclusion", self._pair_key(left, right, symbols), compute)

    def includes(self, big: NFA, small: NFA, alphabet: Iterable[Symbol] | None = None) -> bool:
        """Decide ``[small] ⊆ [big]`` through the cached antichain verdict."""
        return self.inclusion_verdict(small, big, alphabet)

    def equivalent(self, left: NFA, right: NFA, alphabet: Iterable[Symbol] | None = None) -> bool:
        """Decide ``[left] = [right]`` with a fingerprint fast-path.

        Structurally identical automata (equal fingerprints) are equivalent
        without any product exploration; otherwise both cached inclusion
        verdicts are consulted.
        """
        if self.fingerprint(left) == self.fingerprint(right):
            self.fingerprint_fast_path_hits += 1
            return True
        return self.includes(right, left, alphabet) and self.includes(left, right, alphabet)

    def disjoint(self, left: NFA, right: NFA) -> bool:
        """Decide ``[left] ∩ [right] = ∅`` (cached on-the-fly product emptiness)."""
        key = tuple(sorted((self.fingerprint(left), self.fingerprint(right))))
        return self.memo(
            "disjoint", key, lambda: product_is_empty(left, right)
        )

    # ------------------------------------------------------------------ #
    # pairwise tree-language verdicts
    # ------------------------------------------------------------------ #

    def tree_inclusion_counterexample(
        self, small: UnrankedTreeAutomaton, big: UnrankedTreeAutomaton
    ) -> Optional[Tree]:
        """A tree of ``[small] − [big]``, or ``None`` (cached witness).

        Witness trees are immutable values, so sharing one cached tree across
        callers is safe.
        """
        return self.memo(
            "tree-inclusion",
            (self.fingerprint(small), self.fingerprint(big)),
            lambda: tree_language_counterexample(small, big),
        )

    def tree_includes(self, big: UnrankedTreeAutomaton, small: UnrankedTreeAutomaton) -> bool:
        return self.tree_inclusion_counterexample(small, big) is None

    def tree_equivalence_counterexample(
        self, left: UnrankedTreeAutomaton, right: UnrankedTreeAutomaton
    ) -> Optional[tuple[str, Tree]]:
        """A witness of tree-language non-equivalence, or ``None`` (cached).

        One joint search classifies both inclusions.  When both fail, the
        side returned is the one of the first profile the search found.
        """
        key = (self.fingerprint(left), self.fingerprint(right))
        if key[0] == key[1]:
            self.fingerprint_fast_path_hits += 1
            return None
        return self.memo(
            "tree-equivalence",
            key,
            lambda: tree_language_equivalence_counterexample(left, right),
        )

    def tree_equivalent(self, left: UnrankedTreeAutomaton, right: UnrankedTreeAutomaton) -> bool:
        return self.tree_equivalence_counterexample(left, right) is None


# --------------------------------------------------------------------------- #
# the default engine
# --------------------------------------------------------------------------- #

# The default engine is thread-local: each thread lazily gets its own engine,
# and use_engine() in one thread can never reroute (or permanently clobber)
# the engine another thread is working against.
_local = _threading.local()


def get_default_engine() -> CompilationEngine:
    """The engine the current thread routes through when none is injected."""
    engine = getattr(_local, "engine", None)
    if engine is None:
        engine = CompilationEngine()
        _local.engine = engine
    return engine


def set_default_engine(engine: CompilationEngine) -> CompilationEngine:
    """Install ``engine`` as the current thread's default; returns the previous one."""
    previous = get_default_engine()
    _local.engine = engine
    return previous


def reset_default_engine(
    capacity: int = DEFAULT_CAPACITY, identity_capacity: int = DEFAULT_IDENTITY_CAPACITY
) -> CompilationEngine:
    """Replace the default engine with a fresh one (used by tests and benchmarks)."""
    engine = CompilationEngine(capacity, identity_capacity)
    set_default_engine(engine)
    return engine


@contextmanager
def use_engine(engine: Optional[CompilationEngine]):
    """Temporarily install ``engine`` as this thread's default (no-op when ``None``).

    The injection is *ambient*: any library code the block calls into routes
    through ``engine`` via :func:`get_default_engine`.  That is the point
    (the whole call tree shares one cache), but it also means the block is
    not isolated from code that deliberately swaps the engine again inside
    it.  Thread-locality makes concurrent injections in different threads
    independent.
    """
    if engine is None:
        yield get_default_engine()
        return
    previous = set_default_engine(engine)
    try:
        yield engine
    finally:
        set_default_engine(previous)
