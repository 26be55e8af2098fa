"""Compact integer/bitset automata kernel.

States and symbols are interned to dense integers once; state sets become
big-int bitmasks; ε-closures are precomputed per state; determinisation is
a bitset subset construction; minimisation is Hopcroft's algorithm; and
inclusion/equivalence is an antichain-pruned on-the-fly product search that
never builds a complement automaton.

The public :class:`~repro.automata.nfa.NFA` / :class:`~repro.automata.dfa.
DFA` API is unchanged -- the hot entry points (``DFA.from_nfa``,
``DFA.minimized``, :mod:`repro.automata.equivalence`, the compilation
engine's pipeline, the batch-validation run loop and the product
constructions of :mod:`repro.core.perfect`) route through this package via
the cheap lift/lower converters of :mod:`repro.automata.kernel.compact`.
The legacy implementations stay available (``DFA.from_nfa_legacy``,
``DFA.minimized_moore``, ``counterexample_inclusion_uncached``) as
differential-testing oracles; ``tests/automata/test_kernel_identity.py``
checks the two sides agree on random automata.

The names below are re-exported lazily (:func:`repro.lazy_exports`): each
submodule is imported when one of its names is first read.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "compact": ("CompactNFA", "iter_bits", "mask_of"),
        "determinize": ("determinize_nfa", "subset_construction"),
        "hopcroft": ("hopcroft_partition",),
        "inclusion": (
            "nfa_included",
            "nfa_intersects",
            "product_intersection",
            "product_is_empty",
        ),
    },
)
