"""Regular string-language substrate (Section 2.1.2 of the paper).

This package implements, from scratch, everything the paper needs about
regular *string* languages:

* :mod:`repro.automata.nfa` -- nondeterministic finite automata with
  epsilon transitions (the paper's ``nFA``),
* :mod:`repro.automata.dfa` -- deterministic finite automata (``dFA``),
  subset construction and Moore minimisation,
* :mod:`repro.automata.operations` -- the boolean and rational operations
  used throughout the paper (union, intersection, complement, difference,
  concatenation, Kleene closures, reversal),
* :mod:`repro.automata.equivalence` -- emptiness, inclusion and equivalence
  (the problem ``equiv[R]`` of Definition 1), including counter-example
  extraction,
* :mod:`repro.automata.regex` -- the abstract syntax of the paper's
  regular expressions (``nRE``), a parser for the paper's notation, and the
  Thompson and Glushkov translations into automata,
* :mod:`repro.automata.determinism` -- deterministic regular expressions
  (``dRE``), i.e. one-unambiguous languages, with the Brüggemann-Klein/Wood
  decision procedure for ``one-unamb[R]`` (Definition 2).

The names below are re-exported lazily (:func:`repro.lazy_exports`): each
submodule is imported when one of its names is first read.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "nfa": ("EPSILON", "NFA"),
        "dfa": ("DFA",),
        "operations": (
            "concat",
            "complement",
            "difference",
            "intersection",
            "kleene_star",
            "optional",
            "plus",
            "reverse",
            "sigma_star",
            "union",
        ),
        "equivalence": ("counterexample", "equivalent", "find_word", "includes", "is_empty"),
        "regex": (
            "Regex",
            "parse_regex",
            "regex_to_nfa",
            "glushkov_nfa",
            "is_deterministic_regex",
        ),
        "determinism": ("is_one_unambiguous",),
    },
)
