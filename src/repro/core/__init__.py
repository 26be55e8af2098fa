"""The paper's contribution: a theory of distributed XML design (Sections 2.3-7).

The package is organised by the paper's own structure:

* :mod:`repro.core.kernel` -- kernel documents ``T[f1..fn]`` and
  materialisation (Section 2.3),
* :mod:`repro.core.typing` -- typings and the comparison relations
  ``≤ / < / ≡`` (Section 2.4),
* :mod:`repro.core.design` -- bottom-up and top-down designs (Definition 10),
* :mod:`repro.core.consistency` -- the ``T(τn)`` construction, ``cons[S]``
  and ``typeT(τn)`` (Section 3, Table 2),
* :mod:`repro.core.words` -- kernel strings, kernel boxes and the word-level
  typing problems (Sections 2.3 and 5),
* :mod:`repro.core.perfect` -- the perfect automaton ``Ω(A, w)``
  (Algorithm 1), the decomposition ``Dec(Ωi)`` and every word/box-level
  decision procedure built on them (Sections 6 and 7),
* :mod:`repro.core.reduction` -- the reductions from trees to strings and
  boxes (Section 4), including EDTD normalisation and ``κ`` assignments,
* :mod:`repro.core.locality` -- verification problems ``loc / ml / perf [S]``,
* :mod:`repro.core.existence` -- existence problems ``∃-loc / ∃-ml / ∃-perf [S]``
  together with typing construction.

The names below are re-exported lazily (:func:`repro.lazy_exports`): each
submodule is imported when one of its names is first read.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "kernel": ("KernelTree",),
        "typing": ("TreeTyping", "typing_compare"),
        "design": ("BottomUpDesign", "TopDownDesign"),
        "consistency": ("ConsistencyResult", "build_combined_type", "check_consistency"),
        "words": ("Box", "KernelString", "build_word_automaton"),
        "perfect": ("PerfectAutomaton",),
    },
)
