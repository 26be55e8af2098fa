"""Unranked ordered trees and unranked tree automata (Sections 2.1.1 and 2.1.3).

XML documents are abstracted, as in the paper, to finite ordered unranked
trees with labels over an alphabet of element names.  The package provides

* :mod:`repro.trees.document` -- the immutable :class:`Tree` value type with
  the paper's node predicates (``lab``, ``child-str``, ``anc-str``,
  ``tree(x)``, ``‖t‖``),
* :mod:`repro.trees.term` -- the compact term notation used throughout the
  paper (``s0(a f1 b(f2))``),
* :mod:`repro.trees.xml_io` -- conversion to and from actual XML text,
* :mod:`repro.trees.automata` -- nondeterministic and bottom-up deterministic
  unranked tree automata (nUTA / dUTA) with membership, emptiness, inclusion
  and equivalence decided by joint reachable-subset construction over the
  validators' label states.

The names below are re-exported lazily (:func:`repro.lazy_exports`): each
submodule is imported when one of its names is first read.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "document": ("Tree",),
        "term": ("parse_term", "format_term"),
        "xml_io": ("tree_from_xml", "tree_to_xml"),
        "automata": (
            "UnrankedTreeAutomaton",
            "tree_language_equivalent",
            "tree_language_includes",
            "tree_language_is_empty",
        ),
    },
)
