"""Abstractions of XML schema languages (Section 2.2).

The paper compares three schema languages, parameterised by the formalism
``R`` used for content models (``nFA``, ``dFA``, ``nRE`` or ``dRE``):

========================  =============================  =======================
Schema language           W3C / practical counterpart     Class in this package
========================  =============================  =======================
``R-DTD``                 W3C DTDs (local tree grammars)  :class:`repro.schemas.DTD`
``R-SDTD``                W3C XML Schema (single-type)    :class:`repro.schemas.SDTD`
``R-EDTD``                Relax NG (regular tree langs.)  :class:`repro.schemas.EDTD`
========================  =============================  =======================

Every schema knows how to validate a tree, convert itself to an unranked
tree automaton, reduce itself (Definition 5) and report its size; the
closure constructions used by the bottom-up consistency problems live in
:mod:`repro.schemas.closures`, and :mod:`repro.schemas.dtd_text` parses both
W3C ``<!ELEMENT ...>`` syntax and the compact arrow notation the paper uses
in Figures 3-6.

The names below are re-exported lazily (:func:`repro.lazy_exports`): each
submodule is imported when one of its names is first read.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "content_model": ("ContentModel", "Formalism"),
        "dtd": ("DTD",),
        "sdtd": ("SDTD",),
        "edtd": ("EDTD", "NormalizedEDTD", "is_normalized", "normalize"),
        "closures": ("dtd_closure", "single_type_closure"),
        "dtd_text": ("parse_dtd_text", "parse_rules"),
    },
)
