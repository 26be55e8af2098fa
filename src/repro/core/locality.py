"""Verification problems for top-down designs: ``loc[S]``, ``ml[S]``, ``perf[S]`` (Definition 13).

Given a design ``D = <τ, T>`` and a typing ``(τn)``:

* **soundness / completeness / locality** are decided directly from the
  definitions, by comparing the tree languages ``[T(τn)]`` and ``[τ]``
  (this uses the bottom-up construction of Section 3.1 and tree-automaton
  equivalence -- PSPACE for DTDs/SDTDs, EXPTIME for EDTDs, Table 3 row A);
* **maximal locality** is verified through the per-node word reductions of
  Corollaries 4.3 and 4.6 (and, for EDTDs, through the bounded enumeration
  of maximal typings of Section 4.3);
* **perfection** uses the uniqueness of perfect typings (Theorem 2.1): the
  typing is perfect iff a perfect typing exists and the given one is
  component-wise equivalent to it.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DesignError
from repro.automata.nfa import NFA
from repro.schemas.compare import schema_equivalent, schema_includes
from repro.schemas.dtd import DTD
from repro.schemas.edtd import EDTD
from repro.schemas.sdtd import SDTD
from repro.core.consistency import build_combined_type
from repro.core.design import TopDownDesign
from repro.core.perfect import word_is_maximal_local
from repro.core.reduction import (
    InducedWordDesign,
    induced_word_designs_dtd,
    induced_word_designs_sdtd,
)
from repro.core.typing import TreeTyping


# --------------------------------------------------------------------------- #
# soundness / completeness / locality
# --------------------------------------------------------------------------- #


def is_sound(design: TopDownDesign, typing: TreeTyping) -> bool:
    """``extT(τn) ⊆ [τ]`` (Definition 12)."""
    combined = build_combined_type(design.kernel, typing)
    return schema_includes(design.target, combined)


def is_complete(design: TopDownDesign, typing: TreeTyping) -> bool:
    """``extT(τn) ⊇ [τ]`` (Definition 12)."""
    combined = build_combined_type(design.kernel, typing)
    return schema_includes(combined, design.target)


def is_local(design: TopDownDesign, typing: TreeTyping) -> bool:
    """``extT(τn) = [τ]`` -- the verification problem ``loc[S]``."""
    combined = build_combined_type(design.kernel, typing)
    return schema_equivalent(design.target, combined)


# --------------------------------------------------------------------------- #
# extracting the induced word typing from a tree typing
# --------------------------------------------------------------------------- #


def root_content_of(schema) -> NFA:
    """The content model of the dedicated root element of a typing component.

    By the convention of Section 2.3 the root element ``s_i`` occurs only at
    the root, so this content model is exactly the word-level type the
    reductions of Section 4 work with.
    """
    if isinstance(schema, DTD):
        return schema.content(schema.start).nfa
    if isinstance(schema, EDTD):
        return schema.content(schema.start).nfa
    raise DesignError(f"cannot extract a root content model from {schema!r}")


def _induced_word_typing(
    word_design: InducedWordDesign, typing: TreeTyping, project_to_elements: bool, target: Optional[EDTD]
) -> list[NFA]:
    """The word typing induced on one kernel node by a tree typing."""
    components = []
    for function in word_design.functions:
        content = root_content_of(typing[function])
        if project_to_elements and isinstance(typing[function], EDTD):
            components.append(content.rename_symbols(dict(typing[function].mu)))
        else:
            components.append(content)
    return components


# --------------------------------------------------------------------------- #
# maximal locality and perfection
# --------------------------------------------------------------------------- #


def is_maximal_local(design: TopDownDesign, typing: TreeTyping) -> bool:
    """``ml[S]``: is the typing local and maximal (Definition 12)?

    For DTD and SDTD designs this runs the word-level criterion of
    Theorem 7.1 on every induced word design (Corollaries 4.3 and 4.6).  For
    EDTD designs it compares the typing against the (budget-bounded)
    enumeration of maximal local typings of Section 4.3.
    """
    if not is_local(design, typing):
        return False
    language = design.schema_language
    if language == "DTD":
        word_designs = induced_word_designs_dtd(design)
        project = True
    elif language == "SDTD":
        word_designs = induced_word_designs_sdtd(design)
        project = False
        if word_designs is None:
            return False
    else:
        from repro.core.existence import find_maximal_local_typings

        candidates = find_maximal_local_typings(design)
        return any(typing.equivalent_to(candidate) for candidate in candidates)

    for word_design in word_designs:
        if not word_design.has_functions:
            continue
        components = _induced_word_typing(word_design, typing, project, None)
        if not word_is_maximal_local(word_design.target, word_design.kernel, components):
            return False
    return True


def is_perfect(design: TopDownDesign, typing: TreeTyping) -> bool:
    """``perf[S]``: is the typing perfect (Definition 12)?

    Uses Theorem 2.1 (a perfect typing is the unique maximal local typing):
    the typing is perfect iff a perfect typing exists for the design and the
    given typing is component-wise equivalent to it.  A typing equivalent to
    a local one is local, so no tree-language comparison is needed.
    """
    from repro.core.existence import find_perfect_typing

    reference = find_perfect_typing(design)
    if reference is None:
        return False
    if set(typing.types) != set(reference.types):
        return False
    return typing.equivalent_to(reference)
