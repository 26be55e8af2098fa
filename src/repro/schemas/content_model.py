"""Content models and the content-model formalisms ``R`` of the paper.

A *content model* constrains the children string of an element.  The paper
varies the formalism ``R`` used to write content models over four classes:

* ``nFA`` -- arbitrary nondeterministic finite automata,
* ``dFA`` -- deterministic finite automata,
* ``nRE`` -- arbitrary regular expressions,
* ``dRE`` -- deterministic (one-unambiguous) regular expressions, which is
  what the W3C standards actually require.

:class:`ContentModel` wraps a regular language together with the formalism
it is written in, checks that the language really is expressible in that
formalism (e.g. a ``dRE`` content model must be a deterministic expression)
and exposes the size measures used by Table 2.
"""

from __future__ import annotations

import enum
from typing import Optional, Union

from repro.errors import UnsupportedFormalismError
from repro.automata.dfa import DFA
from repro.automata.determinism import is_one_unambiguous
from repro.automata.nfa import NFA
from repro.automata.regex import Regex, ensure_nfa, is_deterministic_regex, parse_regex


class Formalism(str, enum.Enum):
    """The content-model formalism ``R`` (Section 2.2)."""

    NFA = "nFA"
    DFA = "dFA"
    NRE = "nRE"
    DRE = "dRE"

    @property
    def is_deterministic(self) -> bool:
        """``dFA`` and ``dRE`` are the deterministic formalisms."""
        return self in (Formalism.DFA, Formalism.DRE)

    @property
    def is_expression(self) -> bool:
        return self in (Formalism.NRE, Formalism.DRE)


LanguageLike = Union[str, Regex, NFA, DFA, "ContentModel"]


class ContentModel:
    """A regular language over element names, tagged with its formalism.

    Parameters
    ----------
    language:
        The language, given as regular-expression text (paper notation), a
        parsed :class:`~repro.automata.regex.Regex`, an NFA or a DFA.
    formalism:
        The formalism ``R`` the content model is claimed to be written in.
    names:
        Whether regular-expression text uses multi-character element names
        (default ``True``, which is what schema documents need).
    check:
        When true (the default) the constructor verifies the formalism claim
        and raises :class:`UnsupportedFormalismError` otherwise.
    """

    __slots__ = ("nfa", "formalism", "source", "_regex")

    def __init__(
        self,
        language: LanguageLike,
        formalism: Formalism | str = Formalism.NRE,
        names: bool = True,
        check: bool = True,
    ) -> None:
        self.formalism = Formalism(formalism)
        self._regex: Optional[Regex] = None
        self.source: Optional[str] = None
        if isinstance(language, ContentModel):
            self.nfa = language.nfa
            self.source = language.source
            self._regex = language._regex
        elif isinstance(language, str):
            self.source = language
            self._regex = parse_regex(language, names=names)
            self.nfa = self._regex.to_nfa()
        elif isinstance(language, Regex):
            self._regex = language
            self.source = str(language)
            self.nfa = language.to_nfa()
        else:
            self.nfa = ensure_nfa(language)
        if check:
            self._check_formalism()

    # ------------------------------------------------------------------ #
    # formalism verification
    # ------------------------------------------------------------------ #

    def _check_formalism(self) -> None:
        if self.formalism == Formalism.DRE:
            if self._regex is not None:
                if not is_deterministic_regex(self._regex):
                    raise UnsupportedFormalismError(
                        f"content model {self.source!r} is not a deterministic regular expression"
                    )
            elif not is_one_unambiguous(self.nfa):
                raise UnsupportedFormalismError(
                    "the content model language is not one-unambiguous, so it has no dRE"
                )
        elif self.formalism == Formalism.DFA:
            # Every regular language has a DFA; nothing to verify beyond
            # well-formedness, but we normalise the representation so that
            # the size measure reflects the deterministic automaton.
            pass

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    @property
    def regex(self) -> Optional[Regex]:
        """The expression form, when the content model was given as one."""
        return self._regex

    def to_dfa(self) -> DFA:
        """The minimal DFA of the content-model language.

        Compilation is delegated to the process
        :class:`~repro.engine.compilation.CompilationEngine`, so repeated
        calls (size accounting, validation, inclusion checks) reuse one
        memoized subset construction per distinct language representation.
        """
        from repro.engine.compilation import get_default_engine

        return get_default_engine().minimal_dfa(self.nfa)

    @property
    def size(self) -> int:
        """Size of the representation, respecting the formalism.

        For the deterministic-automaton formalism the relevant measure is
        the DFA size (this is where Table 2's exponential rows come from);
        for the others it is the size of the given NFA / expression.
        """
        if self.formalism == Formalism.DFA:
            return self.to_dfa().size
        return self.nfa.size

    def used_symbols(self) -> frozenset[str]:
        """Element names that actually occur in some accepted word."""
        return self.nfa.used_symbols()

    def accepts(self, word) -> bool:
        """Membership of a children string in the content model."""
        return self.nfa.accepts(word)

    def accepts_epsilon(self) -> bool:
        return self.nfa.accepts_epsilon()

    def renamed(self, mapping: dict[str, str]) -> "ContentModel":
        """Apply a symbol renaming (e.g. the specialisation mapping ``mu``)."""
        return ContentModel(self.nfa.rename_symbols(mapping), self.formalism, check=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = self.source if self.source is not None else repr(self.nfa)
        return f"ContentModel({shown!r}, {self.formalism.value})"

    def __str__(self) -> str:
        if self.source is not None:
            return self.source
        from repro.automata.to_regex import nfa_to_regex_text

        rendered = nfa_to_regex_text(self.nfa, max_size=400)
        if rendered is not None:
            return rendered
        word_sample = self.nfa.shortest_word()
        example = " ".join(word_sample) if word_sample else "ε"
        return f"<automaton content model, e.g. {example}>" if word_sample is not None else "∅"


#: Engine memo kind of :func:`content_model` for rule text.
CONTENT_MODEL_KIND = "content-model"


def content_model(
    language: LanguageLike, formalism: Formalism | str = Formalism.NRE, names: bool = True
) -> ContentModel:
    """Convenience coercion used by the schema constructors.

    Rule text is parsed once per distinct ``(text, formalism, names)`` on
    the current :class:`~repro.engine.compilation.CompilationEngine` (memo
    kind ``content-model``): a perfect typing repeats the global rules in
    every component, so the schemas of one typing share their content
    models.  A rule that fails to parse is not memoized and raises on
    every call.
    """
    if isinstance(language, ContentModel):
        return language
    if isinstance(language, str):
        from repro.engine.compilation import get_default_engine

        formalism = Formalism(formalism)
        return get_default_engine().memo(
            CONTENT_MODEL_KIND,
            (language, formalism.value, names),
            lambda: ContentModel(language, formalism, names=names),
        )
    return ContentModel(language, formalism, names=names)
