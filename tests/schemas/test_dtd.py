"""Tests for R-DTDs: validation, dual automaton, reduction, equivalence."""

from __future__ import annotations

import pytest

from repro.engine.compilation import CompilationEngine, use_engine
from repro.errors import RegexSyntaxError, SchemaError, UnsupportedFormalismError
from repro.schemas.content_model import ContentModel, Formalism
from repro.schemas.dtd import DTD
from repro.schemas.dtd_text import parse_dtd_text, parse_rules
from repro.trees.term import parse_term


def eurostat_dtd() -> DTD:
    """The global type τ of Figure 3."""
    return DTD(
        "eurostat",
        {
            "eurostat": "averages, nationalIndex*",
            "averages": "(Good, index+)+",
            "nationalIndex": "country, Good, (index | value, year)",
            "index": "value, year",
        },
    )


class TestContentModel:
    def test_from_text_and_accepts(self):
        model = ContentModel("country, Good, (index | value, year)")
        assert model.accepts(("country", "Good", "index"))
        assert model.accepts(("country", "Good", "value", "year"))
        assert not model.accepts(("country", "Good"))

    def test_epsilon_and_used_symbols(self):
        model = ContentModel("index*")
        assert model.accepts_epsilon()
        assert model.used_symbols() == {"index"}

    def test_dre_formalism_is_checked(self):
        ContentModel("a*b*", Formalism.DRE, names=False)
        with pytest.raises(UnsupportedFormalismError):
            ContentModel("(a|b)*a", Formalism.DRE, names=False)

    def test_dre_check_on_automaton_input(self):
        from repro.automata.regex import regex_to_nfa

        with pytest.raises(UnsupportedFormalismError):
            ContentModel(regex_to_nfa("(a|b)*a(a|b)"), Formalism.DRE)

    def test_size_depends_on_formalism(self):
        # The k-th-letter-from-the-end family: dFA sizes grow exponentially
        # with k while the nRE representation grows linearly (Table 2's
        # deterministic-formalism blow-up).
        def sizes(k: int) -> tuple[int, int]:
            text = "(a|b)*a" + "(a|b)" * (k - 1)
            return (
                ContentModel(text, Formalism.NRE, names=False).size,
                ContentModel(text, Formalism.DFA, names=False).size,
            )

        nre_small, dfa_small = sizes(3)
        nre_large, dfa_large = sizes(6)
        assert nre_large < 3 * nre_small
        assert dfa_large > 6 * dfa_small

    def test_renamed(self):
        model = ContentModel("natIndA, natIndB")
        renamed = model.renamed({"natIndA": "nationalIndex", "natIndB": "nationalIndex"})
        assert renamed.accepts(("nationalIndex", "nationalIndex"))

    def test_str_of_automaton_model_renders_an_expression(self):
        from repro.automata.nfa import NFA

        assert str(ContentModel(NFA.from_word("ab"))) == "a, b"
        assert str(ContentModel(NFA.empty_language({"a"}))) == "∅"


class TestDTDValidation:
    def test_figure_2_extension_is_valid(self):
        # A simplified version of Figure 2's extension of T0.
        tree = parse_term(
            "eurostat(averages(Good index(value year)) "
            "nationalIndex(country Good index(value year)) "
            "nationalIndex(country Good value year))"
        )
        assert eurostat_dtd().validate(tree)

    def test_invalid_root(self):
        assert not eurostat_dtd().validate(parse_term("averages(Good index(value year))"))
        assert "root" in eurostat_dtd().validation_error(parse_term("country"))

    def test_invalid_children(self):
        tree = parse_term("eurostat(averages(Good) nationalIndex(country Good index(value year)))")
        error = eurostat_dtd().validation_error(tree)
        assert error is not None and "averages" in error

    def test_unknown_element(self):
        dtd = DTD("s", {"s": "a*"})
        error = dtd.validation_error(parse_term("s(a z)"))
        assert error is not None and "content model" in error

    def test_elements_without_rules_are_leaves(self):
        dtd = DTD("s", {"s": "a"})
        assert dtd.validate(parse_term("s(a)"))
        assert not dtd.validate(parse_term("s(a(b))"))

    def test_start_symbol_may_be_leaf_only(self):
        dtd = DTD("root", {}, alphabet=["a"])
        assert dtd.validate(parse_term("root"))
        assert not dtd.validate(parse_term("root(a)"))

    def test_content_of_unknown_element(self):
        with pytest.raises(SchemaError):
            eurostat_dtd().content("unknown")

    def test_to_uta_agrees_with_direct_validation(self):
        dtd = eurostat_dtd()
        uta = dtd.to_uta()
        trees = [
            parse_term("eurostat(averages(Good index(value year)))"),
            parse_term("eurostat(averages(Good))"),
            parse_term("eurostat(nationalIndex(country Good index(value year)))"),
        ]
        for tree in trees:
            assert dtd.validate(tree) == uta.accepts(tree)

    def test_describe_and_size(self):
        dtd = eurostat_dtd()
        assert "nationalIndex" in dtd.describe()
        assert dtd.size > 10


class TestDualAndReduction:
    def test_dual_accepts_root_to_leaf_paths(self):
        dual = eurostat_dtd().dual()
        assert dual.accepts(("eurostat", "averages", "Good"))
        assert dual.accepts(("eurostat", "nationalIndex", "index", "value"))
        assert not dual.accepts(("eurostat", "Good"))
        assert not dual.accepts(("averages", "Good"))

    def test_bound_and_useful_names(self):
        dtd = DTD("s", {"s": "a | b", "a": "a"})  # 'a' can never terminate
        assert "a" not in dtd.bound_names()
        assert dtd.useful_names() == {"s", "b"}

    def test_is_reduced_and_reduced(self):
        dtd = DTD("s", {"s": "a | b", "a": "a"})
        assert not dtd.is_reduced()
        reduced = dtd.reduced()
        assert reduced.is_reduced()
        assert reduced.alphabet == {"s", "b"}
        assert reduced.validate(parse_term("s(b)"))
        assert not reduced.validate(parse_term("s(a)"))

    def test_reduced_preserves_language(self):
        dtd = DTD("s", {"s": "a | b", "a": "a"})
        reduced = dtd.reduced()
        for text in ("s(b)", "s(a)", "s", "s(b b)"):
            assert dtd.validate(parse_term(text)) == reduced.validate(parse_term(text))

    def test_empty_language_cannot_be_reduced(self):
        dtd = DTD("s", {"s": "a", "a": "a"})
        assert dtd.is_empty()
        with pytest.raises(SchemaError):
            dtd.reduced()

    def test_eurostat_dtd_is_reduced(self):
        assert eurostat_dtd().is_reduced()


class TestEquivalence:
    def test_equivalent_dtds(self):
        left = DTD("s", {"s": "a*b"})
        right = DTD("s", {"s": "a* a b | b"})
        assert left.equivalent_to(right)

    def test_non_equivalent_dtds(self):
        left = DTD("s", {"s": "a*b"})
        right = DTD("s", {"s": "a, a*, b"})
        assert not left.equivalent_to(right)

    def test_different_roots(self):
        assert not DTD("s", {"s": "a"}).equivalent_to(DTD("t", {"t": "a"}))

    def test_empty_languages_are_equivalent(self):
        left = DTD("s", {"s": "a", "a": "a"})
        right = DTD("s", {"s": "b", "b": "b"})
        assert left.equivalent_to(right)
        assert not left.equivalent_to(DTD("s", {"s": "c"}))

    def test_unused_leaf_names_do_not_matter(self):
        left = DTD("s", {"s": "a"}, alphabet=["zzz"])
        right = DTD("s", {"s": "a"})
        assert left.equivalent_to(right)


class TestDtdText:
    def test_parse_w3c_syntax_figure_3(self):
        text = """
        <!ELEMENT eurostat (averages, nationalIndex*)>
        <!ELEMENT averages (Good, index+)+>
        <!ELEMENT nationalIndex (country, Good, (index | value, year))>
        <!ELEMENT index (value, year)>
        <!ELEMENT country (#PCDATA)>
        <!ELEMENT Good (#PCDATA)>
        <!ELEMENT value (#PCDATA)>
        <!ELEMENT year (#PCDATA)>
        """
        dtd = parse_dtd_text(text)
        assert dtd.start == "eurostat"
        assert dtd.equivalent_to(eurostat_dtd())

    def test_parse_arrow_notation_figure_4(self):
        text = """
        rooti -> nationalIndex*
        nationalIndex -> country, Good, (index | value, year)
        index -> value, year
        """
        dtd = parse_dtd_text(text)
        assert dtd.start == "rooti"
        assert dtd.validate(parse_term("rooti(nationalIndex(country Good index(value year)))"))
        assert dtd.validate(parse_term("rooti"))

    def test_parse_rules_rejects_garbage(self):
        with pytest.raises(SchemaError):
            parse_rules("this is not a rule")
        with pytest.raises(SchemaError):
            parse_rules("")
        with pytest.raises(SchemaError):
            parse_dtd_text("<!ATTLIST foo>")

    def test_element_declared_empty(self):
        rules = parse_rules("<!ELEMENT a EMPTY><!ELEMENT b (a*)>")
        assert rules["a"] == "ε"


class TestContentModelMemo:
    """Rule text parses once per engine; the memo is the engine's, not global."""

    def test_dtds_sharing_a_rule_text_share_its_content_model(self):
        engine = CompilationEngine()
        with use_engine(engine):
            first = parse_dtd_text("r1 -> record*\nrecord -> key, field*")
            second = parse_dtd_text("r2 -> record*\nrecord -> key, field*")
        assert first.rules["record"] is second.rules["record"]
        assert first.rules["r1"] is second.rules["r2"]
        counters = engine.stats.snapshot()["by_kind"]["content-model"]
        assert (counters["misses"], counters["hits"]) == (2, 2)
        with use_engine(CompilationEngine()):
            cold = parse_dtd_text("r1 -> record*\nrecord -> key, field*")
        assert cold.rules["record"] is not first.rules["record"]

    def test_a_malformed_rule_raises_on_every_call(self):
        with use_engine(CompilationEngine()):
            for _ in range(2):
                with pytest.raises(RegexSyntaxError):
                    parse_dtd_text("r -> (a, b")

    def test_formalisms_key_apart(self):
        with use_engine(CompilationEngine()):
            loose = DTD("r", {"r": "(a, b) | (a, c)"})
            assert loose.rules["r"].formalism == Formalism.NRE
            with pytest.raises(UnsupportedFormalismError):
                DTD("r", {"r": "(a, b) | (a, c)"}, Formalism.DRE)
            strict = DTD("r", {"r": "a, b"}, Formalism.DRE)
            assert strict.rules["r"] is not DTD("r", {"r": "a, b"}).rules["r"]
            assert strict.rules["r"].formalism == Formalism.DRE
