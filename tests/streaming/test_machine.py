"""Unit tests for the streaming validator machine."""

from __future__ import annotations

import pytest

from repro.api import dtd, edtd, sdtd
from repro.engine import BatchValidator, CompilationEngine
from repro.engine.batch import CompiledSchema
from repro.errors import InvalidXMLError
from repro.streaming import StreamingValidator, streaming_validator_for
from repro.trees.term import parse_term
from repro.trees.xml_io import tree_to_xml


RECORD_DTD = dtd(
    "s",
    {
        "s": "record*",
        "record": "key, (field | group)*, stamp?",
        "group": "(field, field) | note",
        "field": "value?",
    },
)


class TestVerdicts:
    @pytest.mark.parametrize(
        "term, expected",
        [
            ("s", True),
            ("s(record(key))", True),
            ("s(record(key field(value) stamp))", True),
            ("s(record(key group(field field)))", True),
            ("s(record(field key))", False),  # key must come first
            ("s(record(key group(field)))", False),  # group needs two fields
            ("s(zzz)", False),  # unknown label
        ],
    )
    def test_dtd_matches_batch_validator(self, term, expected):
        tree = parse_term(term)
        machine = StreamingValidator(RECORD_DTD)
        assert BatchValidator(RECORD_DTD).validate(tree) is expected
        assert machine.validate_payload(tree_to_xml(tree)) is expected

    def test_edtd_specialisations(self):
        schema = edtd(
            "s0", {"s0": "b1, b2", "b1": "c", "b2": "d"}, mu={"b1": "b", "b2": "b"}
        )
        machine = StreamingValidator(schema)
        batch = BatchValidator(schema)
        for term in ["s0(b(c) b(d))", "s0(b(d) b(c))", "s0(b(c))", "s0(b(c) b(d) b(c))"]:
            tree = parse_term(term)
            assert machine.validate_payload(tree_to_xml(tree)) is batch.validate(tree)

    def test_sdtd_specialisations(self):
        schema = sdtd(
            "s",
            {"s": "x, y", "x": "a1*", "y": "a2*", "a1": "c", "a2": ""},
            mu={"a1": "a", "a2": "a"},
        )
        machine = StreamingValidator(schema)
        batch = BatchValidator(schema)
        for term in ["s(x(a(c)) y(a))", "s(x(a) y(a))", "s(x y)", "s(x(a(c) a(c)) y)"]:
            tree = parse_term(term)
            assert machine.validate_payload(tree_to_xml(tree)) is batch.validate(tree)

    def test_root_mask_equals_batch_possible_mask(self):
        compiled = CompiledSchema(RECORD_DTD)
        machine = StreamingValidator(compiled)
        for term in ["s(record(key))", "s(record(field key))", "s"]:
            tree = parse_term(term)
            run = machine.run()
            run.feed(tree_to_xml(tree))
            run.finish()
            assert run.root_mask == compiled._possible_mask(tree)


class TestEarlyRejection:
    def test_unknown_label_rejects_at_its_open_event(self):
        machine = StreamingValidator(RECORD_DTD)
        run = machine.run()
        run.feed(b"<s><zzz>")
        assert run.rejected
        assert run.rejected_at == 2
        run.feed(b"</zzz></s>")
        assert run.finish() is False

    def test_dead_parent_rules_reject_before_document_ends(self):
        # 'field' before 'key' kills the record rule the moment the
        # misplaced child closes -- long before the record itself ends.
        # The run learns that the field closed from the next start tag.
        machine = StreamingValidator(RECORD_DTD)
        run = machine.run()
        run.feed(b"<s><record><field/>")
        run.feed(b"<key/>")  # field closed: record's content model is now dead
        assert run.rejected
        assert run.rejected_at == 4
        # Further events are only counted; the verdict is fixed.
        run.feed(b"</record></s>")
        assert run.rejected_at == 4
        assert run.finish() is False
        assert run.rejected_at == 4
        assert run.events == 8

    def test_rejection_depth_keeps_counting(self):
        machine = StreamingValidator(RECORD_DTD)
        run = machine.run()
        run.feed(b"<zzz><deep><deeper>")
        assert run.max_depth == 3

    def test_incomplete_run_has_no_verdict(self):
        machine = StreamingValidator(RECORD_DTD)
        run = machine.run()
        run.feed(b"<s>")
        assert not run.rejected
        with pytest.raises(InvalidXMLError):
            run.finish()


class TestCompilation:
    def test_memoized_per_schema_identity(self):
        engine = CompilationEngine()
        first = streaming_validator_for(RECORD_DTD, engine)
        second = streaming_validator_for(RECORD_DTD, engine)
        assert first is second

    def test_wrapping_a_compiled_schema_shares_it(self):
        compiled = CompiledSchema(RECORD_DTD)
        machine = StreamingValidator(compiled)
        assert machine.compiled is compiled
        assert machine.schema is RECORD_DTD

    def test_malformed_payload_raises_even_when_already_rejected(self):
        # Classification parity with the parse-first tree path: a document
        # that is both invalid and malformed reports malformed.
        machine = StreamingValidator(RECORD_DTD)
        with pytest.raises(InvalidXMLError):
            machine.validate_payload("<s><zzz></s>")

    def test_validate_chunks_accepts_str_and_bytes(self):
        machine = StreamingValidator(RECORD_DTD)
        assert machine.validate_chunks(["<s><record>", b"<key/></record></s>"]) is True
