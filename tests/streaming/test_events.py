"""Tests for the expat element events a streaming run parses."""

from __future__ import annotations

import pytest

from repro.api import dtd
from repro.errors import InvalidXMLError, ReproError
from repro.streaming import StreamingValidator
from repro.streaming.events import expat_name, iter_chunks

SCHEMA = dtd("r", {"r": "a?, b?", "b": "c"})


def parse(payload, chunk_bytes=None):
    """Feed one payload (optionally in bounded chunks) and finish the run."""
    run = StreamingValidator(SCHEMA).run()
    chunks = [payload] if chunk_bytes is None else list(iter_chunks(payload, chunk_bytes))
    for chunk in chunks:
        run.feed(chunk)
    return run.finish(), run


class TestEventSequence:
    def test_simple_document(self):
        verdict, run = parse(b"<r><a/><b><c/></b></r>")
        assert verdict is True
        assert run.events == 8  # four starts, four ends
        assert run.max_depth == 3  # r > b > c

    def test_text_attributes_and_comments_are_ignored(self):
        verdict, run = parse(b'<r id="1"><!-- note --><a x="2">text</a>tail</r>')
        assert verdict is True
        assert run.events == 4

    def test_single_byte_chunks_match_whole_payload(self):
        payload = b"<r><a/><b><c/></b></r>"
        whole_verdict, whole = parse(payload)
        split_verdict, split = parse(payload, chunk_bytes=1)
        assert split_verdict is whole_verdict is True
        assert (split.events, split.max_depth) == (whole.events, whole.max_depth)

    def test_str_chunks_are_accepted(self):
        verdict, run = parse("<r><a/></r>", chunk_bytes=3)
        assert verdict is True
        assert run.events == 4

    def test_iter_chunks_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            list(iter_chunks(b"abc", 0))

    def test_namespaced_labels_use_expat_names(self):
        assert expat_name("{urn:x}r") == "urn:x}r"
        assert expat_name("r") == "r"


class TestTypedErrors:
    def test_mismatched_tag_raises_typed_error(self):
        run = StreamingValidator(SCHEMA).run()
        with pytest.raises(InvalidXMLError):
            run.feed(b"<a><b></a>")

    def test_truncated_document_raises_on_finish(self):
        run = StreamingValidator(SCHEMA).run()
        run.feed(b"<r><b>")
        with pytest.raises(InvalidXMLError):
            run.finish()

    def test_empty_input_raises_on_finish(self):
        run = StreamingValidator(SCHEMA).run()
        with pytest.raises(InvalidXMLError):
            run.finish()

    def test_error_is_a_repro_error(self):
        assert issubclass(InvalidXMLError, ReproError)

    def test_feeding_after_finish_raises(self):
        run = StreamingValidator(SCHEMA).run()
        run.feed(b"<r/>")
        assert run.finish() is True
        with pytest.raises(InvalidXMLError):
            run.feed(b"<r/>")

    def test_finishing_twice_raises(self):
        run = StreamingValidator(SCHEMA).run()
        run.feed(b"<r/>")
        run.finish()
        with pytest.raises(InvalidXMLError):
            run.finish()

    def test_feeding_after_a_parse_error_raises(self):
        run = StreamingValidator(SCHEMA).run()
        with pytest.raises(InvalidXMLError):
            run.feed(b"<r></a>")
        with pytest.raises(InvalidXMLError):
            run.feed(b"<r/>")

    def test_aborted_run_refuses_input(self):
        run = StreamingValidator(SCHEMA).run()
        run.feed(b"<r>")
        run.abort()
        run.abort()
        with pytest.raises(InvalidXMLError):
            run.feed(b"</r>")


class TestMemoryDiscipline:
    def test_closed_siblings_do_not_accumulate(self):
        """The O(depth) claim: one frame per open element, none per closed one."""
        run = StreamingValidator(dtd("r", {"r": "a*"})).run()
        run.feed(b"<r>" + b"<a/>" * 500)
        assert run.events == 1001
        assert run.max_depth == 2
        assert len(run._stack) == 1  # only the root is open
