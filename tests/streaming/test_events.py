"""Tests for the element structure a streaming run parses and counts."""

from __future__ import annotations

import gc
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from repro.api import dtd
from repro.errors import InvalidXMLError, ReproError
from repro.streaming import StreamingValidator
from repro.streaming.events import iter_chunks

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
        """The O(depth) claim: a run retains its open path, not the closed siblings."""

        def live_elements() -> int:
            return sum(1 for thing in gc.get_objects() if isinstance(thing, ET.Element))

        machine = StreamingValidator(dtd("r", {"r": "a*"}))
        before = live_elements()
        run = machine.run()
        run.feed(b"<r>" + b"<a/>" * 5000)  # many parser slices
        # The wrapper the run opens, <r> and the last <a/>, which the
        # builder also holds as the element it last started.
        assert live_elements() - before == 3
        # The last <a/> has no later sibling yet, so it still counts as open.
        assert run.events == 10000
        assert run.max_depth == 2
        run.feed(b"<a/></r>")
        assert run.finish() is True
        assert run.events == 10004

    def test_character_data_is_not_retained(self):
        """A text run of any length costs a few chunks at most, as no fold reads it."""
        machine = StreamingValidator(dtd("r", {"r": "a*"}))
        piece = b"x" * 65536
        tracemalloc.start()
        try:
            run = machine.run()
            run.feed(b"<r>")
            for _ in range(64):  # 4 MiB of text before the first child
                run.feed(piece)
            run.feed(b"<a/><![CDATA[")
            for _ in range(16):  # a CDATA section in the tail of <a/>
                run.feed(piece)
            run.feed(b"]]></r>")
            assert run.finish() is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(piece), f"a stream run kept {peak} bytes for its text"
