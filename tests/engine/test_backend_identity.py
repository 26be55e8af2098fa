"""Backend identity: every backend is bit-identical to the interpreted oracle.

The ``python`` kernel is the differential oracle; ``codegen`` and
``numpy`` are only correct if no input can tell them apart from it.  This
suite drives every available backend through seeded-random mutated
documents of all three schema kinds (DTD / SDTD / EDTD), the malformed /
truncated payload corpus, adversarial chunk splits (reusing the splitter
of ``tests/streaming/test_fuzz_chunks.py``), and the incremental run API
-- demanding identical verdicts, identical ``rejected_at`` positions and
identical typed-error classification throughout.  Backend *selection* is
covered too: argument > ``$REPRO_BACKEND`` > default precedence, typed
errors naming the fallback for unknown/unavailable names, and the
engine-stats counters the generated paths maintain.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from repro.engine import (
    BatchValidator,
    CompilationEngine,
    available_backends,
    resolve_backend,
)
from repro.engine import backends as backends_module
from repro.engine.compilation import CODEGEN_VALIDATOR_KIND
from repro.errors import DesignError, InvalidXMLError
from repro.streaming import StreamingValidator, streaming_validator_for
from repro.trees.term import parse_term
from repro.trees.xml_io import tree_from_xml, tree_to_xml
from repro.workloads.synthetic import distributed_workload


def _load_streaming_module(name: str):
    """Import a sibling test module by path (the test tree has no packages)."""
    path = Path(__file__).parent.parent / "streaming" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


differential = _load_streaming_module("test_differential")
fuzz = _load_streaming_module("test_fuzz_chunks")

SCHEMAS = differential.SCHEMAS
ALL_BACKENDS = available_backends()
GENERATED_BACKENDS = tuple(name for name in ALL_BACKENDS if name != "python")


def oracle_outcome(schema, payload):
    """The interpreted tree path's outcome: verdict, or the typed error text."""
    try:
        document = tree_from_xml(payload)
    except InvalidXMLError as error:
        return f"invalid-xml: {error}"
    return BatchValidator(schema).validate(document)


def batch_payload_outcome(schema, payload, backend):
    """The bytes entry's outcome: verdict, or the typed error text."""
    try:
        return BatchValidator(schema, backend=backend).validate_payload(payload)
    except InvalidXMLError as error:
        return f"invalid-xml: {error}"


def backend_stream_outcome(schema, payload, backend, chunk_bytes=None):
    machine = streaming_validator_for(schema, backend=backend)
    assert machine.backend == backend
    try:
        if chunk_bytes is None:
            return machine.validate_payload(payload)
        return machine.validate_payload(payload, chunk_bytes)
    except InvalidXMLError as error:
        return f"invalid-xml: {error}"


class TestVerdictIdentity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_mutated_documents_all_paths_agree(self, kind, backend):
        rng = random.Random(f"{kind}:{backend}")
        schema = SCHEMAS[kind]
        batch = BatchValidator(schema, backend=backend)
        assert batch.backend == backend
        # The seed documents are valid; the mutations supply the invalid
        # side, so the pool always exercises both outcomes.
        trees = [
            parse_term(term) for term in differential.SEED_TERMS[kind]
        ] + differential.mutated_trees(kind, rng, 40)
        expected = [BatchValidator(schema).validate(tree) for tree in trees]
        assert [batch.validate(tree) for tree in trees] == expected
        assert batch.validate_many(trees) == expected
        for tree, verdict in zip(trees, expected):
            payload = tree_to_xml(tree).encode("utf-8")
            assert backend_stream_outcome(schema, payload, backend) is verdict
            assert batch.validate_payload(payload) is verdict
        assert set(expected) == {True, False}

    @pytest.mark.parametrize("backend", GENERATED_BACKENDS)
    def test_workload_publication_stream_agrees(self, backend):
        workload = distributed_workload(
            peers=4, documents=24, seed=9, invalid_rate=0.3, records=6, fields=4
        )
        publications = list(workload.initial_documents.items()) + [
            (event.function, event.document) for event in workload.events
        ]
        for function, document in publications:
            schema = workload.typing[function]
            payload = tree_to_xml(document).encode("utf-8")
            assert backend_stream_outcome(schema, payload, backend) == oracle_outcome(
                schema, payload
            )


class TestRejectedAtIdentity:
    @pytest.mark.parametrize("backend", GENERATED_BACKENDS)
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_run_api_rejects_at_identical_events(self, kind, backend):
        """Incremental runs die at the same event index on every backend."""
        schema = SCHEMAS[kind]
        rng = random.Random(f"reject:{kind}")
        oracle = StreamingValidator(schema)
        machine = StreamingValidator(schema, backend=backend)
        rejected_positions = set()
        for tree in differential.mutated_trees(kind, rng, 40):
            payload = tree_to_xml(tree).encode("utf-8")
            runs = (oracle.run(), machine.run())
            verdicts = []
            for run in runs:
                run.feed(payload)
                verdicts.append(run.finish())
            baseline, candidate = runs
            assert candidate.rejected_at == baseline.rejected_at
            assert candidate.root_mask == baseline.root_mask
            assert verdicts[1] is verdicts[0]
            rejected_positions.add(baseline.rejected_at)
        assert rejected_positions != {None}  # some runs must die early


class TestClassificationIdentity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("payload", differential.TestMalformedAndTruncated.PAYLOADS)
    def test_malformed_payloads_classify_identically(self, payload, backend):
        schema = SCHEMAS["DTD"]
        expected = backend_stream_outcome(schema, payload, "python")
        assert isinstance(expected, str) and expected.startswith("invalid-xml")
        assert backend_stream_outcome(schema, payload, backend) == expected
        assert batch_payload_outcome(schema, payload, backend) == expected

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_truncations_classify_identically_at_any_cut(self, backend):
        schema = fuzz.SCHEMA
        workload = distributed_workload(peers=1, documents=1, seed=5, records=4, fields=3)
        payload = tree_to_xml(next(iter(workload.initial_documents.values()))).encode()
        for cut in range(1, len(payload), 7):
            truncated = payload[:cut]
            expected = backend_stream_outcome(schema, truncated, "python", chunk_bytes=5)
            assert backend_stream_outcome(schema, truncated, backend, chunk_bytes=5) == expected
            assert batch_payload_outcome(schema, truncated, backend) == expected

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_deep_document_falls_back_to_the_iterative_machine(self, backend):
        """Documents beyond the recursion limit still get oracle answers."""
        schema = fuzz.SCHEMA
        deep_valid = b"<s_f1>" + b"<record>" * 0 + b"</s_f1>"
        nested = b"<s_f1>" + b"<record>" * 2000 + b"</record>" * 2000 + b"</s_f1>"
        for payload in (deep_valid, nested):
            expected = backend_stream_outcome(schema, payload, "python")
            assert backend_stream_outcome(schema, payload, backend) == expected
            assert batch_payload_outcome(schema, payload, backend) == expected


class TestChunkFuzzIdentity:
    @pytest.mark.parametrize("backend", GENERATED_BACKENDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_random_splits_never_diverge_from_oracle(self, seed, backend):
        """The fuzz corpus and splitter, pointed at the generated backends."""
        machine = streaming_validator_for(fuzz.SCHEMA, backend=backend)
        rng = random.Random(seed)
        for payload in fuzz.corpus():
            expected = fuzz.outcome_whole(payload)
            for _ in range(4):
                count = rng.randrange(0, min(9, len(payload)))
                splits = sorted(rng.randrange(0, len(payload) + 1) for _ in range(count))
                chunks, last = [], 0
                for split in splits:
                    chunks.append(payload[last:split])
                    last = split
                chunks.append(payload[last:])
                try:
                    outcome = machine.validate_chunks(chunks)
                except InvalidXMLError:
                    outcome = "invalid-xml"
                assert outcome == expected, (payload, splits)


class TestSelection:
    def test_explicit_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv(backends_module.BACKEND_ENV_VAR, "codegen")
        assert resolve_backend("python") == "python"
        assert resolve_backend(None) == "codegen"
        assert BatchValidator(SCHEMAS["DTD"]).backend == "codegen"

    def test_environment_default_is_python(self, monkeypatch):
        monkeypatch.delenv(backends_module.BACKEND_ENV_VAR, raising=False)
        assert resolve_backend() == "python"
        monkeypatch.setenv(backends_module.BACKEND_ENV_VAR, "")
        assert resolve_backend() == "python"

    def test_unknown_backend_is_a_typed_error_naming_the_fallback(self):
        with pytest.raises(DesignError, match="'python'"):
            resolve_backend("turbo")
        with pytest.raises(DesignError, match="unknown validation backend"):
            BatchValidator(SCHEMAS["DTD"], backend="turbo")

    def test_unavailable_numpy_is_a_typed_error_naming_the_fallback(self, monkeypatch):
        monkeypatch.setattr(backends_module, "_numpy", lambda: None)
        assert available_backends() == ("python", "codegen")
        with pytest.raises(DesignError, match="fall back to 'python'"):
            resolve_backend("numpy")

    def test_streaming_validator_inherits_the_schema_backend(self):
        from repro.engine import CompiledSchema

        compiled = CompiledSchema(SCHEMAS["SDTD"], backend="codegen")
        machine = streaming_validator_for(compiled)
        assert machine.backend == "codegen"
        assert machine.compiled is compiled


class TestEngineStats:
    def test_codegen_memo_and_fold_counters_surface_in_stats(self):
        engine = CompilationEngine()
        schema = SCHEMAS["DTD"]
        batch = BatchValidator(schema, engine=engine, backend="codegen")
        rng = random.Random("stats")
        for tree in differential.mutated_trees("DTD", rng, 12):
            batch.validate(tree)
        snapshot = engine.stats.snapshot()["by_kind"]
        assert snapshot[CODEGEN_VALIDATOR_KIND]["misses"] == 1
        assert snapshot["codegen-fold"]["misses"] > 0
        assert snapshot["union-row"]["misses"] > 0
        # A second validator for the same schema reuses the generated code.
        BatchValidator(schema, engine=engine, backend="codegen")
        assert engine.stats.snapshot()["by_kind"][CODEGEN_VALIDATOR_KIND]["hits"] >= 1

    def test_union_row_cache_hits_on_repeated_children_masks(self):
        engine = CompilationEngine()
        schema = fuzz.SCHEMA
        batch = BatchValidator(schema, engine=engine)
        workload = distributed_workload(peers=1, documents=2, seed=2, records=6, fields=4)
        for document in workload.initial_documents.values():
            batch.validate(document)
            batch.validate(document)
        union = engine.stats.snapshot()["by_kind"]["union-row"]
        assert union["hits"] > union["misses"] > 0

    @pytest.mark.skipif("numpy" not in ALL_BACKENDS, reason="numpy not installed")
    def test_numpy_fold_counters_surface_in_stats(self):
        engine = CompilationEngine()
        schema = SCHEMAS["EDTD"]
        batch = BatchValidator(schema, engine=engine, backend="numpy")
        rng = random.Random("numpy-stats")
        trees = differential.mutated_trees("EDTD", rng, 20)
        expected = [BatchValidator(schema, engine=engine).validate(tree) for tree in trees]
        assert batch.validate_many(trees) == expected
        assert engine.stats.snapshot()["by_kind"]["numpy-fold"]["misses"] > 0
