"""Fold identity: every driver of the label automata equals the schema's own membership.

:class:`~repro.engine.batch.CompiledSchema` steps one set of lazily
determinized label states from four drivers -- the Tree fold, the element
fold of the bytes entry, the incremental element fold of a stream run, and
the tree-language search of :mod:`repro.trees.automata` (emptiness,
inclusion, equivalence and EDTD normalisation) -- and the runtime
publishes through the second and third.  The oracle is
``schema.validate(tree_from_xml(payload))``: the schema's set-based
membership (DTD content models, the SDTD witness, the EDTD's set-based
tree automaton), which shares no code with ``CompiledSchema``; the search
is checked against ``UnrankedTreeAutomaton.possible_states``/``accepts``,
the same set-based membership.

The suite drives every path through seeded-random mutated documents of all
three schema kinds, the malformed and truncated payload corpus, deep
documents, adversarial chunk splits (the splitter of
``tests/streaming/test_fuzz_chunks.py``), random schemas and trees
(hypothesis), random schema pairs for the search, and many threads sharing
one schema whose tables are capped low enough to evict.  Each identity check runs twice: on the schema's
shared label tables, and with tables capped so low that nearly every step
is computed afresh and evicts.  The run API is checked against an event-level
oracle built on the same set-based semantics: the run must die at the
first event after which no completion of the document can be valid.
"""

from __future__ import annotations

import importlib.util
import os
import random
import sys
import threading
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.api import dtd, edtd, kernel, sdtd
from repro.automata.kernel.compact import iter_bits
from repro.distributed.network import DistributedDocument
from repro.distributed.runtime import ValidationRuntime
from repro.engine import BatchValidator, CompilationEngine, CompiledSchema
from repro.engine.batch import LABEL_DFA_KIND
from repro.errors import InvalidXMLError, NotSingleTypeError, SchemaError
from repro.schemas.edtd import EDTD, normalize
from repro.streaming import StreamingValidator, iter_chunks
from repro.trees.automata import (
    joint_reachable_profiles,
    tree_language_counterexample,
    tree_language_equivalence_counterexample,
    tree_language_equivalent,
    tree_language_is_empty,
)
from repro.trees.document import Tree
from repro.trees.term import parse_term
from repro.trees.xml_io import tree_from_xml, tree_to_xml
from repro.workloads.synthetic import distributed_workload

INVALID_XML = "invalid-xml"


def _load_sibling(directory: str, name: str):
    """Import a test module by path (the test tree has no packages)."""
    path = Path(__file__).parent.parent / directory / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_fold_identity_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


differential = _load_sibling("streaming", "test_differential")
fuzz = _load_sibling("streaming", "test_fuzz_chunks")
properties = _load_sibling("core", "test_properties")

SCHEMAS = differential.SCHEMAS


def oracle(schema, payload):
    """``schema.validate`` over the parsed tree, or ``invalid-xml``."""
    try:
        document = tree_from_xml(payload)
    except InvalidXMLError:
        return INVALID_XML
    return schema.validate(document)


def outcome(call, *args):
    try:
        return call(*args)
    except InvalidXMLError:
        return INVALID_XML


def split(payload, rng: random.Random):
    """A random chunking of ``payload`` (empty chunks included)."""
    count = rng.randrange(0, min(9, len(payload) + 1))
    cuts = sorted(rng.randrange(0, len(payload) + 1) for _ in range(count))
    chunks, last = [], 0
    for cut in cuts:
        chunks.append(payload[last:cut])
        last = cut
    chunks.append(payload[last:])
    return chunks


def expected_run(uta, tree):
    """``(verdict, rejected_at, root states)`` of a stream run, from the set semantics.

    Events are counted like the run counts them (an open and a close per
    element).  The run must die at an element whose label has no rule (its
    open), at an element no rule accepts (its close), and at a child after
    which every rule of the parent is dead (the child's close).
    """
    rules: dict = {}
    for (state, label), nfa in uta.horizontal.items():
        rules.setdefault(label, []).append((state, nfa))
    events = 0

    class Rejected(Exception):
        pass

    def states_of(node) -> frozenset:
        nonlocal events
        events += 1
        entries = rules.get(node.label)
        if not entries:
            raise Rejected(events)
        currents = [nfa.epsilon_closure({nfa.initial}) for _state, nfa in entries]
        for child in node.children:
            child_states = states_of(child)
            currents = [
                frozenset().union(*(nfa.step(current, symbol) for symbol in child_states))
                for (_state, nfa), current in zip(entries, currents)
            ]
            if not any(currents):
                raise Rejected(events)
        events += 1
        states = frozenset(
            state for (state, nfa), current in zip(entries, currents) if current & nfa.finals
        )
        if not states:
            raise Rejected(events)
        return states

    try:
        root = states_of(tree)
    except Rejected as rejection:
        return False, rejection.args[0], frozenset()
    return bool(root & uta.finals), None, root


def assert_all_drivers_agree(schema, tree, rng: random.Random, compiled=None):
    """Every fold driver and the run API against ``schema.validate``."""
    compiled = compiled if compiled is not None else CompiledSchema(schema, CompilationEngine())
    expected = schema.validate(tree)
    payload = tree_to_xml(tree).encode("utf-8")
    machine = StreamingValidator(compiled)
    assert compiled.accepts(tree) is expected
    assert compiled.accepts_payload(payload) is expected
    assert machine.validate_chunks(split(payload, rng)) is expected
    verdict, rejected_at, root_states = expected_run(compiled.uta, tree)
    assert verdict is expected
    run = machine.run()
    for chunk in split(payload, rng):
        run.feed(chunk)
    assert run.finish() is expected
    assert run.rejected_at == rejected_at
    assert run.events == 2 * tree.size
    assert run.max_depth == tree.height
    order = compiled._state_order
    assert {order[index] for index in iter_bits(run.root_mask)} == root_states
    return expected


def runtime_for(schema, seed_tree):
    document = DistributedDocument(kernel("k(f1)"), {"f1": seed_tree})
    runtime = ValidationRuntime(document)
    runtime.propagate_typing({"f1": schema})
    return runtime


@pytest.mark.usefixtures("label_tables")
class TestVerdictIdentity:
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_mutated_documents_all_paths_agree(self, kind):
        rng = random.Random(f"{kind}:fold")
        schema = SCHEMAS[kind]
        compiled = CompiledSchema(schema, CompilationEngine())
        batch = BatchValidator(schema)
        # The seed documents are valid; the mutations supply the invalid
        # side, so the pool always exercises both outcomes.
        trees = [
            parse_term(term) for term in differential.SEED_TERMS[kind]
        ] + differential.mutated_trees(kind, rng, 40)
        expected = [assert_all_drivers_agree(schema, tree, rng, compiled) for tree in trees]
        assert batch.validate_many(trees) == expected
        assert set(expected) == {True, False}

    def test_workload_publication_stream_agrees(self):
        workload = distributed_workload(
            peers=4, documents=24, seed=9, invalid_rate=0.3, records=6, fields=4
        )
        publications = list(workload.initial_documents.items()) + [
            (event.function, event.document) for event in workload.events
        ]
        rng = random.Random("workload")
        seen = set()
        for function, document in publications:
            schema = workload.typing[function]
            seen.add(assert_all_drivers_agree(schema, document, rng))
        assert seen == {True, False}

    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_runtime_publish_and_publish_stream_agree(self, kind):
        rng = random.Random(f"{kind}:runtime")
        schema = SCHEMAS[kind]
        seed = parse_term(differential.SEED_TERMS[kind][0])
        trees = differential.mutated_trees(kind, rng, 12)
        with runtime_for(schema, seed) as runtime:
            for tree in trees:
                payload = tree_to_xml(tree)
                expected = oracle(schema, payload)
                runtime.publish("f1", payload)
                runtime.validate_locally()
                assert runtime.peer_acks()["f1"] is expected
                report = runtime.publish_stream("f1", split(payload.encode("utf-8"), rng))
                assert report.valid is expected


@pytest.mark.usefixtures("label_tables")
class TestRejectedAtIdentity:
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_run_api_rejects_at_the_first_hopeless_event(self, kind):
        """Runs die where the set semantics first rules out every completion."""
        schema = SCHEMAS[kind]
        rng = random.Random(f"reject:{kind}")
        compiled = CompiledSchema(schema, CompilationEngine())
        rejected_positions = set()
        for tree in differential.mutated_trees(kind, rng, 40):
            assert_all_drivers_agree(schema, tree, rng, compiled)
            rejected_positions.add(expected_run(compiled.uta, tree)[1])
        assert rejected_positions != {None}  # some runs must die early


@pytest.mark.usefixtures("label_tables")
class TestClassificationIdentity:
    @pytest.mark.parametrize("payload", differential.TestMalformedAndTruncated.PAYLOADS)
    def test_malformed_payloads_classify_identically(self, payload):
        schema = SCHEMAS["DTD"]
        assert oracle(schema, payload) == INVALID_XML
        with pytest.raises(InvalidXMLError) as streamed:
            StreamingValidator(schema).validate_payload(payload)
        with pytest.raises(InvalidXMLError) as whole:
            BatchValidator(schema).validate_payload(payload)
        assert str(whole.value) == str(streamed.value)
        seed = parse_term(differential.SEED_TERMS["DTD"][0])
        with runtime_for(schema, seed) as runtime:
            runtime.publish("f1", payload)
            assert runtime.validate_locally().parse_failures == ("f1",)
            assert runtime.peer_acks()["f1"] is False
        with runtime_for(schema, seed) as runtime:
            report = runtime.publish_stream("f1", payload)
            assert report.malformed and report.valid is False

    def test_truncations_classify_identically_at_any_cut(self):
        schema = fuzz.SCHEMA
        machine = StreamingValidator(schema)
        batch = BatchValidator(schema)
        workload = distributed_workload(peers=1, documents=1, seed=5, records=4, fields=3)
        payload = tree_to_xml(next(iter(workload.initial_documents.values()))).encode()
        for cut in range(1, len(payload), 7):
            truncated = payload[:cut]
            expected = oracle(schema, truncated)
            assert outcome(machine.validate_payload, truncated, 5) == expected
            assert outcome(batch.validate_payload, truncated) == expected

    def test_deep_document_falls_back_to_the_iterative_run(self):
        """Documents beyond the recursion limit still get oracle answers."""
        schema = fuzz.SCHEMA
        machine = StreamingValidator(schema)
        batch = BatchValidator(schema)
        shallow = b"<s_f1></s_f1>"
        nested = b"<s_f1>" + b"<record>" * 2000 + b"</record>" * 2000 + b"</s_f1>"
        expected = oracle(schema, shallow)
        assert batch.validate_payload(shallow) is machine.validate_payload(shallow) is expected
        # Too deep for the recursive oracle too: the run's verdict is the
        # reference, and the bytes entry must replay into it.
        assert machine.validate_payload(nested) is False
        assert batch.validate_payload(nested) is False

    #: ``r -> a, b``: a complete subtree far deeper than the recursion
    #: limit that is not a last child, so it folds before ``<r>`` ends.
    DEEP_SCHEMA = dtd("r", {"r": "a, b", "a": "a?", "b": "ε"})
    DEEP = 5000
    DEEP_SIBLING = b"<r>" + b"<a>" * DEEP + b"</a>" * DEEP + b"<b/></r>"

    @pytest.mark.parametrize("chunk_bytes", [None, 65536, 8192], ids=["whole", "64KiB", "8KiB"])
    @pytest.mark.parametrize(
        "payload, expected, rejected_at",
        [
            pytest.param(DEEP_SIBLING, True, None, id="valid"),
            # <c> has no rule: the run dies at its start, after 1 + 2 * DEEP events.
            pytest.param(DEEP_SIBLING.replace(b"<b/>", b"<c/>"), False, 2 * DEEP + 2, id="invalid"),
        ],
    )
    def test_deep_complete_subtree_folds_without_recursion_limit(
        self, payload, expected, rejected_at, chunk_bytes
    ):
        run = StreamingValidator(self.DEEP_SCHEMA).run()
        for chunk in [payload] if chunk_bytes is None else iter_chunks(payload, chunk_bytes):
            run.feed(chunk)
        assert run.finish() is expected
        assert (run.rejected_at, run.events, run.max_depth) == (
            rejected_at,
            2 * (self.DEEP + 2),
            self.DEEP + 1,
        )
        assert BatchValidator(self.DEEP_SCHEMA).validate_payload(payload) is expected

    def test_deep_subtree_within_one_chunk_keeps_exact_counters(self):
        """A complete subtree just past the recursion limit, small enough to parse at once."""
        depth = sys.getrecursionlimit() + 100
        payload = b"<r>" + b"<a>" * depth + b"</a>" * depth + b"<b/></r>"
        for chunk_bytes in (len(payload), 4096, 1):
            run = StreamingValidator(self.DEEP_SCHEMA).run()
            for chunk in iter_chunks(payload, chunk_bytes):
                run.feed(chunk)
            assert run.finish() is True
            assert (run.rejected_at, run.events, run.max_depth) == (None, 2 * (depth + 2), depth + 1)


@pytest.mark.usefixtures("label_tables")
class TestChunkFuzzIdentity:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_splits_never_diverge_from_oracle(self, seed):
        """The fuzz corpus and splitter, pointed at the stream run."""
        machine = StreamingValidator(fuzz.SCHEMA)
        rng = random.Random(seed)
        for payload in fuzz.corpus():
            expected = oracle(fuzz.SCHEMA, payload)
            for _ in range(4):
                chunks = split(payload, rng)
                assert outcome(machine.validate_chunks, chunks) == expected, (payload, chunks)


# --------------------------------------------------------------------- #
# random schemas and trees
# --------------------------------------------------------------------- #

#: Labels of random trees: ``x``/``y`` are the EDTD/SDTD element names,
#: ``a``/``b``/``c`` the DTD's, ``z`` is unknown to every schema.
LABELS = ("a", "b", "c", "x", "y", "z")

trees = st.recursive(
    st.sampled_from(LABELS).map(Tree.leaf),
    lambda children: st.builds(
        Tree, st.sampled_from(LABELS), st.lists(children, max_size=4).map(tuple)
    ),
    max_leaves=10,
)

#: Which element name each specialised name ``a``/``b``/``c`` stands for.
MUS = ({"a": "x", "b": "x", "c": "y"}, {"a": "x", "b": "y", "c": "y"}, {"a": "y", "b": "x", "c": "x"})


def _relabel(tree: Tree, mu: dict) -> Tree:
    return Tree(mu.get(tree.label, tree.label), tuple(_relabel(c, mu) for c in tree.children))


@st.composite
def schemas_and_trees(draw, kinds=("DTD", "SDTD", "EDTD")):
    """A random DTD/SDTD/EDTD over ``regexes``, and trees to validate against it."""
    kind = draw(st.sampled_from(kinds))
    rules = {symbol: draw(properties.regexes) for symbol in properties.ALPHABET}
    start = draw(st.sampled_from(properties.ALPHABET))
    documents = draw(st.lists(trees, min_size=1, max_size=6))
    if kind == "DTD":
        return dtd(start, rules), documents
    mu = draw(st.sampled_from(MUS))
    # Witness-shaped trees relabelled by mu are likely members, so both
    # verdicts show up even though random trees are mostly invalid.
    documents += [_relabel(tree, mu) for tree in documents]
    if kind == "EDTD":
        return edtd(start, rules, mu=mu), documents
    try:
        return sdtd(start, rules, mu=mu), documents
    except NotSingleTypeError:
        assume(False)


class TestRandomSchemas:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(schemas_and_trees(), st.randoms(use_true_random=False))
    @pytest.mark.parametrize("capacity", [None, 1], ids=["shared", "evicting"])
    def test_every_driver_equals_the_schema(self, capacity, case, rng):
        schema, documents = case
        compiled = CompiledSchema(schema, CompilationEngine())
        if capacity is not None:
            compiled.state_capacity = compiled.transition_capacity = capacity
        for tree in documents:
            assert_all_drivers_agree(schema, tree, rng, compiled)


#: Root names sorting before, between and after the rule names ``a``/``b``/
#: ``c``: equal rules sit at different state bits in each schema.
ROOTS = ("_r", "bb", "zr")


@st.composite
def schemas_sharing_rules(draw):
    """DTDs with equal rules under the ``ROOTS``, an unrelated schema, and documents."""
    rules = {symbol: draw(properties.regexes) for symbol in properties.ALPHABET}
    root_rule = draw(properties.regexes)
    rooted = [dtd(root, {root: root_rule, **rules}) for root in ROOTS]
    unrelated, documents = draw(schemas_and_trees())
    forests = draw(st.lists(st.lists(trees, max_size=4), min_size=1, max_size=4))
    return rooted, unrelated, documents, forests


class TestSchemasSharingOneEngine:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(schemas_sharing_rules(), st.randoms(use_true_random=False))
    @pytest.mark.parametrize("capacity", [None, 1], ids=["shared", "evicting"])
    def test_interleaved_schemas_on_one_engine_equal_their_schemas(self, capacity, case, rng):
        rooted, unrelated, documents, forests = case
        engine = CompilationEngine()
        schemas = rooted + [unrelated]
        compiled = [CompiledSchema(schema, engine) for schema in schemas]
        if capacity is not None:
            for each in compiled:
                each.state_capacity = each.transition_capacity = capacity
        assert len({each._state_order for each in compiled[: len(ROOTS)]}) == len(ROOTS)
        for label in properties.ALPHABET:  # one compiled automaton per equal rule
            assert len({id(each._rules[label][0][1]) for each in compiled[: len(ROOTS)]}) == 1
        candidates = [Tree(root, tuple(forest)) for forest in forests for root in ROOTS]
        for tree in candidates + documents:
            for schema, each in zip(schemas, compiled):
                assert_all_drivers_agree(schema, tree, rng, each)


# --------------------------------------------------------------------- #
# the tree-language search
# --------------------------------------------------------------------- #


def _subtrees(tree: Tree):
    yield tree
    for child in tree.children:
        yield from _subtrees(child)


def _as_edtd(schema) -> EDTD:
    """``schema`` as an EDTD: a DTD's rules under the identity ``mu``."""
    if isinstance(schema, EDTD):
        return schema
    return EDTD(schema.start, {name: schema.content(name) for name in schema.alphabet})


def assert_search_agrees(left, right, samples):
    """The joint search over two tree automata against their set-based membership."""
    profiles = joint_reachable_profiles([left, right])
    for profile, witness in profiles.items():
        assert (left.possible_states(witness), right.possible_states(witness)) == profile
    for tree in samples:  # completeness: a tree some automaton can process
        profile = (left.possible_states(tree), right.possible_states(tree))
        assert profile in profiles or not any(profile)
    left_only = tree_language_counterexample(left, right)
    if left_only is None:
        assert not any(left.accepts(tree) and not right.accepts(tree) for tree in samples)
    else:
        assert left.accepts(left_only) and not right.accepts(left_only)
    separation = tree_language_equivalence_counterexample(left, right)
    assert tree_language_equivalent(left, right) is (separation is None)
    # The engine's answer: computed once, then the same object from its memo.
    engine = CompilationEngine()
    cached = engine.tree_equivalence_counterexample(left, right)
    assert engine.tree_equivalence_counterexample(left, right) is cached
    assert (cached is None) is (separation is None)
    if separation is None:
        assert all(left.accepts(tree) is right.accepts(tree) for tree in samples)
    else:
        for side, witness in (separation, cached):
            claimed = (True, False) if side == "left-only" else (False, True)
            assert (left.accepts(witness), right.accepts(witness)) == claimed


@st.composite
def schema_pairs(draw):
    """Two random schemas over the same element names, and trees for both."""
    schema, documents = draw(schemas_and_trees())
    kinds = ("SDTD", "EDTD") if isinstance(schema, EDTD) else ("DTD",)
    other, other_documents = draw(schemas_and_trees(kinds))
    return schema, other, documents + other_documents


class TestTreeLanguageSearch:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(schema_pairs())
    @pytest.mark.parametrize("capacity", [None, 1], ids=["shared", "evicting"])
    def test_search_verdicts_and_witnesses_match_the_set_semantics(self, capacity, case):
        schema, other, samples = case
        with pytest.MonkeyPatch.context() as patch:
            if capacity is not None:
                patch.setattr(CompiledSchema, "state_capacity", capacity)
                patch.setattr(CompiledSchema, "transition_capacity", capacity)
            uta = schema.to_uta()
            assert_search_agrees(uta, other.to_uta(), samples)
            assert_search_agrees(uta, uta, samples)
            assert tree_language_equivalent(uta, uta)
            if tree_language_is_empty(uta):
                assert not any(uta.accepts(tree) for tree in samples)
                with pytest.raises(SchemaError):
                    normalize(_as_edtd(schema))
                return
            normalized = normalize(_as_edtd(schema)).to_uta()
            assert_search_agrees(uta, normalized, samples)
            assert tree_language_equivalent(uta, normalized)
            witnesses = list(joint_reachable_profiles([normalized]).values())
        for tree in samples + witnesses:
            assert normalized.accepts(tree) is uta.accepts(tree)
            # Lemma 4.10: no tree is assigned two specialisations.
            assert all(len(normalized.possible_states(each)) <= 1 for each in _subtrees(tree))


# --------------------------------------------------------------------- #
# shared tables: bounds, evictions, threads
# --------------------------------------------------------------------- #


def _pool(kind: str, count: int):
    rng = random.Random(f"pool:{kind}")
    trees = [parse_term(term) for term in differential.SEED_TERMS[kind]]
    trees += differential.mutated_trees(kind, rng, count)
    return [(tree, tree_to_xml(tree).encode("utf-8"), SCHEMAS[kind].validate(tree)) for tree in trees]


def _table_sizes(compiled: CompiledSchema):
    """``(interned states, most successors of one state)``, after checking that
    every state reachable from the initial states is interned or initial --
    so the tables bound everything the schema keeps alive."""
    states = list(compiled._states.values()) + list(compiled._initial.values())
    known = {id(state) for state in states}
    todo, seen = list(compiled._initial.values()), set()
    while todo:
        state = todo.pop()
        if id(state) not in seen:
            seen.add(id(state))
            assert id(state) in known
            todo.extend(successor for successor in state.next.values() if successor)
    return len(compiled._states), max(len(state.next) for state in states)


class TestTableBounds:
    def test_tables_never_exceed_their_caps_and_evictions_are_counted(self):
        engine = CompilationEngine()
        compiled = CompiledSchema(SCHEMAS["EDTD"], engine)
        compiled.state_capacity = 3
        compiled.transition_capacity = 2
        machine = StreamingValidator(compiled)
        for tree, payload, expected in _pool("EDTD", 60) + _pool("EDTD", 60)[::-1]:
            assert bool(compiled._possible_mask(tree) & compiled._finals_mask) is expected
            assert compiled.accepts_payload(payload) is expected
            assert machine.validate_payload(payload, 7) is expected
            states, transitions = _table_sizes(compiled)
            assert states <= compiled.state_capacity
            assert transitions <= compiled.transition_capacity
        counters = engine.stats.snapshot()["by_kind"][LABEL_DFA_KIND]
        assert counters["misses"] > 0
        assert counters["evictions"] > 0

    def test_warm_tables_stop_computing_steps(self):
        engine = CompilationEngine()
        compiled = CompiledSchema(SCHEMAS["DTD"], engine)
        pool = _pool("DTD", 30)
        for _tree, payload, expected in pool:
            assert compiled.accepts_payload(payload) is expected
        counters = engine.stats.kind_counters(LABEL_DFA_KIND)
        misses = counters.misses
        for _tree, payload, expected in pool:
            assert compiled.accepts_payload(payload) is expected
            assert StreamingValidator(compiled).validate_payload(payload) is expected
        assert counters.misses == misses > 0
        assert counters.evictions == 0

    def test_runtime_engine_stats_count_the_label_automata(self):
        workload = distributed_workload(peers=2, documents=4, seed=3)
        document = DistributedDocument(workload.kernel, dict(workload.initial_documents))
        with ValidationRuntime(document) as runtime:
            runtime.validate_locally(workload.typing)
            stats = runtime.engine_stats()["by_kind"]
        assert stats[LABEL_DFA_KIND]["misses"] > 0


class TestSharedTablesUnderThreads:
    def test_threads_share_one_evicting_schema_and_agree_with_the_oracle(self):
        """More threads than cores on one schema, capped low, switching constantly."""
        engine = CompilationEngine()
        compiled = CompiledSchema(SCHEMAS["EDTD"], engine)
        compiled.state_capacity = 2
        compiled.transition_capacity = 2
        machine = StreamingValidator(compiled)
        pool = _pool("EDTD", 40)
        failures: list = []
        deadline = time.monotonic() + 1.5

        def work(seed: int) -> None:
            rng = random.Random(seed)
            try:
                while time.monotonic() < deadline:
                    tree, payload, expected = rng.choice(pool)
                    verdicts = (
                        bool(compiled._possible_mask(tree) & compiled._finals_mask),
                        compiled.accepts_payload(payload),
                        machine.validate_chunks(split(payload, rng)),
                    )
                    if verdicts != (expected,) * 3:
                        failures.append((payload, verdicts, expected))
                        return
            except Exception as error:  # any crash breaks the invariant
                failures.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(seed,))
                for seed in range((os.cpu_count() or 1) + 3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert engine.stats.kind_counters(LABEL_DFA_KIND).evictions > 0
