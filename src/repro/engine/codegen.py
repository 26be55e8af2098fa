"""Per-schema code generation for the validation hot path.

The interpreted kernels (:meth:`CompiledSchema._possible_mask
<repro.engine.batch.CompiledSchema._possible_mask>` bottom-up, the
:class:`~repro.streaming.machine.StreamingRun` frame stepping) pay Python
interpreter overhead per node and per rule.  This module emits a dedicated
validator *function* per schema with ``compile()``/``exec``:

* the rule tables (per-label fold memos, leaf constants) are flattened
  into the generated function's **default arguments**, i.e. fast locals --
  no attribute or global lookups in the hot loop;
* the single-rule case (every DTD label) is **fully unrolled**: the
  generated fold core has no rule loop at all, one accept test per word;
* automata are stepped through precomputed dense ``symbol-mask ->
  successor-mask`` union rows (:attr:`CompactNFA.union_rows
  <repro.automata.kernel.compact.CompactNFA.union_rows>`) instead of the
  bit-scanning inner ``while`` loops, and every folded word is memoized
  per label, so a repeated sibling word costs one dict probe.

The whole-payload strategy: parse with a bare
:class:`xml.etree.ElementTree.XMLParser` (the C parser does all
structural work, no event-queue recording), then fold the element tree
bottom-up -- a node's possible-state mask is a memo probe keyed by its
children's masks, with the leaf case (a per-label constant) inlined into
the parent so most nodes never even recurse.  The generated ``_mask_of``
is what :meth:`CompiledSchema.accepts_payload
<repro.engine.batch.CompiledSchema.accepts_payload>` (the bytes entry
wire publications take) folds with on these backends.

Which path is bounded-memory: every whole-payload entry -- this
module's, and the bytes entry on *every* backend, ``python`` included --
materializes the parser's element tree, so it is O(document) (but builds
no :class:`~repro.trees.document.Tree`).  O(depth) memory belongs to the
interpreted streaming machine alone: incremental runs
(:meth:`StreamingValidator.run
<repro.streaming.machine.StreamingValidator.run>`, hence the runtime's
streamed publications) and the ``python`` backend's
``validate_payload``/``validate_chunks``.

Verdicts are bit-identical to the interpreted oracle.  Malformed or
truncated input is detected by the parser (``feed``/``close`` raise for
every such payload); the caller then replays the buffered bytes through
the interpreted path so the typed :class:`~repro.errors.InvalidXMLError`
classification matches exactly.  Documents too deep for the recursive
fold (``RecursionError``) fall back the same way -- the interpreted
machine is iterative and handles any depth.

Generated validators are memoized by the schema's content fingerprint
(engine memo kind ``codegen-validator`` -- bounded and eviction-counted
in ``engine_stats`` like every engine memo); the per-label fold tables
are themselves bounded, with evictions counted under ``codegen-fold``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

__all__ = ["CodegenValidator", "codegen_validator_for"]

#: Bound on each per-label fold table (distinct children-mask words).
_TABLE_CAPACITY = 8192

#: The generated recursive fold over a parsed element tree.  All constant
#: tables are default arguments -- fast locals -- and only the cold fold
#: calls resolve through the generated module's namespace.  The one-child
#: case keys the per-label memo by the bare child mask (no key tuple);
#: leaf children are folded inline via the per-label constant table.
_MASK_SOURCE = """\
def _mask_of(e, _len=len, leaf_get=leaf_get, tables=tables, tables1=tables1):
    k = _len(e)
    if k == 0:
        return leaf_get(e.tag, 0)
    if k == 1:
        c = e[0]
        child = leaf_get(c.tag, 0) if not _len(c) else _mask_of(c)
        try:
            return tables1[e.tag][child]
        except KeyError:
            return fold1(e.tag, child)
    key = tuple([leaf_get(c.tag, 0) if not _len(c) else _mask_of(c) for c in e])
    try:
        return tables[e.tag][key]
    except KeyError:
        return fold(e.tag, key)
"""

#: Fold core for single-rule schemas (every DTD): no rule loop.  A zero
#: child mask means no state is assignable to that child, so no state is
#: assignable here either -- the horizontal automata must never step on
#: an empty symbol set (the interpreted ``_possible_mask`` early-returns
#: before reaching them).
_FOLD_SINGLE_SOURCE = """\
def _fold_core(label, masks):
    entry = rules.get(label)
    if entry is None or 0 in masks:
        return 0
    state_bit, nfa = entry
    if accepts(nfa, masks, union_stats):
        return state_bit
    return 0
"""

#: Fold core for schemas where some label has several rules (SDTD/EDTD).
_FOLD_MULTI_SOURCE = """\
def _fold_core(label, masks):
    entries = rules.get(label)
    if entries is None or 0 in masks:
        return 0
    mask = 0
    for state_bit, nfa in entries:
        if accepts(nfa, masks, union_stats):
            mask |= state_bit
    return mask
"""


def codegen_validator_for(compiled, engine=None) -> "CodegenValidator":
    """The memoized generated validator of a compiled schema.

    Keyed by the schema's UTA content fingerprint under the engine memo
    kind ``codegen-validator``: structurally identical schemas share one
    generated function and its warm fold tables, and the
    :class:`~repro.engine.cache.LRUCache` bounds and eviction-counts the
    memo like every other kind.
    """
    from repro.engine.compilation import CODEGEN_VALIDATOR_KIND, get_default_engine

    active = engine if engine is not None else getattr(compiled, "engine", None)
    if active is None:
        active = get_default_engine()
    fingerprint = active.fingerprint(compiled.uta)
    return active.memo(
        CODEGEN_VALIDATOR_KIND,
        (fingerprint,),
        lambda: CodegenValidator(compiled, active),
    )


class CodegenValidator:
    """One schema's generated validator functions plus their fold tables."""

    __slots__ = (
        "finals_mask",
        "tables",
        "tables1",
        "leaf",
        "single_rule",
        "source",
        "_fold_core",
        "_fold",
        "_fold1",
        "_mask_of",
        "_stats",
    )

    def __init__(self, compiled, engine=None) -> None:
        engine = engine if engine is not None else compiled.engine
        rules_by_label = compiled._rules_by_label
        self.finals_mask = compiled._finals_mask
        self.single_rule = all(len(rules) == 1 for rules in rules_by_label.values())
        #: label -> {children-mask word (tuple) -> folded mask}; ``tables1``
        #: is the one-child specialization keyed by the bare child mask, so
        #: the dominant unary case never allocates a key tuple.
        self.tables: dict = {label: {} for label in rules_by_label}
        self.tables1: dict = {label: {} for label in rules_by_label}
        self._stats = engine.stats.kind_counters("codegen-fold")

        if self.single_rule:
            rules = {label: rules[0] for label, rules in rules_by_label.items()}
            fold_source = _FOLD_SINGLE_SOURCE
        else:
            rules = {label: tuple(rules) for label, rules in rules_by_label.items()}
            fold_source = _FOLD_MULTI_SOURCE
        #: Leaf masks are per-label constants (the fold of the empty word);
        #: filled in place below so the generated defaults see the updates.
        self.leaf = {}
        namespace = {
            "rules": rules,
            "accepts": type(compiled)._horizontal_accepts,
            "union_stats": compiled._union_stats,
            "tables": self.tables,
            "tables1": self.tables1,
            "leaf_get": self.leaf.get,
        }
        self.source = fold_source + "\n" + _MASK_SOURCE
        filename = f"<repro-codegen:{engine.fingerprint(compiled.uta)[:12]}>"
        exec(compile(self.source, filename, "exec"), namespace)  # noqa: S102
        self._fold_core = namespace["_fold_core"]
        self.leaf.update(
            {label: self._fold_core(label, ()) for label in rules_by_label}
        )

        stats = self._stats
        tables, tables1 = self.tables, self.tables1
        fold_core = self._fold_core

        def fold(label, key):
            mask = fold_core(label, key)
            table = tables.get(label)
            if table is not None:
                if len(table) >= _TABLE_CAPACITY:
                    table.clear()
                    stats.evictions += 1
                table[key] = mask
                stats.misses += 1
            return mask

        def fold1(label, child):
            mask = fold_core(label, (child,))
            table = tables1.get(label)
            if table is not None:
                if len(table) >= _TABLE_CAPACITY:
                    table.clear()
                    stats.evictions += 1
                table[child] = mask
                stats.misses += 1
            return mask

        self._fold = fold
        self._fold1 = fold1
        # The generated fold resolves its cold-path names at call time
        # through the generated module's namespace: bind them now.
        namespace["fold"] = fold
        namespace["fold1"] = fold1
        self._mask_of = namespace["_mask_of"]

    # ------------------------------------------------------------------ #
    # tree (batch) path
    # ------------------------------------------------------------------ #

    def validate_tree(self, tree) -> bool:
        """BatchValidator-identical membership of one parsed document."""
        return bool(self._tree_mask(tree) & self.finals_mask)

    def _tree_mask(self, node) -> int:
        children = node.children
        label = node.label
        if not children:
            try:
                return self.leaf[label]
            except KeyError:
                return 0
        tree_mask = self._tree_mask
        if len(children) == 1:
            child = tree_mask(children[0])
            try:
                return self.tables1[label][child]
            except KeyError:
                return self._fold1(label, child)
        key = tuple([tree_mask(child) for child in children])
        try:
            return self.tables[label][key]
        except KeyError:
            return self._fold(label, key)

    # ------------------------------------------------------------------ #
    # chunked (streaming surface) path
    # ------------------------------------------------------------------ #

    def try_validate_chunks(self, chunks, fed: list):
        """Verdict for chunked input, or ``None`` on any parse anomaly.

        Consumed chunks are appended to ``fed`` so the caller can replay
        ``fed`` (plus whatever is left of ``chunks``) through the
        interpreted path for classification parity.
        """
        parser = ET.XMLParser()
        try:
            for chunk in chunks:
                fed.append(chunk)
                parser.feed(chunk)
            root = parser.close()
        except ET.ParseError:
            return None
        return self._verdict_of(root)

    def _verdict_of(self, root):
        if root is None:  # pragma: no cover - close() raises instead
            return None
        try:
            mask = self._mask_of(root)
        except RecursionError:
            # Deeper than the interpreter's stack allows: the iterative
            # O(depth) interpreted machine handles it.
            return None
        return bool(mask & self.finals_mask)
