"""Cross-schema language comparison (``equiv[S]``, Definition 1).

Any two schemas (DTD / SDTD / EDTD / normalised EDTD), possibly of different
schema languages, can be compared through their tree automata.  These
helpers are used by the bottom-up consistency algorithms, by the locality
checks of the top-down problems and throughout the tests.

The comparisons route through the process
:class:`~repro.engine.compilation.CompilationEngine`: verdicts and witness
trees are memoized by the tree-automaton fingerprint, so repeating a
comparison -- the typical shape of the ``cons[S]`` benchmarks, the maximal-
typing deduplication and the typing-order checks -- skips the exponential
joint reachable-subset construction entirely.  The uncached procedures stay
available in :mod:`repro.trees.automata`; on a miss they compile each
automaton on the same engine and step its label states, so an analysis's
``engine_stats`` also count their ``compact-horizontal`` and ``label-dfa``
work.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.engine.compilation import SCHEMA_TO_UTA_KIND, get_default_engine
from repro.schemas.dtd import DTD
from repro.schemas.edtd import EDTD, NormalizedEDTD
from repro.trees.automata import UnrankedTreeAutomaton, tree_language_is_empty
from repro.trees.document import Tree

Schema = Union[DTD, EDTD, NormalizedEDTD, UnrankedTreeAutomaton]


def schema_to_uta(schema: Schema) -> UnrankedTreeAutomaton:
    """Coerce any schema-like object into an unranked tree automaton.

    The conversion itself is memoized per schema object: validation and the
    many pairwise comparisons of the search loops reuse one automaton.
    """
    if isinstance(schema, UnrankedTreeAutomaton):
        return schema
    return get_default_engine().memo_identity(SCHEMA_TO_UTA_KIND, schema, schema.to_uta)


def schema_equivalent(left: Schema, right: Schema) -> bool:
    """Decide ``[left] = [right]`` for any mix of schema languages."""
    return get_default_engine().tree_equivalent(schema_to_uta(left), schema_to_uta(right))


def schema_includes(big: Schema, small: Schema) -> bool:
    """Decide ``[small] ⊆ [big]``."""
    return get_default_engine().tree_includes(schema_to_uta(big), schema_to_uta(small))


def schema_counterexample(left: Schema, right: Schema) -> Optional[tuple[str, Tree]]:
    """A witness tree separating the two languages, or ``None`` when equal."""
    return get_default_engine().tree_equivalence_counterexample(
        schema_to_uta(left), schema_to_uta(right)
    )


def schema_inclusion_counterexample(small: Schema, big: Schema) -> Optional[Tree]:
    """A tree in ``[small] − [big]``, or ``None`` when included."""
    return get_default_engine().tree_inclusion_counterexample(
        schema_to_uta(small), schema_to_uta(big)
    )


def schema_is_empty(schema: Schema) -> bool:
    """Decide ``[schema] = ∅``."""
    uta = schema_to_uta(schema)
    engine = get_default_engine()
    return engine.memo(
        "tree-empty", (engine.fingerprint(uta),), lambda: tree_language_is_empty(uta)
    )
