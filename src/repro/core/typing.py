"""Typings of kernel documents and their comparison relations (Section 2.4).

A *typing* for a kernel ``T(fn)`` is a positional mapping from the functions
to types.  Each type constrains the document a resource may return; by the
paper's convention its trees all share a dedicated root element name ``s_i``
(only the forest below that root is attached to the kernel).

The comparison relations on types (``≤``, ``<``, ``≡``) and their
component-wise liftings to typings are implemented through the tree-language
comparison of :mod:`repro.schemas.compare`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Union

from repro.errors import DesignError
from repro.schemas.dtd import DTD
from repro.schemas.edtd import EDTD
from repro.schemas.sdtd import SDTD

SchemaType = Union[DTD, SDTD, EDTD]


def default_root_name(function: str) -> str:
    """The conventional root element name ``s_i`` for the type of ``function``."""
    return f"root_{function}"


#: The neutral root label used when comparing typing components.  By the
#: convention of Section 2.3 the dedicated root element ``s_i`` of a typing
#: component carries no information (only the forest below it is attached to
#: the kernel), so components are compared up to the name of that root.
CANONICAL_ROOT = "__root__"


def canonical_root_view(schema: SchemaType) -> SchemaType:
    """A copy of ``schema`` whose (dedicated) root element is renamed canonically.

    This makes typings comparable regardless of the particular name chosen
    for the extra root element (the paper writes ``rooti`` or ``s_i``; the
    library generates ``root_<function>``).
    """
    if isinstance(schema, DTD):
        rules = {
            (CANONICAL_ROOT if name == schema.start else name): model
            for name, model in schema.rules.items()
        }
        return DTD(CANONICAL_ROOT, rules, schema.formalism, alphabet=schema.alphabet - {schema.start})
    if isinstance(schema, EDTD):
        rules = {
            (CANONICAL_ROOT if name == schema.start else name): model
            for name, model in schema.rules.items()
        }
        mu = {
            (CANONICAL_ROOT if name == schema.start else name): (
                CANONICAL_ROOT if name == schema.start else schema.mu[name]
            )
            for name in schema.specialized_names
        }
        return EDTD(CANONICAL_ROOT, rules, mu, schema.formalism)
    raise DesignError(f"cannot canonicalise the root of {schema!r}")


class TreeTyping:
    """A typing ``(τ1, ..., τn)``: one schema per function of a kernel.

    The mapping is positional in the paper; here it is keyed by function
    symbol for readability, with the order taken from the kernel when the two
    are combined.
    """

    def __init__(self, types: Mapping[str, SchemaType]) -> None:
        self.types: dict[str, SchemaType] = dict(types)
        if not all(hasattr(schema, "to_uta") for schema in self.types.values()):
            raise DesignError("every component of a typing must be a schema (DTD/SDTD/EDTD)")

    # ------------------------------------------------------------------ #
    # mapping behaviour
    # ------------------------------------------------------------------ #

    def __getitem__(self, function: str) -> SchemaType:
        return self.types[function]

    def __contains__(self, function: str) -> bool:
        return function in self.types

    def __iter__(self):
        return iter(self.types)

    def __len__(self) -> int:
        return len(self.types)

    def functions(self) -> tuple[str, ...]:
        return tuple(self.types)

    def items(self):
        return self.types.items()

    @property
    def size(self) -> int:
        """Sum of the sizes of the component types (the ``|(τn)|`` measure)."""
        return sum(schema.size for schema in self.types.values())

    # ------------------------------------------------------------------ #
    # comparison relations of Section 2.4
    # ------------------------------------------------------------------ #

    def covers(self, kernel_functions: Iterable[str]) -> bool:
        """Does the typing provide a type for every function of the kernel?"""
        return set(kernel_functions) <= set(self.types)

    def equivalent_to(self, other: "TreeTyping") -> bool:
        """``(τn) ≡ (τ'n)``: component-wise language equality.

        Components are compared up to the name of their dedicated root
        element (see :func:`canonical_root_view`).
        """
        from repro.schemas.compare import schema_equivalent

        if set(self.types) != set(other.types):
            return False
        return all(
            schema_equivalent(canonical_root_view(self[function]), canonical_root_view(other[function]))
            for function in self.types
        )

    def smaller_or_equal(self, other: "TreeTyping") -> bool:
        """``(τn) ≤ (τ'n)``: component-wise language inclusion (up to root renaming)."""
        from repro.schemas.compare import schema_includes

        if set(self.types) != set(other.types):
            return False
        return all(
            schema_includes(canonical_root_view(other[function]), canonical_root_view(self[function]))
            for function in self.types
        )

    def smaller(self, other: "TreeTyping") -> bool:
        """``(τn) < (τ'n)``: ``≤`` and strictly smaller in some component."""
        return self.smaller_or_equal(other) and not other.smaller_or_equal(self)

    def __le__(self, other: "TreeTyping") -> bool:
        return self.smaller_or_equal(other)

    def __lt__(self, other: "TreeTyping") -> bool:
        return self.smaller(other)

    def describe(self) -> str:
        """A readable multi-line rendering of the typing (Figure 4 style)."""
        lines = []
        for function, schema in self.types.items():
            lines.append(f"-- type of {function} (root {schema_root(schema)}):")
            lines.append(schema.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeTyping(functions={list(self.types)!r})"


def schema_root(schema: SchemaType) -> str:
    """The root element name of a schema of any of the three languages."""
    if isinstance(schema, DTD):
        return schema.start
    if isinstance(schema, EDTD):
        return schema.root_element
    raise DesignError(f"cannot determine the root element of {schema!r}")


def typing_compare(left: TreeTyping, right: TreeTyping) -> str:
    """Compare two typings; returns one of ``'≡'``, ``'<'``, ``'>'``, ``'incomparable'``."""
    if left.equivalent_to(right):
        return "≡"
    if left.smaller_or_equal(right):
        return "<"
    if right.smaller_or_equal(left):
        return ">"
    return "incomparable"
