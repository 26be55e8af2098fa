"""Exception hierarchy for the distributed XML design library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch a single base class.  The hierarchy mirrors the layers of the
system: automata / regular expressions, trees and schemas, and the design
(typing) layer that constitutes the paper's contribution.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class RegexSyntaxError(ReproError, ValueError):
    """A regular expression (paper ``nRE``/``dRE`` notation) could not be parsed."""


class TermSyntaxError(ReproError, ValueError):
    """A tree written in the paper's term notation could not be parsed."""


class SchemaError(ReproError, ValueError):
    """A schema document (R-DTD / R-SDTD / R-EDTD) is malformed."""


class NotSingleTypeError(SchemaError):
    """An R-SDTD definition violates the single-type requirement (Definition 6)."""


class InvalidXMLError(ReproError, ValueError):
    """An XML payload is not well-formed (or was truncated mid-document).

    Raised by every parsing surface of the library --
    :func:`repro.trees.xml_io.tree_from_xml`, the bytes entry
    :meth:`repro.engine.batch.BatchValidator.validate_payload` and the
    streaming run of :mod:`repro.streaming.machine`, all with the message
    of ElementTree's parser -- so that the runtime and the network
    service map malformed publications to one typed error (wire code
    ``invalid-xml``) without special-casing stdlib exceptions.
    """


class KernelError(ReproError, ValueError):
    """A kernel document violates the requirements of Section 2.3.

    Raised, e.g., when a function symbol occurs more than once (requirement
    (iii)) or when a function node is not a leaf (requirement (ii)).
    """


class DesignError(ReproError, ValueError):
    """A distributed design (Definition 10) is malformed or inconsistent."""


class InconsistentTypingError(DesignError):
    """A typing is not S-consistent with the kernel (Definition 11)."""


class NotCompatibleError(DesignError):
    """The kernel is not compatible with the target type (Section 6).

    Equivalently: the design admits no sound typing at all.
    """


class SearchBudgetExceeded(ReproError, RuntimeError):
    """An exhaustive search (EXPSPACE-hard in general) exceeded its budget.

    The existence problems for local / maximal-local typings are PSPACE- to
    EXPSPACE-hard (Table 3); the library solves them exactly but refuses to
    enumerate beyond a configurable budget so that callers get a clear error
    instead of an unbounded computation.
    """


class UnsupportedFormalismError(ReproError, ValueError):
    """An operation was requested for a content-model formalism that cannot support it.

    For instance, constructing a deterministic regular expression for a
    language that is not one-unambiguous (Proposition 3.6).
    """
