"""Element events straight from expat: the parser the streaming run owns.

The paper abstracts documents to pure element structure (no attributes, no
character data), so a validator needs exactly two events: an element
starts, an element ends.  :func:`element_parser` builds the ``pyexpat``
parser that delivers them as callbacks -- the same expat that
:mod:`xml.etree.ElementTree` wraps, configured to classify every input the
way ElementTree does, but with nothing ElementTree adds on top: no
element objects, no text buffering, no queued event tuples.  Parser state
is the expat buffer plus the open-tag stack expat keeps anyway, so working
memory stays O(depth) for chunks of any size.

Two places where bare expat and ElementTree differ are pinned here:

* **Labels.**  With ``namespace_separator="}"`` expat names a namespaced
  element ``uri}local`` where ElementTree says ``{uri}local``;
  :func:`expat_name` maps a schema label to the name expat reports, so a
  lookup table built once per schema needs no string work per event.
* **Entities.**  Bare expat silently skips an undeclared entity under an
  external DTD subset or after an external parameter-entity reference,
  and a declared external entity; ElementTree rejects all three.  The
  parser refuses them with :class:`~repro.errors.InvalidXMLError` too.

Expat's own syntax errors carry the same message text ElementTree gives;
the run re-raises them as the library's typed
:class:`~repro.errors.InvalidXMLError`, never the stdlib's ``ExpatError``.
"""

from __future__ import annotations

from typing import Iterator, Union
from xml.parsers.expat import ParserCreate

from repro.errors import InvalidXMLError

__all__ = ["element_parser", "expat_name", "iter_chunks"]

Chunk = Union[bytes, str]


def iter_chunks(payload: Chunk, chunk_bytes: int = 65536) -> Iterator[Chunk]:
    """Slice a payload into bounded chunks (what the wire/CLI surfaces feed)."""
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    for start in range(0, len(payload), chunk_bytes):
        yield payload[start : start + chunk_bytes]


def expat_name(label: str) -> str:
    """The element name expat reports where ElementTree reports ``label``."""
    return label[1:] if label.startswith("{") else label


def element_parser(start, end):
    """A fresh expat parser calling ``start(name, attributes)`` / ``end(name)``."""
    parser = ParserCreate(namespace_separator="}")
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.SkippedEntityHandler = _refuse_entity
    parser.ExternalEntityRefHandler = _refuse_entity
    return parser


def _refuse_entity(*_args) -> None:
    raise InvalidXMLError("malformed XML: reference to an undeclared or external entity")
