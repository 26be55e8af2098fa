"""Peers and messages of the simulated distributed-document architecture.

A :class:`ResourcePeer` plays the role of one external resource ``fi`` of a
kernel document: it owns the XML document it would return when the function
node is activated, and it can validate that document against a *local type*
(the ``τi`` a top-down design propagates to it).  Message sizes are measured
in bytes of the serialised XML, which is what the validation-strategy
benchmark reports.

A peer's document is either a :class:`Tree` (API inputs, in-process
preloading, the serial simulation) or a :class:`PublicationRecord`: wire
publications and wire registration go from text to verdict, so the peer
holds the verdict and the content address of the text, not a tree.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.typing import SchemaType
from repro.engine.batch import BatchValidator, parse_payload
from repro.engine.fingerprint import tree_fingerprint
from repro.errors import DesignError, InvalidXMLError
from repro.trees.document import Tree
from repro.trees.xml_io import tree_from_xml, tree_to_xml


@dataclass(frozen=True)
class PublicationRecord:
    """What a peer holds after a wire ingest: a verdict, not a tree.

    Every wire ingest validates straight from the serialised document and
    builds no :class:`Tree`: :meth:`ValidationRuntime.publish
    <repro.distributed.runtime.runtime.ValidationRuntime.publish>` and
    :meth:`ValidationRuntime.seed
    <repro.distributed.runtime.runtime.ValidationRuntime.seed>` (a
    registration document) through one C-parser pass,
    :meth:`ValidationRuntime.publish_stream
    <repro.distributed.runtime.runtime.ValidationRuntime.publish_stream>`
    through the O(depth) streaming machine.  The peer keeps this
    content-addressed record instead: the fingerprint (``wire:`` over a
    publication's bytes, ``tree:`` over a registration document's
    structure), the verdict, and the validator the verdict was computed
    with.

    A whole-frame publication retains its ``payload`` bytes and a
    registration document its text -- one record per peer, so one payload
    per peer -- from which a replaced local type re-validates and
    :meth:`ResourcePeer.answer` parses a tree on demand.  A streamed
    publication retains none (``payload`` is ``None``): that is its
    O(depth) memory promise, so after a typing change it must be
    re-published.
    """

    fingerprint: str
    ack: bool
    validator: object
    payload_bytes: int
    payload: Optional[Union[bytes, str]] = field(default=None, repr=False)

    @property
    def streamed(self) -> bool:
        """Was the publication streamed (no payload bytes retained)?"""
        return self.payload is None


@dataclass(frozen=True)
class Message:
    """One message exchanged between peers (for the accounting only)."""

    sender: str
    recipient: str
    kind: str
    payload_bytes: int
    description: str = ""


def document_bytes(document: Tree) -> int:
    """The size of a document on the wire (bytes of its XML serialisation)."""
    return len(tree_to_xml(document).encode("utf-8"))


@dataclass
class Peer:
    """A named participant of the distributed architecture."""

    name: str

    def describe(self) -> str:
        return f"peer {self.name}"


@dataclass
class ResourcePeer(Peer):
    """A peer providing the document of one external resource.

    Attributes
    ----------
    function:
        The function symbol of the kernel this peer answers for.
    document:
        The document returned when the function is activated; its root is the
        dedicated root element ``s_i`` and only the forest below it is
        attached to the kernel.  After a wire publication this is the
        publication's :class:`PublicationRecord`.
    local_type:
        The propagated local type ``τi``, when one has been assigned.
    validator:
        The compiled form of the local type.  Compilation happens once per
        propagation (not once per validation); peers sharing content models
        also share the compiled automata through the engine cache.
    """

    function: str = ""
    document: Optional[Union[Tree, PublicationRecord]] = None
    local_type: Optional[SchemaType] = None
    validator: Optional[BatchValidator] = field(default=None, repr=False)
    calls: int = field(default=0, repr=False)

    def assign_type(
        self,
        schema: SchemaType,
        validator: Optional[BatchValidator] = None,
        engine=None,
    ) -> None:
        """Install the local type propagated by the designer (compiled once).

        Pass either a pre-built ``validator`` (what
        :meth:`~repro.distributed.network.DistributedDocument.propagate_typing`
        does, so all peers compile on the document's shared engine) or the
        ``engine`` to compile on; with neither, the thread-default engine is
        used.
        """
        self.local_type = schema
        self.validator = (
            validator if validator is not None else BatchValidator(schema, engine=engine)
        )

    def answer(self) -> Tree:
        """Return the document for a call of the resource (counts the call).

        A retained payload (a whole-frame publication's bytes, a
        registration document's text) is parsed on demand.
        """
        if self.document is None:
            raise RuntimeError(f"peer {self.name!r} has no document for {self.function!r}")
        if isinstance(self.document, PublicationRecord):
            if self.document.streamed:
                # Materialisation (the centralized strategy) needs the tree,
                # which a streamed publication deliberately never built.
                raise DesignError(
                    f"peer {self.name!r} holds a streamed publication; its bytes were not "
                    "retained, so it cannot be materialised -- re-publish the document"
                )
            self.calls += 1
            return tree_from_xml(self.document.payload)
        self.calls += 1
        return self.document

    def update_document(self, document: Union[Tree, PublicationRecord]) -> None:
        """Replace the peer's document (e.g. a national bureau publishing new data)."""
        self.document = document

    def publish_payload(
        self, fingerprint: Optional[str], payload: Union[bytes, str]
    ) -> tuple[str, bool]:
        """Validate a whole serialised document and hold its record.

        Returns the record's ``(fingerprint, ack)``.  No tree is built:
        one C-parser pass, then the validator's fold over the parsed
        elements.  A wire publication comes with its ``fingerprint`` (the
        digest of its bytes) and is kept as given: a ``str`` is parsed as
        the characters it is, whatever encoding it declares.  A registration
        document comes with none: its text is parsed and kept as text,
        and the record is addressed by the document's structure -- ``tree:``
        plus :func:`~repro.engine.fingerprint.tree_fingerprint` over the
        parsed elements, the address a :class:`Tree` of equal content
        gets.  A malformed payload raises
        :class:`~repro.errors.InvalidXMLError` and the peer keeps its
        previous document.
        """
        if self.validator is None:
            raise RuntimeError(f"peer {self.name!r} has no local type to validate against")
        if fingerprint is None:
            try:
                root = parse_payload(payload)
            except ET.ParseError as error:
                raise InvalidXMLError(f"malformed XML: {error}") from None
            fingerprint = "tree:" + tree_fingerprint(root)
            ack = self.validator.compiled.accepts_element(root)
        else:
            ack = self.validator.validate_payload(payload)
        size = len(payload.encode("utf-8")) if isinstance(payload, str) else len(payload)
        self.document = PublicationRecord(fingerprint, ack, self.validator, size, payload)
        return fingerprint, ack

    def validate_locally(self) -> bool:
        """Validate the peer's own document against its local type.

        This is the whole point of a local typing: the check involves no
        other peer and no data shipping.
        """
        if self.local_type is None:
            raise RuntimeError(f"peer {self.name!r} has no local type to validate against")
        if self.document is None:
            return False
        if isinstance(self.document, PublicationRecord):
            record = self.document
            # The recorded verdict is authoritative for those bytes -- but
            # only against the validator it was computed with.
            if record.validator is self.validator:
                return record.ack
            if record.streamed:
                raise DesignError(
                    f"peer {self.name!r} holds a streamed publication validated against a "
                    "replaced local type; the payload was not retained, re-publish it"
                )
            return self.validator.validate_payload(record.payload)
        if self.validator is not None:
            return self.validator.validate(self.document)
        return self.local_type.validate(self.document)

    def document_size(self) -> int:
        """Bytes of the peer's document (what centralized validation must ship)."""
        if self.document is None:
            return 0
        if isinstance(self.document, PublicationRecord):
            return self.document.payload_bytes
        return document_bytes(self.document)

    def describe(self) -> str:
        if isinstance(self.document, PublicationRecord):
            how = "streamed" if self.document.streamed else "published"
            return (
                f"peer {self.name} provides {self.function} "
                f"({how}, {self.document.payload_bytes} bytes)"
            )
        size = self.document.size if self.document is not None else 0
        return f"peer {self.name} provides {self.function} ({size} nodes)"
