"""Conversion between :class:`~repro.trees.document.Tree` values and XML text.

The paper abstracts away attributes and character data (Section 2: "a
widespread abstraction of XML documents ... focusing on document
structure"), so serialisation emits pure element structure and parsing
ignores text content and attributes.  The standard library parser is used;
no third-party XML dependency is required.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.errors import InvalidXMLError
from repro.trees.document import Tree


def tree_to_element(tree: Tree) -> ET.Element:
    """Convert a tree to an :class:`xml.etree.ElementTree.Element`."""
    element = ET.Element(tree.label)
    for child in tree.children:
        element.append(tree_to_element(child))
    return element


def element_to_tree(element: ET.Element) -> Tree:
    """Convert an element (ignoring text and attributes) to a tree."""
    return Tree(element.tag, tuple(element_to_tree(child) for child in element))


def tree_to_xml(tree: Tree, pretty: bool = False) -> str:
    """Serialise a tree as XML text.

    With ``pretty=True`` the output is indented, which is what the examples
    print for human inspection.
    """
    raw = ET.tostring(tree_to_element(tree), encoding="unicode")
    if not pretty:
        return raw
    from xml.dom import minidom

    parsed = minidom.parseString(raw)
    pretty_text = parsed.toprettyxml(indent="  ")
    # Drop the XML declaration and blank lines added by minidom.
    lines = [line for line in pretty_text.splitlines() if line.strip() and not line.startswith("<?xml")]
    return "\n".join(lines)


def tree_from_xml(text: str | bytes) -> Tree:
    """Parse XML text into a tree (attributes and character data are dropped).

    Malformed input raises the library's typed
    :class:`~repro.errors.InvalidXMLError` instead of the stdlib's
    ``xml.etree.ElementTree.ParseError``, so callers (the runtime, the
    service) never have to special-case stdlib exceptions.
    """
    try:
        return element_to_tree(ET.fromstring(text))
    except ET.ParseError as error:
        raise InvalidXMLError(f"malformed XML: {error}") from None
