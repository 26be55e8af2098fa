"""Seeded inputs and the verdict oracle of the publication benchmark.

Every payload byte string, stream chunk and schema version is built here
from the workload seed, before the clock starts; the generator only
writes prepared bytes.  Documents are composed directly as bytes, so the
validity the generator expects comes from how it built each document,
never from the library's validators.

The design is a top-down one: a global record DTD over the flat kernel
``s0(f1 ... fn)``, whose perfect typing (``find_perfect_typing``) gives
every peer the local type ``root_fi -> record*`` plus the record rules.

Version 0 is the publication-phase schema::

    record -> key, (field | group)*, stamp?

Typing changes use versions 1, 2, ...  Each adds a fresh element name
``ext<v>`` (so no content model compiles from cache) and alternates a
strictness the generator controls:

* odd versions are lenient -- ``key?, (field | group | ext<v>)*, stamp?``
  -- and accept every document the generator builds;
* even versions are strict -- ``key, (field | group | ext<v>)*, stamp`` --
  and reject a document unless every record carries a key and a stamp.

An invalid document has exactly one record without its ``key``; a
malformed payload is a proper prefix of a document (its root never
closes).  Keys carry text that the structure abstraction ignores; the
first record's key is unique per document, so every document is new
content to the byte-level fingerprint.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

#: The design id every workload registers.
DESIGN = "bench"

#: Root label of the kernel and the global schema.
ROOT = "s0"

#: Size a large-stream block of whole records reaches before it is cut;
#: with the first record and the root tags a chunk stays within 64 KiB.
BLOCK_BYTES = 64512

_CHILDREN = (
    (0.15, b"<group><field><value/></field><field/></group>"),
    (0.30, b"<group><note/></group>"),
    (0.65, b"<field><value/></field>"),
    (1.00, b"<field/>"),
)


def global_rules(version: int) -> dict[str, str]:
    """The global record DTD's rules at one schema version."""
    if version == 0:
        record = "key, (field | group)*, stamp?"
    elif version % 2:
        record = f"key?, (field | group | ext{version})*, stamp?"
    else:
        record = f"key, (field | group | ext{version})*, stamp"
    return {ROOT: "record*", "record": record, "group": "(field, field) | note", "field": "value?"}


def kernel_term(functions) -> str:
    return f"{ROOT}({' '.join(functions)})"


def perfect_typing(version: int, functions) -> dict:
    """``function -> DTD``: the perfect typing of the version's global schema.

    ``find_perfect_typing`` is looked up on its module at call time, so a
    traced run's wrapper sees every call.
    """
    from repro.core import existence
    from repro.core.design import TopDownDesign
    from repro.core.kernel import KernelTree
    from repro.schemas.dtd import DTD
    from repro.trees.term import parse_term

    design = TopDownDesign(
        DTD(ROOT, global_rules(version)), KernelTree(parse_term(kernel_term(functions)))
    )
    typing = existence.find_perfect_typing(design)
    if typing is None:
        raise RuntimeError(f"schema version {version} has no perfect typing")
    return dict(typing.items())


class Doc:
    """One prepared publication and what the generator built into it.

    ``payload`` is the whole document (bytes) or, for streams, a tuple of
    chunks.  ``keyless`` marks the one record without a key; ``stamped``
    says every record carries a stamp; ``malformed`` payloads are cut short.
    """

    __slots__ = ("payload", "keyless", "stamped", "malformed")

    def __init__(self, payload, keyless: bool, stamped: bool, malformed: bool = False) -> None:
        self.payload = payload
        self.keyless = keyless
        self.stamped = stamped
        self.malformed = malformed

    def valid(self, version: int = 0) -> bool:
        """The peer's acknowledgement after publishing this document."""
        if self.malformed:
            return False
        if version == 0:
            return not self.keyless
        if version % 2:
            return True
        return not self.keyless and self.stamped

    def text(self) -> str:
        payload = self.payload if isinstance(self.payload, bytes) else b"".join(self.payload)
        return payload.decode("utf-8")


class Corpus:
    """Builds records and documents from one seeded generator."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.keyed = [self.record(b"k%d" % index) for index in range(1024)]
        self.keyless = [self.record(None) for _ in range(128)]
        self._good_blocks: Optional[list] = None
        self._bad_blocks: Optional[list] = None

    def record(self, key: Optional[bytes]) -> tuple[bytes, bool]:
        rng = self.rng
        parts = [b"<record>"]
        if key is not None:
            parts.append(b"<key>" + key + b"</key>")
        for _ in range(rng.randint(0, 8)):
            draw = rng.random()
            for threshold, child in _CHILDREN:
                if draw < threshold:
                    parts.append(child)
                    break
        stamped = rng.random() < 0.5
        if stamped:
            parts.append(b"<stamp/>")
        parts.append(b"</record>")
        return b"".join(parts), stamped

    def document(self, root: str, key: str, records: int, invalid: bool) -> Doc:
        """A whole document of ``records`` records; one is keyless if invalid."""
        rng = self.rng
        head, stamped = self.record(key.encode())
        body = rng.choices(self.keyed, k=max(0, records - 1))
        if invalid:
            body.insert(rng.randrange(len(body) + 1), rng.choice(self.keyless))
        payload = b"".join(
            (b"<", root.encode(), b">", head, *(record for record, _ in body), b"</", root.encode(), b">")
        )
        return Doc(payload, invalid, stamped and all(flag for _, flag in body))

    def malformed(self, doc: Doc) -> Doc:
        cut = self.rng.randint(len(doc.payload) // 2, len(doc.payload) - 1)
        return Doc(doc.payload[:cut], doc.keyless, doc.stamped, malformed=True)

    def _block(self, bad: bool) -> tuple[bytes, bool]:
        records = []
        size = 0
        stamped = True
        while size < BLOCK_BYTES:
            record, flag = self.rng.choice(self.keyed)
            records.append(record)
            size += len(record)
            stamped = stamped and flag
        if bad:
            records[self.rng.randrange(len(records))] = self.rng.choice(self.keyless)[0]
        return b"".join(records), stamped

    def stream_document(self, root: str, key: str, size: int, invalid: bool) -> Doc:
        """A large document as ~64 KiB chunks of shared record blocks.

        Only the first and last chunk are unique to the document; the
        middle chunks are shared block objects, so a run can prepare many
        large documents in little memory.
        """
        if self._good_blocks is None:
            self._good_blocks = [self._block(False) for _ in range(48)]
            self._bad_blocks = [self._block(True) for _ in range(16)]
        rng = self.rng
        blocks = rng.choices(self._good_blocks, k=max(1, round(size / BLOCK_BYTES)))
        if invalid:
            blocks[rng.randrange(len(blocks))] = rng.choice(self._bad_blocks)
        head, stamped = self.record(key.encode())
        chunks = [block for block, _ in blocks]
        chunks[0] = b"<" + root.encode() + b">" + head + chunks[0]
        chunks[-1] = chunks[-1] + b"</" + root.encode() + b">"
        return Doc(tuple(chunks), invalid, stamped and all(flag for _, flag in blocks))


@dataclass
class Plan:
    """Everything one workload run sends, prepared before the clock starts.

    ``sequences[f]`` is peer ``f``'s publications in order; a peer that
    exhausts its sequence starts it over (still new content relative to
    what it last published).  ``closing`` documents, when a plan has them,
    are published once after the clock stops, so the typing-change storm
    re-registers documents of a known size.
    """

    functions: tuple[str, ...]
    roots: dict[str, str]
    seeds: dict[str, Doc]
    sequences: dict[str, list[Doc]]
    closing: Optional[dict[str, Doc]] = None


def _peers(peers: int) -> tuple[tuple[str, ...], dict[str, str]]:
    """The kernel's functions ``f1 .. fn`` and their local root labels."""
    functions = tuple(f"f{i}" for i in range(1, peers + 1))
    return functions, {function: f"root_{function}" for function in functions}


def _seeds(corpus: Corpus, functions, roots) -> dict[str, Doc]:
    return {
        function: corpus.document(roots[function], f"{function}-seed", 3, invalid=False)
        for function in functions
    }


def _per_peer(rate_cap: float, seconds: float, peers: int, floor: int) -> int:
    return max(floor, math.ceil(rate_cap * seconds / peers))


def fresh_edits_plan(seed: int, seconds: float, peers: int, rate_cap: float) -> Plan:
    """~1 KB record documents, 5% invalid, 1% malformed, all new content.

    Every peer gets more distinct documents than the engine's 512-entry
    per-schema document memo holds.
    """
    corpus = Corpus(seed)
    functions, roots = _peers(peers)
    count = _per_peer(rate_cap, seconds, peers, floor=600)
    sequences = {}
    for function in functions:
        docs = []
        for serial in range(count):
            doc = corpus.document(
                roots[function],
                f"{function}-{serial}",
                corpus.rng.randint(5, 11),
                invalid=corpus.rng.random() < 0.05,
            )
            if corpus.rng.random() < 0.01:
                doc = corpus.malformed(doc)
            docs.append(doc)
        sequences[function] = docs
    return Plan(functions, roots, _seeds(corpus, functions, roots), sequences)


def steady_republish_plan(seed: int, seconds: float, peers: int, rate_cap: float) -> Plan:
    """Every round each peer re-publishes its current bytes; one peer edits.

    Round ``k`` of peer ``f`` is its ``k``-th publication.  Its editor is
    drawn from the seed; the editing peer publishes a fresh document (5%
    invalid), every other peer the same bytes object as before.
    """
    corpus = Corpus(seed)
    functions, roots = _peers(peers)
    seeds = _seeds(corpus, functions, roots)
    rounds = _per_peer(rate_cap, seconds, peers, floor=peers)
    editors = [corpus.rng.randrange(peers) for _ in range(rounds)]
    sequences = {}
    for index, function in enumerate(functions):
        current = seeds[function]
        docs = []
        for round_index, editor in enumerate(editors):
            if editor == index:
                current = corpus.document(
                    roots[function],
                    f"{function}-{round_index}",
                    corpus.rng.randint(5, 11),
                    invalid=corpus.rng.random() < 0.05,
                )
            docs.append(current)
        sequences[function] = docs
    return Plan(functions, roots, seeds, sequences)


#: Sizes of large-stream documents: every consecutive run of this many
#: publications of one peer covers 0.25-1 MiB evenly, so the mean size --
#: and with it the cost -- of a run hardly depends on the seed.
_STREAM_SIZES = tuple((1 << 18) + step * ((1 << 20) - (1 << 18)) // 7 for step in range(8))


def large_streams_plan(seed: int, seconds: float, peers: int, rate_cap: float) -> Plan:
    """0.25-1 MiB record documents in ~64 KiB chunks, 5% invalid, all new content."""
    corpus = Corpus(seed)
    functions, roots = _peers(peers)
    count = _per_peer(rate_cap, seconds, peers, floor=len(_STREAM_SIZES))
    sequences = {}
    for function in functions:
        sizes: list[int] = []
        while len(sizes) < count:
            sizes.extend(corpus.rng.sample(_STREAM_SIZES, len(_STREAM_SIZES)))
        sequences[function] = [
            corpus.stream_document(
                roots[function],
                f"{function}-{serial}",
                size,
                invalid=corpus.rng.random() < 0.05,
            )
            for serial, size in enumerate(sizes)
        ]
    closing = {
        function: corpus.stream_document(roots[function], f"{function}-closing", 1 << 16, False)
        for function in functions
    }
    return Plan(functions, roots, _seeds(corpus, functions, roots), sequences, closing)
