"""The coordinator's view of a distributed document and its validation strategies.

A :class:`DistributedDocument` ties a kernel document held by a coordinator
peer to the resource peers providing the docking points.  Three operations
matter for the paper's motivation (Section 1):

* :meth:`DistributedDocument.materialize` -- activate every function node
  and build the extension ``extT(t1..tn)``;
* :meth:`DistributedDocument.validate_centralized` -- ship every remote
  document to the coordinator and validate the materialised document against
  the global type (cost: all the data crosses the network);
* :meth:`DistributedDocument.validate_locally` -- each peer validates its own
  document against the local type propagated to it and sends back one small
  acknowledgement.  When the typing is *sound*, local success implies global
  validity; when it is *local* (sound and complete) the strategies accept
  exactly the same documents.

Every operation records :class:`~repro.distributed.peer.Message` values on
the :class:`Network`, so benchmarks can compare bytes shipped and messages
exchanged by the two strategies.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.errors import DesignError
from repro.core.kernel import KernelTree
from repro.core.typing import SchemaType, TreeTyping
from repro.distributed.peer import Message, Peer, ResourcePeer, document_bytes
from repro.engine.batch import BatchReport, BatchValidator
from repro.engine.compilation import CompilationEngine, get_default_engine
from repro.metrics import LedgerSnapshot, TrafficLedger
from repro.trees.document import Tree

#: Size of a control message (a call request or a boolean acknowledgement).
CONTROL_MESSAGE_BYTES = 64

#: How many of the most recent messages :attr:`Network.log` keeps.  A
#: long-running server sends two per dirty publication forever; the
#: totals live in the ledger, so older messages are dropped.
LOG_CAPACITY = 4096


@dataclass
class Network:
    """The message log shared by all peers of a simulation.

    The log may be appended to from pool workers of the distributed runtime,
    so every mutation is serialised by a lock.  It keeps only the most
    recent :data:`LOG_CAPACITY` messages.  Message/byte totals of *every*
    message live in a :class:`~repro.service.metrics.TrafficLedger` -- the
    same counter implementation the network service uses for its socket
    accounting -- so a count never observes a half-appended batch and every
    layer of the system means the same thing by "messages" and "bytes
    shipped".
    """

    peers: dict[str, Peer] = field(default_factory=dict)
    log: deque[Message] = field(default_factory=deque)
    ledger: TrafficLedger = field(default_factory=TrafficLedger, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The ledger keeps the accounting O(1) per read (the workload
        # driver reads it every round); seeded from any pre-filled log.
        for message in self.log:
            self.ledger.record(message.payload_bytes)
        self.log = deque(self.log, maxlen=LOG_CAPACITY)

    def register(self, peer: Peer) -> Peer:
        self.peers[peer.name] = peer
        return peer

    def send(self, sender: str, recipient: str, kind: str, payload_bytes: int, description: str = "") -> None:
        with self._lock:
            self.log.append(Message(sender, recipient, kind, payload_bytes, description))
            self.ledger.record(payload_bytes)

    def send_control(
        self, sender: str, recipient: str, kind: str, description: str = "", extra_bytes: int = 0
    ) -> None:
        """Record a control message (request / acknowledgement / type push).

        All control traffic is accounted here so :data:`CONTROL_MESSAGE_BYTES`
        cannot drift between call sites; ``extra_bytes`` covers control
        messages that carry a payload on top of the fixed envelope (a
        propagated local type, for instance).
        """
        self.send(sender, recipient, kind, CONTROL_MESSAGE_BYTES + extra_bytes, description)

    def send_document(self, sender: str, recipient: str, kind: str, document, description: str = "") -> None:
        """Record a data message shipping a whole document (its XML bytes)."""
        self.send(sender, recipient, kind, document_bytes(document), description)

    # -- accounting ------------------------------------------------------ #

    @property
    def message_count(self) -> int:
        return self.ledger.messages

    @property
    def bytes_shipped(self) -> int:
        return self.ledger.bytes

    def snapshot(self) -> LedgerSnapshot:
        """``(message_count, bytes_shipped)`` read atomically (one lock hold)."""
        return self.ledger.snapshot()

    def reset(self) -> None:
        with self._lock:
            self.log.clear()
            self.ledger.reset()


@dataclass(frozen=True)
class ValidationReport:
    """The outcome and cost of one validation run."""

    strategy: str
    valid: bool
    messages: int
    bytes_shipped: int
    guarantee: str

    def __str__(self) -> str:
        return (
            f"[{self.strategy}] valid={self.valid} "
            f"messages={self.messages} bytes={self.bytes_shipped} ({self.guarantee})"
        )


class DistributedDocument:
    """A kernel document whose docking points are served by resource peers."""

    def __init__(
        self,
        kernel: KernelTree,
        documents: Mapping[str, Tree],
        coordinator_name: str = "coordinator",
        network: Optional[Network] = None,
        engine: Optional[CompilationEngine] = None,
    ) -> None:
        missing = set(kernel.functions) - set(documents)
        if missing:
            raise DesignError(f"no resource document supplied for functions {sorted(missing)!r}")
        self.kernel = kernel
        self.engine = engine if engine is not None else get_default_engine()
        self.network = network if network is not None else Network()
        self.coordinator = self.network.register(Peer(coordinator_name))
        self.resources: dict[str, ResourcePeer] = {}
        for function in kernel.functions:
            peer = ResourcePeer(name=f"peer:{function}", function=function, document=documents[function])
            self.network.register(peer)
            self.resources[function] = peer

    # ------------------------------------------------------------------ #
    # typing propagation
    # ------------------------------------------------------------------ #

    def propagate_typing(self, typing: TreeTyping) -> None:
        """Install a typing: send each peer its local type (one message each).

        Each local type is compiled once through the shared engine; peers
        whose types reuse the same content models (the common case -- every
        component carries all rules of the global type, Theorems 4.2/4.5)
        share the compiled per-label automata.
        """
        for function, peer in self.resources.items():
            if function not in typing:
                raise DesignError(f"the typing has no component for {function!r}")
            peer.assign_type(
                typing[function], BatchValidator(typing[function], engine=self.engine)
            )
            self.network.send_control(
                self.coordinator.name,
                peer.name,
                "propagate-type",
                f"local type for {function}",
                extra_bytes=typing[function].size,
            )

    def update_resource(self, function: str, document: Tree) -> None:
        """A peer publishes a new version of its data (no network traffic)."""
        self.resources[function].update_document(document)

    # ------------------------------------------------------------------ #
    # materialisation and validation strategies
    # ------------------------------------------------------------------ #

    def materialize(self) -> Tree:
        """Activate every docking point and build the extension ``extT(t1..tn)``."""
        assignment: dict[str, Tree] = {}
        for function, peer in self.resources.items():
            self.network.send_control(self.coordinator.name, peer.name, "call", function)
            document = peer.answer()
            self.network.send_document(peer.name, self.coordinator.name, "result", document, function)
            assignment[function] = document
        return self.kernel.extension(assignment)

    def validate_centralized(self, global_type: SchemaType) -> ValidationReport:
        """Ship everything to the coordinator and validate against the global type."""
        before_messages, before_bytes = self.network.snapshot()
        extension = self.materialize()
        valid = global_type.validate(extension)
        return ValidationReport(
            strategy="centralized",
            valid=valid,
            messages=self.network.message_count - before_messages,
            bytes_shipped=self.network.bytes_shipped - before_bytes,
            guarantee="exact (the materialised document was checked against the global type)",
        )

    def validate_locally(self, typing: Optional[TreeTyping] = None, typing_is_local: bool = True) -> ValidationReport:
        """Each peer validates its own document against its local type.

        ``typing`` may be passed to (re-)propagate local types first.  The
        guarantee depends on the typing: a *sound* typing makes local success
        imply global validity; a *local* typing additionally rules no valid
        configuration out (Section 2.4).
        """
        before_messages, before_bytes = self.network.snapshot()
        if typing is not None:
            self.propagate_typing(typing)
        valid = True
        for function, peer in self.resources.items():
            self.network.send_control(self.coordinator.name, peer.name, "validate-request", function)
            ok = peer.validate_locally()
            self.network.send_control(peer.name, self.coordinator.name, "validate-result", str(ok))
            valid = valid and ok
        guarantee = (
            "sound & complete: local success is equivalent to global validity"
            if typing_is_local
            else "sound: local success implies global validity"
        )
        return ValidationReport(
            strategy="local",
            valid=valid,
            messages=self.network.message_count - before_messages,
            bytes_shipped=self.network.bytes_shipped - before_bytes,
            guarantee=guarantee,
        )

    def validate_batch(self, function: str, documents: Iterable[Tree]) -> BatchReport:
        """Validate many candidate documents of one resource in a single pass.

        This is the bulk path a resource uses before publishing (e.g. a
        national bureau checking a backlog of monthly releases): the local
        type is compiled once and every document only pays the membership
        run.  No network traffic is involved -- that is the point of a local
        typing.
        """
        if function not in self.resources:
            raise DesignError(f"no resource peer serves function {function!r}")
        peer = self.resources[function]
        if peer.validator is None:
            raise DesignError(f"no local type has been propagated to {peer.name!r}")
        return peer.validator.report(documents)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def describe(self) -> str:
        lines = [f"kernel at {self.coordinator.name}: {self.kernel}"]
        for peer in self.resources.values():
            lines.append("  " + peer.describe())
        return "\n".join(lines)
