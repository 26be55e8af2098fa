"""The workload driver: replay a publication stream through each strategy.

A :class:`WorkloadDriver` takes a
:class:`~repro.workloads.synthetic.DistributedWorkload` and replays it
through up to three validation strategies, each on a fresh document and
network so the cost ledgers are comparable:

* ``serial`` -- the baseline
  :meth:`~repro.distributed.network.DistributedDocument.validate_locally`:
  every publication is parsed and every peer revalidates every round;
* ``runtime`` -- the sharded :class:`~repro.distributed.runtime.runtime.ValidationRuntime`:
  parallel validation with content-addressed incremental revalidation
  (publications whose bytes are unchanged are dropped after one hash);
* ``stream`` -- the event-driven path: every publication is fed chunk by
  chunk through :meth:`ValidationRuntime.publish_stream`, hashed and
  validated in a single pass with no tree ever materialised;
* ``centralized`` -- ship everything to the coordinator each round and
  validate the materialised document against the workload's global type.

Each round, *every* peer re-publishes its current document as serialised
XML -- real peer traffic arrives as bytes, and object identity never
survives the wire -- while one peer actually changes content per the
workload's event stream.  This is exactly the shape where identity-based
memoisation is blind and content fingerprints are not.  The publications
are materialised *off the clock*: the load generator is not part of the
system under test.

The driver reports wall-clock, documents validated, throughput, messages
and bytes shipped per strategy, plus the per-round verdicts so callers can
assert strategy agreement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.distributed.network import DistributedDocument
from repro.distributed.runtime.runtime import ValidationRuntime, resolve_pool
from repro.errors import DesignError
from repro.trees.xml_io import tree_from_xml, tree_to_xml
from repro.workloads.synthetic import DistributedWorkload

#: The strategies :meth:`WorkloadDriver.run` knows how to replay.
STRATEGIES = ("serial", "runtime", "stream", "centralized")


@dataclass(frozen=True)
class StrategyOutcome:
    """The cost ledger of one strategy over one workload replay."""

    strategy: str
    wall_seconds: float
    documents_validated: int
    messages: int
    bytes_shipped: int
    verdicts: tuple[bool, ...]

    @property
    def rounds(self) -> int:
        return len(self.verdicts)

    @property
    def throughput(self) -> float:
        """Validated documents per second of wall-clock."""
        return self.documents_validated / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> dict:
        """A JSON-ready view (what ``repro-design distributed --json`` emits)."""
        return {
            "strategy": self.strategy,
            "wall_seconds": round(self.wall_seconds, 6),
            "documents_validated": self.documents_validated,
            "throughput_per_s": round(self.throughput, 1),
            "messages": self.messages,
            "bytes_shipped": self.bytes_shipped,
            "rounds": self.rounds,
            "verdicts": list(self.verdicts),
        }


@dataclass(frozen=True)
class WorkloadReport:
    """The outcome of replaying one workload through several strategies."""

    peers: int
    documents: int
    workers: int
    shards: int
    outcomes: tuple[StrategyOutcome, ...]

    def outcome(self, strategy: str) -> StrategyOutcome:
        for outcome in self.outcomes:
            if outcome.strategy == strategy:
                return outcome
        raise DesignError(f"the report has no outcome for strategy {strategy!r}")

    @property
    def verdicts_agree(self) -> bool:
        """Did every strategy produce the same verdict sequence?"""
        sequences = {outcome.verdicts for outcome in self.outcomes}
        return len(sequences) <= 1

    def to_dict(self) -> dict:
        """A JSON-ready view (what ``repro-design distributed --json`` emits)."""
        return {
            "peers": self.peers,
            "documents": self.documents,
            "workers": self.workers,
            "shards": self.shards,
            "verdicts_agree": self.verdicts_agree,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    def summary(self) -> str:
        lines = [
            f"workload: {self.peers} peers, {self.documents} documents "
            f"({self.outcomes[0].rounds if self.outcomes else 0} rounds), "
            f"{self.workers} workers / {self.shards} shards"
        ]
        header = f"{'strategy':<14} {'wall s':>9} {'validated':>10} {'docs/s':>10} {'messages':>9} {'bytes':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for outcome in self.outcomes:
            lines.append(
                f"{outcome.strategy:<14} {outcome.wall_seconds:>9.4f} "
                f"{outcome.documents_validated:>10} {outcome.throughput:>10.0f} "
                f"{outcome.messages:>9} {outcome.bytes_shipped:>12}"
            )
        lines.append(f"verdicts agree across strategies: {self.verdicts_agree}")
        return "\n".join(lines)


class WorkloadDriver:
    """Replay a :class:`DistributedWorkload` through the validation strategies."""

    def __init__(
        self,
        workload: DistributedWorkload,
        max_workers: int = 4,
        shards: Optional[int] = None,
        backend: str = "thread",
        stream_chunk_bytes: int = 65536,
    ) -> None:
        self.workload = workload
        self.max_workers = max_workers
        self.shards = shards
        self.backend = backend
        self.stream_chunk_bytes = stream_chunk_bytes

    # ------------------------------------------------------------------ #
    # strategy replays
    # ------------------------------------------------------------------ #

    def _build_document(self) -> DistributedDocument:
        return DistributedDocument(self.workload.kernel, dict(self.workload.initial_documents))

    def _replay(self, ingest, validate) -> tuple[float, tuple[bool, ...]]:
        """Replay the publication stream; time only the system under test.

        Each round, every peer's current document is materialised as
        serialised XML (what its re-publication puts on the wire) *off the
        clock* -- the load generator is not part of the validation system.
        The timer covers ingesting the publications and the validation
        round; how much of a publication a strategy actually inspects
        (parse everything vs hash the bytes first) is the strategy's cost
        to pay or save.
        """
        current = dict(self.workload.initial_documents)
        serialized = {function: tree_to_xml(doc) for function, doc in current.items()}
        verdicts = []
        wall = 0.0
        for event in (None, *self.workload.events):
            if event is not None:
                current[event.function] = event.document
                serialized[event.function] = tree_to_xml(event.document)
            publications = list(serialized.items())
            started = time.perf_counter()
            for function, payload in publications:
                ingest(function, payload)
            verdicts.append(validate())
            wall += time.perf_counter() - started
        return wall, tuple(verdicts)

    def _outcome(self, strategy, network, base, wall, validated, verdicts) -> StrategyOutcome:
        traffic = network.ledger.since(base)
        return StrategyOutcome(strategy, wall, validated, traffic.messages, traffic.bytes, verdicts)

    def _ingest_parsing(self, document: DistributedDocument):
        """The baseline ingest: parse every publication, no content check."""

        def ingest(function: str, payload: str) -> None:
            document.update_resource(function, tree_from_xml(payload))

        return ingest

    def _run_serial(self) -> StrategyOutcome:
        document = self._build_document()
        document.propagate_typing(self.workload.typing)
        base = document.network.snapshot()
        wall, verdicts = self._replay(
            self._ingest_parsing(document), lambda: document.validate_locally().valid
        )
        validated = len(self.workload.initial_documents) * len(verdicts)
        return self._outcome("serial", document.network, base, wall, validated, verdicts)

    def _run_runtime(self) -> StrategyOutcome:
        document = self._build_document()
        with ValidationRuntime(
            document,
            max_workers=self.max_workers,
            shards=self.shards,
            backend=self.backend,
        ) as runtime:
            runtime.propagate_typing(self.workload.typing)
            base = document.network.snapshot()
            wall, verdicts = self._replay(
                runtime.publish, lambda: runtime.validate_locally().valid
            )
            return self._outcome(
                "runtime", document.network, base, wall, runtime.stats.validations_run, verdicts
            )

    def _run_streaming(self) -> StrategyOutcome:
        """The event-driven strategy: every publication streams, no tree is built.

        Each publication is fed to :meth:`ValidationRuntime.publish_stream`
        in bounded chunks -- digest and verdict in one pass over the bytes,
        O(depth) working memory.  Verdicts settle at ingest time, so the
        per-round ``validate_locally`` is pure cached-ack bookkeeping.
        """
        document = self._build_document()
        with ValidationRuntime(
            document,
            max_workers=self.max_workers,
            shards=self.shards,
            backend=self.backend,
        ) as runtime:
            runtime.propagate_typing(self.workload.typing)
            base = document.network.snapshot()

            def ingest(function: str, payload: str) -> None:
                runtime.publish_stream(function, payload, chunk_bytes=self.stream_chunk_bytes)

            wall, verdicts = self._replay(
                ingest, lambda: runtime.validate_locally().valid
            )
            return self._outcome(
                "stream", document.network, base, wall, runtime.stats.validations_run, verdicts
            )

    def _run_centralized(self) -> StrategyOutcome:
        document = self._build_document()
        base = document.network.snapshot()
        wall, verdicts = self._replay(
            self._ingest_parsing(document),
            lambda: document.validate_centralized(self.workload.global_type).valid,
        )
        validated = len(self.workload.initial_documents) * len(verdicts)
        return self._outcome("centralized", document.network, base, wall, validated, verdicts)

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #

    def run(self, strategies: Iterable[str] = ("serial", "runtime")) -> WorkloadReport:
        runners = {
            "serial": self._run_serial,
            "runtime": self._run_runtime,
            "stream": self._run_streaming,
            "centralized": self._run_centralized,
        }
        outcomes = []
        for strategy in strategies:
            if strategy not in runners:
                raise DesignError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
            outcomes.append(runners[strategy]())
        _workers, shard_count = resolve_pool(
            max(1, self.workload.peer_count), self.max_workers, self.shards
        )
        return WorkloadReport(
            peers=self.workload.peer_count,
            documents=self.workload.document_count,
            workers=self.max_workers,
            shards=shard_count,
            outcomes=tuple(outcomes),
        )
