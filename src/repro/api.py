"""The public facade of the library.

Everything a user of the library (and every script in ``examples/``) needs
is reachable from here: small constructors for trees, kernels and schemas,
the two design classes, and :func:`analyze_design`, which runs the paper's
decision procedures on a design and produces a readable report.

>>> from repro import dtd, kernel, top_down_design
>>> design = top_down_design(dtd("s", {"s": "a*, b, c*"}), kernel("s(f1 b f2)"))
>>> design.exists_perfect_typing()
True
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import DesignError, InvalidXMLError
from repro.schemas.content_model import Formalism
from repro.schemas.dtd import DTD
from repro.schemas.dtd_text import parse_rules
from repro.schemas.edtd import EDTD
from repro.schemas.sdtd import SDTD
from repro.core.consistency import ConsistencyResult, check_consistency
from repro.core.design import BottomUpDesign, Design, TopDownDesign
from repro.core.existence import (
    find_local_typing,
    find_maximal_local_typings,
    find_perfect_typing,
)
from repro.core.kernel import KernelTree
from repro.core.typing import SchemaType, TreeTyping
from repro.distributed.network import DistributedDocument
from repro.distributed.runtime import ValidationRuntime, WorkloadDriver, WorkloadReport
from repro.engine import (
    BatchValidator,
    CompilationEngine,
    get_default_engine,
    use_engine,
)
from repro.federation import Federation
from repro.observability.logs import LogRecorder, new_trace_id
from repro.service.client import ServiceClient
from repro.service.server import ServiceHandle, ValidationServer
from repro.streaming import StreamingValidator, streaming_validator_for
from repro.trees.document import Tree
from repro.trees.term import parse_term
from repro.trees.xml_io import tree_from_xml
from repro.workloads.synthetic import distributed_workload

__all__ = [
    "tree",
    "kernel",
    "dtd",
    "sdtd",
    "edtd",
    "typing_of",
    "top_down_design",
    "bottom_up_design",
    "Design",
    "DesignReport",
    "DesignSession",
    "ExecutionConfig",
    "MODES",
    "analyze_design",
    "BatchValidator",
    "CompilationEngine",
    "Federation",
    "ServiceHandle",
    "StreamingValidator",
    "ValidationRuntime",
    "WorkloadReport",
    "get_default_engine",
    "new_trace_id",
    "use_engine",
]


# --------------------------------------------------------------------------- #
# constructors
# --------------------------------------------------------------------------- #


def tree(text: Union[str, Tree]) -> Tree:
    """Parse a tree from the paper's term notation (``"s(a b(c))"``)."""
    return parse_term(text) if isinstance(text, str) else text


def kernel(text: Union[str, Tree], functions=None) -> KernelTree:
    """Build a kernel document; function symbols ``f``, ``f1``, ... are auto-detected."""
    return KernelTree(tree(text), functions)


def dtd(
    start: Optional[str] = None,
    rules: Optional[Mapping[str, object]] = None,
    text: Optional[str] = None,
    formalism: Union[Formalism, str] = Formalism.NRE,
) -> DTD:
    """Build an R-DTD from a rules mapping or from schema text (W3C or arrow notation)."""
    if text is not None:
        parsed = parse_rules(text)
        return DTD(start or next(iter(parsed)), parsed, formalism)
    if rules is None:
        raise DesignError("dtd() needs either a rules mapping or schema text")
    if start is None:
        raise DesignError("dtd() needs a start symbol when rules are given as a mapping")
    return DTD(start, rules, formalism)


def sdtd(
    start: str,
    rules: Mapping[str, object],
    mu: Optional[Mapping[str, str]] = None,
    formalism: Union[Formalism, str] = Formalism.NRE,
) -> SDTD:
    """Build an R-SDTD (single-type extended DTD, the XSD abstraction)."""
    return SDTD(start, rules, mu, formalism)


def edtd(
    start: str,
    rules: Mapping[str, object],
    mu: Optional[Mapping[str, str]] = None,
    formalism: Union[Formalism, str] = Formalism.NRE,
) -> EDTD:
    """Build an R-EDTD (extended DTD / regular tree grammar, the Relax NG abstraction)."""
    return EDTD(start, rules, mu, formalism)


def typing_of(types: Mapping[str, SchemaType]) -> TreeTyping:
    """Build a typing from a ``{function: schema}`` mapping."""
    return TreeTyping(types)


def top_down_design(target: SchemaType, kernel_document: Union[KernelTree, str, Tree]) -> TopDownDesign:
    """A top-down design ``<τ, T>`` (Definition 10)."""
    if not isinstance(kernel_document, KernelTree):
        kernel_document = kernel(kernel_document)
    return TopDownDesign(target, kernel_document)


def bottom_up_design(
    typing: Union[TreeTyping, Mapping[str, SchemaType]],
    kernel_document: Union[KernelTree, str, Tree],
) -> BottomUpDesign:
    """A bottom-up design ``<(τn), T>`` (Definition 10)."""
    if not isinstance(typing, TreeTyping):
        typing = TreeTyping(typing)
    if not isinstance(kernel_document, KernelTree):
        kernel_document = kernel(kernel_document)
    return BottomUpDesign(typing, kernel_document)


# --------------------------------------------------------------------------- #
# analysis reports
# --------------------------------------------------------------------------- #


@dataclass
class DesignReport:
    """The outcome of :func:`analyze_design` on a top-down or bottom-up design."""

    design: Design
    local_typing: Optional[TreeTyping] = None
    perfect_typing: Optional[TreeTyping] = None
    maximal_local_typings: list[TreeTyping] = field(default_factory=list)
    consistency: dict[str, ConsistencyResult] = field(default_factory=dict)
    engine_stats: Optional[dict] = None

    @property
    def has_local_typing(self) -> bool:
        return self.local_typing is not None

    @property
    def has_perfect_typing(self) -> bool:
        return self.perfect_typing is not None

    def summary(self) -> str:
        """A human-readable summary (what the examples print)."""
        lines: list[str] = []
        if isinstance(self.design, TopDownDesign):
            lines.append(f"top-down {self.design.schema_language} design over kernel {self.design.kernel}")
            lines.append(f"  local typing exists:   {self.has_local_typing}")
            lines.append(f"  perfect typing exists: {self.has_perfect_typing}")
            lines.append(f"  maximal local typings found: {len(self.maximal_local_typings)}")
            if self.perfect_typing is not None:
                lines.append("  perfect typing:")
                lines.extend("    " + line for line in self.perfect_typing.describe().splitlines())
            elif self.maximal_local_typings:
                for index, typing in enumerate(self.maximal_local_typings, start=1):
                    lines.append(f"  maximal local typing #{index}:")
                    lines.extend("    " + line for line in typing.describe().splitlines())
        else:
            lines.append(f"bottom-up design over kernel {self.design.kernel}")
            for language, result in self.consistency.items():
                size = result.type_size if result.consistent else "-"
                lines.append(
                    f"  cons[{language}]: {'yes' if result.consistent else 'no'}"
                    f" ({result.reason}); |typeT(τn)| = {size}"
                )
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# design sessions: one design, one execution substrate
# --------------------------------------------------------------------------- #

#: The execution substrates a :class:`DesignSession` can run on.
MODES = ("serial", "runtime", "service", "federation")


@dataclass
class ExecutionConfig:
    """How a :class:`DesignSession` executes validation.

    ``mode`` picks the execution substrate:

    * ``"serial"`` -- the paper's baseline: one
      :class:`~repro.distributed.network.DistributedDocument`, every round
      validated in sequence;
    * ``"runtime"`` -- the sharded incremental
      :class:`~repro.distributed.runtime.ValidationRuntime` (default);
    * ``"service"`` -- a :class:`~repro.service.server.ValidationServer`
      on a live loopback socket, driven through the frame protocol;
    * ``"federation"`` -- a directory plus ``pods`` peer pods
      (:class:`~repro.federation.Federation`), each owning a shard of the
      design's functions.

    ``workers``/``shards`` size the runtime; ``pods`` and ``spawn`` (``"thread"`` or ``"process"``) shape the federation; and
    ``server_options`` passes the service tier's overload knobs through
    (``max_queue_depth``, ``rate_limit``, ``stream_ttl``, ...).

    ``metrics_port`` turns on the Prometheus /metrics exposition for the
    socketed substrates (``0`` picks an ephemeral port): the service's
    server, or every member of the federation.
    """

    mode: str = "runtime"
    workers: int = 4
    shards: Optional[int] = None
    pods: int = 2
    spawn: str = "thread"
    host: str = "127.0.0.1"
    port: int = 0
    design_id: str = "default"
    chunk_bytes: int = 65536
    server_options: dict = field(default_factory=dict)
    metrics_port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise DesignError(
                f"unknown execution mode {self.mode!r}: expected one of {', '.join(MODES)}"
            )


def _payload_tree(payload: Union[Tree, str, bytes]) -> Tree:
    if isinstance(payload, Tree):
        return payload
    if isinstance(payload, bytes):
        payload = payload.decode("utf-8")
    stripped = payload.strip()
    if stripped.startswith("<"):
        return tree_from_xml(stripped)
    return parse_term(stripped)


def _payload_bytes(payload) -> bytes:
    if isinstance(payload, str):
        return payload.encode("utf-8")
    if isinstance(payload, bytes):
        return payload
    return b"".join(
        chunk.encode("utf-8") if isinstance(chunk, str) else bytes(chunk) for chunk in payload
    )


class DesignSession:
    """One design, published to and validated through a chosen substrate.

    Build a session from the design's ingredients (kernel, typing, seed
    documents) and an :class:`ExecutionConfig`, then drive it with the
    same four verbs regardless of where validation actually runs:

    * :meth:`publish` -- one wire publication (XML text/bytes), answering
      the design's global verdict after it settles;
    * :meth:`publish_stream` -- the same through the chunked streaming
      path (payload may be an iterable of chunks);
    * :meth:`validate` -- the current global verdict;
    * :meth:`report` -- a JSON-shaped description of the session.

    Sessions own their substrate: ``close()`` (or the context manager)
    shuts down the runtime's thread pool, the service's server thread, or
    the whole federation.

    >>> from repro import DesignSession, dtd
    >>> schema = dtd("r", {"r": "a*"})
    >>> with DesignSession("s(f1)", {"f1": schema}, {"f1": "r(a)"}) as session:
    ...     session.publish("f1", "<r><a/><a/></r>")["valid"]
    True
    """

    def __init__(
        self,
        kernel_document: Union[KernelTree, str, Tree],
        typing: Union[TreeTyping, Mapping[str, SchemaType]],
        documents: Mapping[str, Union[Tree, str]],
        config: Optional[ExecutionConfig] = None,
        **overrides,
    ) -> None:
        if config is None:
            config = ExecutionConfig(**overrides)
        elif overrides:
            raise DesignError("pass an ExecutionConfig or keyword overrides, not both")
        self.config = config
        if not isinstance(typing, TreeTyping):
            typing = TreeTyping(typing)
        if not isinstance(kernel_document, KernelTree):
            kernel_document = kernel(kernel_document)
        self.kernel = kernel_document
        self.typing = typing
        self.documents = {
            function: tree(document) for function, document in documents.items()
        }
        self._closed = False
        self._logger: Optional[LogRecorder] = None
        self._document: Optional[DistributedDocument] = None
        self._runtime: Optional[ValidationRuntime] = None
        self._handle: Optional[ServiceHandle] = None
        self._client: Optional[ServiceClient] = None
        self._federation: Optional[Federation] = None
        if config.mode == "serial":
            self._document = DistributedDocument(self.kernel, dict(self.documents))
            self._document.propagate_typing(self.typing)
        elif config.mode == "runtime":
            self._logger = LogRecorder(component="runtime")
            self._runtime = ValidationRuntime(
                DistributedDocument(self.kernel, dict(self.documents)),
                max_workers=config.workers,
                shards=config.shards,
                logger=self._logger,
            )
            self._runtime.propagate_typing(self.typing)
        elif config.mode == "service":
            options = dict(config.server_options)
            options.setdefault("runtime_workers", config.workers)
            if config.shards is not None:
                options.setdefault("runtime_shards", config.shards)
            if config.metrics_port is not None:
                options.setdefault("metrics_port", config.metrics_port)
            self._handle = self.serve(
                self.kernel,
                self.typing,
                self.documents,
                design_id=config.design_id,
                host=config.host,
                port=config.port,
                **options,
            )
            self._client = ServiceClient(self._handle.host, self._handle.port)
        else:  # federation (__post_init__ already vetted the mode)
            self._federation = Federation(
                self.kernel,
                self.typing,
                self.documents,
                pods=config.pods,
                design_id=config.design_id,
                spawn=config.spawn,
                host=config.host,
                workers=config.workers,
                metrics=config.metrics_port is not None,
            )

    # ------------------------------------------------------------------ #
    # the four verbs
    # ------------------------------------------------------------------ #

    @property
    def mode(self) -> str:
        return self.config.mode

    @property
    def endpoint(self) -> Optional[tuple[str, int]]:
        """The dialable endpoint, when the substrate has one.

        The service's socket, or the federation's directory; ``None`` for
        the in-process substrates.
        """
        if self._handle is not None:
            return (self._handle.host, self._handle.port)
        if self._federation is not None:
            return (self._federation.directory_host, self._federation.directory_port)
        return None

    def _ensure_open(self) -> None:
        if self._closed:
            raise DesignError("this design session is closed")

    def publish(
        self,
        function: str,
        payload: Union[str, bytes],
        trace_id: Optional[str] = None,
    ) -> dict:
        """Publish one document and answer the global verdict after it settles.

        ``trace_id`` (mint one with :func:`repro.new_trace_id`) stamps the
        publication's lifecycle events with it; read them back with
        :meth:`trace`.
        """
        self._ensure_open()
        if self._document is not None:
            self._document.update_resource(function, _payload_tree(payload))
            report = self._document.validate_locally()
            return {"function": function, "clean": False, "valid": report.valid}
        if self._runtime is not None:
            clean = self._runtime.publish(function, payload, trace_id=trace_id)
            report = self._runtime.validate_locally()
            return {"function": function, "clean": clean, "valid": report.valid}
        if self._client is not None:
            return self._client.publish(
                self.config.design_id, function, payload, trace_id=trace_id
            )
        result = dict(self._federation.publish(function, payload, trace_id=trace_id))
        # A pod's own verdict covers only its fragment; the session answers
        # the directory's global verdict (consistent by the time the
        # publish reply arrives).
        result["valid"] = self._federation.global_verdict()["valid"]
        return result

    def publish_stream(
        self,
        function: str,
        payload,
        chunk_bytes: Optional[int] = None,
        trace_id: Optional[str] = None,
    ) -> dict:
        """Publish through the chunked streaming path (no tree on the wire)."""
        self._ensure_open()
        chunk_bytes = chunk_bytes or self.config.chunk_bytes
        if self._document is not None:
            return self.publish(function, _payload_bytes(payload))
        if self._runtime is not None:
            report = self._runtime.publish_stream(function, payload, chunk_bytes)
            if report.malformed:
                raise InvalidXMLError(f"payload for {function!r} is not XML")
            valid = self._runtime.current_verdict()
            if valid is None:
                valid = self._runtime.validate_locally().valid
            return {"function": function, "clean": report.clean, "valid": valid}
        if self._client is not None:
            return self._client.publish_stream(
                self.config.design_id,
                function,
                payload,
                chunk_bytes=chunk_bytes,
                trace_id=trace_id,
            )
        result = dict(
            self._federation.publish_stream(
                function, payload, chunk_bytes=chunk_bytes, trace_id=trace_id
            )
        )
        result["valid"] = self._federation.global_verdict()["valid"]
        return result

    def trace(self, trace_id: Optional[str] = None, limit: Optional[int] = None) -> list:
        """The substrate's events that carry a trace id (optionally one id's)."""
        return self._events("trace", trace_id=trace_id, limit=limit)

    def logs(
        self,
        trace_id: Optional[str] = None,
        limit: Optional[int] = None,
        level: Optional[str] = None,
    ) -> list:
        """The substrate's events at or above ``level`` (optionally one trace's)."""
        return self._events("logs", trace_id=trace_id, limit=limit, level=level)

    def _events(self, op: str, **filters) -> list:
        """One export for :meth:`trace` and :meth:`logs`.

        Serial mode records nothing; runtime mode reads the in-process
        ring; service mode pulls the server's ring over the ``op`` wire
        op; federation mode merges every member's ring by timestamp.
        """
        self._ensure_open()
        if self._logger is not None:
            return self._logger.export(traced=op == "trace", **filters)
        if self._client is not None:
            return getattr(self._client, op)(**filters)["events"]
        if self._federation is not None:
            return getattr(self._federation, op)(**filters)
        return []

    def validate(self, force: bool = False) -> dict:
        """The design's current global verdict (``{"valid": ...}``)."""
        self._ensure_open()
        if self._document is not None:
            report = self._document.validate_locally()
            return {"valid": report.valid, "mode": "serial"}
        if self._runtime is not None:
            report = self._runtime.validate_locally(force=force)
            return {
                "valid": report.valid,
                "acks": self._runtime.peer_acks(),
                "mode": "runtime",
            }
        if self._client is not None:
            result = dict(self._client.revalidate(self.config.design_id, force=force))
            result["mode"] = "service"
            return result
        result = dict(self._federation.global_verdict())
        result["mode"] = "federation"
        return result

    def report(self) -> dict:
        """A JSON-shaped description of the session and its verdict."""
        verdict = self.validate()
        described = {
            "mode": self.config.mode,
            "design": self.config.design_id,
            "functions": sorted(self.documents),
            "valid": verdict.get("valid"),
        }
        if self._runtime is not None:
            described["acks"] = self._runtime.peer_acks()
        if self._handle is not None:
            described["endpoint"] = [self._handle.host, self._handle.port]
        if self._federation is not None:
            described["federation"] = self._federation.describe()
        return described

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._client is not None:
            self._client.close()
        if self._handle is not None:
            self._handle.close()
        if self._runtime is not None:
            self._runtime.close()
        if self._federation is not None:
            self._federation.close()

    def __enter__(self) -> "DesignSession":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # design-free entry points
    # ------------------------------------------------------------------ #

    @staticmethod
    def serve(
        kernel_document: Union[KernelTree, str, Tree],
        typing: Union[TreeTyping, Mapping[str, SchemaType]],
        documents: Mapping[str, Tree],
        design_id: str = "default",
        host: str = "127.0.0.1",
        port: int = 0,
        **server_options,
    ) -> ServiceHandle:
        """Boot a :class:`~repro.service.server.ValidationServer` for a design.

        Registers the design (typing propagated, seed documents
        validated), starts the server on its own thread and hands back the
        live :class:`~repro.service.server.ServiceHandle`, which closes the
        server gracefully on ``close()``.  ``server_options`` go to the
        server (``max_frame_bytes``, ``max_batch``, ``runtime_workers``,
        the overload tier's ``max_queue_depth``, ``rate_limit``,
        ``stream_ttl``, ...).
        """
        if not isinstance(typing, TreeTyping):
            typing = TreeTyping(typing)
        if not isinstance(kernel_document, KernelTree):
            kernel_document = kernel(kernel_document)
        server = ValidationServer(host=host, port=port, **server_options)
        server.preload_design(design_id, kernel_document, typing, documents)
        return ServiceHandle(server).start()

    @staticmethod
    def run_workload(
        peers: int = 8,
        documents: int = 64,
        workers: int = 4,
        shards: Optional[int] = None,
        seed: int = 0,
        invalid_rate: float = 0.05,
        records: int = 12,
        fields: int = 6,
        strategies: tuple[str, ...] = ("serial", "runtime"),
        backend: str = "thread",
    ) -> WorkloadReport:
        """Replay a synthetic workload and compare execution strategies.

        Builds a :func:`~repro.workloads.synthetic.distributed_workload`
        of ``documents`` publications over ``peers`` peers and replays it
        through the requested ``strategies`` (any of ``"serial"``,
        ``"runtime"``, ``"centralized"``) with a
        :class:`~repro.distributed.runtime.WorkloadDriver`; ``backend``
        names the runtime's scheduler (``"thread"`` or ``"serial"``).

        >>> report = DesignSession.run_workload(peers=4, documents=12, workers=2)
        >>> report.verdicts_agree
        True
        """
        workload = distributed_workload(
            peers=peers,
            documents=documents,
            seed=seed,
            invalid_rate=invalid_rate,
            records=records,
            fields=fields,
        )
        driver = WorkloadDriver(
            workload,
            max_workers=workers,
            shards=shards,
            backend=backend,
        )
        return driver.run(strategies)

    @staticmethod
    def stream_validate(
        schema: SchemaType,
        payload,
        engine: Optional[CompilationEngine] = None,
        chunk_bytes: int = 65536,
    ) -> bool:
        """Validate serialised XML against a schema without building a tree.

        The event-driven twin of ``BatchValidator(schema).validate(tree)``:
        ``payload`` may be a whole document (``str``/``bytes``) or any
        iterable of chunks, and the verdict matches the tree-based path
        for every schema kind while working memory stays O(document
        depth).  Malformed input raises
        :class:`~repro.errors.InvalidXMLError`.

        >>> from repro import dtd
        >>> DesignSession.stream_validate(dtd("r", {"r": "a*"}), "<r><a/></r>")
        True
        """
        validator = streaming_validator_for(schema, engine)
        if isinstance(payload, (str, bytes)):
            return validator.validate_payload(payload, chunk_bytes)
        return validator.validate_chunks(payload)


def analyze_design(
    design: Design,
    maximal_limit: int = 4,
    schema_languages: tuple[str, ...] = ("DTD", "SDTD", "EDTD"),
    engine: Optional[CompilationEngine] = None,
) -> DesignReport:
    """Run the paper's decision procedures on a design and collect the results.

    For a top-down design: ``∃-loc``, ``∃-perf`` and a bounded enumeration of
    maximal local typings.  For a bottom-up design: ``cons[S]`` for each
    requested schema language.

    When ``engine`` is given it is installed as the compilation engine for
    the duration of the analysis (an isolated cache with its own
    statistics); otherwise the process-wide engine is used.  Either way the
    report carries a snapshot of the engine's cache statistics for the whole
    analysis, which is what the CLI ``--stats`` flag prints.
    """
    report = DesignReport(design=design)
    with use_engine(engine) as active:
        before = active.stats.snapshot()
        if isinstance(design, TopDownDesign):
            report.perfect_typing = find_perfect_typing(design)
            report.local_typing = report.perfect_typing or find_local_typing(design)
            report.maximal_local_typings = find_maximal_local_typings(design, limit=maximal_limit)
        elif isinstance(design, BottomUpDesign):
            for language in schema_languages:
                report.consistency[language] = check_consistency(
                    design.kernel, design.typing, language
                )
        else:
            raise DesignError(f"cannot analyse {design!r}")
        report.engine_stats = active.stats.delta(before)
    return report
