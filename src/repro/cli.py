"""Command-line interface: analyse a distributed XML design from schema files.

The CLI makes the library usable without writing Python, in the spirit of a
designer's tool:

* ``repro-design topdown --schema schema.dtd --kernel "eurostat(f1 f2)"`` —
  propagate a global schema into local schemas (``∃-loc`` / ``∃-perf`` /
  maximal local typings);
* ``repro-design bottomup --kernel "s(f1 f2)" --type f1=t1.dtd --type f2=t2.dtd`` —
  decide ``cons[S]`` for every schema language and print ``typeT(τn)``;
* ``repro-design validate --schema schema.dtd --document doc.xml`` —
  plain validation of an XML document (``--stream`` validates event-driven
  from the raw bytes, never building a tree);
* ``repro-design bench-stream --peers 8 --documents 40`` — compare the
  streaming validation path against the tree-based one on a synthetic
  publication stream (wall-clock and peak memory);
* ``repro-design distributed --peers 8 --documents 64 --workers 4`` —
  replay a synthetic distributed-validation workload through the serial,
  sharded-runtime and (optionally) centralized strategies and compare
  wall-clock, throughput, messages and bytes shipped;
* ``repro-design serve --port 7421`` — run the validation service: an
  asyncio TCP server speaking the frame protocol of
  :mod:`repro.service.protocol` over the distributed runtime;
* ``repro-design bench-serve --peers 8 --documents 64`` — boot a service
  on an ephemeral loopback port and drive it with the open-/closed-loop
  load generator;
* ``repro-design directory --port 7500`` — run a federation directory
  server (pod membership with heartbeat leases, typing versions, global
  verdicts);
* ``repro-design pod --pod-id pod-0 --directory HOST:PORT`` — run one
  federation peer pod joined to its directory;
* ``repro-design federate --pods 2 --spawn process`` — spawn a directory
  plus N pods, replay a synthetic workload through the federation and
  differentially check verdicts and state digests against a
  single-process runtime;
* ``repro-design stats HOST:PORT`` — fetch a live server's metrics
  snapshot (``--watch N`` keeps refreshing it);
* ``repro-design trace HOST:PORT --id TRACE`` — reconstruct one
  publication's lifecycle from the event rings (a directory endpoint
  fans out to every live pod, merging the rings by timestamp);
* ``repro-design logs HOST:PORT --level warning`` — the same rings'
  events at or above a severity floor, traced or not;
* ``repro-design profile HOST:PORT --duration 2`` — sample a live
  member's stacks and print flamegraph-compatible collapsed output;
* ``repro-design slo HOST:PORT`` — summarize latency objectives and
  error-budget burn rates (exit 1 when an objective is violated).

Every subcommand accepts ``--json`` for machine-readable output (what CI
and scripts consume).

Schema files may use either the W3C ``<!ELEMENT ...>`` syntax or the paper's
arrow notation (``name -> content``); see :mod:`repro.schemas.dtd_text`.
"""

from __future__ import annotations

import argparse
import codecs
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.api import analyze_design, bottom_up_design, kernel, top_down_design
from repro.engine import CompilationEngine, use_engine
from repro.errors import ReproError
from repro.schemas.dtd_text import parse_dtd_text
from repro.trees.term import parse_term
from repro.trees.xml_io import tree_from_xml


def _load_schema(path: str, start: Optional[str] = None):
    text = Path(path).read_text(encoding="utf-8")
    return parse_dtd_text(text, start=start)


def _xml_payload(payload: bytes) -> Optional[bytes]:
    """The XML document in a file's bytes, or ``None`` for term notation.

    Markup may follow a UTF-8 byte order mark and whitespace; the XML
    parser then honours the document's own encoding declaration.
    """
    body = payload.removeprefix(codecs.BOM_UTF8).lstrip()
    return body if body.startswith(b"<") else None


def _load_document(path: str):
    payload = Path(path).read_bytes()
    xml = _xml_payload(payload)
    if xml is not None:
        return tree_from_xml(xml)
    try:
        text = payload.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise ReproError("the document is neither XML nor UTF-8 term notation") from None
    return parse_term(text.strip())


def _add_common_kernel_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel",
        required=True,
        help="kernel document in term notation, e.g. \"eurostat(averages(f0) f1 f2)\"",
    )


def _add_stats_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the compilation-engine cache statistics (hit rates) after the run",
    )


def _add_json_argument(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--json", action="store_true", help=f"emit {what} as machine-readable JSON"
    )


def _add_metrics_port_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a Prometheus /metrics exposition over HTTP on this port "
        "(0 picks an ephemeral one; the bound port is announced and in ping limits)",
    )


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        raise ReproError(f"cannot parse endpoint {text!r}; expected HOST:PORT")
    return host, int(port_text)


def _emit_json(payload: dict) -> None:
    """The one JSON report emitter every ``--json`` flag funnels through."""
    print(json.dumps(payload, indent=2, sort_keys=True))


def _typing_dict(typing) -> dict:
    return {function: schema.describe() for function, schema in typing.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-design",
        description="Analyse distributed XML designs (Abiteboul, Gottlob, Manna; PODS 2009).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    topdown = subparsers.add_parser("topdown", help="propagate a global schema into local schemas")
    topdown.add_argument("--schema", required=True, help="path to the global schema document")
    topdown.add_argument("--start", help="root element (defaults to the first declared element)")
    topdown.add_argument("--maximal", type=int, default=4, help="how many maximal local typings to list")
    _add_common_kernel_argument(topdown)
    _add_stats_argument(topdown)
    _add_json_argument(topdown, "the analysis report")

    bottomup = subparsers.add_parser("bottomup", help="decide cons[S] for local schemas")
    _add_common_kernel_argument(bottomup)
    _add_stats_argument(bottomup)
    _add_json_argument(bottomup, "the consistency report")
    bottomup.add_argument(
        "--type",
        action="append",
        default=[],
        metavar="FUNCTION=SCHEMA.dtd",
        help="local schema of one resource (repeatable)",
    )

    validate = subparsers.add_parser("validate", help="validate a document against a schema")
    validate.add_argument("--schema", required=True, help="path to the schema document")
    validate.add_argument("--start", help="root element (defaults to the first declared element)")
    validate.add_argument("--document", required=True, help="path to the document (XML or term notation)")
    validate.add_argument(
        "--stream",
        action="store_true",
        help="validate event-driven from the raw XML bytes (no tree is built; "
        "handles documents deeper/larger than the tree path)",
    )
    validate.add_argument(
        "--chunk-bytes", type=int, default=65536, help="chunk size of the streaming feed"
    )
    _add_stats_argument(validate)
    _add_json_argument(validate, "the verdict")

    distributed = subparsers.add_parser(
        "distributed",
        help="replay a synthetic distributed-validation workload through the runtime",
    )
    distributed.add_argument("--peers", type=int, default=8, help="number of resource peers")
    distributed.add_argument(
        "--documents", type=int, default=64, help="total publications (initial seeds + edits)"
    )
    distributed.add_argument("--workers", type=int, default=4, help="thread-pool size")
    distributed.add_argument("--shards", type=int, default=None, help="shard count (default: workers)")
    distributed.add_argument("--seed", type=int, default=0, help="workload random seed")
    distributed.add_argument(
        "--invalid-rate", type=float, default=0.05, help="probability of a corrupt publication"
    )
    distributed.add_argument(
        "--records", type=int, default=12, help="records per document (document size knob)"
    )
    distributed.add_argument(
        "--fields", type=int, default=6, help="fields per record (document size knob)"
    )
    distributed.add_argument(
        "--serial-only",
        action="store_true",
        help="replay only the serial baseline (no runtime strategy)",
    )
    distributed.add_argument(
        "--centralized",
        action="store_true",
        help="also replay the centralized ship-everything strategy",
    )
    distributed.add_argument(
        "--json", action="store_true", help="emit the report as machine-readable JSON"
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the validation service (asyncio TCP server over the runtime)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument("--port", type=int, default=7421, help="TCP port (0 picks an ephemeral one)")
    serve.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write the bound port to this file once listening (for scripts and CI)",
    )
    serve.add_argument(
        "--shutdown-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="shut down after this many seconds (otherwise serve until a shutdown request)",
    )
    serve.add_argument("--workers", type=int, default=4, help="runtime thread-pool size per design")
    serve.add_argument(
        "--max-frame-bytes", type=int, default=None, help="reject frames larger than this"
    )
    serve.add_argument(
        "--max-batch", type=int, default=None, help="publications coalesced per micro-batch"
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.0,
        help="seconds to wait for stragglers before dispatching a micro-batch",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="shed publishes with a typed overloaded/retry-after frame past this queue depth",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        help="per-client token-bucket admission rate (publications/second; default unlimited)",
    )
    serve.add_argument(
        "--rate-burst",
        type=float,
        default=None,
        help="token-bucket burst capacity (default: the rate, min 1)",
    )
    serve.add_argument(
        "--stream-ttl",
        type=float,
        default=None,
        help="reap idle publication streams after this many seconds (default 120)",
    )
    serve.add_argument(
        "--stream-inline-threshold",
        type=int,
        default=None,
        help="publish payloads at least this many bytes settle via streaming ingest (default 1 MiB)",
    )
    serve.add_argument(
        "--max-streams-per-shard",
        type=int,
        default=None,
        help="cap concurrently-open streams per runtime shard (default 64)",
    )
    serve.add_argument(
        "--preload-peers",
        type=int,
        default=None,
        metavar="N",
        help="pre-register a synthetic N-peer record workload as design 'workload'",
    )
    serve.add_argument("--preload-seed", type=int, default=0, help="seed of the preloaded workload")
    _add_metrics_port_argument(serve)
    serve.add_argument(
        "--json", action="store_true", help="announce the endpoint as one JSON line"
    )

    bench_stream = subparsers.add_parser(
        "bench-stream",
        help="compare streaming (no-tree) validation against the tree-based path",
    )
    bench_stream.add_argument("--peers", type=int, default=8, help="number of resource peers")
    bench_stream.add_argument(
        "--documents", type=int, default=40, help="total publications (initial seeds + edits)"
    )
    bench_stream.add_argument("--seed", type=int, default=0, help="workload random seed")
    bench_stream.add_argument(
        "--invalid-rate", type=float, default=0.05, help="probability of a corrupt publication"
    )
    bench_stream.add_argument(
        "--records", type=int, default=12, help="records per document (document size knob)"
    )
    bench_stream.add_argument(
        "--fields", type=int, default=6, help="fields per record (document size knob)"
    )
    bench_stream.add_argument(
        "--chunk-bytes", type=int, default=65536, help="chunk size of the streaming feed"
    )
    bench_stream.add_argument("--rounds", type=int, default=5, help="timed rounds per path")
    bench_stream.add_argument(
        "--json", action="store_true", help="emit the comparison as machine-readable JSON"
    )

    bench_serve = subparsers.add_parser(
        "bench-serve",
        help="boot a service on loopback and drive it with the load generator",
    )
    bench_serve.add_argument("--peers", type=int, default=8, help="number of resource peers")
    bench_serve.add_argument(
        "--documents", type=int, default=64, help="total publications (initial seeds + edits)"
    )
    bench_serve.add_argument("--seed", type=int, default=0, help="workload random seed")
    bench_serve.add_argument(
        "--invalid-rate", type=float, default=0.05, help="probability of a corrupt publication"
    )
    bench_serve.add_argument(
        "--records", type=int, default=12, help="records per document (document size knob)"
    )
    bench_serve.add_argument(
        "--fields", type=int, default=6, help="fields per record (document size knob)"
    )
    bench_serve.add_argument(
        "--mode", choices=("closed", "open"), default="closed", help="load-generation discipline"
    )
    bench_serve.add_argument("--clients", type=int, default=4, help="concurrent client connections")
    bench_serve.add_argument(
        "--pipeline", type=int, default=8, help="closed loop: in-flight publications per client"
    )
    bench_serve.add_argument(
        "--rate", type=float, default=None, help="open loop: offered publications per second"
    )
    bench_serve.add_argument("--workers", type=int, default=4, help="runtime thread-pool size")
    bench_serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="server sheds publishes past this admission-queue depth (overload benching)",
    )
    bench_serve.add_argument(
        "--retry-attempts",
        type=int,
        default=None,
        metavar="N",
        help="publish through the retry/backoff client with N attempts (overload survival)",
    )
    bench_serve.add_argument(
        "--retry-seed", type=int, default=0, help="seed of the retry policy's jitter"
    )
    bench_serve.add_argument(
        "--json", action="store_true", help="emit the load report as machine-readable JSON"
    )

    directory = subparsers.add_parser(
        "directory",
        help="run a federation directory server (membership, leases, global verdicts)",
    )
    directory.add_argument("--host", default="127.0.0.1", help="interface to bind")
    directory.add_argument("--port", type=int, default=7500, help="TCP port (0 picks an ephemeral one)")
    directory.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write the bound port to this file once listening (for scripts and CI)",
    )
    directory.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds a pod's membership lease stays fresh between heartbeats",
    )
    directory.add_argument(
        "--shutdown-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="shut down after this many seconds (otherwise serve until a shutdown request)",
    )
    directory.add_argument("--workers", type=int, default=2, help="runtime thread-pool size per design")
    _add_metrics_port_argument(directory)
    _add_json_argument(directory, "the endpoint announcement")

    pod = subparsers.add_parser(
        "pod",
        help="run one federation peer pod joined to a directory",
    )
    pod.add_argument("--host", default="127.0.0.1", help="interface to bind")
    pod.add_argument("--port", type=int, default=0, help="TCP port (0 picks an ephemeral one)")
    pod.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write the bound port to this file once listening (for scripts and CI)",
    )
    pod.add_argument("--pod-id", required=True, help="this pod's federation identity")
    pod.add_argument(
        "--directory",
        default=None,
        metavar="HOST:PORT",
        help="directory endpoint to join (omit to run an unfederated pod)",
    )
    pod.add_argument(
        "--lease-interval",
        type=float,
        default=5.0,
        help="seconds between lease-renewal heartbeats to the directory",
    )
    pod.add_argument(
        "--shutdown-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="shut down after this many seconds (otherwise serve until a shutdown request)",
    )
    pod.add_argument("--workers", type=int, default=2, help="runtime thread-pool size per design")
    _add_metrics_port_argument(pod)
    _add_json_argument(pod, "the endpoint announcement")

    stats = subparsers.add_parser(
        "stats",
        help="fetch a live server's metrics snapshot over the wire protocol",
    )
    stats.add_argument("endpoint", metavar="HOST:PORT", help="server endpoint to query")
    stats.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="refresh the snapshot every N seconds until interrupted",
    )
    _add_json_argument(stats, "the metrics snapshot")

    for op, summary in (
        ("trace", "reconstruct a publication's lifecycle from the event rings"),
        ("logs", "the event rings' events at or above a severity floor, traced or not"),
    ):
        events = subparsers.add_parser(op, help=summary)
        events.add_argument(
            "endpoint",
            metavar="HOST:PORT",
            help="server endpoint to query (a directory fans out to its live pods)",
        )
        events.add_argument(
            "--id",
            dest="trace_id",
            default=None,
            metavar="TRACE",
            help="only this trace id's events (default: the whole ring)",
        )
        if op == "logs":
            events.add_argument(
                "--level",
                default=None,
                choices=("debug", "info", "warning", "error"),
                help="only events at or above this severity (default: the member's floor)",
            )
        events.add_argument(
            "--limit", type=int, default=None, help="at most this many events per member"
        )
        _add_json_argument(events, "the events")

    profile = subparsers.add_parser(
        "profile",
        help="sample a live member's stacks and print flamegraph collapsed output",
    )
    profile.add_argument("endpoint", metavar="HOST:PORT", help="server endpoint to profile")
    profile.add_argument(
        "--duration",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="sample for this long, then fetch and stop (default: 2s)",
    )
    profile.add_argument(
        "--hz", type=float, default=None, help="sampling rate (default: the server's)"
    )
    profile.add_argument(
        "--action",
        default=None,
        choices=("start", "stop", "status", "fetch"),
        help="issue one profiler action instead of a timed start/fetch/stop run",
    )
    profile.add_argument(
        "--limit", type=int, default=None, help="at most this many collapsed stacks"
    )
    _add_json_argument(profile, "the profiler snapshot")

    slo = subparsers.add_parser(
        "slo",
        help="summarize a live server's SLO posture (latency objectives, burn rates)",
    )
    slo.add_argument("endpoint", metavar="HOST:PORT", help="server endpoint to query")
    _add_json_argument(slo, "the SLO summary")

    federate = subparsers.add_parser(
        "federate",
        help="spawn a directory + N pods and differentially check a workload through them",
    )
    federate.add_argument("--pods", type=int, default=2, help="number of peer pods")
    federate.add_argument(
        "--spawn",
        choices=("thread", "process"),
        default="thread",
        help="run the directory and pods on threads in this process, or as child processes",
    )
    federate.add_argument("--peers", type=int, default=4, help="number of resource peers")
    federate.add_argument(
        "--documents", type=int, default=12, help="total publications (initial seeds + edits)"
    )
    federate.add_argument("--seed", type=int, default=0, help="workload random seed")
    federate.add_argument(
        "--invalid-rate", type=float, default=0.25, help="probability of a corrupt publication"
    )
    federate.add_argument("--workers", type=int, default=2, help="runtime thread-pool size per pod")
    _add_json_argument(federate, "the federation report")

    return parser


def _run_topdown(args: argparse.Namespace) -> int:
    target = _load_schema(args.schema, args.start)
    design = top_down_design(target, kernel(args.kernel))
    report = analyze_design(design, maximal_limit=args.maximal)
    if args.json:
        _emit_json(
            {
                "design": "topdown",
                "schema_language": design.schema_language,
                "kernel": str(design.kernel),
                "local_typing_exists": report.has_local_typing,
                "perfect_typing_exists": report.has_perfect_typing,
                "perfect_typing": (
                    _typing_dict(report.perfect_typing) if report.perfect_typing else None
                ),
                "maximal_local_typings": [
                    _typing_dict(typing) for typing in report.maximal_local_typings
                ],
            }
        )
    else:
        print(report.summary())
    return 0 if report.has_local_typing else 1


def _run_bottomup(args: argparse.Namespace) -> int:
    if not args.type:
        raise ReproError("at least one --type FUNCTION=SCHEMA assignment is required")
    types = {}
    for assignment in args.type:
        if "=" not in assignment:
            raise ReproError(f"cannot parse --type {assignment!r}; expected FUNCTION=SCHEMA-FILE")
        function, path = assignment.split("=", 1)
        types[function.strip()] = _load_schema(path.strip())
    design = bottom_up_design(types, kernel(args.kernel))
    report = analyze_design(design)
    consistent = report.consistency.get("DTD")
    if args.json:
        _emit_json(
            {
                "design": "bottomup",
                "kernel": str(design.kernel),
                "consistency": {
                    language: {
                        "consistent": result.consistent,
                        "reason": result.reason,
                        "type_size": result.type_size if result.consistent else None,
                        "result_type": (
                            result.result_type.describe()
                            if result.result_type is not None
                            else None
                        ),
                    }
                    for language, result in report.consistency.items()
                },
            }
        )
        return 0
    print(report.summary())
    if consistent is not None and consistent.consistent and consistent.result_type is not None:
        print("\ntypeT(τn) as a DTD:")
        print(consistent.result_type.describe())
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    from repro.engine import BatchValidator

    schema = _load_schema(args.schema, args.start)
    error: Optional[str] = None
    if args.stream:
        from repro.streaming import streaming_validator_for

        payload = _xml_payload(Path(args.document).read_bytes())
        if payload is None:
            raise ReproError("--stream validates raw XML; the document is not XML")
        validator = streaming_validator_for(schema)
        valid = validator.validate_payload(payload, args.chunk_bytes)
        mode = "stream"
    else:
        document = _load_document(args.document)
        # Membership runs on the compiled schema (so --stats is meaningful and
        # repeated validations share the compilation); the uncompiled path is
        # only consulted for the human-readable explanation of a failure.
        valid = BatchValidator(schema).validate(document)
        if not valid:
            error = str(schema.validation_error(document))
        mode = "tree"
    if args.json:
        _emit_json({"valid": valid, "mode": mode, "error": error})
    elif valid:
        print("valid")
    else:
        print("invalid" if error is None else f"invalid: {error}")
    return 0 if valid else 1


def _run_distributed(args: argparse.Namespace) -> int:
    from repro.api import DesignSession

    strategies = ["serial"]
    if not args.serial_only:
        strategies.append("runtime")
    if args.centralized:
        strategies.append("centralized")
    report = DesignSession.run_workload(
        peers=args.peers,
        documents=args.documents,
        workers=args.workers,
        shards=args.shards,
        seed=args.seed,
        invalid_rate=args.invalid_rate,
        records=args.records,
        fields=args.fields,
        strategies=tuple(strategies),
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    if not report.verdicts_agree:
        print("error: the strategies disagree on at least one round", file=sys.stderr)
        return 1
    return 0


def _serve_until_shutdown(server, args: argparse.Namespace, role: str, extra=None) -> int:
    """The serving core shared by ``serve``, ``directory`` and ``pod``.

    Runs ``server`` until a shutdown request: installs SIGINT/SIGTERM
    handlers that trigger the same graceful close as a shutdown frame,
    announces the endpoint (one JSON line under ``--json``), writes the
    bound port atomically to ``--port-file`` for pollers, and honours
    ``--shutdown-after``.
    """
    import asyncio

    async def serve() -> None:
        import signal

        loop = asyncio.get_running_loop()
        # Ctrl-C / SIGTERM trigger the same graceful close as a shutdown
        # request: drain the admission queue, notify clients, join threads.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, RuntimeError):  # non-unix platforms
                pass
        await server.start()
        endpoint = {"role": role, "host": server.host, "port": server.port}
        if extra is not None:
            endpoint.update(extra(server))
        if args.json:
            print(json.dumps(endpoint), flush=True)
        else:
            print(f"{role} listening on {server.host}:{server.port}", flush=True)
        if args.port_file is not None:
            # Atomic: pollers watching for the file must never read it empty.
            import os

            staging = args.port_file.with_name(args.port_file.name + ".tmp")
            staging.write_text(str(server.port), encoding="utf-8")
            os.replace(staging, args.port_file)
        if args.shutdown_after is not None:
            loop.call_later(args.shutdown_after, server.request_shutdown)
        await server.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        # Signal handler unavailable (non-unix): the loop died mid-flight
        # with connections beyond help; still join executor and runtime
        # threads so the process exits clean.
        server.close_threads()
    if not args.json:
        print(f"{role} stopped")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service.protocol import MAX_FRAME_BYTES
    from repro.service.server import DEFAULT_MAX_BATCH, ValidationServer
    from repro.workloads.synthetic import distributed_workload

    overload_options = {}
    for name in (
        "max_queue_depth",
        "rate_limit",
        "rate_burst",
        "stream_ttl",
        "stream_inline_threshold",
        "max_streams_per_shard",
    ):
        value = getattr(args, name)
        if value is not None:  # None keeps the server's documented default
            overload_options[name] = value
    server = ValidationServer(
        host=args.host,
        port=args.port,
        max_frame_bytes=args.max_frame_bytes if args.max_frame_bytes is not None else MAX_FRAME_BYTES,
        max_batch=args.max_batch if args.max_batch is not None else DEFAULT_MAX_BATCH,
        batch_window=args.batch_window,
        runtime_workers=args.workers,
        metrics_port=args.metrics_port,
        **overload_options,
    )
    if args.preload_peers:
        workload = distributed_workload(
            peers=args.preload_peers, documents=args.preload_peers, seed=args.preload_seed
        )
        server.preload_design(
            "workload", workload.kernel, workload.typing, workload.initial_documents
        )
    return _serve_until_shutdown(
        server,
        args,
        "validation service",
        extra=lambda s: {"designs": sorted(s._designs), "metrics_port": s.metrics_port},
    )


def _run_directory(args: argparse.Namespace) -> int:
    from repro.federation import DirectoryServer

    server = DirectoryServer(
        host=args.host,
        port=args.port,
        lease_ttl=args.lease_ttl,
        runtime_workers=args.workers,
        metrics_port=args.metrics_port,
    )
    return _serve_until_shutdown(
        server,
        args,
        "federation directory",
        extra=lambda s: {"lease_ttl": s.lease_ttl, "metrics_port": s.metrics_port},
    )


def _run_pod(args: argparse.Namespace) -> int:
    from repro.federation import PodServer

    directory_host, directory_port = None, None
    if args.directory is not None:
        endpoint, _, port_text = args.directory.rpartition(":")
        if not endpoint or not port_text.isdigit():
            raise ReproError(f"cannot parse --directory {args.directory!r}; expected HOST:PORT")
        directory_host, directory_port = endpoint, int(port_text)
    server = PodServer(
        host=args.host,
        port=args.port,
        pod_id=args.pod_id,
        directory_host=directory_host,
        directory_port=directory_port,
        lease_interval=args.lease_interval,
        runtime_workers=args.workers,
        metrics_port=args.metrics_port,
    )
    return _serve_until_shutdown(
        server,
        args,
        f"federation pod {args.pod_id}",
        extra=lambda s: {
            "pod": s.pod_id,
            "directory": args.directory,
            "metrics_port": s.metrics_port,
        },
    )


def _stats_summary(snapshot: dict) -> str:
    service = snapshot.get("service", snapshot)
    counters = service.get("counters", {})
    histograms = service.get("histograms", {})
    lines = ["counters:"]
    for name in sorted(counters):
        lines.append(f"  {name:<32} {counters[name]}")
    if histograms:
        lines.append("histograms (count / p50 / p99 ms):")
        for name in sorted(histograms):
            h = histograms[name]
            lines.append(
                f"  {name:<32} {h.get('count', 0):>6}  "
                f"{h.get('p50', 0.0):>9.3f}  {h.get('p99', 0.0):>9.3f}"
            )
    return "\n".join(lines)


def _run_stats(args: argparse.Namespace) -> int:
    import time

    from repro.service.client import ServiceClient
    from repro.service.protocol import ServiceError

    host, port = _parse_endpoint(args.endpoint)
    try:
        while True:
            try:
                client = ServiceClient(host, port)
                try:
                    snapshot = client.stats()
                finally:
                    client.close()
            except (ServiceError, ConnectionError, OSError) as error:
                # In watch mode a server that goes away mid-session is the
                # expected end of the story, not a stack trace.
                if args.watch is None:
                    if isinstance(error, ServiceError):
                        raise
                    raise ServiceError(
                        "connection-lost", f"cannot reach {host}:{port}: {error}"
                    ) from None
                print("server gone")
                return 0
            if args.json:
                _emit_json(snapshot)
            else:
                print(_stats_summary(snapshot))
            if args.watch is None:
                return 0
            time.sleep(max(0.1, args.watch))
            if not args.json:
                print()
    except KeyboardInterrupt:
        return 0


def _collect_ring_events(endpoint: str, fetch) -> list[dict]:
    """This endpoint's ring, plus -- via the directory's membership view --
    every live pod's, so one command reconstructs a publication's story
    across a whole process federation.  ``fetch(client)`` pulls one
    member's events."""
    from repro.service.client import ServiceClient
    from repro.service.protocol import ServiceError

    host, port = _parse_endpoint(endpoint)
    events: list[dict] = []
    client = ServiceClient(host, port)
    try:
        events.extend(fetch(client))
        try:
            members = client.membership()["pods"]
        except ServiceError:  # a plain server or pod: nothing to fan out to
            members = {}
    finally:
        client.close()
    for _pod_id, record in sorted(members.items()):
        pod_endpoint = record.get("endpoint")
        if not pod_endpoint or record.get("expired"):
            continue
        peer = ServiceClient(str(pod_endpoint[0]), int(pod_endpoint[1]))
        try:
            events.extend(fetch(peer))
        except (ServiceError, OSError):
            pass  # a pod mid-restart; the remaining rings still tell the story
        finally:
            peer.close()
    events.sort(key=lambda event: event.get("ts", 0.0))
    return events


def _run_events(args: argparse.Namespace) -> int:
    """``trace`` and ``logs``: one export of the event rings, one printer."""
    filters = {"trace_id": args.trace_id, "limit": args.limit}
    if args.command == "logs":
        filters["level"] = args.level
    events = _collect_ring_events(
        args.endpoint, lambda client: getattr(client, args.command)(**filters)["events"]
    )
    if args.json:
        _emit_json({"trace": args.trace_id, "events": events})
        return 0 if events else 1
    if not events:
        print("no events recorded")
        return 1
    base = events[0].get("ts", 0.0)
    for event in events:
        offset = 1000 * (event.get("ts", base) - base)
        ms = event.get("ms")
        took = f"  took {ms:.3f} ms" if isinstance(ms, (int, float)) else ""
        attrs = " ".join(
            f"{key}={event[key]}"
            for key in sorted(event)
            if key not in ("trace", "level", "name", "component", "ts", "ms")
        )
        line = (
            f"+{offset:9.3f} ms  {event.get('level', '?'):<7} "
            f"[{event.get('component', '?'):<12}] {event.get('name', '?'):<18}{took}"
        )
        print(f"{line}  {attrs}".rstrip())
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    import time

    from repro.service.client import ServiceClient

    host, port = _parse_endpoint(args.endpoint)
    client = ServiceClient(host, port)
    try:
        if args.action is not None:
            result = client.profile(args.action, hz=args.hz, limit=args.limit)
        else:
            # The default worked example: start, sample for --duration,
            # fetch the collapsed stacks, stop.
            client.profile("start", hz=args.hz)
            time.sleep(max(0.0, args.duration))
            result = client.profile("fetch", limit=args.limit)
            client.profile("stop")
    finally:
        client.close()
    if args.json:
        _emit_json(result)
        return 0
    collapsed = result.get("collapsed")
    if collapsed:
        print(collapsed)
    print(
        f"# samples={result.get('samples', 0)} stacks={result.get('stacks', 0)} "
        f"hz={result.get('hz')} running={result.get('running')}",
        file=sys.stderr,
    )
    return 0


def _run_slo(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    host, port = _parse_endpoint(args.endpoint)
    client = ServiceClient(host, port)
    try:
        snapshot = client.stats()
    finally:
        client.close()
    slo = snapshot.get("slo")
    if not isinstance(slo, dict):
        print("error: this server reports no SLO summary", file=sys.stderr)
        return 1
    if args.json:
        _emit_json(slo)
        return 0 if slo.get("ok") else 1
    print(f"SLO posture: {'OK' if slo.get('ok') else 'VIOLATED'}")
    print(
        f"  error budget {slo.get('error_budget')} over "
        f"{slo.get('requests_total', 0)} requests "
        f"({slo.get('budget_errors_total', 0)} budget-spending errors)"
    )
    for window, rate in sorted((slo.get("burn_rates") or {}).items()):
        print(f"  burn rate [{window:>5}]: {rate:8.4f}")
    latency = slo.get("latency") or {}
    for op in sorted(latency):
        entry = latency[op]
        marker = "ok" if entry.get("ok") else "VIOLATED"
        print(
            f"  latency {op:<20} p99 {entry.get('p99_ms', 0.0):9.3f} ms "
            f"(target {entry.get('target_ms', 0.0):9.3f} ms, "
            f"n={entry.get('count', 0)}) {marker}"
        )
    return 0 if slo.get("ok") else 1


def _run_federate(args: argparse.Namespace) -> int:
    from repro.distributed.network import DistributedDocument
    from repro.distributed.runtime import ValidationRuntime
    from repro.federation import Federation
    from repro.service.loadgen import publication_stream
    from repro.workloads.synthetic import distributed_workload

    workload = distributed_workload(
        peers=args.peers,
        documents=args.documents,
        seed=args.seed,
        invalid_rate=args.invalid_rate,
    )
    reference = ValidationRuntime(
        DistributedDocument(workload.kernel, dict(workload.initial_documents)),
        max_workers=args.workers,
    )
    reference.propagate_typing(workload.typing)
    publications = list(publication_stream(workload))
    mismatches = 0
    with Federation(
        workload.kernel,
        workload.typing,
        workload.initial_documents,
        pods=args.pods,
        spawn=args.spawn,
        workers=args.workers,
    ) as federation:
        for function, payload in publications:
            federation.publish(function, payload)
            # The publish reply implies the directory already holds this
            # pod's verdict, so the global verdict is strictly consistent.
            fed_valid = federation.global_verdict()["valid"]
            reference.publish(function, payload)
            ref_valid = reference.validate_locally().valid
            if fed_valid is None or bool(fed_valid) is not bool(ref_valid):
                mismatches += 1
        verdict = federation.global_verdict()
        digest_fed = federation.state_digest()
        acks_fed = federation.peer_acks()
        description = federation.describe()
        closed = federation.close()
    digest_ref = reference.state_digest()
    acks_ref = reference.peer_acks()
    reference.close()
    report = {
        "spawn": args.spawn,
        "pods": len(description["pods"]),
        "publications": len(publications),
        "verdict_mismatches": mismatches,
        "global_verdict": verdict,
        "digest_federated": digest_fed,
        "digest_reference": digest_ref,
        "digests_match": digest_fed == digest_ref,
        "acks_match": acks_fed == acks_ref,
        "clean_shutdown": closed["clean"],
    }
    ok = (
        mismatches == 0
        and report["digests_match"]
        and report["acks_match"]
        and verdict["complete"]
        and closed["clean"]
    )
    if args.json:
        _emit_json(report)
    else:
        print(
            f"federation of {report['pods']} pods ({args.spawn} spawn): "
            f"{report['publications']} publications"
        )
        print(f"  global verdict: valid={verdict['valid']} complete={verdict['complete']}")
        print(f"  verdict mismatches vs in-process runtime: {mismatches}")
        print(f"  state digests match: {report['digests_match']}")
        print(f"  per-peer acks match: {report['acks_match']}")
        print(f"  clean shutdown: {closed['clean']}")
    if not ok:
        print("error: federation differential check failed", file=sys.stderr)
        return 1
    return 0


def _run_bench_stream(args: argparse.Namespace) -> int:
    import time
    import tracemalloc

    from repro.engine import BatchValidator
    from repro.service.loadgen import publication_stream
    from repro.streaming import streaming_validator_for
    from repro.trees.xml_io import tree_from_xml
    from repro.workloads.synthetic import distributed_workload

    workload = distributed_workload(
        peers=args.peers,
        documents=args.documents,
        seed=args.seed,
        invalid_rate=args.invalid_rate,
        records=args.records,
        fields=args.fields,
    )
    # The same publication stream the workload driver and load generator
    # replay: every peer re-publishes each round, one peer changes content.
    publications = [(f, p.encode("utf-8")) for f, p in publication_stream(workload)]
    batch = {f: BatchValidator(workload.typing[f]) for f in workload.initial_documents}
    stream = {f: streaming_validator_for(workload.typing[f]) for f in workload.initial_documents}

    def tree_pass() -> list[bool]:
        return [batch[f].validate(tree_from_xml(p)) for f, p in publications]

    def stream_pass() -> list[bool]:
        return [stream[f].validate_payload(p, args.chunk_bytes) for f, p in publications]

    if tree_pass() != stream_pass():
        print("error: streaming and tree-based verdicts disagree", file=sys.stderr)
        return 1

    def best_ms(run) -> float:
        best = float("inf")
        for _ in range(max(1, args.rounds)):
            started = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - started)
        return 1000 * best

    def peak_bytes(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    function, largest = max(publications, key=lambda item: len(item[1]))
    tree_ms, stream_ms = best_ms(tree_pass), best_ms(stream_pass)
    comparison = {
        "publications": len(publications),
        "payload_bytes_total": sum(len(p) for _f, p in publications),
        "chunk_bytes": args.chunk_bytes,
        "tree_ms": round(tree_ms, 3),
        "stream_ms": round(stream_ms, 3),
        "speedup": round(tree_ms / max(stream_ms, 1e-9), 2),
        "tree_peak_kib": round(
            peak_bytes(lambda: batch[function].validate(tree_from_xml(largest))) / 1024, 1
        ),
        "stream_peak_kib": round(
            peak_bytes(lambda: stream[function].validate_payload(largest, args.chunk_bytes)) / 1024,
            1,
        ),
    }
    if args.json:
        print(json.dumps(comparison, indent=2, sort_keys=True))
    else:
        print(
            f"{comparison['publications']} publications, "
            f"{comparison['payload_bytes_total']} payload bytes"
        )
        print(f"tree path:      {comparison['tree_ms']:9.3f} ms  "
              f"(peak {comparison['tree_peak_kib']} KiB on the largest document)")
        print(f"streaming path: {comparison['stream_ms']:9.3f} ms  "
              f"(peak {comparison['stream_peak_kib']} KiB on the largest document)")
        print(f"speedup: {comparison['speedup']}x")
    return 0


def _run_bench_serve(args: argparse.Namespace) -> int:
    from repro.service.client import RetryPolicy
    from repro.service.loadgen import run_load
    from repro.service.server import ServiceHandle, ValidationServer
    from repro.workloads.synthetic import distributed_workload

    workload = distributed_workload(
        peers=args.peers,
        documents=args.documents,
        seed=args.seed,
        invalid_rate=args.invalid_rate,
        records=args.records,
        fields=args.fields,
    )
    server_options = {}
    if args.max_queue_depth is not None:
        server_options["max_queue_depth"] = args.max_queue_depth
    server = ValidationServer(
        runtime_workers=args.workers, **server_options
    )
    retry = None
    if args.retry_attempts is not None:
        retry = RetryPolicy(attempts=args.retry_attempts, seed=args.retry_seed)
    with ServiceHandle(server).start() as handle:
        report = run_load(
            handle.host,
            handle.port,
            workload,
            mode=args.mode,
            clients=args.clients,
            pipeline=args.pipeline,
            rate=args.rate,
            retry=retry,
        )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 1 if report.errors else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-design`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "topdown": _run_topdown,
        "bottomup": _run_bottomup,
        "validate": _run_validate,
        "distributed": _run_distributed,
        "serve": _run_serve,
        "bench-stream": _run_bench_stream,
        "bench-serve": _run_bench_serve,
        "directory": _run_directory,
        "pod": _run_pod,
        "federate": _run_federate,
        "stats": _run_stats,
        "trace": _run_events,
        "logs": _run_events,
        "profile": _run_profile,
        "slo": _run_slo,
    }
    # Each invocation runs on a fresh engine so that --stats reports the hit
    # rates of this run alone, not of the whole process.
    engine = CompilationEngine()
    try:
        with use_engine(engine):
            status = handlers[args.command](args)
    except (ReproError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if getattr(args, "stats", False):
        print()
        print(engine.stats_report())
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
