"""Outside-in layer tracing: spans around the public functions of each layer.

Nothing in ``repro`` is edited.  :func:`install` replaces public functions
and methods with timing wrappers, patching each name where its consumers
look it up (``repro.distributed.runtime.runtime.tree_from_xml`` as well as
``repro.trees.xml_io.tree_from_xml``).  ``sitecustomize`` in this directory
calls it at interpreter start in every server process when the
``PERFBENCH_SPANS`` environment variable names an output directory.

One span is one int64 record of :data:`FIELDS`:

* ``start``/``end`` -- ``perf_counter_ns`` (CLOCK_MONOTONIC on Linux, so
  spans of different processes share one time axis with the generator);
* ``cpu`` -- thread CPU (``thread_time_ns``) the call consumed.  Busy time
  is ``cpu - gc``; wait is ``end - start - cpu``.  Async wrappers record wall
  time only (``cpu = -1``) and stay outside the per-thread nesting;
* ``parent`` -- the ``sid`` of the enclosing span on the same thread, or -1;
* ``gc`` -- CPU of garbage collections that ran while the span was open;
* ``aux``/``aux2`` -- two integer attributes per span name (see
  :func:`install`).

GC collections are recorded as spans named ``gc.gen0`` .. ``gc.gen2``
through :data:`gc.callbacks`; ``aux`` is the number of objects collected.

Records go to per-thread ``array('q')`` buffers: they are not tracked by
the garbage collector, so recording does not feed the collector it
measures.  :meth:`Recorder.dump` writes them out at exit.
"""

from __future__ import annotations

import array
import atexit
import functools
import gc
import itertools
import json
import os
import threading
from time import perf_counter_ns, thread_time_ns

FIELDS = ("sid", "name", "tid", "start", "end", "cpu", "parent", "gc", "aux", "aux2")

#: Span names; a record stores the index into this tuple.
NAMES = (
    "gc.gen0",
    "gc.gen1",
    "gc.gen2",
    "xml.parse",
    "tree_from_xml",
    "dfa.fold",
    "compile",
    "runtime.round",
    "runtime.map_shards",
    "runtime.publish",
    "fingerprint",
    "runtime.settle_stream",
    "streaming.feed",
    "admission.batch",
    "register.build_design",
    "protocol.decode",
    "protocol.encode",
    "logs.log_flat",
    "network.send",
    "federation.push",
    "typing.perfect",
)
NAME_ID = {name: index for index, name in enumerate(NAMES)}

#: Environment variable naming the directory spans are written to.
SPANS_ENV = "PERFBENCH_SPANS"


def _no_attrs(_args, _result, _failed, _start):
    return 0, 0


class _ElementTreeProxy:
    """``xml.etree.ElementTree`` with one function replaced.

    Installed as ``repro.trees.xml_io.ET`` so the parse inside
    ``tree_from_xml`` becomes a child span without touching the stdlib
    module other layers (the streaming parser) use.
    """

    def __init__(self, module, **overrides) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _ThreadState:
    __slots__ = ("tid", "stack", "buf", "gc_started")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list[list[int]] = []
        self.buf = array.array("q")
        self.gc_started = None


class Recorder:
    """Per-process span store: wrappers, the GC hook and the exit dump."""

    def __init__(self) -> None:
        self._sids = itertools.count()
        self._tids = itertools.count()
        self._local = threading.local()
        self._buffers: list[array.array] = []
        #: (pod, design) -> the acks of the last verdict push, so a push
        #: span can say whether it carried a change.
        self._last_acks: dict = {}

    def _thread(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(next(self._tids))
            self._buffers.append(state.buf)
            self._local.state = state
            return state

    def span(self, fn, name: str, attrs=_no_attrs):
        """Wrap a synchronous callable; ``attrs(args, result, failed, start)``
        returns the record's ``(aux, aux2)``."""
        nid = NAME_ID[name]
        sids, thread = self._sids, self._thread

        def wrapper(*args, **kwargs):
            state = thread()
            stack = state.stack
            sid = next(sids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            result, failed = None, True
            # The wall interval encloses the CPU interval, so wait
            # (wall - cpu) is never negative.
            w0 = perf_counter_ns()
            c0 = thread_time_ns()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                c1 = thread_time_ns()
                w1 = perf_counter_ns()
                stack.pop()
                aux, aux2 = attrs(args, result, failed, w0)
                state.buf.extend(
                    (sid, nid, state.tid, w0, w1, c1 - c0, parent, frame[1], aux, aux2)
                )

        return functools.wraps(fn)(wrapper)

    def push_span(self, fn):
        """Wall-only wrapper for the async ``peer_verdict`` push.

        ``aux`` is 1 when the pushed acks differ from the previous push
        for the same pod and design; ``aux2`` is 1 when the push raised.
        """
        nid = NAME_ID["federation.push"]
        sids, thread, last_acks = self._sids, self._thread, self._last_acks

        async def wrapper(client, pod, design, acks, typing_version, *args, **kwargs):
            state = thread()
            sid = next(sids)
            key = (pod, design)
            changed = int(last_acks.get(key) != acks)
            last_acks[key] = dict(acks)
            failed = 1
            w0 = perf_counter_ns()
            try:
                result = await fn(client, pod, design, acks, typing_version, *args, **kwargs)
                failed = 0
                return result
            finally:
                w1 = perf_counter_ns()
                state.buf.extend((sid, nid, state.tid, w0, w1, -1, -1, 0, changed, failed))

        return functools.wraps(fn)(wrapper)

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: one span per collection, charged to open spans."""
        state = self._thread()
        if phase == "start":
            state.gc_started = (perf_counter_ns(), thread_time_ns())
            return
        started, state.gc_started = state.gc_started, None
        if started is None:
            return
        c1 = thread_time_ns()
        w1 = perf_counter_ns()
        cpu = c1 - started[1]
        stack = state.stack
        for frame in stack:
            frame[1] += cpu
        state.buf.extend(
            (
                next(self._sids),
                info["generation"],
                state.tid,
                started[0],
                w1,
                cpu,
                stack[-1][0] if stack else -1,
                0,
                info.get("collected", 0),
                0,
            )
        )

    def records(self) -> array.array:
        """Every record so far, as one flat int64 array."""
        merged = array.array("q")
        for buf in list(self._buffers):
            merged.extend(buf)
        return merged

    def dump(self, directory: str) -> None:
        """Write ``spans-<pid>.bin`` and then its ``.json`` header."""
        base = os.path.join(directory, f"spans-{os.getpid()}")
        with open(base + ".bin", "wb") as handle:
            self.records().tofile(handle)
        with open(base + ".json", "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "fields": FIELDS, "names": NAMES}, handle)


# --------------------------------------------------------------------------- #
# span attributes
# --------------------------------------------------------------------------- #


def _failed_flag(_args, _result, failed, _start):
    return int(failed), 0


def _truth(_args, result, _failed, _start):
    return int(bool(result)), 0


def _first_arg_len(args, _result, _failed, _start):
    return len(args[0]), 0


def _second_arg_len(args, _result, _failed, _start):
    return len(args[1]), 0


def _result_len(_args, result, _failed, _start):
    return (len(result) if result is not None else 0), 0


def _round_attrs(_args, report, _failed, _start):
    if report is None:
        return 0, 0
    return report.peers_validated, len(report.parse_failures)


def _batch_attrs(args, _result, _failed, start):
    batch = args[1]
    waited = sum(start - int(item.enqueued * 1e9) for item in batch if item.enqueued)
    return len(batch), waited


def _settle_attrs(_args, result, _failed, _start):
    return (result[0].payload_bytes if result is not None else 0), 0


def install(recorder: Recorder) -> None:
    """Wrap every traced layer function in this process."""
    import xml.etree.ElementTree as ET

    from repro.distributed import network
    from repro.distributed.runtime import runtime, scheduler
    from repro.engine import batch
    from repro.observability import logs
    from repro.service import client, protocol, server
    from repro.trees import xml_io

    span = recorder.span

    xml_io.ET = _ElementTreeProxy(ET, fromstring=span(ET.fromstring, "xml.parse"))
    from_xml = span(xml_io.tree_from_xml, "tree_from_xml", _failed_flag)
    for module in (xml_io, runtime, server):
        module.tree_from_xml = from_xml
    runtime.payload_fingerprint = span(runtime.payload_fingerprint, "fingerprint", _first_arg_len)

    methods = (
        (batch.BatchValidator, "validate", "dfa.fold", _truth),
        (batch.CompiledSchema, "__init__", "compile", _no_attrs),
        (runtime.ValidationRuntime, "validate_locally", "runtime.round", _round_attrs),
        (scheduler.ShardScheduler, "map_shards", "runtime.map_shards", _result_len),
        (runtime.ValidationRuntime, "publish", "runtime.publish", _truth),
        (runtime.ValidationRuntime, "settle_stream", "runtime.settle_stream", _settle_attrs),
        (runtime.StreamIngest, "feed", "streaming.feed", _second_arg_len),
        (server.ValidationServer, "execute_publications", "admission.batch", _batch_attrs),
        (server.ValidationServer, "build_design", "register.build_design", _no_attrs),
        (logs.LogRecorder, "log_flat", "logs.log_flat", _no_attrs),
        (network.Network, "send", "network.send", _no_attrs),
    )
    for owner, attribute, name, attrs in methods:
        setattr(owner, attribute, span(getattr(owner, attribute), name, attrs))
    protocol.decode_body = span(protocol.decode_body, "protocol.decode", _first_arg_len)
    protocol.encode_frame = span(protocol.encode_frame, "protocol.encode", _result_len)
    client.AsyncServiceClient.peer_verdict = recorder.push_span(
        client.AsyncServiceClient.peer_verdict
    )
    gc.callbacks.append(recorder.on_gc)


def install_from_environment() -> None:
    """The ``sitecustomize`` entry point: trace this process when asked to."""
    directory = os.environ.get(SPANS_ENV)
    if not directory:
        return
    recorder = Recorder()
    install(recorder)
    atexit.register(recorder.dump, directory)
