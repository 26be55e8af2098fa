"""Clients for the validation service: async pipelined and blocking.

:class:`AsyncServiceClient` keeps many requests in flight on one
connection (responses are correlated by request id, so out-of-order
completion is fine) -- what the load generator and high-throughput
callers use.  :class:`ServiceClient` is the blocking convenience wrapper
(one request on the wire at a time) for scripts, tests and the CLI.

Both raise :class:`ServiceError` carrying the typed error code of the
server's error frame (``unknown-design``, ``invalid-xml``,
``frame-too-large``, ``shutting-down``, ...).  Transport failures and
read deadlines surface the same way (``timeout``, ``connection-closed``,
``connection-lost``) -- every failure a caller can see has a code, and
:attr:`ServiceError.retryable` says whether retrying can help.

For overload survival both clients offer :meth:`publish_with_retry`:
exponential backoff with deterministic seeded jitter, honouring the
server's ``retry_after`` hint on ``overloaded`` frames, reconnecting
after transport failures.  Re-publication is idempotent by construction
-- the server's content-addressed dedup means a retried byte-identical
publication costs one digest and zero validation rounds.
"""

from __future__ import annotations

import asyncio
import random
import socket
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Union

from repro.service import protocol
from repro.service.protocol import ServiceError
from repro.streaming.events import iter_chunks

__all__ = ["AsyncServiceClient", "RetryPolicy", "ServiceClient", "ServiceError"]

#: Default chunk size of :meth:`publish_stream` (fits comfortably in a frame).
DEFAULT_STREAM_CHUNK_BYTES = 65536

#: Error codes after which the connection itself is suspect: the retry
#: helpers re-dial before the next attempt.
_RECONNECT_CODES = frozenset({"timeout", "connection-closed", "connection-lost"})


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter for retryable failures.

    ``delay_for(attempt, rng, retry_after)`` computes the pause before
    retry number ``attempt`` (0-based): ``base_delay * multiplier**attempt``
    capped at ``max_delay``, spread by up to ``±jitter`` (a fraction) to
    decorrelate a fleet of retrying clients, and never shorter than the
    server's ``retry_after`` hint -- the server knows its queue better
    than any client-side curve.  A ``seed`` makes the whole schedule
    reproducible, which the chaos tests rely on.
    """

    attempts: int = 5
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: Optional[int] = None

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def delay_for(
        self,
        attempt: int,
        rng: random.Random,
        retry_after: Optional[float] = None,
    ) -> float:
        backoff = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        if self.jitter:
            backoff *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        if retry_after is not None:
            backoff = max(backoff, retry_after)
        return max(0.0, backoff)


def _as_bytes(payload: Union[str, bytes]) -> bytes:
    return payload.encode("utf-8") if isinstance(payload, str) else payload


def _as_chunks(payload, chunk_bytes: int) -> Iterable[bytes]:
    """Normalise a publish_stream payload into an iterable of byte chunks."""
    if isinstance(payload, (str, bytes)):
        return iter_chunks(_as_bytes(payload), chunk_bytes)
    return (_as_bytes(chunk) for chunk in payload)


def _schema_fields(schemas: Mapping[str, object]) -> dict:
    """Normalise schema arguments: DTD objects become ``{start, text}``."""
    encoded = {}
    for function, schema in schemas.items():
        if hasattr(schema, "describe") and hasattr(schema, "start"):
            encoded[function] = {"start": schema.start, "text": schema.describe()}
        else:
            encoded[function] = schema
    return encoded


class _RequestMixin:
    """The operation vocabulary, shared by both client flavours.

    Subclasses provide ``_call(op, fields, blob)`` (sync or async); every
    method here just shapes the request.  The async client's methods
    return awaitables of the same results.
    """

    def _call(self, op: str, fields: Optional[dict] = None, blob: bytes = b""):
        raise NotImplementedError

    def ping(self):
        return self._call("ping")

    def register_design(
        self,
        design: str,
        kernel: str,
        schemas: Mapping[str, object],
        documents: Mapping[str, str],
        replace: bool = False,
        typing_version: Optional[int] = None,
    ):
        fields = {
            "design": design,
            "kernel": kernel,
            "schemas": _schema_fields(schemas),
            "documents": dict(documents),
        }
        if replace:
            fields["replace"] = True
        if typing_version is not None:
            # Federation pods fence their exported verdicts with this.
            fields["typing_version"] = typing_version
        return self._call("register_design", fields)

    def publish(
        self,
        design: str,
        function: str,
        payload: Union[str, bytes],
        trace_id: Optional[str] = None,
    ):
        fields = {"design": design, "function": function}
        if trace_id:
            fields["trace"] = trace_id
        return self._call("publish", fields, _as_bytes(payload))

    def validate(self, design: str, function: str, payload: Union[str, bytes]):
        return self._call("validate", {"design": design, "function": function}, _as_bytes(payload))

    def revalidate(self, design: str, force: bool = False):
        fields = {"design": design}
        if force:
            fields["force"] = True
        return self._call("revalidate", fields)

    def stats(self):
        return self._call("stats")

    def trace(self, trace_id: Optional[str] = None, limit: Optional[int] = None):
        """Export the server's events that carry a trace id (optionally one id's)."""
        return self._events("trace", trace_id=trace_id, limit=limit)

    def logs(
        self,
        trace_id: Optional[str] = None,
        limit: Optional[int] = None,
        level: Optional[str] = None,
    ):
        """Export the server's events at or above a level floor (default: the server's)."""
        return self._events("logs", trace_id=trace_id, limit=limit, level=level)

    def _events(self, op: str, **filters):
        return self._call(op, {key: value for key, value in filters.items() if value is not None})

    def profile(
        self,
        action: str = "status",
        hz: Optional[float] = None,
        reset: Optional[bool] = None,
        limit: Optional[int] = None,
    ):
        """Drive the server's sampling profiler (start/stop/status/fetch)."""
        fields = {"action": action}
        if hz is not None:
            fields["hz"] = hz
        if reset is not None:
            fields["reset"] = reset
        if limit is not None:
            fields["limit"] = limit
        return self._call("profile", fields)

    def shutdown(self):
        return self._call("shutdown")

    # -- federation verbs (served by directory servers / peer pods) ------ #

    def join(self, pod: str, functions, endpoint=None):
        fields = {"pod": pod, "functions": list(functions)}
        if endpoint is not None:
            fields["endpoint"] = list(endpoint)
        return self._call("join", fields)

    def lease_renew(self, pod: str):
        return self._call("lease_renew", {"pod": pod})

    def typing_update(self, version: int):
        return self._call("typing_update", {"version": version})

    def peer_verdict(
        self,
        pod: str,
        design: str,
        acks: Mapping[str, bool],
        typing_version: int,
        trace_id: Optional[str] = None,
    ):
        fields = {
            "pod": pod,
            "design": design,
            "acks": dict(acks),
            "typing_version": typing_version,
        }
        if trace_id:
            fields["trace"] = trace_id
        return self._call("peer_verdict", fields)

    def membership(self):
        """The directory's membership view (pod -> functions / lease state)."""
        return self._call("membership")

    def global_verdict(self, design: str):
        return self._call("global_verdict", {"design": design})

    def pod_state(self, design: str):
        return self._call("pod_state", {"design": design})


class ServiceClient(_RequestMixin):
    """Blocking client: one connection, one request at a time.

    ``timeout`` is the read deadline (seconds) on every blocking call: a
    dead or wedged server surfaces as a typed ``ServiceError('timeout')``
    instead of hanging forever.  ``None`` disables the deadline.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._max_frame_bytes = max_frame_bytes
        self._next_id = 0
        self._next_stream = 0
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._stream = self._sock.makefile("rb")

    def reconnect(self) -> None:
        """Tear the connection down and re-dial.

        The recovery move after ``timeout``/``connection-lost``: a timed-out
        read may have consumed part of a frame, so the old byte stream can
        never be trusted again.
        """
        self.close()
        self._connect()

    def publish_stream(
        self,
        design: str,
        function: str,
        payload: Union[str, bytes, Iterable[Union[str, bytes]]],
        chunk_bytes: int = DEFAULT_STREAM_CHUNK_BYTES,
        trace_id: Optional[str] = None,
    ) -> dict:
        """Publish through the chunked streaming path (begin / chunks / end).

        ``payload`` may be a whole document (sliced into ``chunk_bytes``
        frames) or an iterable of chunks produced elsewhere -- the document
        never needs to fit one protocol frame.  Returns the ``end``
        verdict, shaped like a ``publish`` result.
        """
        self._next_stream += 1
        stream = f"s{self._next_stream}"
        begin = {"design": design, "function": function, "stream": stream}
        if trace_id:
            begin["trace"] = trace_id
        self._call("publish_stream_begin", begin)
        for chunk in _as_chunks(payload, chunk_bytes):
            self._call("publish_stream_chunk", {"stream": stream}, chunk)
        return self._call("publish_stream_end", {"stream": stream})

    def _call(self, op: str, fields: Optional[dict] = None, blob: bytes = b"") -> dict:
        self._next_id += 1
        request_id = self._next_id
        try:
            self._sock.sendall(protocol.request_frame(request_id, op, fields, blob))
            while True:
                frame = protocol.read_frame_blocking(self._stream, self._max_frame_bytes)
                if frame is None:
                    raise ServiceError("connection-closed", "the server closed the connection")
                body, _blob, _nbytes = frame
                if body.get("id") != request_id:
                    if body.get("ok") is False and body.get("id") is None:
                        raise protocol.error_from_body(
                            body.get("error", {}), "server-initiated error"
                        )
                    continue  # a stale frame; keep looking for ours
                if body.get("ok"):
                    return body.get("result", {})
                raise protocol.error_from_body(body.get("error", {}))
        except (socket.timeout, TimeoutError):
            raise ServiceError(
                "timeout",
                f"no response to {op!r} within {self._timeout}s (reconnect "
                "before reusing this client: the stream may be mid-frame)",
            ) from None
        except OSError as error:
            raise ServiceError("connection-lost", f"transport failure: {error}") from None

    def publish_with_retry(
        self,
        design: str,
        function: str,
        payload: Union[str, bytes],
        policy: Optional[RetryPolicy] = None,
        on_retry: Optional[Callable[[ServiceError, float], None]] = None,
    ) -> dict:
        """Publish with backoff on retryable failures (overload, transport).

        Safe to repeat: the server deduplicates byte-identical content, so
        a publication that actually landed before the connection died is
        settled exactly once.  ``on_retry(error, delay)`` is invoked before
        each backoff pause (shed accounting, logging).
        """
        policy = policy or RetryPolicy()
        rng = policy.rng()
        for attempt in range(policy.attempts):
            try:
                return self.publish(design, function, payload)
            except ServiceError as error:
                if not error.retryable or attempt + 1 >= policy.attempts:
                    raise
                delay = policy.delay_for(attempt, rng, error.retry_after)
                if on_retry is not None:
                    on_retry(error, delay)
                if delay:
                    time.sleep(delay)
                if error.code in _RECONNECT_CODES:
                    try:
                        self.reconnect()
                    except OSError:
                        # Still down; the next attempt's publish surfaces a
                        # typed connection-lost and burns its own attempt.
                        pass
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        try:
            self._stream.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()


class AsyncServiceClient(_RequestMixin):
    """Pipelined asyncio client: any number of requests in flight.

    ``timeout`` is the per-request deadline (seconds); a wedged server
    fails the request with a typed ``ServiceError('timeout')`` instead of
    awaiting forever.  ``None`` (the default) disables the deadline --
    pipelined load generation intentionally lets requests queue.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        timeout: Optional[float] = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._max_frame_bytes = max_frame_bytes
        self._timeout = timeout
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._next_stream = 0
        self._closed = False
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop(), name="repro-client-reader"
        )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        timeout: Optional[float] = None,
    ) -> "AsyncServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer, max_frame_bytes, timeout=timeout)
        client._host, client._port = host, port
        return client

    async def reconnect(self) -> None:
        """Re-dial the endpoint :meth:`connect` opened and reset transport.

        In-flight requests fail with ``connection-closed``; the request-id
        counter keeps counting so late frames from the old connection can
        never be confused with new responses.
        """
        if self._host is None or self._port is None:
            raise ServiceError(
                "connection-closed",
                "cannot reconnect: this client was built from a raw stream pair",
            )
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        self._fail_pending("connection-closed", "reconnecting")
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, RuntimeError, OSError):
            pass
        self._reader, self._writer = await asyncio.open_connection(self._host, self._port)
        self._closed = False
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop(), name="repro-client-reader"
        )

    async def _call(self, op: str, fields: Optional[dict] = None, blob: bytes = b"") -> dict:
        if self._closed:
            raise ServiceError("connection-closed", "the client is closed")
        self._next_id += 1
        request_id = self._next_id
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(protocol.request_frame(request_id, op, fields, blob))
            await self._writer.drain()
        except (ConnectionError, OSError):
            self._pending.pop(request_id, None)
            raise ServiceError("connection-closed", "the connection was lost mid-request") from None
        if self._timeout is None:
            return await future
        try:
            return await asyncio.wait_for(future, self._timeout)
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)
            raise ServiceError(
                "timeout", f"no response to {op!r} within {self._timeout}s"
            ) from None

    async def publish_with_retry(
        self,
        design: str,
        function: str,
        payload: Union[str, bytes],
        policy: Optional[RetryPolicy] = None,
        on_retry: Optional[Callable[[ServiceError, float], None]] = None,
    ) -> dict:
        """Async twin of :meth:`ServiceClient.publish_with_retry`."""
        policy = policy or RetryPolicy()
        rng = policy.rng()
        for attempt in range(policy.attempts):
            try:
                return await self.publish(design, function, payload)
            except ServiceError as error:
                if not error.retryable or attempt + 1 >= policy.attempts:
                    raise
                delay = policy.delay_for(attempt, rng, error.retry_after)
                if on_retry is not None:
                    on_retry(error, delay)
                if delay:
                    await asyncio.sleep(delay)
                if error.code in _RECONNECT_CODES:
                    try:
                        await self.reconnect()
                    except (ServiceError, OSError):
                        pass  # next attempt surfaces its own typed failure
        raise AssertionError("unreachable")  # pragma: no cover

    async def publish_stream(
        self,
        design: str,
        function: str,
        payload: Union[str, bytes, Iterable[Union[str, bytes]]],
        chunk_bytes: int = DEFAULT_STREAM_CHUNK_BYTES,
        trace_id: Optional[str] = None,
    ) -> dict:
        """Pipelined chunked publication: begin, all chunks, then end.

        The begin acknowledgement is awaited first (so a typed error --
        unknown design/function -- surfaces before any data moves); the
        chunk requests are then pipelined on the connection and gathered,
        and the ``end`` verdict is returned.  Chunk frames are written in
        order, which is what the server's per-stream FIFO relies on.
        """
        self._next_stream += 1
        stream = f"s{self._next_stream}"
        begin = {"design": design, "function": function, "stream": stream}
        if trace_id:
            begin["trace"] = trace_id
        await self._call("publish_stream_begin", begin)
        chunk_calls = [
            asyncio.ensure_future(self._call("publish_stream_chunk", {"stream": stream}, chunk))
            for chunk in _as_chunks(payload, chunk_bytes)
        ]
        if chunk_calls:
            try:
                await asyncio.gather(*chunk_calls)
            except BaseException:
                for call in chunk_calls:
                    call.cancel()
                raise
        return await self._call("publish_stream_end", {"stream": stream})

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await protocol.read_frame(self._reader, self._max_frame_bytes)
                if frame is None:
                    self._fail_pending("connection-closed", "the server closed the connection")
                    return
                body, _blob, _nbytes = frame
                request_id = body.get("id")
                if request_id is None:
                    # Server-initiated frame (e.g. the shutdown notice):
                    # every in-flight request fails with its typed code.
                    error = body.get("error", {})
                    self._fail_pending(
                        error.get("code", "unknown"), error.get("message", "server notice")
                    )
                    continue
                future = self._pending.pop(request_id, None)
                if future is None or future.done():
                    continue
                if body.get("ok"):
                    future.set_result(body.get("result", {}))
                else:
                    future.set_exception(protocol.error_from_body(body.get("error", {})))
        except (protocol.ProtocolError, ConnectionError, asyncio.IncompleteReadError) as error:
            self._fail_pending("connection-closed", f"transport failure: {error}")
        except asyncio.CancelledError:
            self._fail_pending("connection-closed", "the client was closed")
            raise

    def _fail_pending(self, code: str, message: str) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(ServiceError(code, message))

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *_exc_info) -> None:
        await self.close()
