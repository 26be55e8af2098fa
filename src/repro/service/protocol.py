"""The versioned, length-prefixed wire protocol of the validation service.

A frame is a fixed 13-byte header followed by a JSON body and an optional
binary attachment::

    +-------+---------+----------+----------+----------+-----------+
    | magic | version | json_len | blob_len | json ... | blob ...  |
    | 4 B   | 1 B     | 4 B BE   | 4 B BE   | json_len | blob_len  |
    +-------+---------+----------+----------+----------+-----------+

The JSON body carries the request/response structure (``op``, ``id``,
parameters, results); the attachment carries *raw XML payload bytes* for
``publish``/``validate`` so the server can hand them to the runtime's
byte-level fingerprint fast path exactly as received -- no JSON string
escaping ever touches the bytes that get hashed.

Error handling is deliberately typed and connection-preserving: the reader
distinguishes recoverable frame errors (oversized frame, unsupported
version, undecodable JSON -- the body length is still trusted, the body is
drained, and the connection continues) from fatal ones (bad magic,
truncated stream -- there is no way to resynchronise).  Servers turn both
into error frames; only fatal errors also close the connection.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import BinaryIO, Optional

from repro.errors import ReproError

#: Frame magic: any stream not starting with it is not speaking this protocol.
MAGIC = b"RDV1"

#: Current protocol version (bump when the frame layout or ops change).
PROTOCOL_VERSION = 1

#: Header layout: magic, version, json length, blob length (big-endian).
_HEADER = struct.Struct("!4sBII")

HEADER_BYTES = _HEADER.size

#: Default ceiling on json_len + blob_len (8 MiB); servers may lower it.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Chunk size used when draining the body of a rejected frame.
_DRAIN_CHUNK = 65536

#: Error codes a client may safely retry (with backoff): the request was
#: either never admitted (``overloaded`` -- the server shed it before any
#: state changed) or its fate is unknown but re-publication is idempotent
#: (``timeout`` / ``connection-closed`` / ``connection-lost`` -- the
#: runtime's content-addressed dedup makes a repeated publication of the
#: same bytes cost one digest).  Everything else -- ``invalid-xml``,
#: ``unknown-design``, ``bad-request``, ``shutting-down``, ... -- is a
#: property of the request or the server's lifecycle, and retrying the
#: same frame can never succeed.
RETRYABLE_CODES = frozenset(
    {"overloaded", "timeout", "connection-closed", "connection-lost"}
)


# --------------------------------------------------------------------------- #
# typed errors
# --------------------------------------------------------------------------- #


class ServiceError(ReproError):
    """A typed request-level error: the content of an error frame.

    One class serves both sides of the wire -- servers raise it while
    handling a request (and serialise it into an error frame), clients
    raise it when they receive one.  ``code`` is the typed error code
    (``unknown-design``, ``invalid-xml``, ``shutting-down``, ...).

    ``retry_after`` (seconds, optional) is the server's load-shedding
    hint: how long the client should back off before retrying an
    ``overloaded`` request.  :attr:`retryable` is the client-side contract
    of :data:`RETRYABLE_CODES`.
    """

    def __init__(self, code: str, message: str, retry_after: Optional[float] = None) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.retry_after = retry_after

    @property
    def retryable(self) -> bool:
        return self.code in RETRYABLE_CODES


class ProtocolError(Exception):
    """A violation of the wire protocol, carrying its typed error code.

    ``recoverable`` tells the server whether the stream is still framed
    (the offending body was drained; keep the connection) or hopelessly
    out of sync (close it after sending the error frame).
    """

    code = "protocol-error"
    recoverable = False

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class BadMagicError(ProtocolError):
    """The stream does not start with the protocol magic (fatal)."""

    code = "bad-magic"
    recoverable = False


class UnsupportedVersionError(ProtocolError):
    """The frame declares a protocol version this side does not speak."""

    code = "unsupported-version"
    recoverable = True


class FrameTooLargeError(ProtocolError):
    """The declared frame size exceeds the reader's limit."""

    code = "frame-too-large"
    recoverable = True


class BadJsonError(ProtocolError):
    """The JSON body of a frame could not be decoded."""

    code = "bad-json"
    recoverable = True


class TruncatedFrameError(ProtocolError):
    """The stream ended in the middle of a frame (fatal)."""

    code = "truncated-frame"
    recoverable = False


# --------------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------------- #


def encode_frame(body: dict, blob: bytes = b"", version: int = PROTOCOL_VERSION) -> bytes:
    """Serialise one frame (header + JSON body + attachment)."""
    encoded = json.dumps(body, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return _HEADER.pack(MAGIC, version, len(encoded), len(blob)) + encoded + blob


def decode_body(encoded: bytes) -> dict:
    """Decode a frame's JSON body, mapping failures to the typed error."""
    try:
        body = json.loads(encoded.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise BadJsonError(f"undecodable JSON body: {error}") from None
    if not isinstance(body, dict):
        raise BadJsonError("the JSON body must be an object")
    return body


def parse_header(header: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> tuple[int, int, int]:
    """Validate a raw header; returns ``(version, json_len, blob_len)``.

    Raises the typed error for bad magic, unsupported versions and
    oversized frames.  Version and size checks only run after the magic
    check, so a fatal desynchronisation is never misreported as a
    recoverable error.
    """
    magic, version, json_len, blob_len = _HEADER.unpack(header)
    if magic != MAGIC:
        raise BadMagicError(f"expected frame magic {MAGIC!r}, got {magic!r}")
    if json_len + blob_len > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame of {json_len + blob_len} bytes exceeds the {max_frame_bytes}-byte limit"
        )
    if version != PROTOCOL_VERSION:
        raise UnsupportedVersionError(
            f"protocol version {version} is not supported (this side speaks {PROTOCOL_VERSION})"
        )
    return version, json_len, blob_len


# --------------------------------------------------------------------------- #
# asyncio reader
# --------------------------------------------------------------------------- #


async def read_frame(
    reader: asyncio.StreamReader, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Optional[tuple[dict, bytes, int]]:
    """Read one frame as ``(body, blob, wire_bytes)``; ``None`` on clean EOF.

    ``wire_bytes`` is the frame's total size on the wire (header included),
    what the server's inbound traffic ledger records.  On a recoverable
    error the offending body is drained (so the next frame can be read)
    before the typed error is raised; oversized bodies are drained in
    bounded chunks, never buffered whole.
    """
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF between frames
        raise TruncatedFrameError(
            f"stream ended {len(error.partial)} bytes into a {HEADER_BYTES}-byte header"
        ) from None
    try:
        _version, json_len, blob_len = parse_header(header, max_frame_bytes)
    except ProtocolError as error:
        if error.recoverable:
            # The length fields are trusted (magic was fine): skip the body
            # so the connection stays framed.
            _magic, _ver, json_len, blob_len = _HEADER.unpack(header)
            await _drain(reader, json_len + blob_len)
        raise
    try:
        encoded = await reader.readexactly(json_len)
        blob = await reader.readexactly(blob_len) if blob_len else b""
    except asyncio.IncompleteReadError:
        raise TruncatedFrameError("stream ended inside a frame body") from None
    return decode_body(encoded), blob, HEADER_BYTES + json_len + blob_len


async def _drain(reader: asyncio.StreamReader, remaining: int) -> None:
    while remaining > 0:
        chunk = await reader.read(min(remaining, _DRAIN_CHUNK))
        if not chunk:
            raise TruncatedFrameError("stream ended while draining a rejected frame body")
        remaining -= len(chunk)


# --------------------------------------------------------------------------- #
# blocking reader (the synchronous client)
# --------------------------------------------------------------------------- #


def read_frame_blocking(
    stream: BinaryIO, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Optional[tuple[dict, bytes, int]]:
    """Blocking twin of :func:`read_frame` over a file-like byte stream."""
    header = _read_exactly(stream, HEADER_BYTES, allow_eof=True)
    if header is None:
        return None
    try:
        _version, json_len, blob_len = parse_header(header, max_frame_bytes)
    except ProtocolError as error:
        if error.recoverable:
            _magic, _ver, json_len, blob_len = _HEADER.unpack(header)
            _skip(stream, json_len + blob_len)
        raise
    encoded = _read_exactly(stream, json_len)
    blob = _read_exactly(stream, blob_len) if blob_len else b""
    return decode_body(encoded), blob, HEADER_BYTES + json_len + blob_len


def _read_exactly(stream: BinaryIO, count: int, allow_eof: bool = False):
    parts: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise TruncatedFrameError(f"stream ended {remaining} bytes short of a frame boundary")
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts) if parts else b""


def _skip(stream: BinaryIO, remaining: int) -> None:
    while remaining > 0:
        chunk = stream.read(min(remaining, _DRAIN_CHUNK))
        if not chunk:
            raise TruncatedFrameError("stream ended while draining a rejected frame body")
        remaining -= len(chunk)


# --------------------------------------------------------------------------- #
# request / response shapes
# --------------------------------------------------------------------------- #

#: The operations a server understands, with their required JSON fields.
#:
#: The ``publish_stream_*`` triple is the chunked publication path: a
#: document too large (or too latency-sensitive) for one contiguous frame
#: is shipped as ``begin`` + any number of ``chunk`` frames (the XML bytes
#: ride in the binary attachment) + ``end``, all tagged with a
#: client-chosen per-connection ``stream`` id.  The server hashes and
#: validates each chunk as it arrives (the runtime's streaming ingest);
#: only the ``end`` response carries the publish verdict.  Frames of one
#: stream must be sent in order on one connection -- which pipelining
#: preserves -- and an aborted stream dies with its connection.
OPERATIONS = {
    "ping": (),
    "register_design": ("design", "kernel", "schemas", "documents"),
    "publish": ("design", "function"),
    "publish_stream_begin": ("design", "function", "stream"),
    "publish_stream_chunk": ("stream",),
    "publish_stream_end": ("stream",),
    "validate": ("design", "function"),
    "revalidate": ("design",),
    "stats": (),
    # Export the server's event ring.  Any op may carry an optional
    # ``trace`` body field -- a client-minted trace id that labels every
    # lifecycle event the request causes.  ``trace`` returns the events
    # that carry a trace id, ``logs`` those at or above a ``level`` floor;
    # both take an optional ``trace_id`` filter and ``limit``.
    "trace": (),
    "logs": (),
    # Drive the member's sampling profiler: ``action`` is ``start``
    # (optional ``hz``/``reset``), ``stop``, ``status`` or ``fetch``
    # (optional ``limit``; returns flamegraph collapsed stacks).
    "profile": ("action",),
    "shutdown": (),
    # Federation ops (peer<->peer / pod<->directory; see repro.federation).
    # A directory server accepts the membership and verdict ops; a peer pod
    # additionally answers ``pod_state`` with its runtime's exported state.
    # A plain validation server answers all of them with ``unsupported-op``.
    "join": ("pod", "functions"),
    "membership": (),
    "lease_renew": ("pod",),
    "typing_update": ("version",),
    "peer_verdict": ("pod", "design", "acks", "typing_version"),
    "global_verdict": ("design",),
    "pod_state": ("design",),
}


def error_frame(
    request_id: Optional[int],
    code: str,
    message: str,
    retry_after: Optional[float] = None,
) -> bytes:
    """An error response frame (``id`` echoes the request when known).

    ``retry_after`` rides along for load-shedding errors so a well-behaved
    client knows how long to back off before retrying.
    """
    error: dict = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = round(retry_after, 4)
    return encode_frame({"id": request_id, "ok": False, "error": error})


def error_from_body(error: dict, fallback_message: str = "") -> ServiceError:
    """Rebuild the typed :class:`ServiceError` of a decoded error object."""
    return ServiceError(
        error.get("code", "unknown"),
        error.get("message", fallback_message),
        retry_after=error.get("retry_after"),
    )


def result_frame(request_id: Optional[int], result: dict) -> bytes:
    """A success response frame."""
    return encode_frame({"id": request_id, "ok": True, "result": result})


def request_frame(request_id: int, op: str, fields: Optional[dict] = None, blob: bytes = b"") -> bytes:
    """A request frame (used by both clients)."""
    body = {"id": request_id, "op": op}
    if fields:
        body.update(fields)
    return encode_frame(body, blob)
