"""Wire protocol for the query service: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON. Requests and responses are flat JSON
objects; a request carries an ``op`` (``query`` / ``ping`` / ``stats``)
and an ``id`` the response echoes, so one connection is one ordered
session the way a DB wire session is.

Result values cross the wire as JSON scalars; geometry values are
encoded as ``{"$wkt": "..."}`` tagged objects (the client hands the WKT
string back). Errors are *typed*: ``{"ok": false, "error": {"code":
..., "message": ...}}`` where ``code`` is one of ``overloaded`` /
``timeout`` / ``serialization`` / ``sql`` / ``protocol`` / ``internal``
— the client library maps them back onto the exception hierarchy, and
``overloaded`` additionally carries ``retry_after`` seconds.

A ``query`` request may carry an optional ``trace`` field —
``{"trace_id": str, "span_id": str, "sent_at": epoch_float}`` — that
propagates the client's trace context for end-to-end request tracing
(``repro.obs.requests``). The field is strictly additive: servers that
predate it ignore it, clients that omit it still work, and a malformed
``trace`` value is dropped rather than failing the request
(:func:`trace_context` is deliberately tolerant). A tracing server
echoes ``trace_id`` on the matching response.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import (
    GuardrailError,
    SerializationError,
    ServiceOverloadedError,
    ServiceProtocolError,
    SqlError,
)

__all__ = [
    "MAX_FRAME",
    "encode_frame",
    "result_fragment",
    "result_frame",
    "decode_body",
    "read_frame",
    "write_frame",
    "jsonable_rows",
    "decode_rows",
    "error_code",
    "error_payload",
    "trace_context",
]

#: refuse frames larger than this (a corrupt length prefix must not
#: make the reader allocate gigabytes)
MAX_FRAME = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: every error code a response may carry
ERROR_CODES = (
    "overloaded", "timeout", "serialization", "sql", "protocol", "internal",
)


def _framed(body: bytes) -> bytes:
    if len(body) > MAX_FRAME:
        raise ServiceProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    return _HEADER.pack(len(body)) + body


def encode_frame(message: Dict[str, Any]) -> bytes:
    return _framed(json.dumps(message, separators=(",", ":")).encode("utf-8"))


def result_fragment(columns: Sequence[str], rows: Sequence[Sequence[Any]],
                    rowcount: int) -> bytes:
    """The one encoder of a query result: the JSON members
    ``"columns":…,"rows":…,"rowcount":…`` as bytes, without the braces.
    The result cache keeps it beside the rows, so the reply that filled
    an entry and every hit after it splice the same bytes into
    :func:`result_frame` — a hit formats no WKT and encodes no JSON."""
    text = json.dumps(
        {"columns": list(columns), "rows": jsonable_rows(rows),
         "rowcount": rowcount},
        separators=(",", ":"),
    )
    return text[1:-1].encode("utf-8")


def result_frame(rid: Any, fragment: bytes, cached: bool,
                 trace_id: Optional[str] = None) -> bytes:
    """A successful query reply around a :func:`result_fragment`: the
    same JSON object :func:`encode_frame` makes of ``{"ok": true, "id":
    rid, "columns": …, "rows": …, "rowcount": …, "cached": cached}`` (and
    ``trace_id`` when given), so clients cannot tell the two apart."""
    parts = [b'{"ok":true,"id":', json.dumps(rid).encode("utf-8")]
    if trace_id is not None:
        parts += (b',"trace_id":', json.dumps(trace_id).encode("utf-8"))
    parts += (b",", fragment,
              b',"cached":true}' if cached else b',"cached":false}')
    return _framed(b"".join(parts))


def decode_body(data: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ServiceProtocolError(
            f"frame must decode to an object, got {type(message).__name__}"
        )
    return message


# -- blocking socket framing (the client library) ---------------------------


def _recv_exactly(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on a clean EOF at a frame
    boundary, :class:`ServiceProtocolError` on a torn frame."""
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n and not chunks:
                return None
            raise ServiceProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """One message off a blocking socket; ``None`` on clean EOF."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ServiceProtocolError(
            f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME})"
        )
    body = _recv_exactly(sock, length)
    if body is None:
        raise ServiceProtocolError("connection closed after frame header")
    return decode_body(body)


def write_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(message))


# -- value encoding ---------------------------------------------------------


def _jsonable_value(value: Any) -> Any:
    wkt = getattr(value, "wkt", None)
    if callable(wkt):
        return {"$wkt": wkt()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def jsonable_rows(rows: Sequence[Sequence[Any]]) -> List[List[Any]]:
    return [[_jsonable_value(v) for v in row] for row in rows]


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "$wkt" in value:
        return value["$wkt"]
    return value


def decode_rows(rows: Sequence[Sequence[Any]]) -> List[tuple]:
    """Wire rows back to tuples (geometry arrives as its WKT string)."""
    return [tuple(_decode_value(v) for v in row) for row in rows]


def trace_context(message: Dict[str, Any]):
    """The request's :class:`~repro.obs.requests.TraceContext`, or
    ``None`` when the ``trace`` field is absent or malformed — an old or
    foreign client must never have its query rejected over trace
    metadata."""
    payload = message.get("trace")
    if payload is None:
        return None
    from repro.obs.requests import TraceContext

    return TraceContext.from_wire(payload)


def error_code(exc: BaseException) -> str:
    """The wire error code of a failed statement (also the traced
    outcome on the server, and the workload client's classification)."""
    if isinstance(exc, ServiceOverloadedError):
        return "overloaded"
    if isinstance(exc, SerializationError):
        return "serialization"
    if isinstance(exc, GuardrailError):
        return "timeout"
    if isinstance(exc, SqlError):
        return "sql"
    return "internal"


def error_payload(code: str, message: str, **extra: Any) -> Dict[str, Any]:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    payload: Dict[str, Any] = {"code": code, "message": message}
    payload.update(extra)
    return payload
