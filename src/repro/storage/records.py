"""Checksummed JSON-line records: the write-ahead log's codec.

The WAL stores one JSON record per line, prefixed with the CRC32 of the
payload (``"%08x <json>\n"``). This module implements that codec:
encoding, strict parsing, and the torn-tail scan that decides where a
crashed writer's last complete record ends.

Values destined for a record go through :func:`encode_value` /
:func:`decode_value`, which round-trip geometries as hex-encoded WKB and
pass everything JSON-native through untouched.
"""

from __future__ import annotations

import json
import zlib
from typing import IO, Any, Iterator, Tuple

from repro.errors import DumpCorruptionError
from repro.geometry import Geometry, wkb_dumps, wkb_loads

__all__ = [
    "decode_value",
    "encode_line",
    "encode_value",
    "parse_line",
    "scan_tail",
]


def encode_value(value: Any) -> Any:
    """JSON-safe form of one column value (geometries become WKB hex)."""
    if isinstance(value, Geometry):
        return {"__wkb__": wkb_dumps(value).hex()}
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict) and "__wkb__" in value:
        return wkb_loads(bytes.fromhex(value["__wkb__"]))
    return value


def encode_line(record: dict) -> str:
    """One checksummed record line, newline included: ``%08x <json>\\n``."""
    payload = json.dumps(record)
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}\n"


def parse_line(line: str, line_no: int = -1) -> dict:
    """Decode and checksum-verify one record line (strict).

    Raises :class:`~repro.errors.DumpCorruptionError` on a missing or
    mismatched checksum, invalid JSON, or a payload that is not a typed
    record object.
    """
    prefix, sep, payload = line.partition(" ")
    if not sep or len(prefix) != 8:
        raise DumpCorruptionError("missing checksum prefix", line_no)
    try:
        expected = int(prefix, 16)
    except ValueError:
        raise DumpCorruptionError(f"bad checksum prefix {prefix!r}", line_no)
    actual = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    if actual != expected:
        raise DumpCorruptionError(
            f"checksum mismatch (stored {expected:08x}, "
            f"computed {actual:08x})",
            line_no,
        )
    try:
        record = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise DumpCorruptionError(f"invalid JSON ({exc})", line_no)
    if not isinstance(record, dict) or "type" not in record:
        raise DumpCorruptionError("not a typed record", line_no)
    return record


def scan_tail(stream: IO[bytes]) -> Iterator[Tuple[dict, int, int]]:
    """Yield ``(record, line_no, end_offset)`` for each valid record.

    The torn-tail scan: reads checksummed lines from a *binary* stream
    positioned after any unchecksummed header, stopping silently at the
    first line that is incomplete (no trailing newline — a torn write) or
    fails validation (a bit flip or a partial line that happened to end
    in a newline). ``end_offset`` is the byte offset one past the
    record's newline, so a recovering writer can truncate the file there
    and keep appending.
    """
    line_no = 0
    offset = stream.tell()
    while True:
        raw = stream.readline()
        if not raw:
            return
        line_no += 1
        if not raw.endswith(b"\n"):
            return  # torn final write: no newline ever made it to disk
        offset += len(raw)
        text = raw.decode("utf-8", errors="replace").strip()
        if not text:
            continue
        try:
            record = parse_line(text, line_no)
        except DumpCorruptionError:
            return
        yield record, line_no, offset
