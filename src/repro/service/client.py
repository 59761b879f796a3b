"""Blocking client for the query service.

.. code-block:: python

    with ServiceClient("127.0.0.1", 5544) as client:
        result = client.execute(
            "SELECT name FROM counties WHERE gid = ?", (7,)
        )
        result.rows      # list of tuples; geometry as WKT strings
        result.cached    # True when served from the server's result cache

Errors come back typed: an ``overloaded`` response raises
:class:`ServiceOverloadedError` (with the server's suggested
``retry_after``), everything else a :class:`ServiceError` whose ``code``
matches the wire code (``timeout`` / ``serialization`` / ``sql`` /
``protocol`` / ``internal``), so retry loops can branch on the class
exactly as they would against the embedded engine.
"""

from __future__ import annotations

import itertools
import socket
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ServiceError, ServiceOverloadedError
from repro.obs.requests import TraceContext
from repro.service.protocol import (
    decode_rows,
    read_frame,
    write_frame,
)

__all__ = ["ServiceClient", "RemoteResult"]


class RemoteResult:
    __slots__ = ("columns", "rows", "rowcount", "cached", "trace_id")

    def __init__(self, columns: List[str], rows: List[tuple],
                 rowcount: int, cached: bool,
                 trace_id: Optional[str] = None):
        self.columns = columns
        self.rows = rows
        self.rowcount = rowcount
        self.cached = cached
        #: the request's trace id when either side traced it
        self.trace_id = trace_id

    def __repr__(self) -> str:
        return (
            f"RemoteResult(rows={len(self.rows)}, rowcount={self.rowcount}, "
            f"cached={self.cached})"
        )


def _raise_typed(error: Dict[str, Any]) -> None:
    code = error.get("code", "internal")
    message = error.get("message", "service error")
    if code == "overloaded":
        raise ServiceOverloadedError(
            message, retry_after=float(error.get("retry_after", 0.1))
        )
    exc = ServiceError(message)
    exc.code = code
    raise exc


class ServiceClient:
    """One TCP connection = one server session (ordered requests; the
    transaction state lives in that session, on the server)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 trace: bool = True):
        self.host = host
        self.port = port
        #: attach a trace context to every query (a handful of cheap id
        #: bytes per request; pass trace=False for a byte-identical wire
        #: image of the pre-tracing protocol)
        self.trace = trace
        #: trace id of the most recent query (for ``jackpine trace``)
        self.last_trace_id: Optional[str] = None
        self._ids = itertools.count(1)
        self._sock: Optional[socket.socket] = socket.create_connection(
            (host, port), timeout=timeout
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    @classmethod
    def from_address(cls, address: str, timeout: float = 30.0,
                     trace: bool = True) -> "ServiceClient":
        """``host:port`` string form, as ``--server`` takes it."""
        host, _, port = address.rpartition(":")
        return cls(host or "127.0.0.1", int(port), timeout=timeout,
                   trace=trace)

    # -- request/response ----------------------------------------------------

    def _roundtrip(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._sock is None:
            raise ServiceError("client is closed")
        request["id"] = next(self._ids)
        try:
            write_frame(self._sock, request)
            response = read_frame(self._sock)
        except (ConnectionError, socket.timeout, OSError) as exc:
            self.close()
            raise ServiceError(f"connection lost: {exc}") from exc
        if response is None:
            self.close()
            raise ServiceError("server closed the connection")
        if not response.get("ok"):
            _raise_typed(response.get("error") or {})
        return response

    def execute(self, sql: str, params: Sequence[Any] = ()
                ) -> RemoteResult:
        wire_params = [
            {"$wkt": p.wkt()} if callable(getattr(p, "wkt", None)) else p
            for p in params
        ]
        request: Dict[str, Any] = {
            "op": "query", "sql": sql, "params": wire_params,
        }
        if self.trace:
            ctx = TraceContext.fresh()
            request["trace"] = ctx.to_wire()
        response = self._roundtrip(request)
        trace_id = response.get("trace_id")
        self.last_trace_id = trace_id if isinstance(trace_id, str) else None
        return RemoteResult(
            columns=list(response.get("columns") or []),
            rows=decode_rows(response.get("rows") or []),
            rowcount=int(response.get("rowcount") or 0),
            cached=bool(response.get("cached")),
            trace_id=self.last_trace_id,
        )

    def ping(self) -> bool:
        return bool(self._roundtrip({"op": "ping"}).get("pong"))

    def server_stats(self) -> Dict[str, Any]:
        return self._roundtrip({"op": "stats"})["stats"]

    def trace_record(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """One flight-recorder record from the server (as a plain dict),
        or ``None`` when the id is unknown or already evicted."""
        return self._roundtrip({"op": "trace", "trace_id": trace_id}).get(
            "record"
        )

    def trace_records(self) -> List[Dict[str, Any]]:
        """Brief rows for every buffered request, oldest first."""
        return self._roundtrip({"op": "trace"}).get("records") or []

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
