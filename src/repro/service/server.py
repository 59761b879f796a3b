"""The query service: an asyncio TCP server over one embedded database.

Layering, top to bottom:

- **asyncio event loop** (dedicated thread) owns every socket. It
  parses frames, answers ``ping``/``stats`` inline, and answers a
  result-cache hit inline too: for a connection outside a transaction
  and an SQL text already known to be a cacheable SELECT it makes the
  request's one cache lookup (:meth:`CachedExecutor.probe`), and a hit
  is sent as a frame around the bytes encoded when the entry was
  filled. Everything else meets the first admission gate
  (:meth:`AdmissionControl.try_admit`) *before* it is dispatched, so a
  saturated server sheds with a typed ``overloaded`` frame in
  microseconds instead of queueing the request behind a blocked worker.
  The loop never parses SQL and never touches the engine.
- **worker threads** (``pool_size`` of them) run the blocking engine
  calls: a worker executes on the connection's own session through the
  :class:`CachedExecutor` (watermark-validated result cache; a miss the
  loop already counted is filled without a second lookup) and returns
  the response dict. ``pool_size`` therefore bounds how many statements
  execute at once.
- **one TCP connection is one session**: each accepted connection gets
  its own DB-API connection for its whole life, the way a JDBC client
  holds one. Requests on it are handled strictly in order, a
  transaction spans requests for free, and a disconnect closes the
  session, which rolls back whatever transaction was open.

Overload therefore has two shedding surfaces — queue-full at admit
time and deadline-expired at pickup time — and the remaining deadline
budget is armed as the statement's guardrail timeout so a query cannot
overstay the budget it was admitted under.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.dbapi import connect
from repro.errors import ReproError, ServiceError, ServiceProtocolError
from repro.obs.requests import NULL_REQUEST, RECORDER, TraceContext
from repro.obs.waits import NET_RECV, NET_SEND, WAITS
from repro.service.admission import AdmissionControl
from repro.service.cache import CachedExecutor, ResultCache
from repro.service.protocol import (
    _HEADER,
    MAX_FRAME,
    decode_body,
    encode_frame,
    error_code,
    error_payload,
    result_frame,
)

__all__ = ["ServerConfig", "JackpineServer"]

_EMPTY_CACHE_STATS = {
    "capacity": 0, "entries": 0, "hits": 0, "misses": 0,
    "invalidations": 0, "fills": 0, "bypass": 0,
}


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    #: 0 asks the kernel for an ephemeral port; read it back from
    #: :attr:`JackpineServer.port` after :meth:`~JackpineServer.start`
    port: int = 0
    #: worker threads: how many statements execute at once
    pool_size: int = 4
    max_queue: int = 32
    #: per-request deadline in seconds (queue wait + execution)
    deadline: float = 1.0
    #: result-cache entries; 0 disables the cache entirely
    cache_capacity: int = 256
    #: request tracing + flight recorder (repro.obs.requests); off by
    #: default — an untraced request's measurements are not kept
    trace: bool = False
    #: tail-sampling threshold: requests at or above this retain their
    #: full linked span tree
    trace_slow_ms: float = 100.0
    #: JSON-lines file appended with every tail-sampled request (rotated
    #: at 4 MiB, one ``.1`` backup kept)
    slow_log: Optional[str] = None


class _ClientState:
    """Per-TCP-connection state. Requests on a connection are processed
    sequentially, but shutdown cancellation can land while a worker
    thread is still executing the connection's current request — the
    handler's cleanup then races the worker over the engine session, so
    ``lock`` decides exactly one owner for the close."""

    __slots__ = ("connection", "running", "closed", "lock")

    def __init__(self, connection: Any):
        #: this client's engine session, for the life of the socket
        self.connection = connection
        #: a worker thread is executing this connection's request
        self.running = False
        #: the handler is gone; the worker closes the session
        self.closed = False
        self.lock = threading.Lock()


class JackpineServer:
    def __init__(self, database: Any, config: Optional[ServerConfig] = None):
        self._db = database
        self.config = config or ServerConfig()
        self.host = self.config.host
        self.port = self.config.port
        self.admission = AdmissionControl(
            max_queue=self.config.max_queue,
            deadline=self.config.deadline,
        )
        cache = (
            ResultCache(self.config.cache_capacity)
            if self.config.cache_capacity > 0 else None
        )
        self.cache = cache
        self._cached = CachedExecutor(database, cache)
        self._workers = ThreadPoolExecutor(
            max_workers=self.config.pool_size,
            thread_name_prefix="jackpine-svc",
        )
        #: the one per-request tracing check: which request to begin
        self._tracing = bool(self.config.trace)
        self.connections_open = 0
        self.connections_total = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._client_tasks: "set" = set()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "JackpineServer":
        if self._thread is not None:
            raise ServiceError("server already started")
        if self._tracing:
            RECORDER.start(
                self._db, self.config.trace_slow_ms / 1e3,
                self.config.slow_log,
            )
        self._thread = threading.Thread(
            target=self._run_loop, name="jackpine-service", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise ServiceError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        self._db.service = self
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None \
                and self._thread.is_alive():
            loop, stop = self._loop, self._stop_event
            loop.call_soon_threadsafe(stop.set)
            self._thread.join(timeout=10)
        if getattr(self._db, "service", None) is self:
            self._db.service = None
        self._workers.shutdown(wait=True)
        if self._tracing:
            RECORDER.stop(self._db)

    def __enter__(self) -> "JackpineServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stats(self) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "address": self.address,
            "connections_open": self.connections_open,
            "connections_total": self.connections_total,
            "pool": {"size": self.config.pool_size},
            "admission": self.admission.stats(),
            "cache": (
                self.cache.stats() if self.cache is not None
                else dict(_EMPTY_CACHE_STATS)
            ),
        }
        if self._tracing:
            stats["requests"] = RECORDER.stats()
        if WAITS.enabled:
            # lets a remote workload driver compute server-side wait
            # deltas (Net:Recv / Net:Send / Service:QueueWait) without
            # shell access to the serve process
            stats["waits"] = WAITS.summary()
        return stats

    # -- event loop ----------------------------------------------------------

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._serve())
        except BaseException as exc:  # surfaced by start()
            self._startup_error = exc
        finally:
            self._started.set()
            asyncio.set_event_loop(None)
            loop.close()

    async def _serve(self) -> None:
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        sockname = server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._started.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            for task in list(self._client_tasks):
                task.cancel()
            if self._client_tasks:
                await asyncio.gather(
                    *self._client_tasks, return_exceptions=True
                )

    async def _handle_client(self, reader, writer) -> None:
        state = _ClientState(connect(database=self._db))
        self._client_tasks.add(asyncio.current_task())
        self.connections_open += 1
        self.connections_total += 1
        try:
            while True:
                try:
                    message, recv_seconds = await self._read_message(reader)
                except ServiceProtocolError as exc:
                    await self._send(writer, {
                        "ok": False,
                        "error": error_payload("protocol", str(exc)),
                    })
                    break
                if message is None:
                    break
                response = await self._dispatch(state, message, recv_seconds)
                request = response.pop("_request", NULL_REQUEST)
                close = response.pop("_close", False)
                # the request's record is filed only after its last byte
                # is on the wire, so net.send is part of the trace
                request.finish(
                    await self._send(writer, response, request.trace_id)
                )
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-frame; session closed below
        except asyncio.CancelledError:
            pass  # server shutting down; session closed below
        finally:
            self._client_tasks.discard(asyncio.current_task())
            with state.lock:
                state.closed = True
                owner = not state.running
            if owner:
                # no worker holds the session, so close it here: that
                # rolls back an open transaction. Called inline, not via
                # the executor — this path also runs during shutdown
                # cancellation, where awaits would be cancelled before
                # the rollback happened. When a worker IS still executing
                # (shutdown cancelled this handler mid-request), the
                # worker's _finish_request closes it instead, so the
                # session is never closed while a statement runs on it.
                state.connection.close()
            self.connections_open -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_message(self, reader):
        """One ``(frame, recv_seconds)``; ``(None, 0.0)`` on clean EOF
        between frames. The idle wait for the *header* is the client
        thinking, not the network — only the body read is accounted as
        ``Net:Recv`` (and as the trace's ``net.recv`` stage)."""
        try:
            header = await reader.readexactly(_HEADER.size)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None, 0.0
            raise ServiceProtocolError("connection closed mid-header")
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME:
            raise ServiceProtocolError(
                f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME})"
            )
        start = time.perf_counter()
        body = await reader.readexactly(length)
        seconds = time.perf_counter() - start
        WAITS.record(NET_RECV, seconds)
        return decode_body(body), seconds

    async def _send(self, writer, response: Dict[str, Any],
                    trace_id: Optional[str] = None) -> float:
        """Write one reply, echoing ``trace_id`` when the request has
        one; returns the seconds the drain took (``Net:Send``)."""
        body = response.pop("_body", None)
        if body is not None:
            frame = result_frame(
                response["id"], body, response["cached"], trace_id
            )
        else:
            if trace_id is not None:
                response["trace_id"] = trace_id
            frame = encode_frame(response)
        writer.write(frame)
        start = time.perf_counter()
        await writer.drain()
        seconds = time.perf_counter() - start
        WAITS.record(NET_SEND, seconds)
        return seconds

    async def _dispatch(
        self, state: _ClientState, message: Dict[str, Any],
        recv_seconds: float = 0.0,
    ) -> Dict[str, Any]:
        op = message.get("op")
        rid = message.get("id")
        if op == "ping":
            return {"ok": True, "id": rid, "pong": True}
        if op == "stats":
            return {"ok": True, "id": rid, "stats": self.stats()}
        if op == "trace":
            return self._trace_op(message, rid)
        if op != "query":
            return {
                "ok": False, "id": rid, "_close": True,
                "error": error_payload("protocol", f"unknown op {op!r}"),
            }
        sql = message.get("sql")
        if not isinstance(sql, str):
            return {
                "ok": False, "id": rid, "_close": True,
                "error": error_payload("protocol", "query without sql text"),
            }
        # a context-less (old) client still gets a server-minted trace
        request = (
            RECORDER.begin(
                TraceContext.from_wire(message.get("trace")), sql,
                recv_seconds,
            )
            if self._tracing else NULL_REQUEST
        )
        params = [
            value["$wkt"]
            if isinstance(value, dict) and "$wkt" in value else value
            for value in (message.get("params") or [])
        ]
        probe = None
        if not state.connection.in_transaction:
            # a known SELECT is looked up here, once; a hit is answered
            # from the loop with the bytes its fill encoded — no
            # admission slot, no worker, no engine call
            probe = self._cached.probe(sql, params, request)
            if probe is not None and probe.entry is not None:
                request.complete("ok", cached=True)
                return {
                    "ok": True, "id": rid, "_body": probe.entry.body(),
                    "cached": True, "_request": request,
                }
        ticket = self.admission.try_admit()
        if ticket is None:
            request.complete("shed_queue_full")
            return {
                "ok": False, "id": rid,
                "error": error_payload(
                    "overloaded",
                    f"queue full ({self.admission.max_queue} waiting)",
                    retry_after=self.admission.deadline,
                ),
                "_request": request,
            }
        with state.lock:
            state.running = True
        try:
            future = self._workers.submit(
                self._run_query, state, sql, params, ticket, request, probe
            )
        except RuntimeError:  # executor already shut down during stop
            with state.lock:
                state.running = False
            self.admission.cancel(ticket)
            request.complete("overloaded")
            return {
                "ok": False, "id": rid, "_close": True,
                "error": error_payload(
                    "overloaded", "server shutting down",
                    retry_after=self.admission.deadline,
                ),
                "_request": request,
            }
        try:
            response = await asyncio.wrap_future(future)
        except asyncio.CancelledError:
            # cancel() succeeds only if the worker never started; then
            # _run_query will never run its cleanup, so undo the admit
            # and the running mark here. A worker that DID start keeps
            # running and cleans up via _finish_request.
            if future.cancel() or future.cancelled():
                with state.lock:
                    state.running = False
                self.admission.cancel(ticket)
            raise
        response["id"] = rid
        response["_request"] = request
        return response

    def _trace_op(self, message: Dict[str, Any], rid) -> Dict[str, Any]:
        """``{"op": "trace"}`` lists brief rows; with a ``trace_id`` it
        returns that request's full record (``None`` when evicted)."""
        trace_id = message.get("trace_id")
        if trace_id is None:
            return {
                "ok": True, "id": rid,
                "records": [r.brief() for r in RECORDER.records()],
            }
        record = RECORDER.lookup(str(trace_id))
        return {
            "ok": True, "id": rid,
            "record": record.as_dict() if record is not None else None,
        }

    # -- worker-thread side --------------------------------------------------

    def _run_query(
        self, state: _ClientState, sql: str, params, ticket, request,
        probe=None,
    ) -> Dict[str, Any]:
        """Runs on a worker thread; returns the response dict and never
        raises (every failure becomes a typed error payload). ``probe``
        is the loop's cache miss for this request, if it looked."""
        began = False
        try:
            budget = self.admission.begin(ticket, request)
            began = True
            # bound to this thread so the query_end hook files the
            # executor trace with *this* request, not a neighbour's
            request.bind()
            try:
                entry, cached = self._cached.resolve(
                    state.connection, sql, params, timeout=budget,
                    request=request, probe=probe,
                )
            finally:
                request.unbind()
            request.complete("ok", cached=cached)
            return {"ok": True, "_body": entry.body(), "cached": cached}
        except Exception as exc:
            code = error_code(exc)
            # a shed at pickup (the deadline expired in the queue) keeps
            # the wire code ``overloaded`` and is filed as what it is
            request.complete(code if began else "shed_deadline")
            # a non-ReproError is a broken engine invariant: name it
            message = (
                str(exc) if isinstance(exc, ReproError)
                else f"{type(exc).__name__}: {exc}"
            )
            extra = (
                {"retry_after": exc.retry_after} if code == "overloaded"
                else {}
            )
            return {
                "ok": False, "error": error_payload(code, message, **extra)
            }
        finally:
            self._finish_request(state)
            if began:
                self.admission.done()

    @staticmethod
    def _finish_request(state: _ClientState) -> None:
        """The worker's last act for a request. If the handler went away
        while this worker ran (shutdown cancelled it mid-request), the
        handler left the session to us: close it here, on the worker,
        once the statement is done with it."""
        with state.lock:
            state.running = False
            closing = state.closed
        if closing:
            state.connection.close()

