"""Served workload rounds: the client loop pumped by asyncio tasks.

The client loop itself — schedule, operation mix, write transaction
with serialization retry, failure classification, latency — is
:func:`repro.workload.driver.client_steps`, the same generator the
embedded driver's threads pump. Here every simulated client is an
asyncio task holding one TCP connection and carrying out that
generator's requests over the wire. In open mode arrivals follow a
fixed per-client schedule regardless of completions and latency is
measured from the *scheduled* arrival, so when the server falls behind
the backlog shows up in p99 instead of being omitted (coordinated
omission), exactly like production traffic.

Hundreds of clients are cheap (tasks, not threads), which is what lets
J-X6 push the server past saturation and watch admission control shed
instead of queueing without bound.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any, Dict, List

from repro.obs.requests import TraceContext
from repro.obs.waits import WaitAttribution, summary_delta
from repro.service.client import ServiceClient
from repro.service.protocol import _HEADER, MAX_FRAME, decode_body, \
    encode_frame
from repro.errors import ServiceProtocolError
from repro.workload.mixes import get_mix

__all__ = ["run_server_workload"]


class _AsyncChannel:
    """One framed request/response channel on an asyncio connection."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)

    async def query(self, sql: str, params=()) -> Dict[str, Any]:
        # the fleet propagates trace context like the blocking client:
        # a traced server links each request end to end
        self._writer.write(encode_frame({
            "op": "query", "id": next(self._ids), "sql": sql,
            "params": list(params), "trace": TraceContext.fresh().to_wire(),
        }))
        await self._writer.drain()
        header = await self._reader.readexactly(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME:
            raise ServiceProtocolError(f"oversized response frame {length}")
        return decode_body(await self._reader.readexactly(length))

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _client(host: str, port: int, steps: Any) -> None:
    """The asyncio pump: carry out a client loop's requests on its own
    connection (see :func:`repro.workload.driver.drive_connection`)."""
    from repro.workload.driver import EXECUTE, ROLLBACK

    channel = _AsyncChannel(*await asyncio.open_connection(host, port))
    try:
        outcome = None
        while True:
            try:
                request = steps.send(outcome)
            except StopIteration:
                return
            outcome = None
            if request[0] == EXECUTE:
                response = await channel.query(request[1], request[2])
                error = None if response.get("ok") else (
                    (response.get("error") or {}).get("code", "internal")
                )
                outcome = (error, bool(response.get("cached")))
            elif request[0] == ROLLBACK:
                await channel.query("ROLLBACK")  # best-effort
            else:  # BACKOFF or SLEEP
                await asyncio.sleep(request[1])
    finally:
        await channel.close()


async def _run_fleet(host: str, port: int, streams: List[Any]) -> None:
    await asyncio.gather(*(_client(host, port, steps) for steps in streams))


def run_server_workload(config):
    """Drive the query service at ``config.server`` with
    ``config.clients`` asyncio clients; returns the same
    :class:`WorkloadReport` the embedded driver produces, with the
    ``service``/``cache`` sections filled from the server's own
    counters."""
    from repro.workload.driver import ClientReport, WorkloadReport, \
        client_steps

    config.validate()
    control = ServiceClient.from_address(config.server)
    try:
        control.ping()
        mix = get_mix(config.mix, control, seed=config.seed)
        reports = [
            ClientReport(client_id=slot) for slot in range(config.clients)
        ]
        streams = [client_steps(mix, config, report) for report in reports]
        before = control.server_stats() if config.waits else None
        start = time.perf_counter()
        asyncio.run(_run_fleet(control.host, control.port, streams))
        wall = time.perf_counter() - start
        stats = control.server_stats()
    finally:
        control.close()
    attribution = None
    if before is not None:
        # server-side decomposition over the wire: the serve process
        # exports its wait summary in stats(), so the driver can diff
        # before/after and attribute Net:Recv / Net:Send /
        # Service:QueueWait without shell access to the server. Busy
        # time is the worker pool's wall capacity, the same denominator
        # the embedded driver uses per client thread.
        waits_after = stats.get("waits")
        if waits_after is not None:
            pool_size = (stats.get("pool") or {}).get("size", 1) or 1
            attribution = WaitAttribution(
                summary=summary_delta(
                    before.get("waits") or {}, waits_after
                ),
                busy_seconds=wall * pool_size,
            )
    return WorkloadReport(
        config=config,
        wall_seconds=wall,
        clients=reports,
        attribution=attribution,
        service={
            "address": stats.get("address", config.server),
            "connections_total": stats.get("connections_total", 0),
            "pool": stats.get("pool", {}),
            "admission": stats.get("admission", {}),
        },
        cache=stats.get("cache"),
        requests=stats.get("requests"),
    )
