"""The query service tier: network access to the embedded engines.

``repro.service`` turns the in-process benchmark engine into a small
client/server system — an asyncio TCP server speaking length-prefixed
JSON frames (:mod:`~repro.service.protocol`) that gives each client
connection its own engine session, admission control with deadlines and
load shedding (:mod:`~repro.service.admission`), and a read-through
result cache invalidated by MVCC write watermarks
(:mod:`~repro.service.cache`). :mod:`~repro.service.client` is the
blocking client library; :mod:`~repro.service.loadgen` the open-loop
fleet that J-X6 uses to measure saturation and overload behaviour.

See ``docs/SERVICE.md`` for the protocol and the cache-consistency
argument.
"""

from repro.service.admission import AdmissionControl, AdmissionTicket
from repro.service.cache import CachedExecutor, ResultCache
from repro.service.client import RemoteResult, ServiceClient
from repro.service.loadgen import run_server_workload
from repro.service.protocol import (
    MAX_FRAME,
    decode_rows,
    encode_frame,
    jsonable_rows,
    read_frame,
    write_frame,
)
from repro.service.server import JackpineServer, ServerConfig

__all__ = [
    "AdmissionControl",
    "AdmissionTicket",
    "CachedExecutor",
    "JackpineServer",
    "MAX_FRAME",
    "RemoteResult",
    "ResultCache",
    "ServerConfig",
    "ServiceClient",
    "decode_rows",
    "encode_frame",
    "jsonable_rows",
    "read_frame",
    "run_server_workload",
    "write_frame",
]
