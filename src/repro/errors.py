"""Exception hierarchy shared by every subsystem in the reproduction.

The hierarchy mirrors how a real spatial DBMS separates faults: geometry
construction/parsing problems, algorithmic failures on valid input, SQL
front-end errors, and engine/driver errors (the latter two also feed the
PEP 249 hierarchy in :mod:`repro.dbapi`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GeometryError(ReproError):
    """Invalid geometry construction or an operation on unsuitable input."""


class WktParseError(GeometryError):
    """Malformed Well-Known Text."""

    def __init__(self, message: str, position: int = -1):
        if position >= 0:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class WkbParseError(GeometryError):
    """Malformed Well-Known Binary."""


class TopologyError(GeometryError):
    """A computational-geometry routine could not produce a valid result."""


class SqlError(ReproError):
    """Base class for SQL front-end problems."""


class SqlProgrammingError(SqlError):
    """The statement itself is wrong as written (syntax or analysis)."""


class SqlSyntaxError(SqlProgrammingError):
    """The statement failed to lex or parse."""


class SqlPlanError(SqlProgrammingError):
    """The statement parsed but cannot be planned (unknown table/column...)."""


class UnsupportedFeatureError(SqlError):
    """The engine profile does not implement the requested spatial feature.

    Mirrors the feature-matrix differences Jackpine reports between DBMSes:
    a benchmark query that uses an unsupported function fails with this
    error and is recorded as "not supported" rather than timed.
    """


class EngineError(ReproError):
    """Internal engine failure (catalog corruption, executor invariant...)."""


class GuardrailError(EngineError):
    """Base class for statements stopped by an execution guardrail.

    Guardrail trips are operational conditions, not programming errors:
    the same statement may succeed with a longer deadline or a larger
    budget. They map to PEP 249 ``OperationalError``.
    """


class QueryTimeoutError(GuardrailError):
    """The statement exceeded its wall-clock deadline."""


class QueryCancelledError(GuardrailError):
    """The statement observed a cooperative cancellation request."""


class MemoryBudgetError(GuardrailError):
    """The statement tried to buffer more rows/bytes than its budget."""


class TransientError(EngineError):
    """An operation failed in a way that is safe to retry.

    The benchmark harness retries these with exponential backoff; any
    other :class:`ReproError` is treated as permanent.
    """


class InjectedFaultError(TransientError):
    """Raised by an armed :mod:`repro.faults` failure point."""


class SerializationError(TransientError):
    """A transaction lost a write-write conflict (first-updater-wins) or
    timed out waiting for a row lock (the deadlock-detection fallback).

    Subclasses :class:`TransientError` on purpose: aborting and retrying
    the whole transaction is the standard client response under snapshot
    isolation, and the benchmark harness's retry-with-backoff path picks
    these up unchanged.
    """


class ServiceError(ReproError):
    """Base class for query service tier failures (repro.service)."""

    #: wire code carried in the typed error response
    code = "service"


class ServiceProtocolError(ServiceError):
    """A malformed frame or an unknown request operation."""

    code = "protocol"


class ServiceOverloadedError(ServiceError):
    """The server shed this request (queue full or deadline expired).

    Subclasses neither :class:`TransientError` nor any engine error on
    purpose: shedding is the *server* protecting itself, and the typed
    response tells the client to back off (``retry_after`` seconds)
    rather than hammer the retry path.
    """

    code = "overloaded"

    def __init__(self, message: str, retry_after: float = 0.1):
        super().__init__(message)
        self.retry_after = retry_after


class DumpCorruptionError(EngineError):
    """A WAL line or heap page header failed validation (bad checksum,
    torn record, ...). The name is kept as the PEP 249
    ``IntegrityError`` alias (:data:`repro.dbapi.ERROR_MAP`)."""

    def __init__(self, message: str, line_no: int = -1):
        if line_no >= 0:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class SimulatedCrashError(EngineError):
    """Raised by the crash harness: the process is considered killed at this
    instant.

    When an armed WAL/page fault site fires with this error class, the
    durability layer *freezes first* — the WAL is truncated back to its
    last fsynced offset and every subsequent durable write raises — so the
    engine's post-error cleanup cannot retroactively "un-crash" the disk.
    Recovery then sees exactly what a kill -9 would have left behind.

    Deliberately not a :class:`TransientError`: retrying against a crashed
    durability layer is pointless, and the workload driver must not spin.
    """
