"""PEP 249 (DB-API 2.0) driver over the embedded engines.

This is the reproduction's analogue of the paper's JDBC portability
layer: the entire benchmark is written against :func:`connect` /
:class:`Connection` / :class:`Cursor`, and switching the engine under
test is just ``connect(engine="bluestem")``.

Module-level attributes required by PEP 249 (``apilevel``, ``paramstyle``,
exception hierarchy) are provided so generic DB-API tooling works. Every
public :class:`~repro.errors.ReproError` subclass is catchable through
exactly one PEP 249 name (see :data:`ERROR_MAP`):

========================  ==========================================
PEP 249 name              library errors caught
========================  ==========================================
``InterfaceError``        driver misuse (closed connection/cursor)
``DataError``             geometry parse/validity, topology failures
``OperationalError``      guardrail trips (timeout, cancel, memory
                          budget), transient/injected faults
``IntegrityError``        WAL/page corruption (bad checksum, torn
                          record)
``ProgrammingError``      SQL syntax and planning errors
``NotSupportedError``     profile feature gaps
``DatabaseError``         any engine-side failure
========================  ==========================================
"""

from repro.dbapi.connection import Connection, Cursor, InterfaceError, connect
from repro.errors import (
    DumpCorruptionError,
    SimulatedCrashError,
    EngineError,
    GeometryError,
    GuardrailError,
    InjectedFaultError,
    MemoryBudgetError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    SerializationError,
    ServiceError,
    ServiceOverloadedError,
    ServiceProtocolError,
    SqlError,
    SqlPlanError,
    SqlProgrammingError,
    SqlSyntaxError,
    TopologyError,
    TransientError,
    UnsupportedFeatureError,
    WkbParseError,
    WktParseError,
)

apilevel = "2.0"
threadsafety = 1  # threads may share the module, not connections
paramstyle = "qmark"


# -- PEP 249 exception hierarchy, aliased onto the library's own errors ----


class Warning(Exception):  # noqa: A001 - name mandated by PEP 249
    pass


Error = ReproError
DatabaseError = EngineError
DataError = GeometryError
OperationalError = EngineError
IntegrityError = DumpCorruptionError
InternalError = EngineError
ProgrammingError = SqlProgrammingError
NotSupportedError = UnsupportedFeatureError

#: every public library error -> the PEP 249 name that catches it; the
#: table-driven mapping test asserts this stays total over repro.errors
ERROR_MAP = {
    ReproError: Error,
    GeometryError: DataError,
    WktParseError: DataError,
    WkbParseError: DataError,
    TopologyError: DataError,
    SqlError: Error,
    SqlProgrammingError: ProgrammingError,
    SqlSyntaxError: ProgrammingError,
    SqlPlanError: ProgrammingError,
    UnsupportedFeatureError: NotSupportedError,
    EngineError: DatabaseError,
    GuardrailError: OperationalError,
    QueryTimeoutError: OperationalError,
    QueryCancelledError: OperationalError,
    MemoryBudgetError: OperationalError,
    TransientError: OperationalError,
    InjectedFaultError: OperationalError,
    SerializationError: OperationalError,
    DumpCorruptionError: IntegrityError,
    SimulatedCrashError: OperationalError,
    InterfaceError: InterfaceError,
    # service-tier errors are client-side conditions (shed request,
    # torn frame), not engine failures: they catch as plain Error
    ServiceError: Error,
    ServiceProtocolError: Error,
    ServiceOverloadedError: Error,
}


def error_class(exc: "BaseException | type") -> type:
    """The most specific PEP 249 class that catches ``exc``.

    Accepts an exception instance or class; walks the MRO so subclasses
    defined outside :mod:`repro.errors` resolve through their parents.
    """
    cls = exc if isinstance(exc, type) else type(exc)
    for base in cls.__mro__:
        mapped = ERROR_MAP.get(base)
        if mapped is not None:
            return mapped
    return Error


__all__ = [
    "Connection",
    "Cursor",
    "connect",
    "apilevel",
    "threadsafety",
    "paramstyle",
    "Warning",
    "Error",
    "InterfaceError",
    "DatabaseError",
    "DataError",
    "OperationalError",
    "IntegrityError",
    "InternalError",
    "ProgrammingError",
    "NotSupportedError",
    "ERROR_MAP",
    "error_class",
]
