"""DB-API 2.0 Connection and Cursor over :class:`repro.engines.Database`."""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.engines.database import Database, ResultSet
from repro.errors import SqlError
from repro.guard import CancelToken, Guardrails
from repro.txn import Session


class InterfaceError(SqlError):
    """Driver-level misuse: operating on a closed connection or cursor."""


def connect(
    engine: str = "greenwood",
    database: Optional[Database] = None,
    timeout: Optional[float] = None,
    max_rows: Optional[int] = None,
    max_bytes: Optional[int] = None,
) -> "Connection":
    """Open a connection to an embedded engine.

    ``engine`` selects the profile (``greenwood``/``bluestem``/``ironbark``);
    pass an existing ``database`` to share one datastore across
    connections (the benchmark loads once and reconnects per scenario).
    ``timeout`` / ``max_rows`` / ``max_bytes`` become this connection's
    default guardrails, layered over the database's own defaults and
    under any per-``execute`` overrides.
    """
    return Connection(
        database or Database(engine),
        timeout=timeout, max_rows=max_rows, max_bytes=max_bytes,
    )


class Connection:
    def __init__(
        self,
        database: Database,
        timeout: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        self.database = database
        #: connection-default guardrails; ``None`` fields defer to the
        #: database's :attr:`~repro.engines.database.Database.guardrails`
        self.guardrails = Guardrails(
            timeout=timeout, max_rows=max_rows, max_bytes=max_bytes
        )
        #: per-connection transaction state; statements run auto-commit
        #: until ``BEGIN`` opens a transaction on this session
        self.session = Session()
        self._closed = False

    def commit(self) -> None:
        """Commit the open transaction; a no-op in auto-commit mode (no
        ``BEGIN`` was issued), per PEP 249 convention."""
        self._check_open()
        if self.session.txn is not None:
            self.database.execute("COMMIT", session=self.session)

    def rollback(self) -> None:
        """Roll back the open transaction; a no-op in auto-commit mode."""
        self._check_open()
        if self.session.txn is not None:
            self.database.execute("ROLLBACK", session=self.session)

    def close(self) -> None:
        # PEP 249: closing with a pending transaction rolls it back
        if not self._closed and self.session.txn is not None:
            self.database.execute("ROLLBACK", session=self.session)
        self._closed = True

    @property
    def in_transaction(self) -> bool:
        """Whether a ``BEGIN`` is open on this connection (sqlite3-style)."""
        return self.session.txn is not None

    def cursor(self) -> "Cursor":
        self._check_open()
        return Cursor(self)

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    # convenience mirrors of the engine API
    @property
    def stats(self):
        return self.database.stats

    @property
    def obs(self):
        """The engine's observability switchboard (tracing/metrics/hooks)."""
        return self.database.obs

    @property
    def metrics(self):
        """Per-connection metrics registry (chained to the global one)."""
        return self.database.obs.metrics

    def last_trace(self):
        """Most recent statement trace (enable via ``obs.enable_tracing()``)."""
        return self.database.last_trace()

    def explain(self, sql: str) -> str:
        self._check_open()
        return self.database.explain(sql)

    def explain_analyze(self, sql: str, params: Sequence[Any] = ()) -> str:
        """``EXPLAIN ANALYZE`` as this connection sees it: inside its open
        transaction, under its default guardrails."""
        self._check_open()
        limits = self.guardrails
        return self.database.explain_analyze(
            sql, params, session=self.session, timeout=limits.timeout,
            max_rows=limits.max_rows, max_bytes=limits.max_bytes,
        )

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Cursor:
    arraysize = 1

    def __init__(self, connection: Connection):
        self.connection = connection
        self._result: Optional[ResultSet] = None
        self._position = 0
        self._closed = False

    # -- PEP 249 surface ------------------------------------------------------

    @property
    def description(
        self,
    ) -> Optional[List[Tuple[str, None, None, None, None, None, None]]]:
        if self._result is None or not self._result.columns:
            return None
        return [
            (name, None, None, None, None, None, None)
            for name in self._result.columns
        ]

    @property
    def rowcount(self) -> int:
        if self._result is None:
            return -1
        return self._result.rowcount

    def execute(
        self,
        sql: str,
        params: Sequence[Any] = (),
        *,
        timeout: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_bytes: Optional[int] = None,
        cancel: Optional[CancelToken] = None,
    ) -> "Cursor":
        self._check_open()
        defaults = self.connection.guardrails
        self._result = self.connection.database.execute(
            sql, params,
            timeout=timeout if timeout is not None else defaults.timeout,
            max_rows=max_rows if max_rows is not None else defaults.max_rows,
            max_bytes=(
                max_bytes if max_bytes is not None else defaults.max_bytes
            ),
            cancel=cancel,
            session=self.connection.session,
        )
        self._position = 0
        return self

    def executemany(
        self, sql: str, seq_of_params: Sequence[Sequence[Any]]
    ) -> "Cursor":
        self._check_open()
        # through execute, so the connection's guardrails apply per call
        total = sum(
            self.execute(sql, params).rowcount for params in seq_of_params
        )
        self._result = ResultSet([], [], total)
        self._position = 0
        return self

    def fetchone(self) -> Optional[tuple]:
        rows = self._rows()
        if self._position >= len(rows):
            return None
        row = rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> List[tuple]:
        rows = self._rows()
        n = size if size is not None else self.arraysize
        chunk = rows[self._position : self._position + n]
        self._position += len(chunk)
        return chunk

    def fetchall(self) -> List[tuple]:
        rows = self._rows()
        chunk = rows[self._position :]
        self._position = len(rows)
        return chunk

    def close(self) -> None:
        self._closed = True
        self._result = None

    def setinputsizes(self, sizes) -> None:  # PEP 249 no-op
        pass

    def setoutputsize(self, size, column=None) -> None:  # PEP 249 no-op
        pass

    def __iter__(self) -> Iterator[tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- helpers -----------------------------------------------------------------

    def _rows(self) -> List[tuple]:
        self._check_open()
        if self._result is None:
            raise InterfaceError("no query has been executed")
        return self._result.rows

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()
