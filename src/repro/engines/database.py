"""The in-process spatial database engine.

One :class:`Database` owns a catalog, a function registry and an engine
profile. It executes parsed statements and returns result sets. The three
benchmarked engines are the same machinery instantiated with the three
profiles — exactly the paper's setup of "one benchmark, N JDBC targets",
with profiles standing in for distinct server products.

Concurrency model (see ``docs/CONCURRENCY.md``): physical access runs
under a per-statement readers-writer latch (SELECTs shared, everything
else exclusive), while *isolation* comes from the snapshot-isolation
MVCC layer in :mod:`repro.txn` — row versions stamped with xmin/xmax,
per-connection sessions, and first-updater-wins row write locks. Every
write is a transaction (an auto-commit statement runs in an implicit
single-statement one); with none open every row is frozen and reads
skip visibility checks.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from itertools import compress
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engines.profiles import EngineProfile, get_profile
from repro.engines.sysviews import install_system_views
from repro.errors import (
    GuardrailError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    SerializationError,
    SqlPlanError,
    SqlProgrammingError,
)
from repro.faults import FAULTS
from repro.guard import CancelToken, ExecutionGuard, Guardrails
from repro.index import make_index
from repro.index.base import SpatialIndex
from repro.index.key import KeyIndex
from repro.obs import Observability, Trace
from repro.obs.waits import WAITS
from repro.sql import ast
from repro.sql.compiler import Compiler, Scope
from repro.sql.executor import (
    Batch,
    ExecContext,
    SpanNode,
    Stats,
    scalar,
)
from repro.sql.functions import FunctionRegistry
from repro.sql.parser import parse
from repro.sql.planner import Planner, is_txn_control
from repro.storage.catalog import Catalog, IndexEntry
from repro.storage.durability import NoDurability, index_record
from repro.storage.table import Column, ColumnType, Table
from repro.txn import ACTIVE, Session, TxnManager, Transaction
from repro.txn.locks import SharedExclusiveLock


#: statements that change rows, never the schema or the statistics
_DML = (ast.Insert, ast.Delete, ast.Update)


class ResultSet:
    """Materialised query result: column names + row tuples."""

    __slots__ = ("columns", "rows", "rowcount")

    def __init__(self, columns: List[str], rows: List[tuple],
                 rowcount: int = -1):
        self.columns = columns
        self.rows = rows
        self.rowcount = rowcount if rowcount >= 0 else len(rows)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """First column of the first row (for COUNT-style queries)."""
        if not self.rows:
            raise SqlPlanError("result set is empty")
        return self.rows[0][0]


class Database:
    """An embedded spatial database with one of the benchmark profiles."""

    #: SELECT plans cached per SQL text (the PreparedStatement analogue);
    #: bounded, and flushed whenever the schema changes
    PLAN_CACHE_SIZE = 256

    def __init__(self, profile: "EngineProfile | str" = "greenwood"):
        if isinstance(profile, str):
            profile = get_profile(profile)
        self.profile = profile
        self.catalog = Catalog()
        self.registry = FunctionRegistry()
        self.stats = Stats()
        self.obs = Observability()
        self.obs.metrics.bind_stats(self.profile.name, self.stats)
        #: default execution limits for every statement on this database;
        #: per-call overrides win (see :meth:`execute`)
        self.guardrails = Guardrails()
        self._planner = Planner(self.catalog, self.registry, self.profile)
        self._plan_cache: "OrderedDict[str, tuple]" = OrderedDict()
        self._parse_cache: "OrderedDict[str, ast.Statement]" = OrderedDict()
        #: the MVCC transaction manager (txn ids, snapshots, row locks)
        self.txn = TxnManager(self)
        #: durable page/WAL storage, attached via :meth:`attach_storage` /
        #: :meth:`open`; until then a :class:`NoDurability` keeps the
        #: engine purely in-memory. Only COMMIT (row records) and DDL
        #: reach it
        self.durability = NoDurability()
        # per-statement physical latch: SELECT shared, mutation exclusive;
        # never held across statements (isolation is the txn layer's job)
        self._latch = SharedExclusiveLock()
        # default session for direct Database callers; each DB-API
        # connection carries its own (transactions are per-session)
        self._session = Session()
        # LRU caches and the shared Stats object are mutated from every
        # client thread; statements run on private Stats shards that are
        # folded in under _stats_lock when the statement finishes
        self._cache_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        #: per-table committed-write watermarks (table name -> xid of the
        #: last committed write), the service result cache's invalidation
        #: source. Plain dict assignment under the GIL — the embedded
        #: write path pays one dict store per committed write statement
        #: (pinned by benchmarks/test_bench_disabled_overhead.py)
        self.write_marks: Dict[str, int] = {}
        #: the running query service, set by repro.service.JackpineServer
        #: while serving and read by the jackpine_service system view
        self.service = None
        # jackpine_* system views: SQL-queryable windows onto this
        # database's own statistics (scanned like any other table)
        install_system_views(self)

    # -- public API --------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str,
        profile: "EngineProfile | str | None" = None,
        buffer_pages: int = 128,
    ) -> "Database":
        """Open (or create) a durable database directory.

        A directory that already holds a WAL goes through crash recovery
        (:func:`repro.storage.durability.recover`) — committed work is
        rebuilt; uncommitted work was never logged. A fresh directory
        gets empty storage attached. ``profile=None`` means the profile
        the WAL header records (greenwood for a fresh directory); an
        explicit profile overrides it.
        """
        import os

        from repro.storage.durability import WAL_FILE, recover

        if isinstance(profile, str):
            profile = get_profile(profile)
        if os.path.exists(os.path.join(directory, WAL_FILE)):
            db, _report = recover(
                directory, profile=profile.name if profile else None,
                buffer_pages=buffer_pages,
            )
            return db
        db = cls(profile or "greenwood")
        db.attach_storage(directory, buffer_pages=buffer_pages)
        return db

    def attach_storage(self, directory: str, buffer_pages: int = 128) -> None:
        """Attach durable page/WAL storage to this database.

        Any rows already in memory (a loaded benchmark dataset) are
        mirrored to the heap pages and checkpointed, so the attach point
        itself is durable. ``buffer_pages`` bounds how many heap pages
        are held in memory. Use :meth:`open` for a directory that
        already contains storage.
        """
        import os

        from repro.storage.durability import (
            WAL_FILE,
            DurabilityManager,
        )

        if self.durability.attached:
            raise SqlProgrammingError("durable storage is already attached")
        if os.path.exists(os.path.join(directory, WAL_FILE)):
            raise SqlProgrammingError(
                f"{directory!r} already holds a database; "
                f"use Database.open() to recover it"
            )
        manager = DurabilityManager(
            directory, buffer_pages=buffer_pages, profile=self.profile.name
        )
        manager.bind(self)
        with self._latch.exclusive():
            self.durability = manager
            manager.mirror_existing_rows()
            manager.checkpoint()

    def checkpoint(self):
        """Replay the WAL onto the pages, flush them, and rewrite the WAL
        to a checkpoint record; raises :class:`SqlProgrammingError`
        without storage."""
        with self._latch.exclusive():
            report = self.durability.checkpoint()
        self.obs.metrics.counter(
            "checkpoints_total", "checkpoints completed"
        ).inc()
        return report

    def close(self) -> None:
        """Clean shutdown: checkpoint (if durable) and release files."""
        if self.durability.attached and not self.durability.crashed:
            self.checkpoint()
        self.durability.close()

    @property
    def join_strategy(self) -> str:
        """Spatial join algorithm: "auto" (cost-based) or a forced one of
        "inlj" / "tree" / "nlj"; anything else raises ``SqlPlanError``."""
        return self._planner.join_strategy

    @join_strategy.setter
    def join_strategy(self, strategy: str) -> None:
        from repro.sql.planner import JOIN_STRATEGIES

        if strategy not in JOIN_STRATEGIES:
            raise SqlPlanError(
                f"unknown join strategy {strategy!r}; "
                f"expected one of {', '.join(JOIN_STRATEGIES)}"
            )
        self._planner.join_strategy = strategy
        with self._cache_lock:
            self._plan_cache.clear()

    def last_trace(self) -> Optional[Trace]:
        """The most recent statement trace (requires ``obs.enable_tracing()``)."""
        return self.obs.last_trace

    def execute(
        self,
        sql: str,
        params: Sequence[Any] = (),
        *,
        timeout: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_bytes: Optional[int] = None,
        cancel: Optional[CancelToken] = None,
        session: Optional[Session] = None,
    ) -> ResultSet:
        """Parse and run one statement (parse results and SELECT plans are
        cached per SQL text with LRU eviction, the way a driver reuses
        prepared statements).

        ``timeout`` / ``max_rows`` / ``max_bytes`` / ``cancel`` arm
        per-statement guardrails over :attr:`guardrails` defaults; a
        tripped limit raises :class:`QueryTimeoutError`,
        :class:`MemoryBudgetError` or :class:`QueryCancelledError`. The
        failed statement leaves no cached plan poisoned — plans cache the
        *strategy*, never results.

        ``session`` carries per-connection transaction state; without
        one, the database's default session is used. Any
        :class:`ReproError` raised mid-statement while the session has an
        open transaction — a guardrail deadline, a serialization
        conflict, an injected fault — aborts that transaction before the
        error propagates, so a failed statement never leaves a
        half-applied transaction behind.
        """
        guard = self.guardrails.start(
            timeout=timeout, max_rows=max_rows, max_bytes=max_bytes,
            cancel=cancel,
        )
        return self._run(sql, params, guard, session)[0]

    def _run(
        self,
        sql: str,
        params: Sequence[Any],
        guard: Optional[ExecutionGuard],
        session: Optional[Session],
        analyze: bool = False,
    ) -> Tuple[ResultSet, Optional[Trace]]:
        """The one statement path: every statement kind, observed or not,
        and ``EXPLAIN ANALYZE`` (``analyze``) run through this body.

        What varies is data: the latch mode (shared for SELECT, exclusive
        otherwise), whether a SELECT's plan comes from the cache or is
        planned afresh under a :class:`~repro.sql.executor.SpanNode` tree
        (span wrapping grafts the plan's child pointers, so a cached plan
        is never wrapped), and whether — under the single ``obs.active``
        bool — one :class:`~repro.obs.Trace` event is built on the way
        out, success or failure, and handed to ``obs.record``. With
        observability off no clock is read and nothing is built.
        """
        if session is None:
            session = self._session
        statement = self._parse_statement(sql)
        is_select = isinstance(statement, ast.Select)
        if analyze and not is_select:
            raise SqlPlanError(
                "EXPLAIN ANALYZE supports SELECT statements only"
            )
        params = tuple(params)
        obs = self.obs
        observed = obs.active or analyze
        shard = Stats()
        waits_on = WAITS.enabled
        waits = None
        if waits_on:
            txn = session.txn
            WAITS.begin_statement(
                sql, self.profile.name,
                txn.txid if txn is not None else None,
                session.session_id,
            )
            # the live shard is the session's rows-processed progress
            WAITS.attach_shard(shard)
        if observed:
            for callback in obs.query_start:
                callback(sql, params)
            started_at = time.time()
            start = time.perf_counter()
        plan = None
        result: Optional[ResultSet] = None
        trace: Optional[Trace] = None
        outcome = "error"
        try:
            latch = self._latch
            with latch.shared() if is_select else latch.exclusive():
                if not is_select and is_txn_control(statement):
                    # touches no counter and no plan: nothing to merge
                    # or flush, so BEGIN/COMMIT cost a latch and a call
                    result = self._run_txn_control(statement, session)
                else:
                    try:
                        if is_select:
                            if observed and (analyze or obs.tracing):
                                plan, names = self._planner.plan_select(
                                    statement
                                )
                                plan = SpanNode(plan)
                            else:
                                plan, names = self._cached_plan(
                                    sql, statement, shard
                                )
                            ctx = ExecContext(
                                params, self.profile, self.registry,
                                self.catalog, shard, guard,
                                self._snapshot_for(session),
                            )
                            result = ResultSet(
                                names, self._collect(plan, ctx)
                            )
                        else:
                            if not isinstance(statement, _DML):
                                # DDL and ANALYZE change what a plan may
                                # assume; a plan never caches data, so
                                # it survives INSERT/UPDATE/DELETE
                                with self._cache_lock:
                                    self._plan_cache.clear()
                            result = self._dispatch_statement(
                                statement, params, guard, session, shard
                            )
                    finally:
                        self._merge_stats(shard)
            outcome = "ok"
        except ReproError as exc:
            if isinstance(exc, SerializationError):
                outcome = "abort"
            elif isinstance(exc, QueryTimeoutError):
                outcome = "timeout"
            elif isinstance(exc, QueryCancelledError):
                outcome = "cancelled"
            self._abort_session(session)
            raise
        finally:
            if waits_on:
                waits = WAITS.end_statement()
            if observed:
                trace = Trace(
                    sql=sql,
                    engine=self.profile.name,
                    statement=type(statement).__name__,
                    seconds=time.perf_counter() - start,
                    started_at=started_at,
                    rows=result.rowcount if result is not None else 0,
                    counters={
                        key: value
                        for key, value in shard.snapshot().items()
                        if value
                    },
                    root=plan.span if isinstance(plan, SpanNode) else None,
                    outcome=outcome,
                    waits=waits,
                    plan=plan,
                )
                obs.record(trace)
        return result, trace

    def _parse_statement(self, sql: str) -> ast.Statement:
        """LRU-cached parse of one SQL text."""
        with self._cache_lock:
            statement = self._parse_cache.get(sql)
            if statement is not None:
                self._parse_cache.move_to_end(sql)
                return statement
        statement = parse(sql)
        with self._cache_lock:
            if len(self._parse_cache) >= self.PLAN_CACHE_SIZE:
                self._parse_cache.popitem(last=False)
            self._parse_cache[sql] = statement
        return statement

    def _cached_plan(
        self, sql: str, statement: ast.Select, stats: Stats
    ) -> tuple:
        """LRU-cached SELECT plan; hit/miss counters land on the caller's
        per-statement shard (never the shared Stats, which would race)."""
        with self._cache_lock:
            cached = self._plan_cache.get(sql)
            if cached is not None:
                stats.plan_cache_hits += 1
                self._plan_cache.move_to_end(sql)
                return cached
        stats.plan_cache_misses += 1
        cached = self._planner.plan_select(statement)
        with self._cache_lock:
            existing = self._plan_cache.get(sql)
            if existing is not None:
                return existing
            if len(self._plan_cache) >= self.PLAN_CACHE_SIZE:
                self._plan_cache.popitem(last=False)
            self._plan_cache[sql] = cached
        return cached

    def _merge_stats(self, shard: Stats) -> None:
        with self._stats_lock:
            self.stats.merge(shard)

    def _snapshot_for(self, session: Session):
        """The statement's MVCC snapshot: the open transaction's, a fresh
        single-statement snapshot while other transactions are active, or
        ``None`` on the no-transactions fast path."""
        txn = session.txn
        if txn is not None:
            return txn.snapshot
        return self.txn.read_snapshot()

    def _abort_session(self, session: Session) -> None:
        """Roll back the session's open transaction (statement failed)."""
        txn = session.txn
        if txn is None:
            return
        session.txn = None
        with self._latch.exclusive():
            if txn.status is ACTIVE:
                self.txn.rollback(txn)

    def _collect(self, plan, ctx: ExecContext) -> List[tuple]:
        """Drain a SELECT plan, counting guardrail trips on the way out."""
        rows: List[tuple] = []
        try:
            for batch in plan.batches(ctx):
                rows.extend(batch.columns["__out__"])
        except GuardrailError as exc:
            self._record_guard_trip(exc)
            raise
        return rows

    def _record_guard_trip(self, exc: GuardrailError) -> None:
        metrics = self.obs.metrics
        if isinstance(exc, QueryTimeoutError):
            metrics.counter(
                "query_timeouts_total", "queries stopped by their deadline"
            ).inc()
        elif isinstance(exc, QueryCancelledError):
            metrics.counter(
                "query_cancellations_total",
                "queries stopped by cooperative cancellation",
            ).inc()
        else:
            metrics.counter(
                "memory_budget_trips_total",
                "queries stopped by the row/byte memory budget",
            ).inc()

    def _dispatch_statement(
        self,
        statement: ast.Statement,
        params: Tuple[Any, ...],
        guard: Optional[ExecutionGuard],
        session: Session,
        shard: Stats,
    ) -> ResultSet:
        if isinstance(statement, _DML):
            return self._run_dml(statement, params, guard, session, shard)
        if isinstance(statement, ast.CreateTable):
            return self._run_create_table(statement)
        if isinstance(statement, (ast.CreateSpatialIndex, ast.CreateIndex)):
            return self._run_create_index(statement)
        if isinstance(statement, ast.DropTable):
            existed = self.catalog.has_table(statement.name)
            self.catalog.drop_table(statement.name, statement.if_exists)
            if existed:
                self.bump_write_marks((statement.name,), self.txn.stamp())
                self.durability.log_ddl("drop_table", name=statement.name)
            return ResultSet([], [], 0)
        if isinstance(statement, ast.DropIndex):
            self.catalog.drop_index(statement.name, statement.if_exists)
            self.durability.log_ddl("drop_index", name=statement.name.lower())
            return ResultSet([], [], 0)
        if isinstance(statement, ast.Analyze):
            return self._run_analyze(statement)
        raise SqlPlanError(f"unsupported statement {type(statement).__name__}")

    # -- transactions ------------------------------------------------------

    def _run_txn_control(
        self, statement: ast.Statement, session: Session
    ) -> ResultSet:
        """BEGIN / COMMIT / ROLLBACK against the session's transaction.

        COMMIT and ROLLBACK with no open transaction are no-ops (PEP 249
        connections call ``commit()`` freely in auto-commit flows). A
        COMMIT that fails mid-flight — e.g. an injected ``txn.commit``
        fault — rolls the transaction back before re-raising, so the
        session is never left wedged on a half-committed transaction.
        """
        if isinstance(statement, ast.Begin):
            if session.txn is not None:
                raise SqlProgrammingError(
                    "a transaction is already in progress"
                )
            session.txn = self.txn.begin()
            return ResultSet([], [], 0)
        txn = session.txn
        if txn is None:
            return ResultSet([], [], 0)
        session.txn = None
        if isinstance(statement, ast.Commit):
            try:
                self.txn.commit(txn)
            except BaseException:
                if txn.status is ACTIVE:
                    self.txn.rollback(txn)
                raise
        else:
            self.txn.rollback(txn)
        return ResultSet([], [], 0)

    def _run_dml(
        self,
        statement: ast.Statement,
        params: Tuple[Any, ...],
        guard: Optional[ExecutionGuard],
        session: Session,
        shard: Stats,
    ) -> ResultSet:
        """INSERT/DELETE/UPDATE, always inside a transaction: the
        session's open one, or an implicit single-statement one committed
        before the statement returns — so open snapshots keep the versions
        they are entitled to, a failed statement leaves nothing behind,
        and the transaction's undo log is both the MVCC rollback list and
        what its COMMIT writes to the WAL.
        """
        txn = session.txn
        implicit = txn is None
        if implicit:
            txn = self.txn.begin()
        ctx = ExecContext(
            params, self.profile, self.registry, self.catalog,
            shard, guard, txn.snapshot,
        )
        try:
            if isinstance(statement, ast.Insert):
                result = self._run_insert(statement, ctx, txn)
            elif isinstance(statement, ast.Delete):
                result = self._run_delete(statement, ctx, txn)
            else:
                result = self._run_update(statement, ctx, txn)
            if implicit:
                self.txn.commit(txn)
            return result
        except BaseException:
            if implicit and txn.status is ACTIVE:
                self.txn.rollback(txn)
            raise

    def bump_write_marks(self, tables, xid: int) -> None:
        """Stamp the committed-write watermark for ``tables``.

        Called by :meth:`TxnManager.commit` after the rows are visible,
        and by ``CREATE TABLE`` / ``DROP TABLE``, which auto-commit.
        Watermark comparison is by equality, so the only contract is
        that the stamp changes whenever committed contents may have.
        """
        marks = self.write_marks
        for name in tables:
            marks[name.lower()] = xid

    def _lock_row_for_write(
        self, table: Table, row_id: int, txn: Transaction
    ) -> None:
        """Take the row write lock, then decide the write conflict.

        First-updater-wins: after the lock is ours, a ``xmax`` stamped by
        *another* transaction can only come from one that already
        committed (an active writer would still hold the lock; an aborted
        one clears its stamps during rollback) — so finding one means we
        lost the race and must abort. While blocked on a contended lock
        the database latch is released, letting the current owner commit
        or roll back; timeouts surface as :class:`SerializationError`
        (deadlock detection by timeout).
        """
        locks = self.txn.locks
        key = (table.name, row_id)
        if not locks.try_acquire(key, txn.txid):
            self._latch.release_exclusive()
            try:
                try:
                    # acquire records the LockManager:RowLock wait event
                    # and feeds the lock-wait histogram via the manager's
                    # on_wait callback (one measurement, two views)
                    locks.acquire(key, txn.txid, self.txn.lock_timeout)
                except SerializationError:
                    self.txn.conflict_counter().inc()
                    raise
            finally:
                self._latch.acquire_exclusive()
        row = table.rows[row_id]
        if row is None:
            self.txn.conflict_counter().inc()
            raise SerializationError(
                f"row {row_id} of {table.name!r} was deleted by a "
                f"concurrent transaction"
            )
        if table.mvcc_versions:
            _xmin, xmax_arr = table.version_arrays()
            xmax = xmax_arr[row_id]
            if xmax and xmax != txn.txid:
                self.txn.conflict_counter().inc()
                raise SerializationError(
                    f"write-write conflict on row {row_id} of "
                    f"{table.name!r}: already written by committed "
                    f"transaction {xmax}"
                )

    def _run_analyze(self, stmt: ast.Analyze) -> ResultSet:
        """Recompute geometry-column statistics (bounds, sizes, histograms)
        for one table or, with no table name, every table in the catalog."""
        tables = (self.catalog.tables() if stmt.table is None
                  else [self.catalog.table(stmt.table)])
        for table in tables:
            table.analyze()
            if isinstance(table, Table):  # recovery re-runs a heap's ANALYZE
                self.durability.log_ddl("analyze", name=table.name)
        return ResultSet([], [], len(tables))

    def explain(self, sql: str) -> str:
        """The plan tree for a SELECT, as indented text."""
        statement = parse(sql)
        if not isinstance(statement, ast.Select):
            raise SqlPlanError("EXPLAIN supports SELECT statements only")
        plan, _names = self._planner.plan_select(statement)
        return "\n".join(plan.explain())

    def explain_analyze(
        self,
        sql: str,
        params: Sequence[Any] = (),
        *,
        session: Optional[Session] = None,
        timeout: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> str:
        """Execute a SELECT and report per-operator rows and times.

        Runs through the same body as :meth:`execute` — in ``session``'s
        transaction, under the same guardrails — but always plans afresh
        under spans (never from the cache — instrumentation rewires the
        tree) and drains the full result before rendering, like
        ``EXPLAIN ANALYZE`` in the DBMSes the paper benchmarks. Each
        operator line shows actual rows, wall time and its exclusive
        engine-counter deltas (``index_probes``, ``join_pairs_…``, …).
        """
        guard = self.guardrails.start(
            timeout=timeout, max_rows=max_rows, max_bytes=max_bytes,
        )
        _result, trace = self._run(sql, params, guard, session, analyze=True)
        lines = trace.plan.explain()
        lines.append(f"Total output rows: {trace.rows}")
        if trace.waits is not None:
            lines.append("Waits (this statement):")
            for event, entry in sorted(trace.waits.items()):
                share = (
                    100.0 * entry["seconds"] / trace.seconds
                    if trace.seconds else 0.0
                )
                lines.append(
                    f"  {event:<26s} count={entry['count']:<7d} "
                    f"seconds={entry['seconds']:.6f} ({share:.1f}%)"
                )
            if not trace.waits:
                lines.append("  (none recorded)")
        return "\n".join(lines)

    # -- statement runners -----------------------------------------------------

    def _run_insert(
        self, stmt: ast.Insert, ctx: ExecContext, txn: Transaction
    ) -> ResultSet:
        table = self.catalog.table(stmt.table)
        if stmt.columns is None:
            positions = list(range(len(table.columns)))
        else:
            positions = [table.column_index(c) for c in stmt.columns]
        compiler = Compiler(Scope(), self.registry, self.profile)
        pending: List[List[Any]] = []
        for row_exprs in stmt.rows:
            if len(row_exprs) != len(positions):
                raise SqlPlanError(
                    f"INSERT expects {len(positions)} values, got {len(row_exprs)}"
                )
            values: List[Any] = [None] * len(table.columns)
            for position, expr in zip(positions, row_exprs):
                values[position] = scalar(compiler.compile(expr), ctx)
            pending.append(values)
        # a row that fails its type check rolls the statement back
        return ResultSet([], [], self._insert_run(table, pending, txn))

    def insert_rows(self, table_name: str, rows: Sequence[Sequence[Any]]) -> int:
        """Bulk insert of Python values (what the loader uses).

        The whole batch is one transaction — all of it becomes visible at
        once or none of it does, and on a durable database it costs a
        single group-commit fsync at the end: the bulk-load analogue of
        COPY inside a transaction."""
        table = self.catalog.table(table_name)
        with self._latch.exclusive():
            txn = self.txn.begin()
            try:
                count = self._insert_run(table, rows, txn)
                self.txn.commit(txn)
            except BaseException:
                if txn.status is ACTIVE:
                    self.txn.rollback(txn)
                raise
        return count

    def _insert_run(
        self, table: Table, rows: Sequence[Sequence[Any]], txn: Transaction,
        replaces: Optional[Sequence[int]] = None,
    ) -> int:
        """Append ``rows`` as ``txn``'s versions in one heap run (the
        exclusive latch makes the ids consecutive), then index it one index
        at a time; with ``replaces`` (UPDATE), row *i* replaces the row id
        ``replaces[i]``. An armed ``index.insert`` fault is hit per row
        before the heap is touched; a later failure is undone by rollback."""
        if FAULTS.active:
            for _row in rows:
                FAULTS.hit("index.insert")
        first = table.insert_rows(rows, txn.txid)
        if replaces is None:
            txn.record("insert", table, first, len(rows))
        else:
            for new_id, row_id in enumerate(replaces, first):
                table.mark_deleted(row_id, txn.txid)
                txn.record("delete", table, row_id)
                txn.record("insert", table, new_id)
        for entry in self.catalog.indexes_on(table.name):
            # a key index takes the row, a spatial index its envelope
            keys = (table.rows if entry.is_key
                    else table.envelopes(entry.column_name))
            insert = entry.index.insert
            for row_id in range(first, first + len(rows)):
                if keys[row_id] is not None:
                    insert(row_id, keys[row_id])
        return len(rows)

    def _index_remove(self, table: Table, row_id: int) -> None:
        """Drop one heap row's entries from every index on its table."""
        if table.rows[row_id] is None:
            return
        for entry in self.catalog.indexes_on(table.name):
            keys = (table.rows if entry.is_key
                    else table.envelopes(entry.column_name))
            if keys[row_id] is not None:
                entry.index.remove(row_id, keys[row_id])

    def _chosen_rows(self, stmt, ctx: ExecContext):
        """``(row ids, batch)`` of the rows a DELETE or UPDATE targets:
        the planner's access path for its WHERE (the scan or index a
        SELECT would read), then the whole WHERE on what it fetched. The
        batch's alias is the table name."""
        access, predicate = self._planner.plan_rows(stmt.table, stmt.where)
        alias = access.alias
        for row_ids, rows in access.row_batches(ctx, with_ids=True):
            batch = Batch({alias: rows}, len(rows))
            if predicate is not None:
                keep = [verdict is True for verdict in predicate(batch, ctx)]
                row_ids = list(compress(row_ids, keep))
                batch = batch.select(keep)
            if row_ids:
                yield row_ids, batch

    def _run_delete(
        self, stmt: ast.Delete, ctx: ExecContext, txn: Transaction
    ) -> ResultSet:
        table = self.catalog.table(stmt.table)
        doomed: List[int] = []
        for row_ids, _batch in self._chosen_rows(stmt, ctx):
            doomed.extend(row_ids)
        # MVCC delete: stamp xmax and keep the version (and its index
        # entries) readable for older snapshots until vacuum
        for row_id in doomed:
            self._lock_row_for_write(table, row_id, txn)
            table.mark_deleted(row_id, txn.txid)
            txn.record("delete", table, row_id)
        return ResultSet([], [], len(doomed))

    def _run_update(
        self, stmt: ast.Update, ctx: ExecContext, txn: Transaction
    ) -> ResultSet:
        table = self.catalog.table(stmt.table)
        scope = Scope()
        scope.add(stmt.table, table)
        compiler = Compiler(scope, self.registry, self.profile)
        assignments = [
            (table.column_index(column), compiler.compile(expr))
            for column, expr in stmt.assignments
        ]
        # two-phase for statement atomicity: evaluate first, apply after
        replaces: List[int] = []
        rows: List[list] = []
        for row_ids, batch in self._chosen_rows(stmt, ctx):
            updated = [list(row) for row in batch.columns[table.name]]
            for position, value_fn in assignments:
                for values, value in zip(updated, value_fn(batch, ctx)):
                    values[position] = value
            replaces.extend(row_ids)
            rows.extend(updated)
        # MVCC update = insert the new version + delete-stamp the old
        # one; probes filter the superseded version by visibility
        for row_id in replaces:
            self._lock_row_for_write(table, row_id, txn)
        self._insert_run(table, rows, txn, replaces)
        return ResultSet([], [], len(rows))

    def _run_create_table(self, stmt: ast.CreateTable) -> ResultSet:
        if stmt.if_not_exists and self.catalog.has_table(stmt.name):
            return ResultSet([], [], 0)
        columns = [
            Column(c.name, ColumnType.parse(c.type_name)) for c in stmt.columns
        ]
        table = self.catalog.create_table(stmt.name, columns)
        self.bump_write_marks((table.name,), self.txn.stamp())
        self.durability.log_ddl(
            "create_table",
            name=table.name,
            columns=[[c.name, c.type.value] for c in columns],
        )
        return ResultSet([], [], 0)

    def _run_create_index(self, stmt) -> ResultSet:
        """``CREATE SPATIAL INDEX`` over one geometry column, or
        ``CREATE INDEX``: a key index over other columns, built in one
        pass over the heap."""
        table = self.catalog.table(stmt.table)
        if not isinstance(table, Table):
            raise SqlPlanError(f"cannot index system view {table.name!r}")
        if isinstance(stmt, ast.CreateIndex):
            columns = [table.column(name) for name in stmt.columns]
            for column in columns:
                if column.type is ColumnType.GEOMETRY:
                    raise SqlPlanError(
                        f"CREATE INDEX needs non-geometry columns, "
                        f"{column.name!r} is GEOMETRY (use CREATE SPATIAL "
                        f"INDEX)"
                    )
            if len({c.name for c in columns}) != len(columns):
                raise SqlPlanError("CREATE INDEX names a column twice")
            index = KeyIndex.bulk_load(
                [table.column_index(c.name) for c in columns], table.rows
            )
            entry = IndexEntry(
                stmt.name, table.name, [c.name for c in columns], index
            )
        else:
            column = table.column(stmt.column)
            if column.type is not ColumnType.GEOMETRY:
                raise SqlPlanError(
                    f"CREATE SPATIAL INDEX requires a GEOMETRY column, "
                    f"{stmt.column!r} is {column.type.value}"
                )
            kind = stmt.using or self.profile.index_kind
            index = self._build_index(table, column.name, kind)
            entry = IndexEntry(stmt.name, table.name, column.name, index)
        self.catalog.register_index(entry)
        self.durability.log_ddl("create_index", **index_record(entry))
        return ResultSet([], [], len(index))

    def _build_index(
        self, table: Table, column_name: str, kind: str
    ) -> SpatialIndex:
        # the table's envelope array: None for a deleted slot, NULL and an
        # empty geometry alike
        items = [
            (row_id, env)
            for row_id, env in enumerate(table.envelopes(column_name))
            if env is not None
        ]
        from repro.index import INDEX_KINDS

        cls = INDEX_KINDS.get(kind)
        if cls is None:
            raise SqlPlanError(f"unknown index kind {kind!r}")
        options = dict(self.profile.index_options)
        return cls.bulk_load(items, **options)
