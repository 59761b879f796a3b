"""Read-through query-result cache with MVCC xid watermark invalidation.

Cache key: ``(raw SQL text, params)``. The literal-normalised
fingerprint the statement store uses is deliberately *not* part of the
key: ``SELECT ... WHERE gid = 7`` and ``... = 8`` share a fingerprint,
and keying on it would serve one query's rows as the other's whenever
their bound params coincide (e.g. both empty). The raw text tells
literal-bearing statements apart; fingerprints stay a stats/metadata
concern of :mod:`repro.obs.statements`.

Invalidation is *precise*, not TTL-based. The engine stamps
``Database.write_marks[table]`` with the committing transaction's xid
after its rows become visible — every write is a transaction, so that
is the only DML stamp — and with a fresh xid for ``CREATE``/``DROP
TABLE``. A cache entry stores the
watermark of every table the SELECT reads, captured **before** the
query executed; a lookup serves the entry only while every watermark is
still identical. The ordering closes both races:

- a commit that lands *during* a fill bumped the mark after the entry
  captured it, so the entry is born stale and the next lookup discards
  it (over-invalidation, never staleness);
- a commit that lands *between* a lookup's validity check and its
  response is indistinguishable from the read executing just before the
  commit — a legal serialization order any uncached reader could also
  observe. Read-your-writes holds because a writer's own commit bumps
  the mark before the write's response is sent.

Window reads are precise to their window. A SELECT over one table with
no JOIN and a top-level AND conjunct ``ST_Intersects(column, expr)``
(either order, ``expr`` free of columns: ``ST_MakeEnvelope(?, ?, ?,
?)``) is filled with ``window = (table, expr's envelope)``. Each commit
logs, per table and before it moves the mark, the box of every row
version it inserted or deleted (``Database.write_log``; unbounded for
DDL, a table without geometry, or a bulk write). On a mark mismatch a
windowed entry is re-stamped and served as a hit when the log still
reaches back to its mark and no box logged since meets its window as
closed boxes (``Database.writes_outside``); otherwise it is stale as
above. Exact and MBR-only intersects both need the envelopes to meet,
so a write outside the window changes no row the entry holds. The race
argument carries over: a commit the fill's snapshot missed moved the
mark after the fill captured it, so it is in the log after the entry's
mark and is checked.

Sessions with an open transaction bypass the cache entirely, both ways:
their snapshot may be older than the newest committed state the cache
reflects, and their own uncommitted writes are visible to no cached
entry. Statements that read a ``jackpine_*`` system view are never
cached (the views are live windows, not MVCC tables).

Each request is counted once, as a hit (a revalidated window entry
included), a miss or a bypass. For an SQL
text already classified as a cacheable SELECT the service's event loop
makes the lookup (:meth:`CachedExecutor.probe`) and hands a miss, with
the marks it captured, to the worker that fills it; any other request is
looked up or bypassed on the worker (:meth:`CachedExecutor.resolve`).
An entry keeps its encoded reply fragment beside the rows, so a hit
re-encodes nothing.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.engines.sysviews import SYSTEM_VIEW_NAMES
from repro.errors import ReproError
from repro.obs.requests import NULL_REQUEST
from repro.service.protocol import result_fragment
from repro.sql import ast
from repro.sql.compiler import Compiler, Scope
from repro.sql.executor import ExecContext, Stats, scalar
from repro.sql.planner import split_conjuncts
from repro.storage.table import ColumnType, stored_envelope

__all__ = ["ResultCache", "CachedExecutor", "select_tables"]

#: memo sentinel: an SQL text this executor has never classified
_UNSEEN = object()


def select_tables(statement: Any) -> Optional[Tuple[Tuple[str, ...], Any]]:
    """``(tables, window)`` for a plain cacheable SELECT, else ``None``:
    the tables it reads, and ``(table, column, expr)`` when it reads one
    table with no JOIN and a top-level AND conjunct is
    ``ST_Intersects(column, expr)`` (either order) with ``expr`` free of
    columns, else ``None``. A SELECT with no FROM reads no tables and
    caches on an empty watermark set (every shipped function is
    deterministic).
    """
    if not isinstance(statement, ast.Select):
        return None
    names = set()
    if statement.source is not None:
        names.add(statement.source.name.lower())
    for join in statement.joins:
        names.add(join.table.name.lower())
    if names & set(SYSTEM_VIEW_NAMES):
        return None
    window = None
    if statement.source is not None and not statement.joins:
        window = next(_windows(statement), None)
    return tuple(sorted(names)), window


def _windows(statement: ast.Select):
    """``(table, column, expr)`` for each top-level AND conjunct
    ``ST_Intersects(column, expr)`` (either order) of a one-table
    SELECT whose ``expr`` is free of columns."""
    table = statement.source.name.lower()
    for conjunct in split_conjuncts(statement.where):
        if isinstance(conjunct, ast.FuncCall) \
                and conjunct.name == "st_intersects" \
                and len(conjunct.args) == 2:
            for column, other in (conjunct.args, conjunct.args[::-1]):
                if isinstance(column, ast.ColumnRef) and _constant(other):
                    yield table, column.name, other


def _constant(expr: Any) -> bool:
    """Is ``expr`` built of literals, parameters and calls alone?"""
    if isinstance(expr, (ast.Literal, ast.Param)):
        return True
    if isinstance(expr, ast.FuncCall):
        return all(map(_constant, expr.args))
    if isinstance(expr, ast.BinaryOp):
        return _constant(expr.left) and _constant(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return _constant(expr.operand)
    return False


class _Entry:
    """One materialised result. A bypassed execution is an entry that is
    never stored (``marks`` is ``None``); a windowed one carries
    ``window = (table, (min_x, min_y, max_x, max_y))``."""

    __slots__ = ("columns", "rows", "rowcount", "marks", "window", "_body")

    def __init__(self, columns, rows, rowcount, marks, window=None):
        self.columns = columns
        self.rows = rows
        self.rowcount = rowcount
        self.marks = marks
        self.window = window
        self._body: Optional[bytes] = None

    def body(self) -> bytes:
        """The encoded reply fragment (:func:`~repro.service.protocol.
        result_fragment`), made on first use and kept: the worker that
        filled the entry encodes it for its own reply, and every hit
        reuses the bytes. Two threads racing the first use encode the
        same bytes, so the race is harmless."""
        body = self._body
        if body is None:
            body = self._body = result_fragment(
                self.columns, self.rows, self.rowcount
            )
        return body


class _Probe:
    """One counted lookup: its key, the write marks captured before it,
    the entry it found (``None`` on a miss) and the statement's window
    (:func:`select_tables`, compiled). A miss carries its marks on to
    the fill, so the request is counted once, not once per site."""

    __slots__ = ("key", "marks", "entry", "window")

    def __init__(self, key, marks, entry, window):
        self.key = key
        self.marks = marks
        self.entry = entry
        self.window = window


class ResultCache:
    """LRU store of materialised SELECT results keyed by
    ``(raw SQL text, params)``; thread-safe, bounded by ``capacity``."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.fills = 0
        self.bypass = 0

    def lookup(self, key: tuple, marks: tuple,
               writes_outside=None) -> Tuple[Optional[_Entry], str]:
        """``(entry, "hit")`` iff the entry for ``key`` has watermarks
        that still match ``marks`` (the *current* per-table write
        marks), else ``(None, "miss")``, or ``(None, "stale")`` when a
        mismatch evicted it — the request tracer tells a cold miss from
        a watermark invalidation (cache-stale-adjacent requests are
        tail-sampled). A windowed entry whose marks differ is re-stamped
        with ``marks`` and is a hit when ``writes_outside(table, its
        mark, the current mark, window)`` (:meth:`repro.engines.Database.
        writes_outside`) says no commit since its mark wrote in its
        window."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None, "miss"
            if entry.marks != marks:
                window = entry.window
                if window is None or writes_outside is None \
                        or not writes_outside(window[0], entry.marks[0],
                                              marks[0], window[1]):
                    del self._entries[key]
                    self.invalidations += 1
                    self.misses += 1
                    return None, "stale"
                entry.marks = marks
            self._entries.move_to_end(key)
            self.hits += 1
            return entry, "hit"

    def store(self, key: tuple, columns, rows, rowcount, marks,
              window=None) -> _Entry:
        entry = _Entry(columns, rows, rowcount, marks, window)
        with self._lock:
            if key not in self._entries and \
                    len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
            self._entries[key] = entry
            self.fills += 1
        return entry

    def note_bypass(self) -> None:
        """Count one uncacheable execution (under the lock, like every
        other counter — bypasses are noted from concurrent workers)."""
        with self._lock:
            self.bypass += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "fills": self.fills,
                "bypass": self.bypass,
            }


class CachedExecutor:
    """Read-through execution over one shared database.

    ``execute(connection, sql, params)`` returns ``(columns, rows,
    rowcount, cached)``; :meth:`resolve`, which the server calls, returns
    the entry itself, so the reply is the entry's encoded body. With
    ``cache=None`` it degrades to a plain pass-through, which is what
    ``--no-cache`` servers run.
    """

    #: per-SQL-text cacheability memo bound ((tables, window), or None)
    META_CAPACITY = 512

    def __init__(self, database: Any, cache: Optional[ResultCache] = None):
        self._db = database
        self.cache = cache
        self._meta_lock = threading.Lock()
        self._meta: "OrderedDict[str, Optional[tuple]]" = OrderedDict()

    def _known_shape(self, sql: str):
        """The memoised ``(tables, window)`` for ``sql`` (``None`` when
        it is not cacheable), or ``_UNSEEN``; never parses."""
        with self._meta_lock:
            shape = self._meta.get(sql, _UNSEEN)
            if shape is not _UNSEEN:
                self._meta.move_to_end(sql)
        return shape

    def _cacheable_shape(self, sql: str) -> Optional[tuple]:
        """``(tables, window)`` for a cacheable SELECT else ``None``:
        :func:`select_tables` with the window expression compiled, so a
        fill only evaluates it; memoised per SQL text like the engine's
        parse cache."""
        shape = self._known_shape(sql)
        if shape is not _UNSEEN:
            return shape
        shape = select_tables(self._db._parse_statement(sql))
        if shape is not None and shape[1] is not None:
            table, column, expr = shape[1]
            db = self._db
            try:
                evaluate = Compiler(Scope(), db.registry, db.profile) \
                    .compile(expr)
            except ReproError:  # the statement fails alike: no window
                shape = shape[0], None
            else:
                shape = shape[0], (table, column, evaluate)
        with self._meta_lock:
            if len(self._meta) >= self.META_CAPACITY:
                self._meta.popitem(last=False)
            self._meta[sql] = shape
        return shape

    def _window(self, probe: _Probe, params: tuple):
        """The filled entry's ``(table, box)``: the envelope of its
        window expression under ``params``, while the column is still a
        geometry column of the table; else ``None`` (table-granular)."""
        table, column, evaluate = probe.window
        db = self._db
        try:
            found = db.catalog.table(table)
            if found.column(column).type is not ColumnType.GEOMETRY:
                return None
            value = scalar(evaluate, ExecContext(
                params, db.profile, db.registry, db.catalog, Stats()
            ))
        except (ReproError, TypeError, ValueError):
            return None
        envelope = stored_envelope(value)
        return None if envelope is None else (table, envelope.as_tuple())

    def _current_marks(self, tables: Tuple[str, ...]) -> tuple:
        marks = self._db.write_marks
        return tuple(marks.get(name) for name in tables)

    def _execute_engine(self, connection, sql, params, timeout, request):
        """One engine execution, staged as ``execute`` on the request."""
        start = time.perf_counter()
        try:
            return self._db.execute(
                sql, params, timeout=timeout, session=connection.session
            )
        finally:
            request.stage("execute", start, time.perf_counter() - start)

    def _lookup(self, sql: str, params: tuple, shape: tuple,
                request: Any) -> Optional[_Probe]:
        """The one counted cache lookup, or ``None`` (nothing counted)
        when ``params`` are unhashable and the statement must bypass."""
        # keyed on the raw text: statements differing only in literals
        # must not collide (see module docstring)
        key = (sql, params)
        try:
            hash(key)
        except TypeError:
            return None
        tables, window = shape
        marks = self._current_marks(tables)
        start = time.perf_counter()
        entry, status = self.cache.lookup(
            key, marks, self._db.writes_outside
        )
        request.stage(
            "cache.lookup", start, time.perf_counter() - start, status
        )
        request.note_cache(status)
        return _Probe(key, marks, entry, window)

    def probe(self, sql: str, params: Any,
              request: Any = NULL_REQUEST) -> Optional[_Probe]:
        """The lookup for a request that holds no transaction, made
        before it is queued: ``None`` unless ``sql`` is already known to
        be a cacheable SELECT, in which case the request's one counted
        lookup happens here. Never parses and never executes, so the
        service's event loop calls it; a miss is handed to
        :meth:`resolve` as ``probe`` and filled without a second look."""
        if self.cache is None:
            return None
        shape = self._known_shape(sql)
        if shape is None or shape is _UNSEEN:
            return None
        return self._lookup(sql, tuple(params), shape, request)

    def resolve(
        self,
        connection: Any,
        sql: str,
        params: Any = (),
        timeout: Optional[float] = None,
        request: Any = NULL_REQUEST,
        probe: Optional[_Probe] = None,
    ) -> Tuple[_Entry, bool]:
        """``(entry, cached)`` for one statement: a hit, a fresh fill or
        an uncacheable (bypassed) execution. The cache lookup and the
        engine execution are staged onto ``request`` (a
        :class:`repro.obs.requests.RequestRecord`, or the
        :data:`~repro.obs.requests.NULL_REQUEST` that keeps nothing),
        with the hit / miss / stale / bypass status the tail sampler
        reads. ``probe`` is this request's lookup already made by
        :meth:`probe`."""
        cache = self.cache
        params = tuple(params)
        if probe is None and cache is not None \
                and not connection.in_transaction:
            shape = self._cacheable_shape(sql)
            if shape is not None:
                probe = self._lookup(sql, params, shape, request)
        if probe is not None and probe.entry is not None:
            return probe.entry, True
        if probe is None and cache is not None:
            cache.note_bypass()
            request.note_cache("bypass")
        result = self._execute_engine(
            connection, sql, params, timeout, request
        )
        if probe is None:
            return _Entry(
                result.columns, result.rows, result.rowcount, None
            ), False
        # marks were captured before execution: a commit racing this
        # fill leaves the entry stale-marked, so its next lookup checks
        # that commit (see module docstring)
        return cache.store(
            probe.key, result.columns, result.rows, result.rowcount,
            probe.marks,
            None if probe.window is None else self._window(probe, params),
        ), False

    def execute(
        self,
        connection: Any,
        sql: str,
        params: Any = (),
        timeout: Optional[float] = None,
    ) -> Tuple[list, list, int, bool]:
        """:meth:`resolve` as ``(columns, rows, rowcount, cached)``."""
        entry, cached = self.resolve(connection, sql, params, timeout)
        return entry.columns, entry.rows, entry.rowcount, cached
