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

Sessions with an open transaction bypass the cache entirely, both ways:
their snapshot may be older than the newest committed state the cache
reflects, and their own uncommitted writes are visible to no cached
entry. Statements that read a ``jackpine_*`` system view are never
cached (the views are live windows, not MVCC tables).

Each request is counted once, as a hit, a miss or a bypass. For an SQL
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
from repro.service.protocol import result_fragment
from repro.sql import ast

__all__ = ["ResultCache", "CachedExecutor", "select_tables"]

#: memo sentinel: an SQL text this executor has never classified
_UNSEEN = object()


def select_tables(statement: Any) -> Optional[Tuple[str, ...]]:
    """The tables a statement reads, or ``None`` when it is not a plain
    cacheable SELECT. A SELECT with no FROM reads no tables and caches
    on an empty watermark set (every shipped function is deterministic).
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
    return tuple(sorted(names))


class _Entry:
    """One materialised result. A bypassed execution is an entry that is
    never stored (``marks`` is ``None``)."""

    __slots__ = ("columns", "rows", "rowcount", "marks", "_body")

    def __init__(self, columns, rows, rowcount, marks):
        self.columns = columns
        self.rows = rows
        self.rowcount = rowcount
        self.marks = marks
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
    and the entry it found (``None`` on a miss). A miss carries its marks
    on to the fill, so the request is counted once, not once per site."""

    __slots__ = ("key", "marks", "entry")

    def __init__(self, key, marks, entry):
        self.key = key
        self.marks = marks
        self.entry = entry


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
               info: Optional[dict] = None) -> Optional[_Entry]:
        """The entry for ``key`` iff its watermarks still match ``marks``
        (the *current* per-table write marks); a mismatch evicts.
        ``info``, when given, receives ``{"status": "hit"/"miss"/
        "stale"}`` — the request tracer distinguishes a cold miss from a
        watermark invalidation (cache-stale-adjacent requests are
        tail-sampled)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                if info is not None:
                    info["status"] = "miss"
                return None
            if entry.marks != marks:
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                if info is not None:
                    info["status"] = "stale"
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            if info is not None:
                info["status"] = "hit"
            return entry

    def store(self, key: tuple, columns, rows, rowcount, marks) -> _Entry:
        entry = _Entry(columns, rows, rowcount, marks)
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

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

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

    #: per-SQL-text cacheability memo bound (table set, or None)
    META_CAPACITY = 512

    def __init__(self, database: Any, cache: Optional[ResultCache] = None):
        self._db = database
        self.cache = cache
        self._meta_lock = threading.Lock()
        self._meta: "OrderedDict[str, Optional[tuple]]" = OrderedDict()

    def _known_tables(self, sql: str):
        """The memoised table set for ``sql`` (``None`` when it is not
        cacheable), or ``_UNSEEN``; never parses."""
        with self._meta_lock:
            tables = self._meta.get(sql, _UNSEEN)
            if tables is not _UNSEEN:
                self._meta.move_to_end(sql)
        return tables

    def _cacheable_tables(self, sql: str) -> Optional[Tuple[str, ...]]:
        """The table set for a cacheable SELECT else ``None``; memoised
        per SQL text like the engine's parse cache."""
        tables = self._known_tables(sql)
        if tables is not _UNSEEN:
            return tables
        statement = self._db._parse_statement(sql)
        tables = select_tables(statement)
        with self._meta_lock:
            if len(self._meta) >= self.META_CAPACITY:
                self._meta.popitem(last=False)
            self._meta[sql] = tables
        return tables

    def _current_marks(self, tables: Tuple[str, ...]) -> tuple:
        marks = self._db.write_marks
        return tuple(marks.get(name) for name in tables)

    def _execute_engine(self, connection, sql, params, timeout, stages):
        """One engine execution, staged as ``execute`` on the request
        trace when one is being recorded."""
        if stages is None:
            return self._db.execute(
                sql, params, timeout=timeout, session=connection.session
            )
        start = time.perf_counter()
        try:
            return self._db.execute(
                sql, params, timeout=timeout, session=connection.session
            )
        finally:
            stages.stage("execute", start, time.perf_counter() - start)

    def _lookup(self, sql: str, params: tuple, tables: Tuple[str, ...],
                stages: Any) -> Optional[_Probe]:
        """The one counted cache lookup, or ``None`` (nothing counted)
        when ``params`` are unhashable and the statement must bypass."""
        # keyed on the raw text: statements differing only in literals
        # must not collide (see module docstring)
        key = (sql, params)
        try:
            hash(key)
        except TypeError:
            return None
        marks = self._current_marks(tables)
        if stages is None:
            return _Probe(key, marks, self.cache.lookup(key, marks))
        info: dict = {}
        lookup_start = time.perf_counter()
        entry = self.cache.lookup(key, marks, info)
        status = info.get("status", "miss")
        stages.stage(
            "cache.lookup", lookup_start,
            time.perf_counter() - lookup_start, status,
        )
        stages.cache_status = status
        return _Probe(key, marks, entry)

    def probe(self, sql: str, params: Any,
              stages: Any = None) -> Optional[_Probe]:
        """The lookup for a request that holds no transaction, made
        before it is queued: ``None`` unless ``sql`` is already known to
        be a cacheable SELECT, in which case the request's one counted
        lookup happens here. Never parses and never executes, so the
        service's event loop calls it; a miss is handed to
        :meth:`resolve` as ``probe`` and filled without a second look."""
        if self.cache is None:
            return None
        tables = self._known_tables(sql)
        if tables is None or tables is _UNSEEN:
            return None
        return self._lookup(sql, tuple(params), tables, stages)

    def resolve(
        self,
        connection: Any,
        sql: str,
        params: Any = (),
        timeout: Optional[float] = None,
        stages: Any = None,
        probe: Optional[_Probe] = None,
    ) -> Tuple[_Entry, bool]:
        """``(entry, cached)`` for one statement: a hit, a fresh fill or
        an uncacheable (bypassed) execution. ``stages`` is an optional
        request-trace sink (duck-typed :class:`repro.obs.requests.
        PendingRequest`): the cache lookup and the engine execution are
        staged onto it, and ``cache_status`` records hit / miss / stale /
        bypass for the tail sampler. ``probe`` is this request's lookup
        already made by :meth:`probe`."""
        cache = self.cache
        params = tuple(params)
        if probe is None:
            tables = None
            if cache is not None and not connection.in_transaction:
                tables = self._cacheable_tables(sql)
            if tables is not None:
                probe = self._lookup(sql, params, tables, stages)
            if probe is None:
                if cache is not None:
                    cache.note_bypass()
                    if stages is not None:
                        stages.cache_status = "bypass"
                result = self._execute_engine(
                    connection, sql, params, timeout, stages
                )
                return _Entry(
                    result.columns, result.rows, result.rowcount, None
                ), False
        if probe.entry is not None:
            return probe.entry, True
        # marks were captured before execution: a commit racing this
        # fill leaves the entry stale-marked and therefore dead on its
        # next lookup (see module docstring)
        result = self._execute_engine(connection, sql, params, timeout, stages)
        return cache.store(
            probe.key, result.columns, result.rows, result.rowcount,
            probe.marks,
        ), False

    def execute(
        self,
        connection: Any,
        sql: str,
        params: Any = (),
        timeout: Optional[float] = None,
        stages: Any = None,
    ) -> Tuple[list, list, int, bool]:
        """:meth:`resolve` as ``(columns, rows, rowcount, cached)``."""
        entry, cached = self.resolve(connection, sql, params, timeout, stages)
        return entry.columns, entry.rows, entry.rowcount, cached
