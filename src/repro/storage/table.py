"""Heap tables and schemas.

Rows are immutable tuples ordered by the table's column list; a row id is
the row's slot in the heap. A lightweight page model (``rows_per_page``)
lets the executor report logical page reads, mirroring the buffer-pool
counters a real DBMS exposes — useful when explaining *why* an index
helps in experiment J-F5 even though everything here is in memory.
"""

from __future__ import annotations

import enum
import math
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import EngineError, SqlPlanError
from repro.faults import FAULTS
from repro.geometry.base import Envelope, Geometry
from repro.storage.statistics import TableStats


class ColumnType(enum.Enum):
    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    GEOMETRY = "GEOMETRY"

    @classmethod
    def parse(cls, name: str) -> "ColumnType":
        upper = name.upper()
        aliases = {
            "INT": cls.INTEGER,
            "INTEGER": cls.INTEGER,
            "BIGINT": cls.INTEGER,
            "SMALLINT": cls.INTEGER,
            "REAL": cls.REAL,
            "FLOAT": cls.REAL,
            "DOUBLE": cls.REAL,
            "NUMERIC": cls.REAL,
            "DECIMAL": cls.REAL,
            "TEXT": cls.TEXT,
            "VARCHAR": cls.TEXT,
            "CHAR": cls.TEXT,
            "STRING": cls.TEXT,
            "GEOMETRY": cls.GEOMETRY,
        }
        try:
            return aliases[upper]
        except KeyError:
            raise SqlPlanError(f"unknown column type {name!r}")


class Column:
    __slots__ = ("name", "type")

    def __init__(self, name: str, col_type: ColumnType):
        self.name = name.lower()
        self.type = col_type

    def __repr__(self) -> str:
        return f"Column({self.name!r}, {self.type.value})"


def stored_envelope(value: Any) -> Optional[Envelope]:
    """The envelope a stored value is indexed and sampled by: None for
    NULL and for an empty geometry, which has no extent to index."""
    if isinstance(value, Geometry) and not value.is_empty:
        return value.envelope
    return None


#: the value types a column stores as they are, with no coercion
_STORED_AS_IS = {
    ColumnType.INTEGER: frozenset({int, type(None)}),
    ColumnType.REAL: frozenset({float, type(None)}),
    ColumnType.TEXT: frozenset({str, type(None)}),
    ColumnType.GEOMETRY: frozenset({*Geometry.__subclasses__(), type(None)}),
}


def _coerce(value: Any, col: Column) -> Any:
    """Validate/coerce a Python value for storage in ``col``."""
    if value is None:
        return None
    kind = col.type
    if kind is ColumnType.INTEGER:
        if isinstance(value, bool) or (
            isinstance(value, float) and value.is_integer()
        ):
            return int(value)
        if isinstance(value, int):
            return value
    elif kind is ColumnType.REAL:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif kind is ColumnType.TEXT:
        if isinstance(value, str):
            return value
    elif isinstance(value, Geometry):
        return value
    elif isinstance(value, str):
        from repro.geometry.wkt import loads

        return loads(value)
    elif isinstance(value, (bytes, bytearray)):
        from repro.geometry.wkb import loads as wkb_loads

        return wkb_loads(bytes(value))
    raise EngineError(
        f"column {col.name}: expected {kind.value}, got {value!r}"
    )


class Table:
    """An append-only heap of tuples with positional row ids."""

    ROWS_PER_PAGE = 64

    def __init__(self, name: str, columns: Sequence[Column]):
        if not columns:
            raise SqlPlanError(f"table {name!r} needs at least one column")
        lowered = [c.name for c in columns]
        if len(set(lowered)) != len(lowered):
            raise SqlPlanError(f"table {name!r} has duplicate column names")
        self.name = name.lower()
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._by_name: Dict[str, int] = {
            c.name: i for i, c in enumerate(self.columns)
        }
        # a run append checks the width, then each column's types, geometry
        # first: WKT or WKB input, the usual reason to coerce, fails early
        self._width = {len(self.columns)}
        self._getters = tuple(map(itemgetter, range(len(self.columns))))
        self._checks = [
            (self._getters[i], _STORED_AS_IS[c.type])
            for i, c in sorted(enumerate(self.columns), key=lambda ic: (
                ic[1].type is not ColumnType.GEOMETRY))
        ]
        self.rows: List[Optional[tuple]] = []
        self.live_count = 0
        # MVCC version stamps, parallel to ``rows``: 0 (FROZEN_XID) means
        # "committed long ago" / "not deleted". ``mvcc_versions`` counts
        # slots carrying a live stamp — when it is zero the table behaves
        # exactly like the pre-MVCC heap and scans skip visibility checks.
        self._xmin: List[int] = []
        self._xmax: List[int] = []
        self.mvcc_versions = 0
        # per-geometry-column envelope arrays, parallel to ``rows``, plus
        # incrementally maintained statistics for the cost-based planner
        self._geom_positions: Tuple[int, ...] = tuple(
            i for i, c in enumerate(self.columns)
            if c.type is ColumnType.GEOMETRY
        )
        self._envelopes: Dict[int, List[Optional[Envelope]]] = {
            i: [] for i in self._geom_positions
        }
        self.stats = TableStats(
            [self.columns[i].name for i in self._geom_positions]
        )
        # usage counters surfaced by the ``jackpine_tables`` system view:
        # sequential scans of this heap, rows physically removed by
        # vacuum, and committed inserts frozen by the garbage flush
        self.seq_scans = 0
        self.vacuumed_rows = 0
        self.frozen_rows = 0

    # -- schema ------------------------------------------------------------

    def column_index(self, name: str) -> int:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise SqlPlanError(f"no column {name!r} in table {self.name!r}")

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def geometry_columns(self) -> List[str]:
        return [c.name for c in self.columns if c.type is ColumnType.GEOMETRY]

    # -- data --------------------------------------------------------------

    def insert_rows(self, rows: Sequence[Sequence[Any]], xmin: int = 0) -> int:
        """Append a run of rows stamped ``xmin``; returns the first row id.

        Nothing is appended before the run has passed: an armed
        ``storage.insert`` fault is hit once per row, then widths and types
        are checked in one pass per column. If every column holds only its
        storage type and NULL the caller's tuples are kept (a list becomes
        a tuple); otherwise rows are coerced in order, so the first bad
        value raises what it raises alone."""
        if FAULTS.active:
            for _row in rows:
                FAULTS.hit("storage.insert")
        if set(map(len, rows)) == self._width and all(
            types.issuperset(map(type, map(column, rows)))
            for column, types in self._checks
        ):
            stored = list(map(tuple, rows))
        else:
            stored = []
            for values in rows:
                if len(values) != len(self.columns):
                    raise EngineError(
                        f"table {self.name}: expected {len(self.columns)} "
                        f"values, got {len(values)}"
                    )
                stored.append(tuple(map(_coerce, values, self.columns)))
        # parallel arrays are extended *before* the heap slots so a
        # concurrent snapshot scan never sees a row without its stamps
        # (writers are serialised by the database latch; readers are not)
        count = len(stored)
        self._xmin.extend([xmin] * count)
        self._xmax.extend([0] * count)
        if xmin:
            self.mvcc_versions += count
        for position in self._geom_positions:
            column = map(self._getters[position], stored)
            envs = list(map(stored_envelope, column))
            self._envelopes[position].extend(envs)
            self.stats.geometry[self.columns[position].name].add_all(envs)
        first = len(self.rows)
        self.rows.extend(stored)
        self.live_count += count
        return first

    def delete_row(self, row_id: int) -> None:
        if self.rows[row_id] is None:
            raise EngineError(f"row {row_id} already deleted")
        self.rows[row_id] = None
        self.live_count -= 1
        for position in self._geom_positions:
            stats = self.stats.geometry[self.columns[position].name]
            stats.remove(self._envelopes[position][row_id])
            self._envelopes[position][row_id] = None
        if self._xmin[row_id] or self._xmax[row_id]:
            self._xmin[row_id] = 0
            self._xmax[row_id] = 0
            self.mvcc_versions -= 1

    # -- MVCC version stamps ------------------------------------------------

    def version_arrays(self):
        """The (xmin, xmax) arrays, parallel to ``rows``."""
        return self._xmin, self._xmax

    def mark_deleted(self, row_id: int, xid: int) -> None:
        """MVCC delete: stamp ``xmax`` instead of removing the slot — the
        version stays readable by snapshots that predate ``xid``."""
        if self.rows[row_id] is None:
            raise EngineError(f"row {row_id} already deleted")
        if not self._xmin[row_id] and not self._xmax[row_id]:
            self.mvcc_versions += 1
        self._xmax[row_id] = xid

    def clear_deleted(self, row_id: int) -> None:
        """Undo a :meth:`mark_deleted` (delete rolled back)."""
        self._xmax[row_id] = 0
        if not self._xmin[row_id]:
            self.mvcc_versions -= 1

    def freeze_rows(self, first: int, count: int) -> None:
        """Committed inserts no open snapshot could miss: drop the insert
        stamps of the run ``[first, first + count)``, by slice."""
        stop = first + count
        xmin, xmax = self._xmin[first:stop], self._xmax[first:stop]
        stamped = count - xmin.count(0)
        self.frozen_rows += stamped
        if any(xmax):
            # a slot that also carries a delete stamp stays a version
            # until vacuum removes it
            stamped = sum(1 for a, b in zip(xmin, xmax) if a and not b)
        self.mvcc_versions -= stamped
        self._xmin[first:stop] = [0] * count

    def rollback_insert(self, row_id: int) -> None:
        """Physically remove a rolled-back insert: a delete, then a trailing
        slot is popped from every parallel array, so a rolled back
        transaction leaves the heap as it found it."""
        self.delete_row(row_id)
        if row_id == len(self.rows) - 1:
            for column in (self.rows, self._xmin, self._xmax,
                           *self._envelopes.values()):
                column.pop()

    def restore_slots(self, slots: Dict[int, tuple]) -> None:
        """Rebuild an empty heap from ``{row_id: values}``, preserving row
        ids (gaps become deleted slots): the crash-recovery path. The rows
        are appended as one frozen run in id order (no snapshot survives a
        restart), then spread out to their ids."""
        if self.rows:
            raise EngineError(
                f"table {self.name}: restore_slots needs an empty heap"
            )
        ids = sorted(slots)
        self.insert_rows(list(map(slots.__getitem__, ids)))
        size = ids[-1] + 1 if ids else 0
        if size > len(ids):  # deleted slots: spread the run out to its ids
            for column in (self.rows, *self._envelopes.values()):
                column[:] = map(dict(zip(ids, column)).get, range(size))
            self._xmin[:] = self._xmax[:] = [0] * size

    def get_row(self, row_id: int) -> tuple:
        row = self.rows[row_id]
        if row is None:
            raise EngineError(f"row {row_id} is deleted")
        return row

    def scan(self, snapshot=None) -> Iterator[Tuple[int, tuple]]:
        """Live rows; with a snapshot, only the versions it may see."""
        if snapshot is not None and self.mvcc_versions:
            xmin, xmax = self._xmin, self._xmax
            row_visible = snapshot.row_visible
            for row_id, row in enumerate(self.rows):
                if row is not None and row_visible(xmin[row_id], xmax[row_id]):
                    yield row_id, row
            return
        for row_id, row in enumerate(self.rows):
            if row is not None:
                yield row_id, row

    def row_visible(self, row_id: int, snapshot) -> bool:
        """Visibility of one slot under ``snapshot`` (no-version fast path
        answers True — the slot is frozen)."""
        if not self.mvcc_versions:
            return True
        return snapshot.row_visible(self._xmin[row_id], self._xmax[row_id])

    def versions_box(
        self, row_ids: Sequence[int]
    ) -> Optional[Tuple[float, float, float, float]]:
        """The box around the geometries of the slots ``row_ids`` in every
        geometry column, or None when the table has none: all a write of
        those slots can change in a spatial window. Slots holding only
        NULL or empty geometries give an inverted box, which meets none."""
        if not self._envelopes:
            return None
        envs = [env for column in self._envelopes.values()
                for env in map(column.__getitem__, row_ids) if env is not None]
        if not envs:
            return (math.inf, math.inf, -math.inf, -math.inf)
        return (min(e.min_x for e in envs), min(e.min_y for e in envs),
                max(e.max_x for e in envs), max(e.max_y for e in envs))

    def envelopes(self, column_name: str) -> List[Optional[Envelope]]:
        """Envelope array for one geometry column, parallel to ``rows``."""
        position = self.column_index(column_name)
        try:
            return self._envelopes[position]
        except KeyError:
            raise SqlPlanError(
                f"column {column_name!r} of table {self.name!r} "
                f"is not a GEOMETRY column"
            )

    def analyze(self) -> None:
        """Rebuild exact statistics, envelope histograms and the distinct
        count of every non-geometry column (the ANALYZE path)."""
        live = [row for row in self.rows if row is not None]
        # a set per column from a C-level map measured faster than
        # transposing the rows once (zip(*live)) at scale 8
        distinct = {
            column.name: len(set(map(getter, live)) - {None})
            for column, getter in zip(self.columns, self._getters)
            if column.type is not ColumnType.GEOMETRY
        }
        self.stats.rebuild(
            {self.columns[i].name: e for i, e in self._envelopes.items()},
            distinct,
        )

    def page_of(self, row_id: int) -> int:
        return row_id // self.ROWS_PER_PAGE

    @property
    def page_count(self) -> int:
        return (len(self.rows) + self.ROWS_PER_PAGE - 1) // self.ROWS_PER_PAGE

    def __len__(self) -> int:
        return self.live_count
