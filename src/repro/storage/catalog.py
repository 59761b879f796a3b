"""System catalog: tables, their spatial indexes and their key indexes."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.errors import SqlPlanError
from repro.index.base import SpatialIndex
from repro.index.key import KeyIndex
from repro.storage.table import Column, Table


class IndexEntry:
    """An index of one table: a spatial index over one geometry column,
    or a key index (:class:`~repro.index.key.KeyIndex`) over one or more
    other columns."""

    __slots__ = ("name", "table_name", "columns", "column_name", "index",
                 "probes")

    def __init__(
        self, name: str, table_name: str,
        columns: Union[str, Sequence[str]],
        index: Union[SpatialIndex, KeyIndex],
    ):
        self.name = name.lower()
        self.table_name = table_name.lower()
        if isinstance(columns, str):
            columns = (columns,)
        self.columns = tuple(c.lower() for c in columns)
        #: the first (for a spatial index, the only) indexed column
        self.column_name = self.columns[0]
        self.index = index
        #: usage counter surfaced by the ``jackpine_tables`` system view
        self.probes = 0

    @property
    def is_key(self) -> bool:
        return isinstance(self.index, KeyIndex)


class Catalog:
    """All schema objects owned by one database."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._indexes: Dict[str, IndexEntry] = {}
        #: table name -> its indexes, for the per-row maintenance hooks
        self._by_table: Dict[str, List[IndexEntry]] = {}
        #: read-only virtual tables (``jackpine_*``), resolved by
        #: :meth:`table` after real tables; never listed by :meth:`tables`
        #: so ANALYZE-all, dumps and loaders keep seeing the heap only
        self._system_views: Dict[str, Table] = {}

    # -- tables ----------------------------------------------------------

    def create_table(self, name: str, columns: List[Column]) -> Table:
        key = name.lower()
        if key in self._tables:
            raise SqlPlanError(f"table {name!r} already exists")
        if key in self._system_views:
            raise SqlPlanError(
                f"{name!r} is a reserved system view name"
            )
        table = Table(name, columns)
        self._tables[key] = table
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key in self._system_views:
            raise SqlPlanError(f"cannot drop system view {name!r}")
        if key not in self._tables:
            if if_exists:
                return
            raise SqlPlanError(f"no table {name!r}")
        del self._tables[key]
        for entry in self._by_table.pop(key, ()):
            del self._indexes[entry.name]

    def table(self, name: str) -> Table:
        key = name.lower()
        try:
            return self._tables[key]
        except KeyError:
            view = self._system_views.get(key)
            if view is not None:
                return view
            raise SqlPlanError(f"no table {name!r}")

    def has_table(self, name: str) -> bool:
        key = name.lower()
        return key in self._tables or key in self._system_views

    # -- system views ------------------------------------------------------

    def register_system_view(self, view: Table) -> None:
        """Install one read-only virtual table (idempotent per name)."""
        self._system_views[view.name] = view

    def system_views(self) -> List[Table]:
        return list(self._system_views.values())

    def tables(self) -> List[Table]:
        return list(self._tables.values())

    # -- indexes ----------------------------------------------------------

    def register_index(self, entry: IndexEntry) -> None:
        if entry.name in self._indexes:
            raise SqlPlanError(f"index {entry.name!r} already exists")
        self._indexes[entry.name] = entry
        self._by_table.setdefault(entry.table_name, []).append(entry)

    def drop_index(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        entry = self._indexes.pop(key, None)
        if entry is None:
            if if_exists:
                return
            raise SqlPlanError(f"no index {name!r}")
        self._by_table[entry.table_name].remove(entry)

    def indexes_on(self, table_name: str) -> List[IndexEntry]:
        """Every index of one table (the live list: do not mutate)."""
        return self._by_table.get(table_name.lower(), [])

    def index_for(
        self, table_name: str, column_name: str
    ) -> Optional[IndexEntry]:
        """The spatial index on one geometry column, if any."""
        column = column_name.lower()
        for entry in self.indexes_on(table_name):
            if not entry.is_key and entry.column_name == column:
                return entry
        return None

    def key_indexes(self, table_name: str) -> List[IndexEntry]:
        return [e for e in self.indexes_on(table_name) if e.is_key]

    def indexes(self) -> List[IndexEntry]:
        return list(self._indexes.values())
