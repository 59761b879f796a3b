"""The key index: a hash map from a row's key to its row ids.

``CREATE INDEX name ON t (col[, col])`` builds one over the non-geometry
columns it names. A key is the column's value (a tuple of the values for
several columns); a row with a NULL in its key is not indexed, since
``col = x`` is never true for it. Like the spatial indexes it holds every
version of a row — superseded and uncommitted ones too — and the scan
that fetches the ids applies the snapshot's visibility test.

The map is kept lean because it holds every row: a key maps to one int
row id, and only a key that several versions share maps to a list.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence


class KeyIndex:
    """Equality lookups on the columns at ``positions`` of a table's rows."""

    kind = "hash"

    __slots__ = ("positions", "_key", "_map", "_entries")

    def __init__(self, positions: Sequence[int]):
        self.positions = tuple(positions)
        self._key = itemgetter(*self.positions)
        #: key -> row id, or a list of row ids for a shared key
        self._map: Dict[Any, Any] = {}
        self._entries = 0

    @classmethod
    def bulk_load(cls, positions: Sequence[int],
                  rows: Sequence[Optional[tuple]]) -> "KeyIndex":
        """One pass over a heap (``rows[rid]``, ``None`` = empty slot).
        Unique keys — the common case — go into the map at C speed,
        holding no pair per row on the way."""
        index = cls(positions)
        rids = [rid for rid, row in enumerate(rows) if row is not None]
        key = index._key if len(index.positions) == 1 else index.key_of
        keys = list(map(key, map(rows.__getitem__, rids)))
        index._entries = len(keys) - keys.count(None)
        index._map = dict(zip(keys, rids))
        index._map.pop(None, None)
        if len(index._map) < index._entries:
            # shared keys: collect their row ids in heap order
            index._map, index._entries = {}, 0
            for value, rid in zip(keys, rids):
                if value is not None:
                    index._add(value, rid)
        return index

    def key_of(self, row: tuple) -> Any:
        """The row's key, ``None`` when a key column is NULL."""
        key = self._key(row)
        if len(self.positions) == 1:
            return key
        return None if None in key else key

    def _add(self, key: Any, rid: int) -> None:
        held = self._map.get(key)
        if held is None:
            self._map[key] = rid
        elif held.__class__ is list:
            held.append(rid)
        else:
            self._map[key] = [held, rid]
        self._entries += 1

    def insert(self, rid: int, row: tuple) -> None:
        key = self.key_of(row)
        if key is not None:
            self._add(key, rid)

    def remove(self, rid: int, row: tuple) -> None:
        key = self.key_of(row)
        if key is None:
            return
        held = self._map.get(key)
        if held is None:
            return
        if held.__class__ is list:
            if rid in held:
                held.remove(rid)
                self._entries -= 1
                if len(held) == 1:
                    self._map[key] = held[0]
        elif held == rid:
            del self._map[key]
            self._entries -= 1

    def lookup(self, keys: Iterable[Any]) -> List[int]:
        """Row ids of every version whose key is one of ``keys``, in
        heap order. A NULL or unhashable key matches nothing."""
        found: List[int] = []
        mapping = self._map
        for key in keys:
            try:
                held = mapping.get(key)
            except TypeError:
                continue  # unhashable: equal to no stored key
            if held is None:
                continue
            if held.__class__ is list:
                found.extend(held)
            else:
                found.append(held)
        if len(found) > 1:
            found = sorted(set(found))
        return found

    @property
    def key_count(self) -> int:
        """Distinct keys held (superseded versions' keys included)."""
        return len(self._map)

    def __len__(self) -> int:
        return self._entries
