"""Benchmark query descriptors shared by the micro suites."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence, Tuple


@dataclass(frozen=True)
class BenchmarkQuery:
    """One self-contained benchmark query.

    ``query_id`` keys the paper-style reports (e.g. ``topo.polygon_
    intersects_line``); ``sql`` runs unchanged on every engine thanks to
    the DB-API portability layer; ``params`` are qmark bindings.
    """

    query_id: str
    title: str
    category: str  # 'topology' | 'analysis' | 'loading'
    sql: str
    params: Tuple[Any, ...] = ()
    description: str = ""

    def run(self, cursor) -> Any:
        cursor.execute(self.sql, self.params)
        row = cursor.fetchone()
        rest = cursor.fetchall()
        if row is None:
            return None
        if not rest and len(row) == 1:
            return row[0]
        return [row] + rest
