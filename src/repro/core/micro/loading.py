"""Data-loading micro benchmark (J-T3 / J-F4).

Measures, per layer: (1) table creation + row ingestion through the
DB-API with qmark parameters carrying WKB — the portable path a JDBC
loader uses — and (2) spatial index construction on the populated table.
The paper reports loading as its own micro benchmark because bulk
ingestion and index build dominate real GIS deployment time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List

from repro.dbapi import connect
from repro.engines import Database
from repro.geometry.base import Geometry


@dataclass
class LayerLoadTiming:
    layer: str
    rows: int
    insert_seconds: float
    index_seconds: float

    @property
    def rows_per_second(self) -> float:
        return self.rows / self.insert_seconds if self.insert_seconds else 0.0


@dataclass
class LoadResult:
    engine: str
    layers: List[LayerLoadTiming] = field(default_factory=list)

    @property
    def total_insert(self) -> float:
        return sum(t.insert_seconds for t in self.layers)

    @property
    def total_index(self) -> float:
        return sum(t.index_seconds for t in self.layers)


def run_loading(engine: str, dataset) -> LoadResult:
    """Load the dataset into a fresh engine instance, timing each layer."""
    db = Database(engine)
    conn = connect(database=db)
    cur = conn.cursor()
    result = LoadResult(engine=engine)
    for layer in dataset.layers.values():
        cur.execute(layer.create_sql)
        placeholders = ", ".join("?" for _ in layer.columns)
        insert_sql = f"INSERT INTO {layer.name} VALUES ({placeholders})"
        geom_idx = layer.columns.index(layer.geometry_column)

        def encode(row: tuple) -> tuple:
            values = list(row)
            geometry = values[geom_idx]
            if isinstance(geometry, Geometry):
                values[geom_idx] = geometry.wkb()
            return tuple(values)

        encoded = [encode(row) for row in layer.rows]
        start = time.perf_counter()
        for base in range(0, len(encoded), 128):
            cur.executemany(insert_sql, encoded[base : base + 128])
        insert_seconds = time.perf_counter() - start

        start = time.perf_counter()
        cur.execute(
            f"CREATE SPATIAL INDEX idx_{layer.name}_geom "
            f"ON {layer.name} ({layer.geometry_column})"
        )
        index_seconds = time.perf_counter() - start
        result.layers.append(
            LayerLoadTiming(layer.name, len(layer.rows),
                            insert_seconds, index_seconds)
        )
    conn.close()
    return result
