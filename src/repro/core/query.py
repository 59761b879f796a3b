"""Benchmark query descriptors shared by the micro suites."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BenchmarkQuery:
    """One self-contained benchmark query.

    ``query_id`` keys the paper-style reports (e.g. ``topo.polygon_
    intersects_line``); ``sql`` runs unchanged on every engine thanks to
    the DB-API portability layer.
    """

    query_id: str
    title: str
    sql: str
    description: str = ""
