"""Storage layer: heap tables, schemas, the system catalog, and the
durable page/WAL substrate (docs/DURABILITY.md)."""

from repro.storage.catalog import Catalog, IndexEntry
from repro.storage.durability import (
    CheckpointReport,
    DurabilityManager,
    RecoveryReport,
    recover,
)
from repro.storage.pages import PAGE_SIZE, DiskManager, HeapStore, Page
from repro.storage.statistics import (
    ColumnStats,
    EnvelopeHistogram,
    TableStats,
    estimate_join_pairs,
)
from repro.storage.table import Column, ColumnType, Table
from repro.storage.wal import WriteAheadLog

__all__ = [
    "Catalog",
    "CheckpointReport",
    "Column",
    "ColumnStats",
    "ColumnType",
    "DiskManager",
    "DurabilityManager",
    "EnvelopeHistogram",
    "HeapStore",
    "IndexEntry",
    "PAGE_SIZE",
    "Page",
    "RecoveryReport",
    "Table",
    "TableStats",
    "WriteAheadLog",
    "estimate_join_pairs",
    "recover",
]
