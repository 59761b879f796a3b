"""Macro scenario framework.

A scenario is a deterministic sequence of SQL statements modelling one
real spatial application (the paper's map browsing, geocoding, reverse
geocoding, flood risk, land management and toxic spill workloads). The
runner executes the sequence through the DB-API, measuring every
statement once with the micro suites' protocol; statements an engine
cannot run (missing function) are recorded as skipped rather than
failing the scenario — feature gaps are a result the paper reports, not
an error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Tuple

from repro.core.stats import QueryTiming, measure


@dataclass(frozen=True)
class WorkItem:
    """One step of a scenario: a labelled SQL statement."""

    label: str
    sql: str
    params: Tuple[Any, ...] = ()


@dataclass
class ScenarioResult:
    scenario: str
    engine: str
    #: one measurement per step: ``query_id`` is the step's label,
    #: ``result_value`` its row count
    steps: List[QueryTiming] = field(default_factory=list)

    @property
    def executed(self) -> int:
        return sum(1 for s in self.steps if s.ok)

    @property
    def skipped(self) -> int:
        return sum(1 for s in self.steps if not s.supported)

    @property
    def failed(self) -> int:
        """Steps that timed out or errored (distinct from feature gaps)."""
        return sum(1 for s in self.steps if s.outcome in ("timeout", "error"))

    @property
    def total_seconds(self) -> float:
        """Time of the successful steps; a failed step adds none."""
        return sum(s.total for s in self.steps)

    @property
    def queries_per_minute(self) -> float:
        if self.total_seconds == 0.0:
            return 0.0
        return 60.0 * self.executed / self.total_seconds


class Scenario:
    """Base class: subclasses define ``name``, ``title`` and the workload."""

    name: str = "abstract"
    title: str = "Abstract scenario"
    description: str = ""

    def build_workload(
        self, dataset, rng: random.Random
    ) -> Iterable[WorkItem]:
        raise NotImplementedError

    def run(self, connection, dataset, seed: int = 7,
            engine_name: str = "?", timeout: Optional[float] = None,
            retries: int = 0) -> ScenarioResult:
        """Every step measured once, without warmup, by
        :func:`~repro.core.stats.measure` — the protocol of a matrix
        cell."""
        cursor = connection.cursor()

        def row_count(item: WorkItem):
            def call() -> int:
                cursor.execute(item.sql, item.params, timeout=timeout)
                return len(cursor.fetchall())

            return call

        return ScenarioResult(self.name, engine_name, [
            measure(connection.database, item.label, row_count(item),
                    repeats=1, warmups=0, retries=retries)
            for item in self.build_workload(dataset, random.Random(seed))
        ])


def sample_rows(layer, rng: random.Random, count: int) -> List[tuple]:
    """Deterministic sample of a layer's rows."""
    rows = layer.rows
    if len(rows) <= count:
        return list(rows)
    return rng.sample(rows, count)


def column_value(layer, row: tuple, column: str):
    return row[layer.columns.index(column)]
