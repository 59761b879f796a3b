"""Harness resilience: per-query failure isolation, retries, outcomes.

The acceptance shape from the robustness work: a query matrix containing
a query that times out and a query that hits an injected fault still
completes end-to-end, reporting ``timeout`` / ``error`` outcomes beside
the normal measurements instead of crashing the run.
"""

from __future__ import annotations

import random

import pytest

from repro.core import experiments as exp
from repro.core.macro.scenario import Scenario, ScenarioResult, WorkItem
from repro.core.stats import QueryTiming, backoff_delay, run_timed
from repro.dbapi import connect
from repro.engines import Database
from repro.errors import (
    QueryTimeoutError,
    TransientError,
    UnsupportedFeatureError,
)
from repro.faults import FAULTS
from repro.obs.metrics import GLOBAL


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.disarm_all()
    yield
    FAULTS.disarm_all()


#: an index-probing window query: the target of the armed faults
PROBE = ("SELECT COUNT(*) FROM edges WHERE ST_Intersects("
         "geom, ST_MakeEnvelope(0, 0, 30000, 30000))")


def _run_armed(queries, retries=0, **arm):
    """``queries`` as a greenwood matrix, with ``FAULTS.arm(**arm)``
    applied once the database is loaded: loads are not the target."""

    def armed_after_load(engine, dataset):
        db = exp._per_engine(engine, dataset)
        FAULTS.arm(**arm)
        return db

    matrix = exp.Matrix(queries, ("greenwood",), armed_after_load)
    try:
        result = exp.run_matrix(matrix, seed=7, scale=0.1, retries=retries)
    finally:
        FAULTS.disarm_all()
    return {query: result.cells[query, "greenwood"] for query in queries}


class TestRunTimed:
    def test_transient_fault_retried_with_success_timed(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise TransientError("blip")
            return 42

        timing = QueryTiming("q")
        run_timed(timing, flaky, repeats=2, warmups=0, retries=2,
                  backoff_base=0.0, rng=random.Random(0))
        assert timing.outcome == "ok"
        assert timing.retries == 2
        assert timing.result_value == 42
        assert timing.runs == 2

    def test_retries_exhausted_becomes_error_outcome(self):
        def always_flaky():
            raise TransientError("blip")

        timing = QueryTiming("q")
        run_timed(timing, always_flaky, repeats=2, warmups=0, retries=1,
                  backoff_base=0.0)
        assert timing.outcome == "error"
        assert "blip" in timing.error
        assert timing.runs == 0

    def test_timeout_is_not_retried(self):
        calls = {"n": 0}

        def deadline():
            calls["n"] += 1
            raise QueryTimeoutError("too slow")

        timing = QueryTiming("q")
        run_timed(timing, deadline, repeats=3, warmups=0, retries=5,
                  backoff_base=0.0)
        assert timing.outcome == "timeout"
        assert calls["n"] == 1
        assert timing.supported  # a timeout is not a feature gap

    def test_unsupported_still_reported_as_feature_gap(self):
        def gap():
            raise UnsupportedFeatureError("no ST_Relate here")

        timing = QueryTiming("q")
        run_timed(timing, gap, repeats=2, warmups=0)
        assert timing.outcome == "not supported"
        assert not timing.supported

    def test_retry_counter_moves(self):
        before = GLOBAL.counter("harness_retries_total").value
        calls = {"n": 0}

        def flaky_once():
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientError("blip")
            return 1

        run_timed(QueryTiming("q"), flaky_once, repeats=1, warmups=0,
                  retries=1, backoff_base=0.0)
        assert GLOBAL.counter("harness_retries_total").value == before + 1

    def test_backoff_windows_grow_and_cap(self):
        rng = random.Random(1)
        assert backoff_delay(0, base=0.1, cap=10.0, rng=rng) <= 0.1
        assert backoff_delay(3, base=0.1, cap=10.0, rng=rng) <= 0.8
        assert backoff_delay(50, base=0.1, cap=0.5, rng=rng) <= 0.5


class TestMicroSuiteEndToEnd:
    def test_timeout_and_fault_outcomes_beside_normal_results(self):
        # one forced timeout: every index probe raises the deadline error
        cells = _run_armed(
            {"q.ok": "SELECT COUNT(*) FROM counties", "q.probe": PROBE},
            site="index.probe", probability=1.0, error=QueryTimeoutError,
            seed=3,
        )
        assert cells["q.ok"].outcome == "ok"
        assert cells["q.ok"].runs == 3
        assert cells["q.probe"].outcome == "timeout"
        assert cells["q.probe"].error

    def test_injected_fault_retried_to_success(self):
        # the second probe is the first timed run's, after the warmup's
        cells = _run_armed({"q.flaky": PROBE}, retries=3,
                           site="index.probe", on_call=2, max_fires=1)
        timing = cells["q.flaky"]
        assert timing.outcome == "ok"
        assert timing.retries == 1
        assert timing.runs == 3

    def test_fault_without_retries_is_error_outcome(self):
        cells = _run_armed(
            {"q.ok": "SELECT COUNT(*) FROM counties", "q.doomed": PROBE},
            site="index.probe", probability=1.0, seed=5,
        )
        assert cells["q.ok"].outcome == "ok"
        assert cells["q.doomed"].outcome == "error"
        assert "injected fault" in cells["q.doomed"].error


class _ThreeStepScenario(Scenario):
    name = "three_steps"
    title = "Three steps"

    def build_workload(self, dataset, rng):
        yield WorkItem("ok", "SELECT COUNT(*) FROM pts")
        yield WorkItem("broken", "SELECT COUNT(*) FROM no_such_table")
        yield WorkItem("ok2", "SELECT COUNT(*) FROM pts")


class _InsertScenario(Scenario):
    name = "insert_step"
    title = "Insert step"

    def build_workload(self, dataset, rng):
        yield WorkItem(
            "insert", "INSERT INTO pts VALUES (?, ?)", (99, "POINT(9 9)")
        )


def _pts_connection():
    db = Database("greenwood")
    db.execute("CREATE TABLE pts (id INTEGER, g GEOMETRY)")
    db.insert_rows("pts", [(i, f"POINT({i} {i})") for i in range(5)])
    return connect(database=db)


class TestScenarioIsolation:
    def test_failing_step_does_not_stop_the_scenario(self):
        conn = _pts_connection()
        result = _ThreeStepScenario().run(conn, dataset=None)
        assert [s.query_id for s in result.steps] == ["ok", "broken", "ok2"]
        assert result.executed == 2
        assert result.failed == 1
        assert result.steps[1].outcome == "error"
        assert result.steps[1].error

    def test_timeout_outcome_per_step(self):
        conn = _pts_connection()
        result = _ThreeStepScenario().run(conn, dataset=None, timeout=1e-9)
        outcomes = {s.outcome for s in result.steps}
        assert "timeout" in outcomes
        assert result.executed < 3

    def test_timed_out_step_adds_no_time(self):
        conn = _pts_connection()
        result = _ThreeStepScenario().run(conn, dataset=None, timeout=1e-9)
        timed_out = [s for s in result.steps if s.outcome == "timeout"]
        assert timed_out
        assert all(s.times == [] for s in timed_out)
        assert result.total_seconds == sum(
            s.total for s in result.steps if s.ok
        )

    def test_transient_step_retried(self):
        conn = _pts_connection()
        before = GLOBAL.counter("harness_retries_total").value
        FAULTS.arm("storage.insert", on_call=1, max_fires=1)
        try:
            result = _InsertScenario().run(conn, dataset=None, retries=2)
        finally:
            FAULTS.disarm_all()
        (step,) = result.steps
        assert step.outcome == "ok"
        assert step.retries == 1
        assert GLOBAL.counter("harness_retries_total").value == before + 1

    def test_transient_step_without_retries_errors(self):
        conn = _pts_connection()
        FAULTS.arm("storage.insert", on_call=1, max_fires=1)
        try:
            result = _InsertScenario().run(conn, dataset=None)
        finally:
            FAULTS.disarm_all()
        (step,) = result.steps
        assert step.outcome == "error"
        assert result.failed == 1


class TestReportingSurfaces:
    def test_telemetry_record_carries_outcome_and_retries(self):
        from repro.obs.telemetry import timing_record

        timing = QueryTiming("q.t")
        timing.outcome = "timeout"
        timing.error = "query exceeded its 0.1s deadline"
        record = timing_record(timing, "greenwood")
        assert record["outcome"] == "timeout"
        assert record["error"] == timing.error
        assert "p50" not in record

        ok = QueryTiming("q.ok", times=[0.01, 0.02])
        ok.retries = 2
        record = timing_record(ok, "greenwood")
        assert record["outcome"] == "ok"
        assert record["retries"] == 2
        assert "p50" in record

    def test_scenario_record_counts_failures(self):
        from repro.obs.telemetry import scenario_record

        scenario = ScenarioResult("s", "e")
        scenario.steps.append(QueryTiming("a", [0.1], result_value=1))
        scenario.steps.append(QueryTiming("b", error="boom", outcome="error"))
        record = scenario_record(scenario)
        assert record["failed"] == 1
        assert record["steps"][1]["outcome"] == "error"
        assert record["steps"][1]["error"] == "boom"

    def test_report_renders_outcome_cells(self):
        matrix = exp.Matrix(exp.TOPOLOGY_QUERIES, ("greenwood",),
                            exp._per_engine)
        result = exp.MatrixResult(matrix, tuple(exp.TOPOLOGY_QUERIES),
                                  ("greenwood",))
        for i, query in enumerate(result.queries):
            timing = QueryTiming(query)
            if i == 0:
                timing.outcome = "timeout"
                timing.error = "deadline"
            else:
                timing.record(0.001)
            result.cells[query, "greenwood"] = timing
        text = exp.render_matrix(result)
        assert "timeout" in text

    def test_cli_accepts_timeout_and_retries_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["experiment", "jt1", "--timeout", "2.5", "--retries", "3"]
        )
        assert args.timeout == 2.5
        assert args.retries == 3
