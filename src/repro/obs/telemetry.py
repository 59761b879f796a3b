"""Structured benchmark telemetry: one record shape, one writer.

Every experiment reduces to a list of records — query id, engine
profile, latency percentiles (p50/p95/p99), the answer, and (when the
harness captured an exemplar trace) the per-operator breakdown.
:func:`timing_record` and :func:`scenario_record` build them,
:func:`repro.core.experiments.document` wraps them in the document
envelope, and :func:`write_document` writes every telemetry file.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

SCHEMA = "jackpine-telemetry/1"


def timing_record(timing, engine: str) -> Dict[str, Any]:
    """One telemetry record from a :class:`~repro.core.stats.QueryTiming`."""
    record: Dict[str, Any] = {
        "query_id": timing.query_id,
        "engine": engine,
        "supported": timing.supported,
        "runs": timing.runs,
        "outcome": timing.outcome,
    }
    if timing.retries:
        record["retries"] = timing.retries
    if not timing.supported or not timing.ok:
        record["error"] = timing.error
        return record
    record.update(
        {
            "p50": timing.p50,
            "p95": timing.p95,
            "p99": timing.p99,
            "mean": timing.mean,
            "min": timing.minimum,
            "max": timing.maximum,
            "result": _jsonable(timing.result_value),
        }
    )
    trace = timing.trace
    if trace is not None:
        record["operators"] = trace.operator_breakdown()
        record["counters"] = dict(trace.counters)
    return record


def scenario_record(scenario) -> Dict[str, Any]:
    """One telemetry record per macro scenario; its steps are timing
    records."""
    return {
        "query_id": scenario.scenario,
        "engine": scenario.engine,
        "queries_per_minute": scenario.queries_per_minute,
        "executed": scenario.executed,
        "skipped": scenario.skipped,
        "failed": scenario.failed,
        "total_seconds": scenario.total_seconds,
        "steps": [timing_record(step, scenario.engine)
                  for step in scenario.steps],
    }


def write_document(document: Dict[str, Any], out_dir: str, name: str) -> str:
    """Write one telemetry document as ``out_dir/name``; returns the path.
    Every telemetry file (experiments, workloads) goes through here."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)
