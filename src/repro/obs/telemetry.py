"""Structured benchmark telemetry: one stream, many consumers.

Every benchmark run can be reduced to a list of per-query records —
query id, engine profile, latency percentiles (p50/p95/p99), the
reference answer, and (when the harness captured an exemplar trace) the
per-operator breakdown. The J-report tables and the JSON artifacts
are both views over this stream: :func:`run_records` builds it from a
:class:`~repro.core.benchmark.BenchmarkResult`, and
:func:`write_artifacts` serialises it to one JSON file per engine.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

SCHEMA = "jackpine-telemetry/1"


def timing_record(timing, engine: str, suite: str) -> Dict[str, Any]:
    """One telemetry record from a :class:`~repro.core.stats.QueryTiming`."""
    record: Dict[str, Any] = {
        "query_id": timing.query_id,
        "engine": engine,
        "suite": suite,
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


def scenario_record(scenario, engine: str) -> Dict[str, Any]:
    """One telemetry record per macro scenario, steps included."""
    steps: List[Dict[str, Any]] = []
    for step in scenario.steps:
        entry: Dict[str, Any] = {
            "label": step.label,
            "seconds": step.seconds,
            "rows": step.rows,
            "skipped": step.skipped,
            "outcome": step.outcome,
        }
        if step.retries:
            entry["retries"] = step.retries
        if step.error and not step.skipped:
            entry["error"] = step.error
        if step.trace is not None:
            entry["operators"] = step.trace.operator_breakdown()
        steps.append(entry)
    return {
        "query_id": f"macro.{scenario.scenario}",
        "engine": engine,
        "suite": "macro",
        "supported": True,
        "queries_per_minute": scenario.queries_per_minute,
        "executed": scenario.executed,
        "skipped": scenario.skipped,
        "failed": scenario.failed,
        "total_seconds": scenario.total_seconds,
        "steps": steps,
    }


def run_records(result) -> List[Dict[str, Any]]:
    """The full telemetry stream for one benchmark run."""
    records: List[Dict[str, Any]] = []
    for engine, run in result.runs.items():
        for timing in run.micro.values():
            suite = (
                "micro.topology"
                if timing.query_id.startswith("topo")
                else "micro.analysis"
            )
            records.append(timing_record(timing, engine, suite))
        for scenario in run.macro.values():
            records.append(scenario_record(scenario, engine))
        if run.loading is not None:
            for layer in run.loading.layers:
                records.append(
                    {
                        "query_id": f"loading.{layer.layer}",
                        "engine": engine,
                        "suite": "loading",
                        "supported": True,
                        "rows": layer.rows,
                        "insert_seconds": layer.insert_seconds,
                        "index_seconds": layer.index_seconds,
                    }
                )
    return records


def run_document(result) -> Dict[str, Any]:
    """The artifact envelope: config header plus the record stream."""
    config = result.config
    return {
        "schema": SCHEMA,
        "config": {
            "engines": list(config.engines),
            "seed": config.seed,
            "scale": config.scale,
            "repeats": config.repeats,
            "warmups": config.warmups,
            "with_indexes": config.with_indexes,
        },
        "dataset_rows": result.dataset_rows,
        "records": run_records(result),
    }


def write_document(document: Dict[str, Any], out_dir: str, name: str) -> str:
    """Write one telemetry document as ``out_dir/name``; returns the path.
    Every telemetry file (suites, workloads, experiments) goes through
    here."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_artifacts(result, out_dir: str) -> List[str]:
    """Write one ``telemetry_<engine>.json`` per engine; returns paths."""
    document = run_document(result)
    paths: List[str] = []
    for engine in result.engines():
        engine_doc = dict(document)
        engine_doc["engine"] = engine
        engine_doc["records"] = [
            r for r in document["records"] if r["engine"] == engine
        ]
        paths.append(
            write_document(engine_doc, out_dir, f"telemetry_{engine}.json")
        )
    return paths


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)
