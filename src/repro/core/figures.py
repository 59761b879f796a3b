"""CSV export of every figure's data series.

The text report (``repro.core.report``) renders the paper's tables for a
human; this module writes the same series as machine-readable CSV so the
figures can be re-plotted. ``jackpine run --out DIR`` wires it to the
CLI. One file per artifact, named after the experiment ids in DESIGN.md.
"""

from __future__ import annotations

import csv
import os
from typing import List, Optional

from repro.core.benchmark import BenchmarkResult
from repro.core.micro import analysis_queries, topology_queries


def _write(path: str, header: List[str], rows: List[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def export_micro(result: BenchmarkResult, out_dir: str) -> List[str]:
    """J-F1 and J-F2 series: per-query, per-engine medians."""
    written = []
    for filename, queries in (
        ("jf1_topology.csv", topology_queries()),
        ("jf2_analysis.csv", analysis_queries()),
    ):
        rows = []
        for query in queries:
            for engine in result.engines():
                timing = result.runs[engine].micro.get(query.query_id)
                if timing is None:
                    continue
                rows.append(
                    [
                        query.query_id,
                        query.title,
                        engine,
                        f"{timing.median:.9f}" if timing.supported else "",
                        int(timing.supported),
                        timing.result_value if timing.supported else "",
                    ]
                )
        path = os.path.join(out_dir, filename)
        _write(
            path,
            ["query_id", "title", "engine", "median_s", "supported", "result"],
            rows,
        )
        written.append(path)
    return written


def export_macro(result: BenchmarkResult, out_dir: str) -> Optional[str]:
    """J-F3 series: scenario throughput per engine."""
    rows = []
    for engine in result.engines():
        for name, scenario in result.runs[engine].macro.items():
            rows.append(
                [
                    name,
                    engine,
                    f"{scenario.queries_per_minute:.3f}",
                    scenario.executed,
                    scenario.skipped,
                    f"{scenario.total_seconds:.9f}",
                ]
            )
    if not rows:
        return None
    path = os.path.join(out_dir, "jf3_macro.csv")
    _write(
        path,
        ["scenario", "engine", "queries_per_minute", "executed", "skipped",
         "total_seconds"],
        rows,
    )
    return path


def export_loading(result: BenchmarkResult, out_dir: str) -> Optional[str]:
    """J-F4 series: per-layer insert and index-build times."""
    rows = []
    for engine in result.engines():
        loading = result.runs[engine].loading
        if loading is None:
            continue
        for timing in loading.layers:
            rows.append(
                [
                    timing.layer,
                    engine,
                    timing.rows,
                    f"{timing.insert_seconds:.9f}",
                    f"{timing.index_seconds:.9f}",
                    f"{timing.rows_per_second:.3f}",
                ]
            )
    if not rows:
        return None
    path = os.path.join(out_dir, "jf4_loading.csv")
    _write(
        path,
        ["layer", "engine", "rows", "insert_s", "index_build_s",
         "rows_per_second"],
        rows,
    )
    return path


def export_all(result: BenchmarkResult, out_dir: str) -> List[str]:
    """Write every series present in ``result``; returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = export_micro(result, out_dir)
    macro_path = export_macro(result, out_dir)
    if macro_path:
        written.append(macro_path)
    loading_path = export_loading(result, out_dir)
    if loading_path:
        written.append(loading_path)
    return written

