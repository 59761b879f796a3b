"""Plain-text report renderers: the paper's tables/figures as aligned text.

Each function renders one experiment artifact (see the J-T*/J-F* index in
DESIGN.md) from a :class:`BenchmarkResult`, printing rows in the same
shape the paper reports: queries down the side, engines across the top,
response time (or throughput) in the cells, ``n/s`` for unsupported
features.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.core.benchmark import BenchmarkResult
from repro.core.micro import analysis_queries, topology_queries
from repro.core.query import BenchmarkQuery


def _fmt_time(seconds: float) -> str:
    if math.isnan(seconds):
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows])


def _micro_headers(result: BenchmarkResult, label: str) -> List[str]:
    headers = [label]
    for engine in result.engines():
        headers.extend([engine, f"{engine} p95/p99"])
    headers.append("result")
    return headers


def _micro_rows(
    result: BenchmarkResult, queries: List[BenchmarkQuery]
) -> List[List[str]]:
    engines = result.engines()
    rows: List[List[str]] = []
    for query in queries:
        row = [query.title]
        ref_value = None
        for engine in engines:
            timing = result.runs[engine].micro.get(query.query_id)
            if timing is None:
                row.extend(["-", "-"])
            elif not timing.supported:
                row.extend(["n/s", "n/s"])
            elif not timing.ok:
                # resilience outcomes render in place of a latency
                row.extend([timing.outcome, timing.outcome])
            else:
                median = _fmt_time(timing.median)
                if timing.outcome == "degraded":
                    median += "*"  # MBR-degraded verdicts, see RESILIENCE.md
                row.append(median)
                row.append(
                    f"{_fmt_time(timing.p95)}/{_fmt_time(timing.p99)}"
                )
                if ref_value is None:
                    ref_value = timing.result_value
        row.append(str(_first_supported_value(result, query.query_id)))
        rows.append(row)
    return rows


_EXACT_FIRST = ("greenwood", "ironbark")


def _first_supported_value(result: BenchmarkResult, query_id: str):
    """The reference answer: prefer exact engines over MBR-only ones."""
    ordered = [e for e in _EXACT_FIRST if e in result.runs] + [
        e for e in result.engines() if e not in _EXACT_FIRST
    ]
    for engine in ordered:
        timing = result.runs[engine].micro.get(query_id)
        if timing is not None and timing.supported and timing.ok:
            return timing.result_value
    return "-"


def render_micro_topology(result: BenchmarkResult) -> str:
    """J-F1: response time per topological micro query (median + tails)."""
    headers = _micro_headers(result, "Topological query")
    return (
        "== Micro benchmark: topological relations (J-T1 / J-F1) ==\n"
        + _table(headers, _micro_rows(result, topology_queries()))
    )


def render_micro_analysis(result: BenchmarkResult) -> str:
    """J-F2: response time per spatial-analysis micro query (median + tails)."""
    headers = _micro_headers(result, "Analysis query")
    queries = [
        q for q in analysis_queries()
    ]
    # titles/ids match regardless of dataset binding
    return (
        "== Micro benchmark: spatial analysis (J-T2 / J-F2) ==\n"
        + _table(headers, _micro_rows(result, queries))
    )


def render_macro(result: BenchmarkResult) -> str:
    """J-F3: per-scenario throughput (queries per minute)."""
    engines = result.engines()
    headers = ["Macro scenario"] + [
        f"{e} (q/min)" for e in engines
    ] + ["skipped"]
    rows: List[List[str]] = []
    scenario_names: List[str] = []
    for engine in engines:
        for name in result.runs[engine].macro:
            if name not in scenario_names:
                scenario_names.append(name)
    for name in scenario_names:
        row = [name]
        skipped_notes = []
        for engine in engines:
            scenario = result.runs[engine].macro.get(name)
            if scenario is None:
                row.append("-")
                continue
            row.append(f"{scenario.queries_per_minute:.0f}")
            if scenario.skipped:
                skipped_notes.append(f"{engine}:{scenario.skipped}")
        row.append(",".join(skipped_notes) or "-")
        rows.append(row)
    return "== Macro scenarios: throughput (J-T4 / J-F3) ==\n" + _table(
        headers, rows
    )


def render_loading(result: BenchmarkResult) -> str:
    """J-F4: per-layer load and index-build time."""
    engines = result.engines()
    headers = ["Layer"] + [
        part for engine in engines for part in (f"{engine} load", f"{engine} idx")
    ]
    layer_names: List[str] = []
    for engine in engines:
        loading = result.runs[engine].loading
        if loading:
            for timing in loading.layers:
                if timing.layer not in layer_names:
                    layer_names.append(timing.layer)
    rows: List[List[str]] = []
    for layer in layer_names:
        row = [layer]
        for engine in engines:
            loading = result.runs[engine].loading
            timing = next(
                (t for t in loading.layers if t.layer == layer), None
            ) if loading else None
            if timing is None:
                row.extend(["-", "-"])
            else:
                row.extend(
                    [_fmt_time(timing.insert_seconds),
                     _fmt_time(timing.index_seconds)]
                )
        rows.append(row)
    return "== Data loading (J-T3 / J-F4) ==\n" + _table(headers, rows)


def render_macro_details(result: BenchmarkResult) -> str:
    """Per-step timings for every scenario — the drill-down view."""
    sections: List[str] = []
    for engine in result.engines():
        for name, scenario in result.runs[engine].macro.items():
            rows = []
            for step in scenario.steps:
                status = "skipped" if step.skipped else _fmt_time(step.seconds)
                rows.append([step.label, status, str(step.rows)])
            sections.append(
                f"-- {name} on {engine} "
                f"({scenario.queries_per_minute:.0f} q/min) --\n"
                + _table(["step", "time", "rows"], rows)
            )
    return "\n\n".join(sections)


def render_full(result: BenchmarkResult) -> str:
    """The complete report, all artifacts concatenated."""
    sections = [
        f"Jackpine reproduction report — dataset rows: {result.dataset_rows}, "
        f"scale {result.config.scale}, seed {result.config.seed}, "
        f"repeats {result.config.repeats}",
        render_loading(result),
        render_micro_topology(result),
        render_micro_analysis(result),
        render_macro(result),
    ]
    return "\n\n".join(sections)
