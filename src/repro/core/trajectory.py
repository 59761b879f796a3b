"""Benchmark trajectory: dated performance records over the repo's life.

``jackpine bench --record FILE`` appends one dated JSON record — the
median latencies of the J-X3 topology-join matrix plus the J-X4 abort
rates per client count — to a trajectory file, and ``--compare
BASELINE`` measures afresh, prints per-metric deltas against the last
record in BASELINE, and exits nonzero when any join regresses past a
threshold. The committed ``BENCH_trajectory.json`` seeds the series so
future changes have something to diff against.

The trajectory file is a single JSON document holding every record
(schema :data:`SCHEMA`), newest last::

    {"schema": "jackpine-bench/1", "records": [{...}, {...}]}

Comparisons are within-file only: wall-clock medians from different
machines are not comparable, so the threshold check is a *relative*
regression gate against the previous record, not an absolute target.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Sequence, Tuple

from repro.datagen import generate
from repro.engines import Database

SCHEMA = "jackpine-bench/1"

#: measurement defaults — small on purpose: the record is a trend line,
#: not a rigorous benchmark run
DEFAULT_REPEATS = 3
DEFAULT_CLIENTS_SERIES: Tuple[int, ...] = (1, 2, 4)
DEFAULT_DURATION = 0.5


def collect_record(
    engine: str = "greenwood",
    seed: int = 42,
    scale: float = 0.1,
    repeats: int = DEFAULT_REPEATS,
    clients_series: Sequence[int] = DEFAULT_CLIENTS_SERIES,
    duration: float = DEFAULT_DURATION,
) -> Dict[str, Any]:
    """Measure one dated trajectory record (median join latencies from
    the J-X3 matrix + J-X4 abort rates per client count)."""
    from repro.core.experiments import JOIN_MATRIX, run_mixed_workload

    dataset = generate(seed=seed, scale=scale)
    db = Database(engine)
    dataset.load_into(db)
    db.execute("ANALYZE")
    joins: Dict[str, float] = {}
    for label, sql in JOIN_MATRIX:
        db.execute(sql)  # warmup (plan cache, index touch)
        times: List[float] = []
        for _ in range(repeats):
            started = time.perf_counter()
            db.execute(sql)
            times.append(time.perf_counter() - started)
        joins[label] = median(times)
    # separate untimed pass with the statement store on: each join's
    # current plan fingerprint lands in the record, so --compare can
    # tell a latency delta caused by a plan flip from execution drift.
    # Kept outside the timed loop — recording overhead must never move
    # the medians the trajectory gates on.
    plans: Dict[str, str] = {}
    db.obs.enable_statements()
    try:
        for label, sql in JOIN_MATRIX:
            db.execute(sql)
            plan = db.obs.statements.current_plan(sql)
            if plan is not None:
                plans[label] = plan.plan_fingerprint
    finally:
        db.obs.disable_statements()
    mixed = run_mixed_workload(
        engine=engine, clients_series=clients_series, seed=seed,
        scale=scale, duration=duration,
    )
    abort_rates = {
        str(point["clients"]): point["abort_rate"] for point in mixed.points
    }
    return {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "engine": engine,
        "seed": seed,
        "scale": scale,
        "repeats": repeats,
        "join_median_seconds": joins,
        "plan_fingerprints": plans,
        "abort_rates": abort_rates,
    }


def load_trajectory(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or document.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} trajectory file")
    if not isinstance(document.get("records"), list):
        raise ValueError(f"{path}: malformed trajectory (no records list)")
    return document


def record_to(path: str, record: Dict[str, Any]) -> str:
    """Append ``record`` to the trajectory at ``path`` (created if
    absent); returns the path."""
    if os.path.exists(path):
        document = load_trajectory(path)
    else:
        document = {"schema": SCHEMA, "records": []}
    document["records"].append(record)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


@dataclass
class Comparison:
    """Fresh measurement vs the last record in a baseline trajectory."""

    baseline_at: str
    threshold: float
    # [(label, baseline_seconds, new_seconds, ratio)]
    joins: List[Tuple[str, float, float, float]] = field(
        default_factory=list
    )
    # [(clients, baseline_rate, new_rate)]
    aborts: List[Tuple[str, float, float]] = field(default_factory=list)
    #: join labels whose ratio exceeded 1 + threshold
    regressed: List[str] = field(default_factory=list)
    #: join labels whose recorded plan fingerprint changed vs baseline
    plan_changed: List[str] = field(default_factory=list)


def compare_against(path: str, record: Dict[str, Any],
                    threshold: float = 0.25) -> Comparison:
    """Compare ``record`` against the newest record in ``path``.

    Only the join latencies gate (``regressed``): abort rates swing with
    scheduling noise at sub-second durations, so their deltas are
    reported but never fail the comparison.
    """
    document = load_trajectory(path)
    if not document["records"]:
        raise ValueError(f"{path}: trajectory has no records to compare to")
    baseline = document["records"][-1]
    comparison = Comparison(
        baseline_at=baseline.get("recorded_at", "?"), threshold=threshold
    )
    base_joins = baseline.get("join_median_seconds", {})
    for label, new_seconds in record["join_median_seconds"].items():
        old_seconds = base_joins.get(label)
        if old_seconds is None or old_seconds <= 0:
            continue
        ratio = new_seconds / old_seconds
        comparison.joins.append((label, old_seconds, new_seconds, ratio))
        if ratio > 1.0 + threshold:
            comparison.regressed.append(label)
    base_plans = baseline.get("plan_fingerprints", {})
    for label, new_plan in record.get("plan_fingerprints", {}).items():
        old_plan = base_plans.get(label)
        if old_plan is not None and old_plan != new_plan:
            comparison.plan_changed.append(label)
    base_aborts = baseline.get("abort_rates", {})
    for clients, new_rate in record.get("abort_rates", {}).items():
        old_rate = base_aborts.get(clients)
        if old_rate is None:
            continue
        comparison.aborts.append((clients, old_rate, new_rate))
    return comparison


def render_record(record: Dict[str, Any]) -> str:
    lines = [
        f"== bench record @ {record['recorded_at']} "
        f"({record['engine']}, scale {record['scale']}) ==",
        f"{'join':<36s} {'median':>10s}",
    ]
    for label, seconds in record["join_median_seconds"].items():
        lines.append(f"{label:<36s} {seconds * 1e3:>8.2f}ms")
    lines.append(f"{'clients':>8s} {'abort rate':>11s}")
    for clients, rate in sorted(
        record["abort_rates"].items(), key=lambda kv: int(kv[0])
    ):
        lines.append(f"{clients:>8s} {rate:>10.1%}")
    return "\n".join(lines)


def render_comparison(comparison: Comparison) -> str:
    lines = [
        f"== vs baseline @ {comparison.baseline_at} "
        f"(threshold +{comparison.threshold:.0%}) ==",
        f"{'join':<36s} {'baseline':>10s} {'now':>10s} {'delta':>8s}",
    ]
    for label, old, new, ratio in comparison.joins:
        marker = "  << REGRESSED" if label in comparison.regressed else ""
        if label in comparison.plan_changed:
            marker += "  [plan flip]"
        lines.append(
            f"{label:<36s} {old * 1e3:>8.2f}ms {new * 1e3:>8.2f}ms "
            f"{ratio - 1.0:>+7.1%}{marker}"
        )
    if comparison.plan_changed:
        lines.append(
            f"plan flips vs baseline: "
            f"{', '.join(comparison.plan_changed)}"
        )
    for clients, old_rate, new_rate in comparison.aborts:
        lines.append(
            f"abort rate @ {clients:>2s} clients: "
            f"{old_rate:.1%} -> {new_rate:.1%} (informational)"
        )
    if comparison.regressed:
        lines.append(
            f"{len(comparison.regressed)} join(s) regressed past the "
            f"threshold"
        )
    else:
        lines.append("no joins regressed past the threshold")
    return "\n".join(lines)


__all__ = [
    "SCHEMA",
    "Comparison",
    "collect_record",
    "compare_against",
    "load_trajectory",
    "record_to",
    "render_comparison",
    "render_record",
]
