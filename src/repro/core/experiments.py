"""Every standalone experiment behind ``jackpine experiment``, in one
registry.

:data:`EXPERIMENTS` maps an experiment id (``jf5`` ... ``jx6``) to an
:class:`Experiment`: a title, a runner, a renderer and the telemetry
records of a result. :func:`render` and :func:`document` turn any
result into the printed table and the telemetry document.

Six of them — J-F5, J-F6, J-A1, J-A2, J-X1 and J-X3 — are the same
experiment shape: a set of queries run on every variant of a setup
(index on/off, dataset scale, engine profile, index structure, join
strategy). They are six :class:`Matrix` values, measured by one
:func:`run_matrix` under the suite protocol (:func:`repro.core.stats.
run_timed`, the one ``jackpine run`` uses) and drawn by one
:func:`render_matrix`. J-X2/J-X4/J-X5/J-X6 drive concurrent clients,
crashes and a server, so they keep their own runners.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.report import _fmt_time, _table
from repro.core.stats import QueryTiming, run_timed
from repro.datagen import generate
from repro.datagen.tiger import WORLD_SIZE
from repro.dbapi import connect
from repro.engines import Database
from repro.errors import ReproError
from repro.obs.telemetry import SCHEMA, timing_record

ENGINES: Tuple[str, ...] = ("greenwood", "bluestem", "ironbark")


# ---------------------------------------------------------------------------
# the query sets (EXPERIMENTS.md's tables come from these)
# ---------------------------------------------------------------------------

#: J-F5: selective queries with and without the spatial index
INDEX_EFFECT_QUERIES: Dict[str, str] = {
    "window_small": (
        "SELECT COUNT(*) FROM edges "
        "WHERE ST_Intersects(geom, ST_MakeEnvelope(40000, 40000, 44000, 44000))"
    ),
    "window_large": (
        "SELECT COUNT(*) FROM edges "
        "WHERE ST_Intersects(geom, ST_MakeEnvelope(10000, 10000, 60000, 60000))"
    ),
    "point_probe": (
        "SELECT COUNT(*) FROM counties "
        "WHERE ST_Contains(geom, ST_Point(51234, 48765))"
    ),
    "spatial_join": (
        "SELECT COUNT(*) FROM areawater w JOIN pointlm p "
        "ON ST_Within(p.geom, w.geom)"
    ),
}

#: J-F6: a micro subset at growing dataset scale
SCALABILITY_QUERIES: Dict[str, str] = {
    "window": (
        "SELECT COUNT(*) FROM edges "
        "WHERE ST_Intersects(geom, ST_MakeEnvelope(20000, 20000, 45000, 45000))"
    ),
    "containment_join": (
        "SELECT COUNT(*) FROM counties c JOIN pointlm p "
        "ON ST_Contains(c.geom, p.geom)"
    ),
    "line_water_join": (
        "SELECT COUNT(*) FROM edges e JOIN areawater w "
        "ON ST_Intersects(e.geom, w.geom)"
    ),
}

#: J-A1: the predicates where exact and MBR-only answers part ways
REFINEMENT_QUERIES: Dict[str, str] = {
    "contains_points": (
        "SELECT COUNT(*) FROM counties c JOIN pointlm p "
        "ON ST_Contains(c.geom, p.geom)"
    ),
    "touches_counties": (
        "SELECT COUNT(*) FROM counties a JOIN counties b "
        "ON ST_Touches(a.geom, b.geom) WHERE a.gid < b.gid"
    ),
    "intersects_lines_water": (
        "SELECT COUNT(*) FROM edges e JOIN areawater w "
        "ON ST_Intersects(e.geom, w.geom)"
    ),
}

#: J-A2: the regimes where the index structures differ
INDEX_ABLATION_QUERIES: Dict[str, str] = {
    "window_selective": (
        "SELECT COUNT(*) FROM edges "
        "WHERE ST_Intersects(geom, ST_MakeEnvelope(40000, 40000, 43000, 43000))"
    ),
    "window_broad": (
        "SELECT COUNT(*) FROM edges "
        "WHERE ST_Intersects(geom, ST_MakeEnvelope(5000, 5000, 70000, 70000))"
    ),
    "join_roads_water": (
        "SELECT COUNT(*) FROM areawater w JOIN edges e "
        "ON ST_Intersects(e.geom, w.geom)"
    ),
    # landmark window: the query whose cost profile flips under the
    # clustered distribution (dense grid buckets at the urban cores)
    "landmark_window": (
        "SELECT COUNT(*) FROM pointlm "
        "WHERE ST_Intersects(geom, ST_MakeEnvelope(35000, 35000, 65000, 65000))"
    ),
}

INDEX_ABLATION_KINDS: Tuple[str, ...] = ("rtree", "grid", "quadtree", "scan")

#: J-X1: window side as a fraction of the state's extent, tiny to everything
SELECTIVITY_FRACTIONS: Tuple[float, ...] = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)


def _centred_window(fraction: float) -> str:
    half = fraction * WORLD_SIZE / 2.0
    centre = WORLD_SIZE / 2.0
    return (
        f"SELECT COUNT(*) FROM edges WHERE ST_Intersects(geom, "
        f"ST_MakeEnvelope({centre - half}, {centre - half}, "
        f"{centre + half}, {centre + half}))"
    )


SELECTIVITY_QUERIES: Dict[str, str] = {
    f"{fraction:.0%}": _centred_window(fraction)
    for fraction in SELECTIVITY_FRACTIONS
}

#: J-X3: (label, SQL) — the topology joins that dominate the micro suite
JOIN_MATRIX: Tuple[Tuple[str, str], ...] = (
    (
        "arealm x areawater (overlaps)",
        "SELECT COUNT(*) FROM arealm a, areawater w "
        "WHERE ST_Overlaps(a.geom, w.geom)",
    ),
    (
        "arealm x counties (intersects)",
        "SELECT COUNT(*) FROM arealm a, counties c "
        "WHERE ST_Intersects(a.geom, c.geom)",
    ),
    (
        "parcels x arealm (intersects)",
        "SELECT COUNT(*) FROM parcels p, arealm a "
        "WHERE ST_Intersects(p.geom, a.geom)",
    ),
    (
        "edges x areawater (crosses)",
        "SELECT COUNT(*) FROM edges e, areawater w "
        "WHERE ST_Crosses(e.geom, w.geom)",
    ),
    # a filtered outer: the tree join packs it into a transient R-tree
    (
        "edges(highway) x edges (overlaps)",
        "SELECT COUNT(*) FROM edges a JOIN edges b "
        "ON ST_Overlaps(a.geom, b.geom) "
        "WHERE a.gid < b.gid AND a.road_class = 'highway'",
    ),
)

JOIN_STRATEGY_SERIES: Tuple[str, ...] = ("inlj", "tree", "auto")


# ---------------------------------------------------------------------------
# query x variant matrices: J-F5, J-F6, J-A1, J-A2, J-X1, J-X3
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Matrix:
    """Every query of ``queries`` timed on every variant of ``variants``."""

    queries: Dict[str, str]
    variants: Tuple[Any, ...]
    #: ``database(variant, dataset)`` -> the loaded database answering
    #: for ``variant``; ``dataset(scale=<run scale>)`` is the seeded
    #: dataset, generated once per scale
    database: Callable[[Any, Callable[..., Any]], Database]
    #: the variants must return identical answers (else the run raises)
    agree: bool = False
    #: a ``db.stats`` counter reported per cell, per run
    counter: Optional[str] = None
    #: add a last-variant / first-variant time ratio column
    speedup: bool = False


@dataclass
class MatrixResult:
    matrix: Matrix
    queries: Tuple[str, ...]
    variants: Tuple[Any, ...]
    #: (query, variant) -> the cell's measurement
    cells: Dict[Tuple[str, Any], QueryTiming] = field(default_factory=dict)
    #: (query, variant) -> ``matrix.counter`` per run, when it has one
    counts: Dict[Tuple[str, Any], int] = field(default_factory=dict)
    #: variant -> the engine profile that answered it
    engines: Dict[Any, str] = field(default_factory=dict)

    def answer(self, query: str, variant: Any) -> Any:
        return self.cells[query, variant].result_value


def _count_answer(cursor, sql: str) -> Callable[[], Any]:
    """One timed call: the COUNT(*) answer, or the row count."""

    def call() -> Any:
        cursor.execute(sql)
        rows = cursor.fetchall()
        return rows[0][0] if rows and len(rows[0]) == 1 else len(rows)

    return call


def run_matrix(
    matrix: Matrix,
    seed: int = 42,
    scale: float = 0.25,
    distribution: str = "uniform",
    queries: Optional[Sequence[str]] = None,
    variants: Optional[Sequence[Any]] = None,
) -> MatrixResult:
    """Measure every (query, variant) cell of ``matrix`` (or of the given
    subsets) with :func:`run_timed`: one warmup, median of three runs.

    One variant's database is alive at a time. A cell that ends in
    ``error`` or ``timeout`` raises; ``not supported`` is a result.
    """
    result = MatrixResult(
        matrix=matrix,
        queries=tuple(queries or matrix.queries),
        variants=tuple(variants or matrix.variants),
    )
    generated: Dict[float, Any] = {}

    def dataset(at: float = scale):
        if at not in generated:
            generated.clear()
            generated[at] = generate(
                seed=seed, scale=at, distribution=distribution
            )
        return generated[at]

    for variant in result.variants:
        db = matrix.database(variant, dataset)
        result.engines[variant] = db.profile.name
        cursor = connect(database=db).cursor()
        for query in result.queries:
            db.stats.reset()
            timing = run_timed(
                QueryTiming(query),
                _count_answer(cursor, matrix.queries[query]),
            )
            if timing.outcome in ("error", "timeout"):
                raise ReproError(
                    f"{query} on {variant}: {timing.outcome}: {timing.error}"
                )
            result.cells[query, variant] = timing
            if matrix.counter:
                # per run: the warmup counts too
                result.counts[query, variant] = (
                    getattr(db.stats, matrix.counter) // (timing.runs + 1)
                )
    if matrix.agree:
        for query in result.queries:
            answers = {
                result.answer(query, v): v for v in result.variants
                if result.cells[query, v].supported
            }
            if len(answers) > 1:
                raise AssertionError(
                    f"variants disagree on {query!r}: {answers}"
                )
    return result


def _cell(timing: QueryTiming, with_answer: bool) -> str:
    if not timing.supported:
        return "n/s"
    text = _fmt_time(timing.median)
    if timing.outcome == "degraded":
        text += "*"
    return f"{text} | {timing.result_value}" if with_answer else text


def render_matrix(result: MatrixResult) -> str:
    """Queries down the side, variants across the top, median times in
    the cells; one answer column when the variants must agree, otherwise
    ``time | answer`` per cell."""
    matrix = result.matrix
    headers = ["query"] + [str(v) for v in result.variants]
    headers += ["speedup"] * matrix.speedup + ["answer"] * matrix.agree
    rows = []
    for query in result.queries:
        timings = [result.cells[query, v] for v in result.variants]
        row = [query] + [_cell(t, not matrix.agree) for t in timings]
        if matrix.speedup:
            first, last = timings[0].median, timings[-1].median
            row.append(f"{last / first:.1f}x" if first > 0 else "inf")
        if matrix.agree:
            row.append(str(next(
                (t.result_value for t in timings if t.supported), "n/s"
            )))
        rows.append(row)
    return _table(headers, rows)


def matrix_records(result: MatrixResult) -> List[Dict[str, Any]]:
    records = []
    for (query, variant), timing in result.cells.items():
        record = timing_record(timing, result.engines[variant], "experiment")
        record["variant"] = variant
        if result.matrix.counter:
            record[result.matrix.counter] = result.counts[query, variant]
        records.append(record)
    return records


def _loaded(engine: str, data, **load) -> Database:
    db = Database(engine)
    data.load_into(db, **load)
    return db


def _indexed_with(kind: str, dataset) -> Database:
    data = dataset()
    db = _loaded("greenwood", data, create_indexes=False)
    if kind != "scan":
        for layer in data.layers.values():
            db.execute(
                f"CREATE SPATIAL INDEX xidx_{layer.name} "
                f"ON {layer.name} (geom) USING {kind}"
            )
    return db


def _join_forced(strategy: str, dataset) -> Database:
    db = _loaded("greenwood", dataset())
    db.execute("ANALYZE")
    db.join_strategy = strategy
    return db


def _per_engine(engine: str, dataset) -> Database:
    return _loaded(engine, dataset())


# ---------------------------------------------------------------------------
# point sweeps: J-X2, J-X4, J-X5, J-X6
# ---------------------------------------------------------------------------


@dataclass
class Sweep:
    """A J-X2, J-X4, J-X5 or J-X6 run: one dict per point of the sweep
    (a client count, a checkpoint interval, or a load round)."""

    engine: str
    #: what ran at every point: the scenario, the mix, the crash site, or
    #: the service configuration
    subject: str
    points: List[Dict[str, Any]] = field(default_factory=list)
    #: one wall-time decomposition per point, when run with ``waits=True``
    attributions: List[Any] = field(default_factory=list)


def sweep_records(result: Sweep) -> List[Dict[str, Any]]:
    return [
        dict(point, query_id=f"point_{i}", engine=result.engine)
        for i, point in enumerate(result.points)
    ]


def _attributions(result: Sweep) -> List[str]:
    lines = []
    for point, attribution in zip(result.points, result.attributions):
        lines.append("")
        lines.append(attribution.render(
            title=f"wall-time decomposition @ {point['clients']} client(s)"
        ))
    return lines


# -- J-X2 (extension): multi-client macro throughput --------------------------


def run_concurrency(
    scenario_name: str = "map_search",
    engine: str = "greenwood",
    clients_series: Sequence[int] = (1, 2, 4),
    seed: int = 42,
    scale: float = 0.25,
    waits: bool = False,
) -> Sweep:
    """J-X2: read-only throughput with N concurrent clients (extension).

    Each client replays one deterministic macro scenario on its own
    DB-API connection via the :mod:`repro.workload` client harness, which
    also collects per-client latency histograms from the scenario step
    timings. The embedded engines are pure Python, so the GIL serialises
    CPU work — the experiment therefore measures *contention behaviour*
    (fairness and aggregate throughput stability), not parallel speedup,
    and the report says so.
    """
    from repro.core.macro import SCENARIOS_BY_NAME
    from repro.workload import run_client_threads

    dataset = generate(seed=seed, scale=scale)
    db = Database(engine)
    dataset.load_into(db)
    result = Sweep(engine, scenario_name)
    for clients in clients_series:

        def body(conn, report) -> None:
            scenario = SCENARIOS_BY_NAME[scenario_name]()
            outcome = scenario.run(
                conn, dataset, seed=seed + report.client_id,
                engine_name=engine,
            )
            report.ops += outcome.executed
            report.reads += outcome.executed
            for step in outcome.steps:
                if not step.skipped:
                    report.latency.observe(step.seconds)

        if waits:
            from repro.obs.waits import WAITS, WaitAttribution

            WAITS.enable()
            WAITS.reset()
            try:
                wall, reports = run_client_threads(db, clients, body)
                result.attributions.append(WaitAttribution.capture(
                    WAITS, busy_seconds=wall * clients
                ))
            finally:
                WAITS.disable()
        else:
            wall, reports = run_client_threads(db, clients, body)
        queries = sum(report.ops for report in reports)
        result.points.append({
            "clients": clients,
            "wall_seconds": wall,
            "queries": queries,
            "queries_per_minute": 60.0 * queries / wall if wall else 0.0,
        })
    return result


def render_concurrency(result: Sweep) -> str:
    lines = [
        f"{result.subject} on {result.engine}",
        "(pure-Python engines: the GIL serialises CPU work, so this shows",
        " contention behaviour, not parallel speedup)",
        f"{'clients':>8s} {'wall':>10s} {'queries':>9s} {'agg q/min':>10s}",
    ]
    for p in result.points:
        lines.append(
            f"{p['clients']:>8d} {p['wall_seconds']:>9.2f}s "
            f"{p['queries']:>9d} {p['queries_per_minute']:>10.0f}"
        )
    lines += _attributions(result)
    return "\n".join(lines)


# -- J-X4 (extension): mixed read/write throughput and abort rate -------------


def run_mixed_workload(
    engine: str = "greenwood",
    clients_series: Sequence[int] = (1, 2, 4),
    seed: int = 42,
    scale: float = 0.25,
    duration: float = 2.0,
    mix: str = "mixed",
    waits: bool = False,
) -> Sweep:
    """J-X4: mixed read/write throughput and abort rate vs client count.

    The :mod:`repro.workload` driver replays the 80/20 read/write mix in
    a closed loop against one shared datastore; write transactions that
    lose a first-updater-wins conflict abort with
    :class:`~repro.errors.SerializationError` and are retried with
    backoff. The reported abort rate is the real cost of optimistic
    snapshot-isolation writers under contention — the dimension the
    paper's single-user runs cannot see.
    """
    from repro.workload import WorkloadConfig, run_workload

    dataset = generate(seed=seed, scale=scale)
    db = Database(engine)
    dataset.load_into(db)
    result = Sweep(engine, mix)
    for clients in clients_series:
        config = WorkloadConfig(
            clients=clients, duration=duration, mix=mix, engine=engine,
            seed=seed, scale=scale, waits=waits,
        )
        report = run_workload(config, database=db)
        if report.attribution is not None:
            result.attributions.append(report.attribution)
        # totals: ops, commits, aborts, retries, errors,
        # queries_per_minute, abort_rate
        result.points.append(dict(
            report.telemetry_document()["totals"], clients=clients,
            wall_seconds=report.wall_seconds,
        ))
    return result


def render_mixed_workload(result: Sweep) -> str:
    lines = [
        f"{result.subject} mix on {result.engine}",
        "(snapshot isolation, first-updater-wins: aborted writers retry",
        " with backoff; the GIL serialises CPU work, so read throughput",
        " measures contention behaviour, not parallel speedup)",
        f"{'clients':>8s} {'wall':>8s} {'ops':>7s} {'agg q/min':>10s} "
        f"{'commits':>8s} {'aborts':>7s} {'retries':>8s} {'abort %':>8s}",
    ]
    for p in result.points:
        lines.append(
            f"{p['clients']:>8d} {p['wall_seconds']:>7.2f}s {p['ops']:>7d} "
            f"{p['queries_per_minute']:>10.0f} {p['commits']:>8d} "
            f"{p['aborts']:>7d} {p['retries']:>8d} {p['abort_rate']:>7.1%}"
        )
    lines += _attributions(result)
    return "\n".join(lines)


# -- J-X5 (extension): crash recovery -----------------------------------------


def run_recovery(
    seed: int = 42,
    scale: float = 0.25,
    engine: str = "greenwood",
    intervals: Sequence[float] = (0.0, 0.1, 0.02),
    site: str = "wal.fsync",
    crash_after: int = 2500,
    clients: int = 2,
    deadline: float = 8.0,
) -> Sweep:
    """J-X5: crash recovery time vs WAL length and checkpoint interval.

    For each checkpoint interval, concurrent clients commit single-row
    transactions against a fresh durable directory until a seeded crash
    fires (the ``crash_after``-th visit to ``site``, simulating
    ``kill -9`` at that exact storage instruction). Redo-only recovery
    then rebuilds the database, and the oracle asserts both durability
    directions: every committed transaction visible, every uncommitted
    one absent. Frequent checkpoints keep the WAL short and recovery
    fast; interval 0 (never checkpoint) replays the whole history — the
    classic recovery-time/runtime-overhead trade the paper's
    single-user, no-failure runs cannot see. Each point holds the crash
    outcome, the recovery timing breakdown, the WAL length replayed and
    the oracle verdict.
    """
    import shutil
    import tempfile

    from repro.storage.crash import run_crash_workload, verify_recovery
    from repro.storage.durability import recover

    seed_rows = max(10, int(100 * scale))
    result = Sweep(engine, site)
    for interval in intervals:
        directory = tempfile.mkdtemp(prefix="jackpine-jx5-")
        try:
            outcome = run_crash_workload(
                directory,
                profile=engine,
                clients=clients,
                site=site,
                on_call=crash_after,
                deadline=deadline,
                checkpoint_interval=interval,
                seed_rows=seed_rows,
            )
            db, report = recover(directory)
            try:
                violations = verify_recovery(outcome, db)
            finally:
                db.close()
            result.points.append({
                "checkpoint_interval": interval,
                "crash_fired": outcome.fired,
                "crash_forced": outcome.forced,
                "workload_seconds": outcome.wall_seconds,
                "checkpoints_taken": outcome.checkpoints,
                "attempted": len(outcome.attempted),
                "committed": len(outcome.committed),
                "wal_records": report.wal_records,
                "winners": report.winners,
                "losers": report.losers,
                "redone": report.redone,
                "recovered_rows": sum(report.tables.values()),
                "analysis_seconds": report.analysis_seconds,
                "redo_seconds": report.redo_seconds,
                "rebuild_seconds": report.rebuild_seconds,
                "recovery_seconds": report.total_seconds,
                "verified": not violations,
                "violations": violations,
            })
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return result


def render_recovery(result: Sweep) -> str:
    lines = [
        f"{result.engine}, kill at {result.subject}",
        "(simulated kill -9 mid-workload: the WAL is truncated to its",
        " last fsynced byte, then redo-only analysis + replay rebuilds",
        " heap, catalog and spatial indexes; the oracle checks both",
        " durability directions)",
        f"{'ckpt ivl':>9s} {'ckpts':>6s} {'wal recs':>9s} "
        f"{'winners':>8s} {'losers':>7s} {'rows':>6s} "
        f"{'recovery':>10s} {'redo':>9s} {'verified':>9s}",
    ]
    for p in result.points:
        interval = (
            "never" if not p["checkpoint_interval"]
            else f"{p['checkpoint_interval']:.2f}s"
        )
        lines.append(
            f"{interval:>9s} {p['checkpoints_taken']:>6d} "
            f"{p['wal_records']:>9d} {p['winners']:>8d} "
            f"{p['losers']:>7d} {p['recovered_rows']:>6d} "
            f"{p['recovery_seconds'] * 1e3:>8.2f}ms "
            f"{p['redo_seconds'] * 1e3:>7.2f}ms "
            f"{'yes' if p['verified'] else 'NO':>9s}"
        )
        for violation in p["violations"]:
            lines.append(f"          !! {violation}")
    return "\n".join(lines)


# -- J-X6: query service saturation, overload shedding, and result cache ------


def _merged_latency(reports):
    """Aggregate the per-client fixed-bucket histograms (same buckets)."""
    from repro.obs.metrics import Histogram

    merged = Histogram("jx6_latency_seconds", "aggregate client latency")
    for report in reports:
        hist = report.latency
        for index, count in enumerate(hist.counts):
            merged.counts[index] += count
        merged.count += hist.count
        merged.sum += hist.sum
        merged.min = min(merged.min, hist.min)
        merged.max = max(merged.max, hist.max)
    return merged


def _service_round(
    database, *, engine: str, seed: int, scale: float, clients: int,
    rate: float, duration: float, pool_size: int, max_queue: int,
    deadline: float, cache_capacity: int, phase: str, mix: str = "browse",
) -> Dict[str, Any]:
    """Start a fresh server over ``database`` (fresh counters), drive it
    with the open-loop fleet for one round, and distill the numbers."""
    from repro.service import JackpineServer, ServerConfig
    from repro.workload.driver import WorkloadConfig, run_workload

    server = JackpineServer(database, ServerConfig(
        pool_size=pool_size, max_queue=max_queue, deadline=deadline,
        cache_capacity=cache_capacity,
    )).start()
    try:
        report = run_workload(WorkloadConfig(
            clients=clients, duration=duration, mix=mix, engine=engine,
            mode="open", rate=rate, seed=seed, scale=scale,
            server=server.address,
        ))
    finally:
        server.stop()
    latency = _merged_latency(report.clients)
    completed = (
        report.total_ops - report.total_shed - report.total_timeouts
        - report.total_errors
    )
    admission = (report.service or {}).get("admission", {})
    cache = report.cache or {}
    hits = cache.get("hits", 0)
    looked = hits + cache.get("misses", 0)
    return {
        "phase": phase,
        "clients": clients,
        "rate_per_client": rate,
        "offered_rate": clients * rate,
        "wall_seconds": report.wall_seconds,
        "ops": report.total_ops,
        "completed": completed,
        "completed_per_sec": (
            completed / report.wall_seconds if report.wall_seconds else 0.0
        ),
        "shed": report.total_shed,
        "shed_queue_full": admission.get("shed_queue_full", 0),
        "shed_deadline": admission.get("shed_deadline", 0),
        "timeouts": report.total_timeouts,
        "errors": report.total_errors,
        "peak_queue": admission.get("peak_queue", 0),
        "queue_limit": admission.get("queue_limit", max_queue),
        "p50": latency.p50,
        "p99": latency.p99,
        "cache_hits": hits,
        "cache_hit_ratio": hits / looked if looked else 0.0,
        "cache_invalidations": cache.get("invalidations", 0),
    }


def run_service(
    seed: int = 42,
    scale: float = 0.25,
    engine: str = "greenwood",
    duration: float = 2.0,
    clients: int = 32,
    base_rate: float = 2.0,
    max_rounds: int = 8,
    pool_size: int = 4,
    max_queue: int = 32,
    deadline: float = 0.5,
    cache_capacity: int = 256,
    overload_factor: float = 3.0,
    overload_clients: int = 160,
) -> Sweep:
    """J-X6: the query service under open-loop load.

    Three phases over one loaded datastore (a fresh server — hence fresh
    counters — per round):

    A. **saturation sweep** — per-client arrival rates double from
       ``base_rate`` (browse mix) until the server visibly falls behind
       the offered load or starts shedding; the completed-ops/sec
       ceiling is the saturation throughput.
    B. **overload** — offered load at ``overload_factor`` times the
       measured saturation. Admission control must shed (queue-full or
       deadline) instead of queueing without bound: the experiment
       records the shed split, the peak queue depth against its limit,
       and the p99 the *surviving* requests saw.
    C. **cache value** — the same browse round with the result cache on
       vs off, isolating what watermark-validated caching buys on a
       skewed read mix (and proving writes invalidate: the browse mix is
       read-only, so the ratio is the upper bound the mixed rounds erode).

    Each point is one round; its ``phase`` is ``saturation``,
    ``overload``, ``cache_on`` or ``cache_off``.
    """
    dataset = generate(seed=seed, scale=scale)
    database = Database(engine)
    dataset.load_into(database)
    shared = dict(
        engine=engine, seed=seed, scale=scale, clients=clients,
        duration=duration, pool_size=pool_size, max_queue=max_queue,
        deadline=deadline,
    )
    result = Sweep(
        engine, f"{clients} open-loop clients, pool {pool_size}, queue "
        f"{max_queue}, deadline {deadline:.2f}s",
    )
    # phase A: adaptive saturation sweep — double the offered rate until
    # achieved throughput falls visibly short of offered (or requests
    # start getting shed), which is the saturation knee
    rate = base_rate
    for _ in range(max_rounds):
        point = _service_round(
            database, rate=rate, cache_capacity=cache_capacity,
            phase="saturation", **shared
        )
        result.points.append(point)
        saturated = (
            point["completed_per_sec"] < 0.85 * point["offered_rate"]
            or point["shed"] > 0
        )
        if saturated:
            break
        rate *= 2.0
    saturation_ops = max(p["completed_per_sec"] for p in result.points)
    # phase B: overload at ~overload_factor x saturation. One TCP
    # connection carries one request at a time, so in-flight work is
    # bounded by the client count — shedding can only engage when there
    # are more clients than queue slots, hence the bigger fleet here
    # ("hundreds of clients" is also just what overload looks like).
    overload_fleet = max(overload_clients, 2 * max_queue)
    result.points.append(_service_round(
        database, rate=overload_factor * saturation_ops / overload_fleet,
        cache_capacity=cache_capacity, phase="overload",
        **dict(shared, clients=overload_fleet)
    ))
    # phase C: cache on vs off at roughly half the saturation rate (the
    # comparison should measure cache effect, not queueing noise)
    probe_rate = max(saturation_ops / (2.0 * clients), base_rate)
    for phase, capacity in (("cache_on", cache_capacity), ("cache_off", 0)):
        result.points.append(_service_round(
            database, rate=probe_rate, cache_capacity=capacity, phase=phase,
            **shared
        ))
    return result


def render_service(result: Sweep) -> str:
    saturation = [p for p in result.points if p["phase"] == "saturation"]
    saturation_ops = max(p["completed_per_sec"] for p in saturation)
    o, on, off = result.points[len(saturation):]
    lines = [
        f"{result.engine}: {result.subject}",
        "(asyncio TCP server over the embedded engine: one session per",
        " connection, admission control with load shedding, and an",
        " MVCC-watermark result cache; latency is measured from the scheduled arrival,",
        " so overload shows up in p99 instead of vanishing into",
        " coordinated omission)",
        "",
        "-- phase A: saturation sweep (browse mix, cache on)",
        f"{'offered/s':>10s} {'done/s':>8s} {'shed':>6s} {'p50':>9s} "
        f"{'p99':>9s} {'hit%':>6s}",
    ]
    for p in saturation:
        lines.append(
            f"{p['offered_rate']:>10.0f} {p['completed_per_sec']:>8.1f} "
            f"{p['shed']:>6d} {p['p50'] * 1e3:>7.1f}ms "
            f"{p['p99'] * 1e3:>7.1f}ms {p['cache_hit_ratio']:>6.1%}"
        )
    lines.append(
        f"saturation throughput: {saturation_ops:.1f} completed ops/sec"
    )
    # below saturation both cache variants complete every offered op, so
    # latency — not throughput — is where the cache shows up
    speedup = on["p50"] and off["p50"] / on["p50"] or float("nan")
    lines.extend([
        "",
        f"-- phase B: overload at {o['offered_rate']:.0f} offered/s "
        f"(~{o['offered_rate'] / saturation_ops:.1f}x "
        f"saturation, {o['clients']} clients)",
        f"completed: {o['completed_per_sec']:.1f}/s   "
        f"shed: {o['shed']} "
        f"(queue_full {o['shed_queue_full']}, "
        f"deadline {o['shed_deadline']})   timeouts: {o['timeouts']}",
        f"peak queue: {o['peak_queue']}/{o['queue_limit']} "
        f"(bounded: {'yes' if o['peak_queue'] <= o['queue_limit'] else 'NO'})   "
        f"p99 of survivors: {o['p99'] * 1e3:.1f}ms",
        "",
        "-- phase C: result cache on vs off (browse mix, below "
        "saturation)",
        f"cache on : {on['completed_per_sec']:>8.1f}/s   "
        f"p50 {on['p50'] * 1e3:>6.1f}ms   "
        f"p99 {on['p99'] * 1e3:>6.1f}ms   "
        f"hit ratio {on['cache_hit_ratio']:.1%} "
        f"({on['cache_hits']} hits)",
        f"cache off: {off['completed_per_sec']:>8.1f}/s   "
        f"p50 {off['p50'] * 1e3:>6.1f}ms   "
        f"p99 {off['p99'] * 1e3:>6.1f}ms",
        f"p50 speedup from caching: {speedup:.2f}x",
    ])
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    title: str
    #: ``run(**options)`` -> a result; see :attr:`options`
    run: Callable[..., Any]
    #: result -> the table, without the title line (see :func:`render`)
    render: Callable[[Any], str]
    #: result -> one telemetry record per cell or point
    records: Callable[[Any], List[Dict[str, Any]]]
    #: the ``jackpine experiment`` options ``run`` takes
    options: Tuple[str, ...] = ("seed", "scale")


def _matrix(title: str, matrix: Matrix,
            options: Tuple[str, ...] = ("seed", "scale")) -> Experiment:
    return Experiment(
        title, functools.partial(run_matrix, matrix), render_matrix,
        matrix_records, options,
    )


EXPERIMENTS: Dict[str, Experiment] = {
    "jf5": _matrix(
        "J-F5: effect of the spatial index (greenwood)",
        Matrix(
            INDEX_EFFECT_QUERIES, ("indexed", "no index"),
            lambda v, dataset: _loaded(
                "greenwood", dataset(), create_indexes=v == "indexed"
            ),
            agree=True, speedup=True,
        ),
    ),
    "jf6": _matrix(
        "J-F6: scalability with dataset size (greenwood, columns are "
        "dataset scales)",
        Matrix(
            SCALABILITY_QUERIES, (0.1, 0.25, 0.5, 1.0),
            lambda v, dataset: _loaded("greenwood", dataset(v)),
        ),
        options=("seed",),
    ),
    "ja1": _matrix(
        "J-A1: exact refinement vs MBR-only (time | answer)",
        Matrix(REFINEMENT_QUERIES, ENGINES, _per_engine),
    ),
    "ja2": _matrix(
        "J-A2: index structures (greenwood, exact answers identical)",
        Matrix(INDEX_ABLATION_QUERIES, INDEX_ABLATION_KINDS, _indexed_with,
               agree=True),
        options=("seed", "scale", "distribution"),
    ),
    "jx1": _matrix(
        "J-X1 (extension): window-selectivity sweep over edges "
        "(time | rows)",
        Matrix(SELECTIVITY_QUERIES, ENGINES, _per_engine,
               counter="index_candidates"),
    ),
    "jx2": Experiment(
        "J-X2 (extension): concurrent clients", run_concurrency,
        render_concurrency, sweep_records, ("seed", "scale", "waits"),
    ),
    "jx3": _matrix(
        "J-X3 (extension): spatial join strategies on greenwood "
        "(medians of 3 runs)",
        Matrix(dict(JOIN_MATRIX), JOIN_STRATEGY_SERIES, _join_forced,
               agree=True),
    ),
    "jx4": Experiment(
        "J-X4 (extension): mixed read/write workload", run_mixed_workload,
        render_mixed_workload, sweep_records,
        ("seed", "scale", "duration", "waits"),
    ),
    "jx5": Experiment(
        "J-X5 (extension): crash recovery", run_recovery, render_recovery,
        sweep_records,
    ),
    "jx6": Experiment(
        "J-X6 (extension): query service saturation, overload and cache",
        run_service, render_service, sweep_records,
        ("seed", "scale", "duration"),
    ),
}


def render(key: str, result: Any) -> str:
    """The printed form of one experiment's result: title line + table."""
    entry = EXPERIMENTS[key]
    return f"== {entry.title} [{key}] ==\n{entry.render(result)}"


def document(key: str, result: Any, config: Dict[str, Any]) -> Dict[str, Any]:
    """The telemetry document of one experiment run with ``config``."""
    return {
        "schema": SCHEMA,
        "experiment": key,
        "title": EXPERIMENTS[key].title,
        "config": dict(config),
        "records": [
            {"supported": True, **record, "suite": "experiment",
             "query_id": f"{key}.{record['query_id']}"}
            for record in EXPERIMENTS[key].records(result)
        ],
    }
