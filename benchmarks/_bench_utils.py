"""Helpers for the disabled-path overhead harness
(``test_bench_disabled_overhead.py``), kept out of a conftest so the name
cannot collide with the test suite's conftest."""

from __future__ import annotations

import time

from repro.datagen import generate
from repro.engines import Database
from repro.sql.executor import ExecContext

BENCH_SCALE = 0.25
BENCH_SEED = 42

#: allowed slowdown of a pay-as-you-go path with its feature off
OVERHEAD_BUDGET = 1.05
REPEATS = 5
ATTEMPTS = 3


def _fresh_db():
    db = Database("greenwood")
    generate(seed=BENCH_SEED, scale=BENCH_SCALE).load_into(db)
    db.execute("ANALYZE")
    return db


def _run_plan_directly(db, sql):
    """The seed-era fast path the guards compare against: the cached
    plan drained straight into the shared Stats — no latch, no shard, no
    guard, no snapshot, no observability or wait-monitor branch."""
    statement = db._parse_statement(sql)
    cached = db._plan_cache.get(sql)
    if cached is None:
        cached = db._planner.plan_select(statement)
        db._plan_cache[sql] = cached
    plan, _names = cached
    ctx = ExecContext((), db.profile, db.registry, db.catalog, db.stats)
    rows = []
    for batch in plan.batches(ctx):
        rows.extend(batch.columns["__out__"])
    return rows


def _median_seconds(calls, after=None):
    """Median wall time of each of ``calls``, timed in alternation so
    drift (warm-up, frequency scaling, a busy neighbour) lands on every
    side alike; ``after`` runs outside the timed window after every call
    (to undo what the call did)."""
    after = after or (lambda: None)
    times = [[] for _ in calls]
    for call in calls:  # warm caches (parse, plan, index, sockets)
        call()
        after()
    for _ in range(REPEATS):
        for call, samples in zip(calls, times):
            start = time.perf_counter()
            call()
            samples.append(time.perf_counter() - start)
            after()
    return [sorted(samples)[REPEATS // 2] for samples in times]


def assert_within_budget(candidate, baseline, what, after=None):
    """``candidate`` may take at most ``OVERHEAD_BUDGET`` times as long
    as ``baseline``. Wall-clock ratios at single-digit-percent resolution
    are noisy, so the comparison is retried and fails only when *every*
    attempt exceeds the budget."""
    ratios = []
    for _ in range(ATTEMPTS):
        slow, fast = _median_seconds((candidate, baseline), after)
        ratios.append(slow / fast)
        if ratios[-1] <= OVERHEAD_BUDGET:
            return
    raise AssertionError(
        f"{what} exceeded the {OVERHEAD_BUDGET:.0%} budget on every "
        f"attempt: ratios={[f'{r:.3f}' for r in ratios]}"
    )
