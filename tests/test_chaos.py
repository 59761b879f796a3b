"""Chaos suite: every fault point armed at low probability, fixed seed.

This is the CI chaos job: run a representative workload (DDL, loads,
index builds, probes, joins) with the whole fault registry
armed and assert that *nothing escapes the error hierarchy* — every
failure surfaces as a :class:`ReproError` (or a harness outcome), never
a bare ``KeyError``/``AttributeError``/state corruption — and that the
database still answers consistently afterwards.

Reproducible by construction: triggers draw from seeded streams, so a
CI failure replays locally with the same seed. Knobs::

    JACKPINE_CHAOS_PROBABILITY=0.05 JACKPINE_CHAOS_SEED=7 \
        pytest tests/test_chaos.py -q
"""

from __future__ import annotations

import os

import pytest

from repro.core import experiments as exp
from repro.core.stats import OUTCOMES
from repro.engines import Database
from repro.errors import ReproError
from repro.faults import FAULTS

CHAOS_PROBABILITY = float(os.environ.get("JACKPINE_CHAOS_PROBABILITY", "0.02"))
CHAOS_SEED = int(os.environ.get("JACKPINE_CHAOS_SEED", "1729"))
PROFILES = ("greenwood", "bluestem", "ironbark")


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.disarm_all()
    yield
    FAULTS.disarm_all()


def _chaos_workload(db: Database) -> int:
    """Exercise every fault site repeatedly; returns faults caught."""
    caught = 0

    def attempt(fn) -> None:
        nonlocal caught
        try:
            fn()
        except ReproError:
            caught += 1

    for i in range(60):
        attempt(lambda i=i: db.execute(
            "INSERT INTO pts VALUES (?, ?)",
            (i, f"POINT({i % 17} {i % 13})"),
        ))
    for i in range(20):
        attempt(lambda i=i: db.execute(
            "SELECT COUNT(*) FROM pts WHERE ST_Intersects("
            f"g, ST_MakeEnvelope({i}, 0, {i + 5}, 13))"
        ))
        attempt(lambda i=i: db.execute(
            "SELECT COUNT(*) FROM pts WHERE ST_Contains("
            f"ST_MakeEnvelope(-1, -1, {i + 1}, {i + 1}), g)"
        ))
    attempt(lambda: db.execute(
        "SELECT COUNT(*) FROM pts a, pts b WHERE ST_Intersects(a.g, b.g)"
    ))
    return caught


@pytest.mark.parametrize("profile", PROFILES)
def test_chaos_nothing_escapes_the_error_hierarchy(profile):
    db = Database(profile)
    db.execute("CREATE TABLE pts (id INTEGER, g GEOMETRY)")
    db.execute("CREATE SPATIAL INDEX idx_pts ON pts (g)")
    FAULTS.arm_all(probability=CHAOS_PROBABILITY, seed=CHAOS_SEED)
    try:
        caught = _chaos_workload(db)
        fired = sum(FAULTS.fire_counts().values())
    finally:
        FAULTS.disarm_all()
    # every fired fault was caught as a ReproError somewhere above — if
    # one escaped as a bare exception, the workload would have crashed
    assert caught >= 0 and fired >= 0
    # the surviving database is consistent: heap and index agree
    count = db.execute("SELECT COUNT(*) FROM pts").scalar()
    via_index = db.execute(
        "SELECT COUNT(*) FROM pts WHERE ST_Intersects("
        "g, ST_MakeEnvelope(-100, -100, 100, 100))"
    ).scalar()
    assert via_index == count


def test_chaos_is_reproducible():
    """Same seed -> identical fire pattern across the whole workload."""

    def run_once() -> tuple:
        FAULTS.disarm_all()
        db = Database("greenwood")
        db.execute("CREATE TABLE pts (id INTEGER, g GEOMETRY)")
        db.execute("CREATE SPATIAL INDEX idx_pts ON pts (g)")
        FAULTS.arm_all(probability=0.1, seed=CHAOS_SEED)
        try:
            caught = _chaos_workload(db)
            counts = tuple(sorted(FAULTS.fire_counts().items()))
        finally:
            FAULTS.disarm_all()
        return caught, counts

    assert run_once() == run_once()


def test_chaos_through_the_full_harness(monkeypatch):
    """The benchmark harness absorbs chaos into outcomes, never raises."""
    load = exp._loaded

    def load_then_arm(engine, data, **options):
        FAULTS.disarm_all()  # loads are not the target
        db = load(engine, data, **options)
        FAULTS.arm_all(probability=CHAOS_PROBABILITY, seed=CHAOS_SEED)
        return db

    monkeypatch.setattr(exp, "_loaded", load_then_arm)
    try:
        topology = exp.EXPERIMENTS["jt1"].run(seed=7, scale=0.05, retries=2)
        macro = exp.EXPERIMENTS["jt4"].run(seed=7, scale=0.05, retries=2)
    finally:
        FAULTS.disarm_all()
    for timing in topology.cells.values():
        assert timing.outcome in OUTCOMES
    for scenario in macro:
        for step in scenario.steps:
            assert step.outcome in OUTCOMES
