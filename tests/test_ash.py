"""Active-session-history sampler and contention attribution.

The sampler's lifecycle must be idempotent, its history bounded, and
its samples must carry the statement/wait state the monitor tracks.
The attribution decomposition must account for busy time: wait classes
plus on-CPU buckets sum to ``busy_seconds`` (any overlap is surfaced as
``overcount_seconds``, never silently lost)."""

from __future__ import annotations

import time

import pytest

from repro.obs.ash import AshSampler, render_sessions
from repro.obs.waits import (
    GUARD_TICK,
    LOCK_ROW,
    WAITS,
    WaitAttribution,
    WaitMonitor,
)
from repro.workload.driver import WorkloadConfig, run_workload


@pytest.fixture
def monitor():
    mon = WaitMonitor()
    mon.enable()
    return mon


def test_start_stop_idempotent(monitor):
    sampler = AshSampler(monitor=monitor, interval=0.005)
    assert not sampler.running
    sampler.start()
    sampler.start()  # second start is a no-op
    assert sampler.running
    sampler.stop()
    sampler.stop()  # second stop is a no-op
    assert not sampler.running
    # restartable after a stop
    sampler.start()
    assert sampler.running
    sampler.stop()


def test_rejects_bad_interval(monitor):
    with pytest.raises(ValueError):
        AshSampler(monitor=monitor, interval=0.0)


def test_samples_active_statement(monitor):
    monitor.begin_statement("SELECT 1", engine="greenwood",
                            txid=17, session_id=3)
    sampler = AshSampler(monitor=monitor, interval=0.005)
    batch = sampler.sample_once()
    assert len(batch) == 1
    sample = batch[0]
    assert sample.sql == "SELECT 1"
    assert sample.txid == 17
    assert sample.session_id == 3
    assert sample.wait_event is None  # on CPU
    monitor.end_statement()
    assert sampler.sample_once() == []


def test_samples_wait_state(monitor):
    monitor.begin_statement("UPDATE t SET x = 1", engine="greenwood")
    sampler = AshSampler(monitor=monitor)
    batch = monitor.timed(LOCK_ROW, sampler.sample_once, ("t", 5))()
    assert batch[0].wait_event == LOCK_ROW
    assert batch[0].wait_seconds >= 0.0
    monitor.end_statement()
    counts = sampler.wait_state_counts()
    assert counts == {LOCK_ROW: 1}


def test_history_is_bounded(monitor):
    monitor.begin_statement("SELECT 1")
    sampler = AshSampler(monitor=monitor, capacity=5)
    for _ in range(12):
        sampler.sample_once()
    monitor.end_statement()
    assert len(sampler.samples()) == 5
    assert sampler.sample_instants == 12
    sampler.clear()
    assert sampler.samples() == []
    assert sampler.sample_instants == 0


def test_export_is_jsonable(monitor):
    import json

    monitor.begin_statement("SELECT 1", engine="greenwood", session_id=1)
    sampler = AshSampler(monitor=monitor)
    sampler.sample_once()
    monitor.end_statement()
    document = sampler.export(limit=10)
    json.dumps(document)
    assert document["sample_instants"] == 1
    assert len(document["samples"]) == 1
    assert document["samples"][0]["sql"] == "SELECT 1"


def test_render_sessions_frame(monitor):
    monitor.begin_statement(
        "SELECT COUNT(*) FROM edges WHERE ST_Intersects(geom, x) AND "
        "more_predicates_to_force_truncation(geom)",
        engine="greenwood", txid=5, session_id=2,
    )
    frame = render_sessions(monitor.active_sessions(), now_label="1.0s")
    monitor.end_statement()
    assert "jackpine top" in frame
    assert "1 active session(s)" in frame
    assert "on CPU" in frame
    assert "..." in frame  # long SQL truncated


def test_render_sessions_empty_explains_why():
    """Zero sessions renders an explicit line, never a bare header —
    and the line says whether the monitor was even on."""
    from repro.obs.waits import WAITS

    was_enabled = WAITS.enabled
    try:
        WAITS.disable()
        frame = render_sessions([], now_label="0.0s")
        assert "0 active session(s)" in frame
        assert "no active sessions" in frame
        assert "wait monitor disabled / sampler not running" in frame
        WAITS.enable()
        frame = render_sessions([], now_label="0.0s")
        assert "no active sessions — no activity" in frame
    finally:
        WAITS.disable()
        if was_enabled:
            WAITS.enable()


def test_registered_samples_follow_sampler_lifecycle(monitor):
    from repro.obs.ash import active_samplers, registered_samples

    monitor.begin_statement("SELECT 1", engine="greenwood", session_id=3)
    sampler = AshSampler(monitor=monitor, interval=0.002)
    sampler.start()
    try:
        assert sampler in active_samplers()
        sampler.sample_once()
        assert any(s.sql == "SELECT 1" for s in registered_samples())
    finally:
        sampler.stop()
        monitor.end_statement()
    assert sampler not in active_samplers()


def test_background_thread_collects(monitor):
    monitor.begin_statement("SELECT 1")
    sampler = AshSampler(monitor=monitor, interval=0.002)
    sampler.start()
    time.sleep(0.05)
    sampler.stop()
    monitor.end_statement()
    assert sampler.sample_instants >= 3
    assert len(sampler.samples()) >= 3


# -- attribution arithmetic -------------------------------------------------


def test_attribution_sums_to_busy():
    summary = {
        LOCK_ROW: {"count": 2, "seconds": 0.3},
        "CPU:Refine": {"count": 10, "seconds": 0.2},
        GUARD_TICK: {"count": 5, "seconds": 0.1},
    }
    attribution = WaitAttribution(summary, busy_seconds=1.0)
    assert attribution.off_cpu_seconds == pytest.approx(0.4)
    assert attribution.attributed_cpu_seconds == pytest.approx(0.2)
    assert attribution.other_cpu_seconds == pytest.approx(0.4)
    assert attribution.overcount_seconds == 0.0
    total = (
        attribution.off_cpu_seconds
        + attribution.attributed_cpu_seconds
        + attribution.other_cpu_seconds
    )
    assert total == pytest.approx(attribution.busy_seconds)


def test_attribution_surfaces_overcount():
    summary = {
        LOCK_ROW: {"count": 1, "seconds": 0.9},
        "CPU:Refine": {"count": 1, "seconds": 0.4},
    }
    attribution = WaitAttribution(summary, busy_seconds=1.0)
    assert attribution.other_cpu_seconds == 0.0
    assert attribution.overcount_seconds == pytest.approx(0.3)


def test_attribution_render_mentions_every_event():
    summary = {
        LOCK_ROW: {"count": 1, "seconds": 0.1, "p50": 0.1, "p95": 0.1,
                   "p99": 0.1},
    }
    attribution = WaitAttribution(
        summary, busy_seconds=1.0,
        hottest=[{"table": "t", "row_id": 9, "waits": 1, "seconds": 0.1}],
    )
    text = attribution.render()
    assert LOCK_ROW in text
    assert "on-CPU (other)" in text
    assert "hottest rows" in text
    assert " 9" in text


# -- end to end through the workload driver ---------------------------------


def test_workload_attribution_accounts_for_wall_time():
    """The J-X4 acceptance check: with waits on, the recorded wait
    classes fit inside the busy time (wall x clients) and the
    decomposition reproduces it, with negligible overlap overcount."""
    config = WorkloadConfig(
        clients=4, duration=1.0, scale=0.1, waits=True, lock_timeout=0.1,
        seed=11,
    )
    report = run_workload(config)
    attribution = report.attribution
    assert attribution is not None
    busy = attribution.busy_seconds
    assert busy == pytest.approx(report.wall_seconds * 4)
    total = (
        attribution.off_cpu_seconds
        + attribution.attributed_cpu_seconds
        + attribution.other_cpu_seconds
    )
    # identity up to overcount; the overlap itself must stay under 10%
    assert total == pytest.approx(busy + attribution.overcount_seconds,
                                  rel=1e-6)
    assert attribution.overcount_seconds <= 0.1 * busy
    # the monitor is switched back off afterwards
    assert WAITS.enabled is False
    # ASH ran alongside and saw the round
    assert report.ash is not None
    assert report.ash["sample_instants"] >= 10
    # telemetry stays additive: both sections present and JSON-able
    import json

    document = report.telemetry_document()
    json.dumps(document)
    assert "waits" in document and "ash" in document


def test_workload_without_waits_has_no_sections():
    config = WorkloadConfig(clients=2, duration=0.3, scale=0.1, seed=11)
    report = run_workload(config)
    assert report.attribution is None
    assert report.ash is None
    document = report.telemetry_document()
    assert "waits" not in document
    assert "ash" not in document
