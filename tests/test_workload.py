"""Tests for the concurrent workload driver (repro.workload)."""

from __future__ import annotations

import json
import random
import time

import pytest

from repro.datagen.tiger import generate
from repro.engines import Database
from repro.obs.telemetry import SCHEMA
from repro.workload import (
    MIXES,
    WorkloadConfig,
    get_mix,
    render_workload,
    run_workload,
    write_workload_telemetry,
)
from repro.workload.driver import (
    BACKOFF,
    EXECUTE,
    ROLLBACK,
    ClientReport,
    WorkloadReport,
    operation_steps,
)
from repro.workload.mixes import (
    INSERT_GID_BASE,
    MixedMix,
    Operation,
    ReadOnlyMix,
)


@pytest.fixture(scope="module")
def dataset():
    return generate(scale=0.05, seed=7)


@pytest.fixture(scope="module")
def database(dataset):
    db = Database("greenwood")
    dataset.load_into(db)
    return db


class TestConfig:
    def test_defaults_validate(self):
        WorkloadConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clients": 0},
            {"duration": 0.0},
            {"mix": "nope"},
            {"mode": "sideways"},
            {"rate": 0.0, "mode": "open"},
            {"max_retries": -1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadConfig(**kwargs).validate()


class TestMixes:
    def test_registry(self):
        assert set(MIXES) == {"read_only", "mixed", "browse"}

    def test_read_only_never_writes(self):
        mix = ReadOnlyMix()
        rng = random.Random(1)
        for _ in range(200):
            op = mix.next_operation(rng, client_id=0)
            assert op.kind == "read"
            assert len(op.statements) == 1
            assert op.statements[0][0].lstrip().startswith("SELECT")

    def test_mixed_stream_is_deterministic(self):
        a, b = MixedMix([1, 2, 3]), MixedMix([1, 2, 3])
        rng_a, rng_b = random.Random(9), random.Random(9)
        ops_a = [a.next_operation(rng_a, 0) for _ in range(50)]
        ops_b = [b.next_operation(rng_b, 0) for _ in range(50)]
        assert ops_a == ops_b

    def test_mixed_insert_gids_disjoint_across_clients(self):
        mix = MixedMix([1, 2, 3])
        gids = {0: set(), 1: set()}
        rng = random.Random(3)
        for client in (0, 1):
            for _ in range(100):
                op = mix.next_operation(rng, client)
                if op.label == "insert":
                    gids[client].add(op.statements[0][1][0])
        assert gids[0] and gids[1]
        assert not (gids[0] & gids[1])
        assert all(g >= INSERT_GID_BASE for g in gids[0] | gids[1])

    def test_get_mix_samples_hot_pool(self, database):
        mix = get_mix("mixed", database)
        assert mix.hot_gids
        with pytest.raises(ValueError):
            get_mix("bogus", database)


class TestRunWorkload:
    def test_read_only_round(self, database, dataset):
        config = WorkloadConfig(
            clients=2, duration=0.3, mix="read_only", seed=11
        )
        report = run_workload(config, database=database, dataset=dataset)
        assert len(report.clients) == 2
        assert report.total_ops > 0
        assert report.total_writes == 0
        assert report.total_errors == 0
        assert report.wall_seconds > 0
        assert report.queries_per_minute > 0

    def test_mixed_round_commits_and_contains_errors(self, database, dataset):
        config = WorkloadConfig(
            clients=2, duration=0.4, mix="mixed", seed=11, lock_timeout=0.05
        )
        report = run_workload(config, database=database, dataset=dataset)
        assert report.total_commits > 0
        assert report.total_errors == 0
        assert 0.0 <= report.abort_rate < 1.0
        # nothing leaked: the engine is back to a quiescent state
        assert database.txn.active_count == 0

    def test_open_loop_paces_arrivals(self, database, dataset):
        config = WorkloadConfig(
            clients=1, duration=0.5, mix="read_only", mode="open", rate=10.0,
            seed=5,
        )
        report = run_workload(config, database=database, dataset=dataset)
        # ~rate*duration arrivals; allow wide slack for scheduling jitter
        assert 1 <= report.total_ops <= 20

    def test_open_loop_latency_includes_lag_behind_schedule(self, dataset):
        # each op takes ~40 ms against a 10 ms slot: the client falls
        # further behind every op, and its latency must include the lag
        database = Database("greenwood")
        dataset.load_into(database)
        database.obs.on_query_start(lambda sql, params: time.sleep(0.04))
        rate = 100.0
        config = WorkloadConfig(
            clients=1, duration=0.8, mix="read_only", mode="open",
            rate=rate, seed=5,
        )
        report = run_workload(config, database=database)
        ops = report.total_ops
        assert ops < rate * config.duration / 2  # really overloaded
        # op k is due at k / rate and the ops run back to back, so the
        # lag grows linearly to (wall - ops / rate) at the last op
        mean_lag = (report.wall_seconds - ops / rate) / 2
        assert mean_lag > 0.1
        assert report.clients[0].latency.p50 >= mean_lag

    def test_render_and_telemetry(self, database, dataset, tmp_path):
        config = WorkloadConfig(
            clients=2, duration=0.3, mix="mixed", seed=11
        )
        report = run_workload(config, database=database, dataset=dataset)
        text = render_workload(report)
        assert "clients" in text and "q/min" in text
        path = write_workload_telemetry(report, tmp_path)
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["schema"] == SCHEMA
        assert doc["config"]["mix"] == "mixed"
        assert len(doc["records"]) == 2
        assert all(r["suite"] == "workload" for r in doc["records"])
        assert sum(r["ops"] for r in doc["records"]) == report.total_ops
        assert doc["totals"]["ops"] == report.total_ops


# -- the shared client loop against a scripted transport --------------------

_WRITE = Operation("write", "stub", (("UPDATE t SET a = 1", ()),))
_READ = Operation("read", "stub", (("SELECT 1", ()),))


def test_report_derives_completed_and_merged_latency():
    clients = [
        ClientReport(client_id=0, ops=10, shed=2, timeouts=1, errors=1),
        ClientReport(client_id=1, ops=7, shed=1),
    ]
    for client, seconds in zip(clients, ([0.001] * 4, [0.02, 0.5, 3.0])):
        for value in seconds:
            client.latency.observe(value)
    report = WorkloadReport(
        config=WorkloadConfig(clients=2), wall_seconds=2.0, clients=clients,
        cache={"hits": 3, "misses": 1},
    )
    assert report.completed == 17 - 3 - 1 - 1
    latency = report.latency
    assert latency.count == sum(c.latency.count for c in clients) == 7
    assert latency.sum == pytest.approx(0.004 + 3.52)
    assert (latency.min, latency.max) == (0.001, 3.0)
    assert latency.counts == [
        a + b for a, b in zip(clients[0].latency.counts,
                              clients[1].latency.counts)
    ]
    assert report.cache_hit_ratio == 0.75
    assert report.totals["ops"] == 17
    assert report.admission == {}


def _run_scripted(op, codes, max_retries=5):
    """Pump one operation, answering its statements with ``codes`` in
    order (``None`` = ok once the script runs out); returns the report
    and the kinds of every request the loop made."""
    report = ClientReport(client_id=0)
    steps = operation_steps(
        op, WorkloadConfig(max_retries=max_retries), report, random.Random(1)
    )
    script = iter(codes)
    kinds, outcome = [], None
    while True:
        try:
            request = steps.send(outcome)
        except StopIteration:
            return report, kinds
        kinds.append(request[0])
        outcome = (
            (next(script, None), False) if request[0] == EXECUTE else None
        )


class TestClientLoop:
    def test_serialization_retried_until_commit(self):
        # BEGIN ok, UPDATE aborts; BEGIN ok, UPDATE ok, COMMIT aborts;
        # then the whole transaction goes through
        report, kinds = _run_scripted(
            _WRITE, [None, "serialization", None, None, "serialization"]
        )
        assert (report.aborts, report.retries) == (2, 2)
        assert (report.commits, report.writes, report.errors) == (1, 1, 0)
        assert kinds.count(ROLLBACK) == 2
        assert kinds.count(BACKOFF) == 2

    def test_max_retries_honoured(self):
        always = [None, "serialization"] * 10
        report, kinds = _run_scripted(_WRITE, always, max_retries=1)
        assert (report.aborts, report.retries) == (2, 1)
        assert (report.commits, report.writes) == (0, 1)
        assert kinds.count(BACKOFF) == 1

    @pytest.mark.parametrize("code, counter", [
        ("overloaded", "shed"), ("timeout", "timeouts"), ("sql", "errors"),
    ])
    @pytest.mark.parametrize("op", [_READ, _WRITE], ids=["read", "write"])
    def test_failures_classified_once_without_retry(self, op, code, counter):
        report, kinds = _run_scripted(op, [code])
        assert getattr(report, counter) == 1
        assert report.shed + report.timeouts + report.errors == 1
        assert (report.aborts, report.retries, report.commits) == (0, 0, 0)
        assert report.reads + report.writes == 1
        assert BACKOFF not in kinds
        assert kinds.count(ROLLBACK) == (op.kind == "write")


def _ops_by_kind(report):
    return report.total_reads + report.total_writes


def test_served_mixed_round_writes_over_the_wire(dataset):
    from repro.service import JackpineServer, ServerConfig

    database = Database("greenwood")
    dataset.load_into(database)
    database.txn.lock_timeout = 0.05
    server = JackpineServer(database, ServerConfig(pool_size=4))
    server.start()
    try:
        config = WorkloadConfig(
            clients=4, duration=0.6, mix="mixed", seed=11,
            server=server.address,
        )
        served = run_workload(config)
    finally:
        server.stop()
    assert served.total_commits > 0
    assert served.total_errors == 0
    assert served.total_shed == 0
    assert database.txn.active_count == 0
    # the same accounting rule on both transports
    assert _ops_by_kind(served) == served.total_ops
    embedded = run_workload(
        WorkloadConfig(clients=4, duration=0.3, mix="mixed", seed=11,
                       lock_timeout=0.05),
        database=database,
    )
    assert _ops_by_kind(embedded) == embedded.total_ops
