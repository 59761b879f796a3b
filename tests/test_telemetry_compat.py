"""Backward compatibility of the ``jackpine-telemetry/1`` document.

The waits / statements / storage / service / cache sections are
*additive*: a document from a round that recorded none of them is
byte-compatible with the original schema, and a reader written against
that original schema can consume a document that carries any of them
without changes.
"""

from __future__ import annotations

import json

import pytest

from repro.datagen.tiger import generate
from repro.engines import Database
from repro.obs.telemetry import SCHEMA
from repro.workload import WorkloadConfig, run_workload

#: the envelope a jackpine-telemetry/1 reader was written against before
#: any additive section existed
V1_BASE_KEYS = {
    "schema", "engine", "config", "wall_seconds", "totals", "records",
}


def _v1_reader(document):
    """A minimal reader written against the original schema: it touches
    only the base keys and must work on every document vintage."""
    assert document["schema"] == SCHEMA
    totals = document["totals"]
    return {
        "engine": document["engine"],
        "ops": totals["ops"],
        "commits": totals["commits"],
        "clients": [record["query_id"] for record in document["records"]],
    }


@pytest.fixture(scope="module")
def database():
    db = Database("greenwood")
    generate(scale=0.05, seed=7).load_into(db)
    return db


@pytest.fixture(scope="module")
def plain_document(database):
    config = WorkloadConfig(clients=1, duration=0.2, mix="read_only",
                            seed=11, scale=0.05)
    return run_workload(config, database=database).telemetry_document()


@pytest.fixture(scope="module")
def full_document(database):
    config = WorkloadConfig(clients=1, duration=0.2, mix="read_only",
                            seed=11, scale=0.05, waits=True,
                            statements=True)
    return run_workload(config, database=database).telemetry_document()


def test_plain_document_has_no_additive_sections(plain_document):
    assert set(plain_document) == V1_BASE_KEYS


def test_full_document_only_adds_sections(full_document):
    assert V1_BASE_KEYS <= set(full_document)
    assert set(full_document) - V1_BASE_KEYS == {"waits", "statements"}


def test_v1_reader_parses_both_vintages(plain_document, full_document):
    old = _v1_reader(plain_document)
    new = _v1_reader(full_document)
    assert old["engine"] == new["engine"] == "greenwood"
    assert old["clients"] == new["clients"] == ["workload.client_0"]
    assert old["ops"] >= 1 and new["ops"] >= 1


def test_documents_are_json_round_trippable(full_document):
    assert json.loads(json.dumps(full_document)) == json.loads(
        json.dumps(full_document)
    )


@pytest.fixture(scope="module")
def server_document(database):
    from repro.service import JackpineServer, ServerConfig

    server = JackpineServer(database, ServerConfig(pool_size=2))
    server.start()
    try:
        config = WorkloadConfig(clients=2, duration=0.3, mix="browse",
                                mode="open", rate=10.0, seed=11,
                                scale=0.05, server=server.address)
        return run_workload(config).telemetry_document()
    finally:
        server.stop()


def test_server_document_only_adds_service_sections(server_document):
    assert V1_BASE_KEYS <= set(server_document)
    assert set(server_document) - V1_BASE_KEYS == {"service", "cache"}


def test_v1_reader_parses_server_documents(server_document):
    parsed = _v1_reader(server_document)
    assert parsed["engine"] == "greenwood"
    assert parsed["ops"] >= 1
    assert parsed["clients"] == [
        "workload.client_0", "workload.client_1"
    ]


def test_server_document_service_section_shape(server_document):
    service = server_document["service"]
    assert {"pool", "admission", "shed_total", "timeouts_total"} <= \
        set(service)
    assert service["pool"]["size"] == 2
    assert service["admission"]["queue_limit"] >= 1
    cache = server_document["cache"]
    assert {"hits", "misses", "hit_ratio", "client_observed_hits"} <= \
        set(cache)
    assert 0.0 <= cache["hit_ratio"] <= 1.0


@pytest.fixture(scope="module")
def traced_server_document(database):
    from repro.service import JackpineServer, ServerConfig

    server = JackpineServer(database, ServerConfig(pool_size=2, trace=True))
    server.start()
    try:
        config = WorkloadConfig(clients=2, duration=0.3, mix="browse",
                                mode="open", rate=10.0, seed=11,
                                scale=0.05, server=server.address)
        return run_workload(config).telemetry_document()
    finally:
        server.stop()


def test_traced_server_document_adds_only_requests(traced_server_document):
    assert V1_BASE_KEYS <= set(traced_server_document)
    assert set(traced_server_document) - V1_BASE_KEYS == {
        "service", "cache", "requests"
    }


def test_requests_section_absent_without_tracing(server_document):
    # the untraced server's document must not grow the section —
    # "requests" is strictly additive and opt-in
    assert "requests" not in server_document


def test_requests_section_shape(traced_server_document):
    requests = traced_server_document["requests"]
    assert {"enabled", "total", "retained", "outcomes",
            "slow_threshold_ms", "capacity", "buffered"} <= set(requests)
    assert requests["total"] >= 1
    assert 0 <= requests["retained"] <= requests["total"]
    assert sum(requests["outcomes"].values()) == requests["total"]


def test_v1_reader_parses_traced_server_documents(traced_server_document):
    parsed = _v1_reader(traced_server_document)
    assert parsed["engine"] == "greenwood"
    assert parsed["ops"] >= 1


def test_statements_section_shape(full_document):
    section = full_document["statements"]
    assert set(section) == {
        "by_total_time", "plans", "plan_flips", "plan_flips_total"
    }
    assert section["by_total_time"], "read-only round must record reads"
    entry = section["by_total_time"][0]
    assert entry["calls"] >= 1
    assert "wait_class_seconds" in entry
