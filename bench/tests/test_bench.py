"""Self-tests of the benchmark (``python -m pytest bench/tests``).

Not part of the repository's tier-1 suite: they check the harness, not
the program.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import threading
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import harness  # noqa: E402
from workloads import WORKLOADS, streams  # noqa: E402

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT = ("storage.wal_records", "storage.wal_bytes",
         "algorithms.refine_calls", "index.probes")


def run_cli(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def options(workload, seed=42):
    return argparse.Namespace(
        workload=workload, seed=seed, seconds=1.0, trace=0, quick=True,
        workdir=None, reference=harness.Reference(),
    )


@pytest.fixture(scope="module")
def traced():
    """One quick traced run per workload, shared by the tests below."""
    return {name: run_cli("--workload", name, "--quick", "--trace", "1")
            for name in NAMES}


def test_quick_smoke_of_all_workloads():
    started = time.perf_counter()
    for name in NAMES:
        result = run_cli("--workload", name, "--quick", "--seed", "7")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [
            m["name"] for m in SPEC["end_to_end"]
        ]
        for metric in SPEC["end_to_end"]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0
    assert time.perf_counter() - started < 30


def test_names_and_units_are_well_formed():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    seen = set()
    for entry in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]:
        assert name.match(entry["name"]), entry["name"]
        assert entry["name"] not in seen
        seen.add(entry["name"])
        if "unit" in entry:
            assert unit.match(entry["unit"]), entry
    assert set(WORKLOADS) == set(NAMES)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128


def test_traced_run_reports_every_layer_metric(traced):
    for name, result in traced.items():
        assert result["failed"] == 0, name
        assert list(result["metrics"]) == [
            m["name"] for m in SPEC["per_layer"]
        ]
        for metric, entry in result["metrics"].items():
            # null would mean the probe could not run
            assert isinstance(entry["value"], (int, float)), (name, metric)


def test_layers_show_up_where_they_should(traced):
    value = {name: {m: e["value"] for m, e in result["metrics"].items()}
             for name, result in traced.items()}
    assert value["topo_exact"]["algorithms.share"] >= 0.5
    assert value["topo_mbr"]["algorithms.share"] <= 0.05
    for name in NAMES:
        durable = name == "durable_mixed"
        assert (value[name]["storage.wal_self_us"] > 0) == durable
        assert (value[name]["storage.wal_records"] > 0) == durable
        assert (value[name]["service.ping_us"] > 0) == (name == "served_browse")


def test_exact_counters_repeat(traced):
    for name in ("topo_exact", "durable_mixed"):
        again = run_cli("--workload", name, "--quick", "--trace", "1")
        for counter in EXACT:
            assert (again["metrics"][counter]["value"]
                    == traced[name]["metrics"][counter]["value"]), counter


def test_same_seed_same_stream():
    pool = streams.browse_pool()

    def hashes(seed):
        topo = WORKLOADS["topo_exact"](options("topo_exact", seed))
        return (
            harness.stream_hash(topo.stream(0)),
            harness.stream_hash(
                streams.browse_stream(seed, 0, 1, 300, pool)),
            harness.stream_hash(
                streams.mixed_stream(seed, 0, 300, [1, 2, 3], 500)),
        )

    assert hashes(5) == hashes(5)
    assert all(a != b for a, b in zip(hashes(5), hashes(6)))


def test_wrong_golden_answer_is_a_failed_op():
    workload = WORKLOADS["topo_exact"](options("topo_exact"))
    workload.expected = {"topo.polygon_touches_polygon": "not-the-answer"}
    try:
        workload.setup()
    finally:
        workload.teardown()
    assert workload.failed == 1
    assert "topo.polygon_touches_polygon" in workload.failures[0]


def test_failed_ops_are_left_out_of_rates_and_latencies():
    block = harness.Block()
    for seconds in (0.001, 0.5, 0.003):
        block.add("read", seconds)
    block.scale(1.0)
    block.wall = 1.0
    block.failed.add(1)  # the slow one answered wrong
    values = harness.end_to_end([block], lambda kind: True)
    assert values["ops_per_s"] == 2.0
    assert values["op_p95_ms"] < 3.0
    assert values["pass_s"] == pytest.approx(0.004)


def test_broken_probe_reports_null_and_does_not_fail_the_run(
    monkeypatch, capsys
):
    import probes
    import run

    def moved(*_args, **_kwargs):
        raise ImportError("repro.geometry.wkt moved")

    monkeypatch.setattr(probes, "wkt_round_trip", moved)
    assert run.main(["--workload", "topo_mbr", "--quick", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["metrics"]["geometry.wkt_parse_us"]["value"] is None
    assert result["metrics"]["sql.parse_us"]["value"] > 0
    assert any("null" in line and "wkt moved" in line for line in lines)


def test_dead_server_gives_failed_ops_not_a_hang():
    workload = WORKLOADS["served_browse"](options("served_browse"))
    blocks = []
    try:
        workload.setup()
        workload.child.process.kill()
        workload.child.process.wait(timeout=10)
        runner = threading.Thread(
            target=lambda: blocks.append(workload.run_block(0)), daemon=True
        )
        runner.start()
        runner.join(timeout=20)
        assert not runner.is_alive()
    finally:
        workload.teardown()
    assert len(blocks[0].failed) == len(blocks[0].latency) > 0
    assert blocks[0].completed() == []
    assert workload.failed >= len(blocks[0].failed)
    assert workload.child.process.poll() is not None


def test_spread_matches_the_drivers_definition():
    values = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    import statistics

    q1, _m, q3 = statistics.quantiles(values, n=4)
    assert harness.spread(values) == (q3 - q1) / statistics.median(values)
    assert harness.quiet([4.0, 1.0, 2.0, 3.0, 5.0]) == 2.0
    assert harness.quiet([4.0, 1.0, 2.0, 3.0, 5.0], "higher") == 4.0
