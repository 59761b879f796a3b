"""Benchmark telemetry tests: the paper tables' records, with percentiles
and operator breakdowns, and the telemetry documents they are written
as."""

import json

import pytest

from repro.core import experiments as exp
from repro.obs import telemetry


def _document(key, **options):
    config = dict(seed=42, scale=0.05)
    return exp.document(key, exp.EXPERIMENTS[key].run(**config, **options),
                        config)


@pytest.fixture(scope="module")
def topology():
    return _document("jt1", variants=("greenwood",))


class TestRecordStream:
    def test_micro_records_have_percentiles(self, topology):
        supported = [r for r in topology["records"] if r["supported"]]
        assert supported
        for record in supported:
            assert record["engine"] == "greenwood"
            assert record["runs"] == 3
            for key in ("p50", "p95", "p99", "mean", "min", "max"):
                assert key in record
            assert record["p50"] <= record["p95"] <= record["p99"]

    def test_operator_breakdowns_present(self, topology):
        with_ops = [r for r in topology["records"] if r.get("operators")]
        assert with_ops, "exemplar traces should produce operator breakdowns"
        breakdown = with_ops[0]["operators"]
        assert breakdown[0]["depth"] == 0
        for op in breakdown:
            assert {"op", "rows", "seconds", "counters"} <= set(op)

    def test_macro_and_loading_records(self):
        macro = _document("jt4", engines=("greenwood",),
                          scenarios=("geocoding",))
        (record,) = macro["records"]
        assert record["query_id"] == "jt4.geocoding"
        assert record["steps"]
        assert "queries_per_minute" in record
        loading = _document("jt3")
        assert {r["query_id"] for r in loading["records"]} >= {
            "jt3.edges", "jt3.counties",
        }
        for record in loading["records"]:
            assert record["rows"] > 0
            assert record["insert_seconds"] > 0


class TestOneRecordSchema:
    def test_macro_step_records_carry_the_cell_keys(self):
        """A macro step is measured like a micro cell, so a step record
        and a cell record with the same outcome carry the same keys, less
        the cell's matrix column (``variant``) and its warmup exemplar
        (``operators``, ``counters``): a step runs once, unwarmed."""
        own = {"variant", "operators", "counters"}
        shared = set()
        for timeout in (None, 1e-9):
            options = dict(seed=7, scale=0.05, timeout=timeout)
            cells = exp.matrix_records(exp.EXPERIMENTS["jt1"].run(
                variants=("greenwood",),
                queries=("Polygon Intersects Polygon", "Line Crosses Line"),
                **options,
            ))
            (macro,) = exp.EXPERIMENTS["jt4"].records(
                exp.EXPERIMENTS["jt4"].run(
                    engines=("greenwood",), scenarios=("geocoding",),
                    **options,
                )
            )
            for step in macro["steps"]:
                for cell in cells:
                    if cell["outcome"] == step["outcome"]:
                        assert set(step) == set(cell) - own, step
                        shared.add(step["outcome"])
        assert shared == {"ok", "timeout"}


class TestArtifacts:
    def test_document_round_trip(self, topology, tmp_path):
        path = telemetry.write_document(topology, str(tmp_path), "jt1.json")
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["schema"] == telemetry.SCHEMA
        assert document["experiment"] == "jt1"
        assert document["config"]["scale"] == 0.05
        supported = [r for r in document["records"] if r["supported"]]
        assert supported
        assert all("p99" in r for r in supported)
        assert any(r.get("operators") for r in supported)

    def test_unsupported_queries_carry_error(self):
        document = _document("jt2", variants=("bluestem",))
        unsupported = [r for r in document["records"] if not r["supported"]]
        assert unsupported  # bluestem lacks several analysis functions
        for record in unsupported:
            assert "error" in record
            assert "p50" not in record


class TestCliTelemetry:
    def test_run_suite_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "experiment", "jt1", "--scale", "0.05",
            "--telemetry", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment_jt1.json" in out
        artifact = tmp_path / "experiment_jt1.json"
        assert artifact.exists()
        document = json.loads(artifact.read_text())
        assert document["schema"] == telemetry.SCHEMA

    def test_stats_subcommand(self, capsys):
        from repro.cli import main

        code = main(["stats", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "jackpine_queries_total 3" in out
        assert "jackpine_query_seconds_bucket" in out
        assert 'jackpine_engine_rows_scanned{scope="greenwood"}' in out
