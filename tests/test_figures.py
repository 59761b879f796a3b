"""Tests for the CSV figure exporters."""

import csv
import os

import pytest

from repro.core import BenchmarkConfig, Jackpine
from repro.core import figures


@pytest.fixture(scope="module")
def result(tiny_dataset):
    config = BenchmarkConfig(
        engines=["greenwood", "bluestem"],
        scale=0.1,
        repeats=1,
        warmups=0,
        scenarios=["geocoding"],
    )
    return Jackpine(config, dataset=tiny_dataset).run()


def _read(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestBenchmarkExport:
    def test_export_all_writes_every_series(self, result, tmp_path):
        written = figures.export_all(result, str(tmp_path))
        names = {os.path.basename(p) for p in written}
        assert names == {
            "jf1_topology.csv", "jf2_analysis.csv",
            "jf3_macro.csv", "jf4_loading.csv",
        }
        for path in written:
            assert os.path.exists(path)

    def test_topology_csv_contents(self, result, tmp_path):
        figures.export_micro(result, str(tmp_path))
        rows = _read(tmp_path / "jf1_topology.csv")
        engines = {r["engine"] for r in rows}
        assert engines == {"greenwood", "bluestem"}
        touches = [
            r for r in rows
            if r["query_id"] == "topo.polygon_touches_polygon"
        ]
        assert len(touches) == 2
        for r in touches:
            assert float(r["median_s"]) > 0

    def test_unsupported_cells_marked(self, result, tmp_path):
        figures.export_micro(result, str(tmp_path))
        rows = _read(tmp_path / "jf2_analysis.csv")
        hull_bluestem = next(
            r for r in rows
            if r["query_id"] == "analysis.convex_hull"
            and r["engine"] == "bluestem"
        )
        assert hull_bluestem["supported"] == "0"
        assert hull_bluestem["median_s"] == ""

    def test_macro_csv(self, result, tmp_path):
        path = figures.export_macro(result, str(tmp_path))
        rows = _read(path)
        assert {r["scenario"] for r in rows} == {"geocoding"}
        greenwood = next(r for r in rows if r["engine"] == "greenwood")
        assert float(greenwood["queries_per_minute"]) > 0

    def test_loading_csv(self, result, tmp_path):
        path = figures.export_loading(result, str(tmp_path))
        rows = _read(path)
        layers = {r["layer"] for r in rows}
        assert "edges" in layers
        for r in rows:
            assert int(r["rows"]) >= 0
            assert float(r["insert_s"]) > 0


class TestCliOut:
    def test_run_all_with_out(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "run", "--engines", "greenwood", "--scale", "0.1",
            "--repeats", "1", "--warmups", "0",
            "--scenarios", "geocoding", "--out", str(tmp_path / "figs"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert (tmp_path / "figs" / "jf1_topology.csv").exists()
