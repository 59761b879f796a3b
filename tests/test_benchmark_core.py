"""Integration tests for the Jackpine benchmark core: micro suites, macro
scenarios, and the paper tables J-T1–J-T4 run through the experiment
registry."""

import math
import os
import subprocess
import sys

import pytest

from repro.core import experiments as exp
from repro.core.macro import ALL_SCENARIOS, SCENARIOS_BY_NAME
from repro.core.micro import analysis_queries, bind_dataset, topology_queries
from repro.core.micro.loading import run_loading
from repro.core.stats import QueryTiming, run_timed
from repro.dbapi import connect


class TestQueryCatalogues:
    def test_topology_suite_shape(self):
        queries = topology_queries()
        assert len(queries) >= 20
        assert len({q.query_id for q in queries}) == len(queries)
        assert {q.title: q.sql for q in queries} == exp.TOPOLOGY_QUERIES
        relations = {"equals", "disjoint", "intersects", "touches",
                     "crosses", "within", "contains", "overlaps"}
        for relation in relations:
            assert any(relation in q.query_id for q in queries), relation

    def test_analysis_suite_shape(self):
        queries = analysis_queries()
        assert len(queries) >= 15
        functions = {"buffer", "convex_hull", "centroid", "union",
                     "intersection", "distance", "area", "length"}
        for fn in functions:
            assert any(fn in q.query_id for q in queries), fn

    def test_bind_dataset_substitutes_fips(self, tiny_dataset):
        union_agg = next(q for q in analysis_queries()
                         if q.query_id.endswith("union_aggregate"))
        assert "(SELECT_FIPS)" in union_agg.sql
        assert "(SELECT_FIPS)" not in bind_dataset(union_agg.sql,
                                                   tiny_dataset)


class TestQueryTiming:
    def test_statistics(self):
        timing = QueryTiming("q")
        for value in (0.2, 0.4, 0.3):
            timing.record(value)
        assert timing.runs == 3
        assert timing.mean == pytest.approx(0.3)
        assert timing.median == pytest.approx(0.3)
        assert timing.minimum == 0.2
        assert timing.maximum == 0.4
        assert timing.total == pytest.approx(0.9)
        assert timing.stddev == pytest.approx(0.1)

    def test_empty_stats_are_nan(self):
        timing = QueryTiming("q")
        assert math.isnan(timing.mean)
        assert math.isnan(timing.median)

    def test_run_timed_protocol(self):
        calls = []
        timing = run_timed(
            QueryTiming("q"), lambda: calls.append(1) or 42,
            repeats=3, warmups=2,
        )
        assert len(calls) == 5
        assert timing.runs == 3
        assert timing.result_value == 42

    def test_run_timed_unsupported(self):
        from repro.errors import UnsupportedFeatureError

        def boom():
            raise UnsupportedFeatureError("nope")

        timing = run_timed(QueryTiming("q"), boom, repeats=2, warmups=1)
        assert not timing.supported
        assert timing.runs == 0


def _answer(db, query):
    """``query``'s answer on ``db``, as the experiment registry takes it."""
    return exp._count_answer(connect(database=db).cursor(), query.sql, None)()


class TestMicroOnEngines:
    def test_exact_engines_agree_on_counts(self, greenwood_db, ironbark_db):
        for query in topology_queries():
            assert _answer(greenwood_db, query) == _answer(
                ironbark_db, query
            ), query.query_id

    def test_mbr_engine_never_undercounts_intersects(
        self, greenwood_db, bluestem_db
    ):
        positives = [
            q for q in topology_queries()
            if "intersects" in q.query_id or "within" in q.query_id
        ]
        for query in positives:
            exact = _answer(greenwood_db, query)
            approx = _answer(bluestem_db, query)
            assert approx >= exact, query.query_id


class TestMacroScenarios:
    def test_registry(self):
        assert len(ALL_SCENARIOS) == 6
        assert set(SCENARIOS_BY_NAME) == {
            "map_search", "geocoding", "reverse_geocoding",
            "flood_risk", "land_information", "toxic_spill",
        }

    @pytest.mark.parametrize("name", sorted(SCENARIOS_BY_NAME))
    def test_scenario_runs_on_greenwood(self, name, greenwood_db,
                                        small_dataset):
        scenario = SCENARIOS_BY_NAME[name]()
        conn = connect(database=greenwood_db)
        result = scenario.run(conn, small_dataset, seed=3, engine_name="greenwood")
        assert result.executed > 0
        assert result.skipped == 0  # greenwood supports everything
        assert result.total_seconds > 0
        assert result.queries_per_minute > 0

    def test_scenarios_deterministic_given_seed(self, greenwood_db,
                                                small_dataset):
        scenario = SCENARIOS_BY_NAME["geocoding"]()
        conn = connect(database=greenwood_db)
        first = scenario.run(conn, small_dataset, seed=9)
        second = scenario.run(conn, small_dataset, seed=9)
        assert ([s.query_id for s in first.steps]
                == [s.query_id for s in second.steps])
        assert ([s.result_value for s in first.steps]
                == [s.result_value for s in second.steps])

    def test_geocoding_finds_addresses(self, greenwood_db, small_dataset):
        scenario = SCENARIOS_BY_NAME["geocoding"]()
        conn = connect(database=greenwood_db)
        result = scenario.run(conn, small_dataset, seed=3)
        hits = sum(1 for s in result.steps if s.result_value > 0)
        assert hits == len(result.steps)  # every lookup resolves

    def test_bluestem_skips_unsupported_steps(self, bluestem_db,
                                              small_dataset):
        scenario = SCENARIOS_BY_NAME["reverse_geocoding"]()
        conn = connect(database=bluestem_db)
        result = scenario.run(conn, small_dataset, seed=3, engine_name="bluestem")
        assert result.skipped > 0
        assert result.executed > 0  # the nearest-road half still runs


class TestLoadingSuite:
    def test_loading_result_shape(self, tiny_dataset):
        result = run_loading("greenwood", tiny_dataset)
        assert result.engine == "greenwood"
        assert {t.layer for t in result.layers} == set(tiny_dataset.layers)
        for timing in result.layers:
            assert timing.insert_seconds > 0
            assert timing.index_seconds >= 0
            assert timing.rows == len(tiny_dataset.layer(timing.layer).rows)
        assert result.total_insert > 0


class TestOrchestrator:
    ENGINES = ("greenwood", "bluestem")

    @pytest.fixture(scope="class")
    def result(self):
        def run(key, **options):
            return exp.EXPERIMENTS[key].run(seed=7, scale=0.1, **options)

        return {
            "jt1": run("jt1", variants=self.ENGINES),
            "jt2": run("jt2", variants=self.ENGINES),
            "jt3": run("jt3"),
            "jt4": run("jt4", engines=self.ENGINES,
                       scenarios=("geocoding", "toxic_spill")),
        }

    def test_runs_all_engines(self, result):
        assert result["jt1"].variants == self.ENGINES
        assert [r.engine for r in result["jt3"]] == list(exp.ENGINES)
        assert {r.engine for r in result["jt4"]} == set(self.ENGINES)

    def test_micro_results_present(self, result):
        cells = [key for name in ("jt1", "jt2")
                 for key in result[name].cells if key[1] == "greenwood"]
        assert len(cells) == len(topology_queries()) + len(analysis_queries())

    def test_unsupported_marked(self, result):
        hull = result["jt2"].cells["ConvexHull", "bluestem"]
        assert not hull.supported

    def test_macro_limited_to_requested(self, result):
        assert {r.scenario for r in result["jt4"]
                if r.engine == "greenwood"} == {"geocoding", "toxic_spill"}

    def test_report_renders(self, result):
        text = {key: exp.render(key, value) for key, value in result.items()}
        assert "J-T1" in text["jt1"]
        assert "Polygon Touches Polygon" in text["jt1"]
        assert "n/s" in text["jt2"]  # bluestem's gaps visible
        assert "J-T3" in text["jt3"]
        assert "q/min" in text["jt4"]


def test_import_repro_leaves_the_benchmark_core_unloaded():
    """``import repro`` loads the engine; the benchmark (``repro.core``)
    is imported only when asked for."""
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print(sorted(m for m in sys.modules "
         "if m.startswith('repro.core')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout.strip()
    assert loaded == "[]"
