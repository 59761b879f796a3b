"""Unit tests for the paper tables' rendering edge cases."""

import pytest

from repro.core import experiments as exp
from repro.core.experiments import (
    _fmt_time,
    render_loading,
    render_macro,
    render_matrix,
)
from repro.core.micro.loading import LayerLoadTiming, LoadResult
from repro.core.macro.scenario import ScenarioResult
from repro.core.stats import QueryTiming


class TestFormatting:
    def test_fmt_time_units(self):
        assert _fmt_time(5e-7).endswith("us")
        assert _fmt_time(5e-3).endswith("ms")
        assert _fmt_time(2.0).endswith("s")

    def test_fmt_time_nan(self):
        assert _fmt_time(float("nan")) == "-"


def _one_cell(engine, timing):
    """A J-T1-shaped result holding one cell: ``timing`` on ``engine``."""
    query = timing.query_id
    matrix = exp.Matrix({query: exp.TOPOLOGY_QUERIES[query]}, (engine,),
                        exp._per_engine)
    result = exp.MatrixResult(matrix, (query,), (engine,))
    result.cells[query, engine] = timing
    return result


class TestMicroRendering:
    def test_unsupported_rendered_as_ns(self):
        timing = QueryTiming("Polygon Touches Polygon")
        timing.supported = False
        timing.outcome = "not supported"
        assert "n/s" in render_matrix(_one_cell("bluestem", timing))

    def test_supported_timing_rendered(self):
        timing = QueryTiming("Polygon Touches Polygon")
        timing.record(0.0123)
        timing.result_value = 7
        text = render_matrix(_one_cell("greenwood", timing))
        assert "Polygon Touches Polygon" in text
        assert "12.3ms | 7" in text


def _step(label, seconds):
    return QueryTiming(label, [seconds], result_value=1)


def _gap(label):
    return QueryTiming(label, supported=False, error="n/s",
                       outcome="not supported")


class TestMacroRendering:
    def test_throughput_and_skips(self):
        ok = ScenarioResult("geocoding", "greenwood")
        ok.steps.append(_step("q0", 0.5))
        ok.steps.append(_step("q1", 0.5))
        gappy = ScenarioResult("geocoding", "bluestem")
        gappy.steps.append(_step("q0", 0.25))
        gappy.steps.append(_gap("q1"))
        text = render_macro([ok, gappy])
        assert "geocoding" in text
        assert "120" in text  # 2 queries in 1s = 120/min
        assert "bluestem:1" in text

    def test_scenario_math(self):
        scenario = ScenarioResult("s", "e")
        scenario.steps.append(_step("a", 1.0))
        scenario.steps.append(_gap("b"))
        assert scenario.executed == 1
        assert scenario.skipped == 1
        assert scenario.queries_per_minute == pytest.approx(60.0)

    def test_empty_scenario_has_zero_throughput(self):
        scenario = ScenarioResult("s", "e")
        assert scenario.queries_per_minute == 0.0


class TestLoadingRendering:
    def test_layers_across_engines(self):
        results = []
        for engine in ("greenwood", "ironbark"):
            loading = LoadResult(engine=engine)
            loading.layers.append(LayerLoadTiming("edges", 100, 0.5, 0.1))
            results.append(loading)
        text = render_loading(results)
        assert "edges" in text
        assert text.count("500.0ms") == 2

    def test_rows_per_second(self):
        timing = LayerLoadTiming("edges", 200, 2.0, 0.1)
        assert timing.rows_per_second == 100.0
