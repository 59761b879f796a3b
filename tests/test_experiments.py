"""Tests for the experiment registry behind ``jackpine experiment``."""

import pytest

from repro.core import experiments as exp
from repro.errors import ReproError
from repro.obs.telemetry import SCHEMA


def _run(key, **options):
    return exp.EXPERIMENTS[key].run(**options)


class TestIndexEffect:
    @pytest.fixture(scope="class")
    def result(self):
        return _run("jf5", seed=42, scale=0.1)

    def test_answers_identical_across_modes(self, result):
        # asserted inside run_matrix (agree=True); re-check rows came back
        assert len(result.queries) == len(exp.INDEX_EFFECT_QUERIES)

    def test_selective_queries_benefit_from_index(self, result):
        with_idx = result.cells["window_small", "indexed"].median
        without = result.cells["window_small", "no index"].median
        assert with_idx < without

    def test_render(self, result):
        text = exp.render("jf5", result)
        assert "J-F5" in text
        assert "speedup" in text


class TestScalability:
    @pytest.fixture(scope="class")
    def result(self):
        return _run("jf6", seed=42, variants=(0.1, 0.3))

    def test_series_cover_all_queries(self, result):
        assert set(result.queries) == set(exp.SCALABILITY_QUERIES)
        assert result.variants == (0.1, 0.3)
        assert len(result.cells) == 2 * len(exp.SCALABILITY_QUERIES)

    def test_answers_grow_with_scale(self, result):
        for name in result.queries:
            answers = [result.answer(name, s) for s in result.variants]
            assert answers[-1] >= answers[0], name

    def test_render(self, result):
        text = exp.render("jf6", result)
        assert "J-F6" in text


class TestRefinementAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return _run("ja1", seed=42, scale=0.1)

    def test_mbr_overcounts_touches(self, result):
        exact = result.answer("touches_counties", "greenwood")
        approx = result.answer("touches_counties", "bluestem")
        # jittered county MBRs overlap: the MBR 'touches' answer differs
        assert approx != exact

    def test_exact_engines_agree(self, result):
        for name in result.queries:
            assert (result.answer(name, "greenwood")
                    == result.answer(name, "ironbark")), name

    def test_render(self, result):
        text = exp.render("ja1", result)
        assert "J-A1" in text
        assert "bluestem" in text


class TestIndexAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return _run("ja2", seed=42, scale=0.1,
                    variants=("rtree", "grid", "scan"))

    def test_all_kinds_reported(self, result):
        assert result.variants == ("rtree", "grid", "scan")
        assert len(result.queries) == len(exp.INDEX_ABLATION_QUERIES)

    def test_render(self, result):
        text = exp.render("ja2", result)
        assert "J-A2" in text
        assert "rtree" in text


class TestSelectivitySweep:
    @pytest.fixture(scope="class")
    def result(self):
        return _run("jx1", seed=42, scale=0.1,
                    queries=("5%", "25%", "100%"))

    def test_exact_engines_agree_and_mbr_never_undercounts(self, result):
        # the probe is its own envelope, but the *edges* are not: the MBR
        # engine keeps every edge whose box clips the window, so it may
        # over-count (never under-count) relative to the exact engines
        for window in result.queries:
            exact = result.answer(window, "greenwood")
            assert result.answer(window, "ironbark") == exact
            assert result.answer(window, "bluestem") >= exact

    def test_answers_monotone_in_window_size(self, result):
        for engine in result.variants:
            counts = [result.answer(w, engine) for w in result.queries]
            assert counts == sorted(counts)

    def test_full_window_returns_everything(self, result):
        from repro.datagen import generate

        edges = len(generate(seed=42, scale=0.1).layer("edges").rows)
        for engine in result.variants:
            assert result.answer("100%", engine) == edges

    def test_render(self, result):
        text = exp.render("jx1", result)
        assert "J-X1" in text


class TestConcurrency:
    @pytest.fixture(scope="class")
    def result(self):
        return exp.run_concurrency(
            scenario_name="geocoding", clients_series=(1, 3),
            seed=42, scale=0.1,
        )

    def test_queries_scale_with_clients(self, result):
        one, three = result.points
        assert one["clients"] == 1 and three["clients"] == 3
        assert three["queries"] == 3 * one["queries"]

    def test_render(self, result):
        text = exp.render("jx2", result)
        assert "J-X2" in text
        assert "geocoding" in text


class TestSpatialJoin:
    @pytest.fixture(scope="class")
    def result(self):
        return _run("jx3", seed=42, scale=0.1)

    def test_all_strategies_timed_for_every_join(self, result):
        assert len(result.queries) == len(exp.JOIN_MATRIX)
        assert result.variants == exp.JOIN_STRATEGY_SERIES
        assert len(result.cells) == (
            len(exp.JOIN_MATRIX) * len(exp.JOIN_STRATEGY_SERIES)
        )

    def test_answers_identical_across_strategies(self, result):
        # asserted inside run_matrix (agree=True); re-check the invariant
        for label in result.queries:
            answers = {result.answer(label, s) for s in result.variants}
            assert len(answers) == 1

    def test_render(self, result):
        text = exp.render("jx3", result)
        assert "J-X3" in text
        for strategy in exp.JOIN_STRATEGY_SERIES:
            assert strategy in text


class TestMatrixOutcomes:
    """Disagreeing variants and an errored cell stop a run; a feature
    gap is a result."""

    def test_disagreeing_variants_raise(self):
        matrix = exp.Matrix(exp.REFINEMENT_QUERIES, ("greenwood", "bluestem"),
                            exp._per_engine, agree=True)
        with pytest.raises(AssertionError, match="touches_counties"):
            exp.run_matrix(matrix, scale=0.05, queries=("touches_counties",))

    def test_error_cell_raises(self):
        matrix = exp.Matrix({"bad": "SELECT nope FROM counties"},
                            ("greenwood",), exp._per_engine)
        with pytest.raises(ReproError, match="bad on greenwood: error"):
            exp.run_matrix(matrix, scale=0.05)

    def test_unsupported_cell_renders_ns(self):
        hull = ("SELECT COUNT(*) FROM counties "
                "WHERE ST_Area(ST_ConvexHull(geom)) > 0")
        matrix = exp.Matrix({"hull": hull}, ("greenwood", "bluestem"),
                            exp._per_engine)
        result = exp.run_matrix(matrix, scale=0.05)
        assert result.cells["hull", "bluestem"].outcome == "not supported"
        assert "n/s" in exp.render_matrix(result)


class TestCliIntegration:
    def test_experiment_subcommand(self, capsys):
        from repro.cli import main

        code = main(["experiment", "ja2", "--scale", "0.1"])
        assert code == 0
        assert "J-A2" in capsys.readouterr().out

    def test_spatial_join_subcommand(self, capsys):
        from repro.cli import main

        code = main(["experiment", "jx3", "--scale", "0.1"])
        assert code == 0
        assert "J-X3" in capsys.readouterr().out

    def test_selectivity_subcommand(self, capsys):
        from repro.cli import main

        code = main(["experiment", "jx1", "--scale", "0.1"])
        assert code == 0
        assert "J-X1" in capsys.readouterr().out

    def test_telemetry_is_written_for_a_matrix_experiment(self, tmp_path):
        import json

        from repro.cli import main

        code = main(["experiment", "ja2", "--scale", "0.05",
                     "--distribution", "clustered",
                     "--telemetry", str(tmp_path)])
        assert code == 0
        document = json.loads((tmp_path / "experiment_ja2.json").read_text())
        assert document["config"] == {
            "seed": 42, "scale": 0.05, "distribution": "clustered",
        }
        assert len(document["records"]) == (
            len(exp.INDEX_ABLATION_QUERIES) * len(exp.INDEX_ABLATION_KINDS)
        )


# -- every registry entry, end to end at tiny settings ---------------------

#: per-experiment settings small enough for tier-1 (scale 0.05 for all)
TINY = {
    "jf5": {},
    "jf6": {"variants": (0.05,)},
    "ja1": {},
    "ja2": {},
    "jx1": {},
    "jx2": {"clients_series": (1,)},
    "jx3": {},
    "jx4": {"clients_series": (1,), "duration": 0.3},
    "jx5": {"intervals": (0.0,), "crash_after": 20, "clients": 1},
    "jx6": {"duration": 0.2, "clients": 2, "max_rounds": 1,
            "max_queue": 2, "overload_clients": 4},
}


def _cells_or_points(result):
    if isinstance(result, exp.MatrixResult):
        return len(result.queries) * len(result.variants)
    return len(result.points)


@pytest.mark.parametrize("key", sorted(exp.EXPERIMENTS))
def test_every_experiment_runs(key):
    config = dict(seed=42, scale=0.05, **TINY[key])
    result = exp.EXPERIMENTS[key].run(**config)
    assert key in exp.render(key, result)
    document = exp.document(key, result, config)
    assert document["schema"] == SCHEMA
    assert len(document["records"]) == _cells_or_points(result)
    assert all(r["query_id"].startswith(f"{key}.")
               for r in document["records"])
    if key == "jx5":
        assert all(point["verified"] for point in result.points)
