"""Tests for the jackpine command-line interface."""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_help_lists_the_paper_tables(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        out = capsys.readouterr().out
        for key in ("jt1", "jt2", "jt3", "jt4"):
            assert f"{key}=J-T{key[-1]}" in out

    def test_bad_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["explain", "--engine", "postgres", "SELECT 1"]
            )

    def test_explain_requires_sql(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain"])


class TestMain:
    def test_explain(self, capsys):
        code = main([
            "explain", "--scale", "0.1",
            "SELECT COUNT(*) FROM edges "
            "WHERE ST_Intersects(geom, ST_MakeEnvelope(0, 0, 1000, 1000))",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "IndexScan" in out

    def test_run_loading_suite(self, capsys):
        code = main(["experiment", "jt3", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "J-T3" in out
        assert "edges" in out

    def test_run_macro_suite(self, capsys):
        code = main(["experiment", "jt4", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "geocoding" in out
        assert "q/min" in out

    def test_run_micro_suite(self, capsys):
        assert main(["experiment", "jt1", "--scale", "0.1"]) == 0
        assert main(["experiment", "jt2", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Polygon Touches Polygon" in out
        assert "ConvexHull" in out


#: every subcommand the CLI offers
SUBCOMMANDS = ("explain", "stats", "experiment", "checkpoint", "serve",
               "trace", "workload", "top")

#: the ``stats --json`` document's sections, always present
STATS_KEYS = {"engine", "seed", "scale", "probes", "metrics",
              "resilience", "lock_waits"}


def _stats_json(capsys, *extra):
    import json

    assert main(["stats", "--scale", "0.05", "--json", *extra]) == 0
    return json.loads(capsys.readouterr().out)


class TestPinnedOutput:
    """What scripts and CI read from the CLI, pinned across refactors."""

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_every_subcommand_has_help(self, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([name, "--help"])
        assert exit_info.value.code == 0
        assert "usage: jackpine " + name in capsys.readouterr().out

    def test_stats_json_keys(self, capsys):
        document = _stats_json(capsys)
        assert set(document) == STATS_KEYS
        assert len(document["probes"]) == 3
        assert set(document["probes"][0]) == {
            "sql", "seconds", "rows", "counters"
        }

    def test_stats_json_keys_with_every_section(self, tmp_path, capsys):
        document = _stats_json(
            capsys, "--waits", "--statements",
            "--storage", str(tmp_path / "storage"),
        )
        assert set(document) == STATS_KEYS | {
            "waits", "statements", "storage"
        }

    def test_stats_text_sections(self, tmp_path, capsys):
        assert main([
            "stats", "--scale", "0.05", "--waits", "--statements",
            "--storage", str(tmp_path / "storage"),
            "--sql", "SELECT COUNT(*) FROM edges",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("-- SELECT COUNT(*) FROM edges\n")
        for line in (
            "jackpine_queries_total 1",
            "-- process-wide resilience counters",
            "jackpine_query_timeouts_total 0",
            "jackpine_txn_lock_wait_seconds_count 0",
            "-- wait events (count, seconds, p95)",
            "-- durable storage (heap pages + write-ahead log)",
            "jackpine_storage_wal_records ",
        ):
            assert line in out

    def test_checkpoint_lines(self, tmp_path, capsys):
        from repro.engines import Database

        directory = str(tmp_path / "storage")
        db = Database("bluestem")
        db.execute("CREATE TABLE pts (id INTEGER, g GEOMETRY)")
        db.attach_storage(directory)
        db.execute("INSERT INTO pts VALUES (1, ST_GeomFromText('POINT(1 1)'))")
        db.durability.crash()
        assert main(["checkpoint", directory]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(
            "recovered bluestem database: 1 tables, 1 rows"
        )
        assert lines[-1].startswith("checkpoint at lsn ")

    def test_top_closing_lines(self, capsys):
        assert main([
            "top", "--plain", "--clients", "2", "--duration", "1",
            "--scale", "0.05",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "loading greenwood at scale 0.05 ..."
        assert any(line.startswith("== jackpine top @ ") for line in lines)
        # the output closes with the same decomposition block as
        # `jackpine workload --waits`: title, event rows, the on-CPU
        # remainder, then only the overlap line and the hottest rows
        start = len(lines) - lines[::-1].index("")
        assert lines[start].startswith(
            "-- wall-time decomposition (all clients) (busy "
        )
        closing = lines[start:]
        assert not any(line.startswith("== jackpine top")
                       for line in closing)
        other = next(i for i, line in enumerate(closing)
                     if line.startswith("on-CPU (other)"))
        after = closing[other + 1:]
        if after and after[0].startswith("(overlap overcount)"):
            after = after[1:]
        assert after == [] or (
            after[0] == "-- hottest rows (by lock-wait seconds) --"
        )


def _subparsers():
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_api_doc_cli_block_names_every_option():
    """The ``## CLI`` block of docs/API.md names every subcommand and,
    on that subcommand's lines, every long option it takes."""
    text = (Path(__file__).resolve().parent.parent / "docs" / "API.md"
            ).read_text(encoding="utf-8")
    block = text.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    usage = {}
    for line in block.splitlines():
        if line.startswith("jackpine "):
            name = line.split()[1]
            usage[name] = ""
        usage[name] += line + "\n"
    missing = []
    for name, subparser in _subparsers().items():
        if name not in usage:
            missing.append(name)
            continue
        for action in subparser._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help" and not (
                    re.search(re.escape(option) + r"(?![\w-])", usage[name])
                ):
                    missing.append(f"{name} {option}")
    assert not missing, f"docs/API.md CLI block lacks: {missing}"
    assert set(usage) == set(_subparsers())
