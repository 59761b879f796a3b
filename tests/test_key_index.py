"""Key indexes (``CREATE INDEX``): the hash map, the ``IndexLookup``
access path, and UPDATE/DELETE choosing their rows through the same
planner as SELECT."""

from __future__ import annotations

import json
import os

import pytest

from repro.engines import Database
from repro.errors import SqlPlanError, SqlSyntaxError
from repro.index.key import KeyIndex
from repro.sql.parser import parse
from repro.storage.durability import WAL_FILE, recover


def _db(profile="greenwood", key=True):
    db = Database(profile)
    db.execute(
        "CREATE TABLE lots (gid INTEGER, owner TEXT, zone TEXT, geom GEOMETRY)"
    )
    db.insert_rows("lots", [
        (i, f"owner{i % 4}", f"z{i % 3}", f"POINT({i} {i % 5})")
        for i in range(1, 41)
    ])
    db.execute("CREATE SPATIAL INDEX lots_geom ON lots (geom)")
    if key:
        db.execute("CREATE INDEX lots_gid ON lots (gid)")
    return db


def _table_row(db, name):
    return {
        row[0]: row[1:]
        for row in db.execute(
            "SELECT name, seq_scans, index_probes, live_rows, column_name "
            "FROM jackpine_tables"
        ).rows
    }[name]


class TestKeyIndex:
    def test_unique_keys_bulk_load(self):
        rows = [(1, "a"), None, (2, "b"), (3, "c")]
        index = KeyIndex.bulk_load([0], rows)
        assert index.lookup([2]) == [2]
        assert index.lookup([1, 3, 99]) == [0, 3]
        assert len(index) == 3 and index.key_count == 3

    def test_shared_keys_keep_every_row_id(self):
        index = KeyIndex.bulk_load([1], [(1, "a"), (2, "b"), (3, "a")])
        assert index.lookup(["a"]) == [0, 2]
        index.insert(5, (9, "a"))
        assert index.lookup(["a"]) == [0, 2, 5]
        index.remove(0, (1, "a"))
        index.remove(5, (9, "a"))
        assert index.lookup(["a"]) == [2]
        assert len(index) == 2 and index.key_count == 2

    def test_null_and_unhashable_keys_match_nothing(self):
        index = KeyIndex.bulk_load([0, 1], [(1, None), (1, "x")])
        assert len(index) == 1
        assert index.lookup([(1, None)]) == []
        assert index.lookup([(1, "x")]) == [1]
        assert index.lookup([[1]]) == []

    def test_removing_an_absent_entry_is_a_no_op(self):
        index = KeyIndex.bulk_load([0], [(1,), (1,)])
        index.remove(7, (1,))
        index.remove(0, (2,))
        assert index.lookup([1]) == [0, 1]


class TestPlans:
    def test_explain_shows_a_lookup(self):
        db = _db()
        for sql, label in (
            ("SELECT owner FROM lots WHERE gid = ?", "gid = ?"),
            ("SELECT owner FROM lots WHERE gid IN (?, ?)", "gid IN (?, ?)"),
            ("SELECT owner FROM lots WHERE gid = 7 AND owner = 'x'",
             "gid = 7"),
        ):
            plan = db.explain(sql)
            assert f"IndexLookup lots AS lots USING lots_gid (hash) {label}" \
                in plan, plan
            assert "SeqScan" not in plan

    def test_two_column_key(self):
        db = _db()
        db.execute("CREATE INDEX lots_owner_zone ON lots (owner, zone)")
        sql = ("SELECT gid FROM lots WHERE owner = ? AND zone IN (?, ?) "
               "AND gid > 0")
        plan = db.explain(sql)
        assert "USING lots_owner_zone (hash)" in plan
        assert "owner = ? AND zone IN (?, ?)" in plan
        # one column of a two-column key alone cannot be looked up
        assert "SeqScan" in db.explain(
            "SELECT gid FROM lots WHERE zone = 'z1'"
        )
        want = sorted(
            row for row in db.execute(
                "SELECT gid FROM lots WHERE gid > 0 AND owner || '' = ? "
                "AND (zone || '' = ? OR zone || '' = ?)",
                ("owner1", "z0", "z2"),
            ).rows
        )
        got = db.execute(sql, ("owner1", "z0", "z2")).rows
        assert sorted(got) == want and want

    def test_answers_match_the_scan(self):
        db = _db()
        plain = _db(key=False)
        for sql, params in (
            ("SELECT gid, owner FROM lots WHERE gid = ?", (7,)),
            ("SELECT gid, owner FROM lots WHERE gid = ?", (7.0,)),
            ("SELECT gid, owner FROM lots WHERE gid = ?", ("7",)),
            ("SELECT gid, owner FROM lots WHERE gid = ?", (None,)),
            ("SELECT gid FROM lots WHERE gid IN (3, 99, 3, 12)", ()),
            ("SELECT COUNT(*) FROM lots WHERE gid = 5 AND "
             "ST_Intersects(geom, ST_MakeEnvelope(0, 0, 100, 100))", ()),
        ):
            assert db.execute(sql, params).rows == \
                plain.execute(sql, params).rows, sql

    def test_create_index_rejects_what_it_cannot_index(self):
        db = _db()
        with pytest.raises(SqlPlanError):
            db.execute("CREATE INDEX bad ON lots (geom)")
        with pytest.raises(SqlPlanError):
            db.execute("CREATE INDEX bad ON jackpine_tables (seq_scans)")
        with pytest.raises(SqlPlanError):
            db.execute("CREATE INDEX bad ON lots (gid, gid)")
        with pytest.raises(SqlPlanError):
            db.execute("CREATE SPATIAL INDEX bad ON lots (geom) USING hash")
        with pytest.raises(SqlSyntaxError):
            parse("CREATE INDEX bad ON lots ()")

    def test_drop_index_falls_back_to_a_scan(self):
        db = _db()
        sql = "SELECT owner FROM lots WHERE gid = 7"
        assert db.execute(sql).rows == [("owner3",)]  # plan now cached
        db.execute("DROP INDEX lots_gid")
        assert "SeqScan" in db.explain(sql)
        seq_scans = _table_row(db, "lots")[0]
        assert db.execute(sql).rows == [("owner3",)]
        assert _table_row(db, "lots")[0] == seq_scans + 1

    def test_lookup_is_costed_from_distinct_counts(self):
        db = _db(key=False)
        db.execute("CREATE INDEX lots_zone ON lots (zone)")
        db.execute("ANALYZE")
        # three zones: a third of the table per key, still under a scan
        assert "IndexLookup" in db.explain(
            "SELECT gid FROM lots WHERE zone = 'z1'"
        )
        # every key at once costs more than reading the table
        assert "SeqScan" in db.explain(
            "SELECT gid FROM lots WHERE zone IN ('z0', 'z1', 'z2')"
        )

    def test_a_spatial_probe_loses_to_a_key_lookup(self):
        db = _db()
        plan = db.explain(
            "SELECT gid FROM lots WHERE gid = 3 AND "
            "ST_Intersects(geom, ST_MakeEnvelope(0, 0, 100, 100))"
        )
        assert "IndexLookup" in plan and "IndexScan" not in plan

    def test_join_outer_side_is_looked_up(self):
        db = _db()
        plan = db.explain(
            "SELECT b.gid FROM lots a JOIN lots b "
            "ON ST_DWithin(a.geom, b.geom, 2) WHERE a.gid = 10"
        )
        assert "IndexLookup lots AS a" in plan


class TestWritesUseTheAccessPath:
    def test_delete_by_name_is_a_counted_seq_scan(self):
        db = _db()
        scans = _table_row(db, "lots")[0]
        before = db.stats.snapshot()
        assert db.execute(
            "DELETE FROM lots WHERE owner = ?", ("owner1",)
        ).rowcount == 10
        after = db.stats.snapshot()
        assert _table_row(db, "lots")[0] == scans + 1
        assert after["rows_scanned"] - before["rows_scanned"] == 40
        assert after["pages_read"] > before["pages_read"]

    def test_update_by_gid_probes_the_key_index(self):
        db = _db()
        scans = _table_row(db, "lots")[0]
        probes = _table_row(db, "lots_gid")[1]
        before = db.stats.snapshot()
        assert db.execute(
            "UPDATE lots SET owner = ? WHERE gid = ?", ("zed", 9)
        ).rowcount == 1
        after = db.stats.snapshot()
        assert _table_row(db, "lots")[0] == scans
        assert _table_row(db, "lots_gid")[1] == probes + 1
        assert after["index_probes"] == before["index_probes"] + 1
        assert after["rows_scanned"] == before["rows_scanned"] + 1
        assert db.execute(
            "SELECT owner FROM lots WHERE gid = 9"
        ).rows == [("zed",)]

    def test_update_that_changes_the_key(self):
        db = _db()
        db.execute("UPDATE lots SET gid = 100 WHERE gid IN (4, 5)")
        assert db.execute("SELECT COUNT(*) FROM lots WHERE gid = 4").scalar() \
            == 0
        assert db.execute(
            "SELECT owner FROM lots WHERE gid = 100 ORDER BY owner"
        ).rows == [("owner0",), ("owner1",)]
        db.execute("DELETE FROM lots WHERE gid = 100")
        assert db.execute(
            "SELECT COUNT(*) FROM lots WHERE gid = 100"
        ).scalar() == 0
        # vacuum left one entry per live row
        entry = db.catalog.key_indexes("lots")[0]
        assert len(entry.index) == db.execute(
            "SELECT COUNT(*) FROM lots"
        ).scalar() == 38

    def test_spatial_where_in_a_write_uses_the_spatial_index(self):
        db = _db()
        probes = _table_row(db, "lots_geom")[1]
        assert db.execute(
            "DELETE FROM lots WHERE ST_Intersects(geom, "
            "ST_MakeEnvelope(0, 0, 5.5, 5.5))"
        ).rowcount == 5
        assert _table_row(db, "lots_geom")[1] == probes + 1

    def test_rollback_restores_the_key_index(self):
        db = _db()
        entry = db.catalog.key_indexes("lots")[0]
        before = sorted(entry.index._map.items(), key=repr)
        db.execute("BEGIN")
        db.execute("UPDATE lots SET gid = gid + 1000 WHERE gid < 10")
        db.execute("INSERT INTO lots VALUES (7, 'new', 'z9', ST_Point(1, 1))")
        # the old gid 7 moved to 1007; the new row took its key
        assert db.execute(
            "SELECT owner FROM lots WHERE gid = 7"
        ).rows == [("new",)]
        db.execute("ROLLBACK")
        assert sorted(entry.index._map.items(), key=repr) == before
        assert db.execute(
            "SELECT owner FROM lots WHERE gid = 7"
        ).rows == [("owner3",)]

    def test_insert_maintains_the_index(self):
        db = _db()
        db.execute("INSERT INTO lots VALUES (500, 'x', 'z', ST_Point(3, 3))")
        db.execute("INSERT INTO lots VALUES (NULL, 'y', 'z', ST_Point(3, 3))")
        assert db.execute(
            "SELECT owner FROM lots WHERE gid = 500"
        ).rows == [("x",)]
        assert len(db.catalog.key_indexes("lots")[0].index) == 41


class TestDurability:
    def test_checkpoint_records_the_key_index(self, tmp_path):
        db = _db()
        db.execute("CREATE INDEX lots_owner_zone ON lots (owner, zone)")
        directory = str(tmp_path / "d")
        db.attach_storage(directory)
        db.close()
        with open(os.path.join(directory, WAL_FILE)) as handle:
            lines = handle.read().splitlines()
        checkpoint = json.loads(lines[-1].split(" ", 1)[1])
        by_name = {e["name"]: e for e in checkpoint["indexes"]}
        assert by_name["lots_gid"] == {
            "name": "lots_gid", "table": "lots", "kind": "hash",
            "columns": ["gid"],
        }
        assert by_name["lots_owner_zone"]["columns"] == ["owner", "zone"]
        assert by_name["lots_geom"]["column"] == "geom"
        again = Database.open(directory)
        assert "IndexLookup" in again.explain(
            "SELECT owner FROM lots WHERE gid = 3"
        )
        assert again.execute(
            "SELECT owner FROM lots WHERE gid = 3"
        ).rows == [("owner3",)]
        again.close()

    def test_ddl_and_writes_after_the_checkpoint_recover(self, tmp_path):
        db = _db(key=False)
        directory = str(tmp_path / "d")
        db.attach_storage(directory)
        db.execute("CREATE INDEX lots_gid ON lots (gid)")
        db.execute("UPDATE lots SET owner = 'moved', gid = 77 WHERE gid = 7")
        db.execute("DELETE FROM lots WHERE gid = 8")
        db.durability.crash()
        recovered, report = recover(directory)
        assert "lots_gid" in report.indexes
        assert recovered.catalog.key_indexes("lots")[0].columns == ("gid",)
        assert recovered.execute(
            "SELECT owner FROM lots WHERE gid = 77"
        ).rows == [("moved",)]
        assert recovered.execute(
            "SELECT COUNT(*) FROM lots WHERE gid IN (7, 8)"
        ).scalar() == 0
        assert len(recovered.catalog.key_indexes("lots")[0].index) == 39
        recovered.close()


def test_loader_declares_gid_key_indexes(tiny_dataset):
    db = Database("bluestem")
    tiny_dataset.load_into(db)
    for name in tiny_dataset.layers:
        entries = db.catalog.key_indexes(name)
        assert [(e.name, e.columns) for e in entries] == [
            (f"idx_{name}_gid", ("gid",))
        ]
    plain = Database("bluestem")
    tiny_dataset.load_into(plain, create_indexes=False)
    assert plain.catalog.indexes() == []
