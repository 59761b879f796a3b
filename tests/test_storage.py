"""Unit tests for heap tables and the catalog."""

import pytest

from repro.errors import EngineError, SqlPlanError
from repro.geometry import Point
from repro.index import RTree
from repro.storage import Catalog, Column, ColumnType, IndexEntry, Table


def _make_table():
    return Table(
        "t",
        [
            Column("id", ColumnType.INTEGER),
            Column("name", ColumnType.TEXT),
            Column("score", ColumnType.REAL),
            Column("geom", ColumnType.GEOMETRY),
        ],
    )


class TestColumnType:
    def test_aliases(self):
        assert ColumnType.parse("int") is ColumnType.INTEGER
        assert ColumnType.parse("VARCHAR") is ColumnType.TEXT
        assert ColumnType.parse("Double") is ColumnType.REAL
        assert ColumnType.parse("GEOMETRY") is ColumnType.GEOMETRY

    def test_unknown(self):
        with pytest.raises(SqlPlanError):
            ColumnType.parse("blob")


class TestTable:
    def test_insert_and_scan(self):
        table = _make_table()
        table.insert_rows([(1, "a", 2.5, Point(0, 0))])
        table.insert_rows([(2, "b", None, None)])
        assert len(table) == 2
        assert [row_id for row_id, _r in table.scan()] == [0, 1]

    def test_coercion_int_from_float(self):
        table = _make_table()
        rid = table.insert_rows([(3.0, "x", 1, None)])
        assert table.get_row(rid)[0] == 3
        assert table.get_row(rid)[2] == 1.0

    def test_coercion_geometry_from_wkt(self):
        table = _make_table()
        rid = table.insert_rows([(1, "x", None, "POINT (5 6)")])
        assert table.get_row(rid)[3] == Point(5, 6)

    def test_coercion_geometry_from_wkb(self):
        table = _make_table()
        rid = table.insert_rows([(1, "x", None, Point(7, 8).wkb())])
        assert table.get_row(rid)[3] == Point(7, 8)

    def test_bad_types_rejected(self):
        table = _make_table()
        with pytest.raises(EngineError):
            table.insert_rows([("nope", "a", 1.0, None)])
        with pytest.raises(EngineError):
            table.insert_rows([(1, 42, 1.0, None)])
        with pytest.raises(EngineError):
            table.insert_rows([(1, "a", "fast", None)])
        with pytest.raises(EngineError):
            table.insert_rows([(1, "a", 1.0, 12345)])

    def test_wrong_arity(self):
        with pytest.raises(EngineError):
            _make_table().insert_rows([(1, "a")])

    def test_delete_and_tombstones(self):
        table = _make_table()
        rid = table.insert_rows([(1, "a", None, None)])
        table.insert_rows([(2, "b", None, None)])
        table.delete_row(rid)
        assert len(table) == 1
        assert [r[0] for _id, r in table.scan()] == [2]
        with pytest.raises(EngineError):
            table.get_row(rid)
        with pytest.raises(EngineError):
            table.delete_row(rid)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SqlPlanError):
            Table("t", [Column("x", ColumnType.INTEGER),
                        Column("X", ColumnType.TEXT)])

    def test_column_lookup_case_insensitive(self):
        table = _make_table()
        assert table.column_index("NAME") == 1
        with pytest.raises(SqlPlanError):
            table.column_index("missing")

    def test_geometry_columns(self):
        assert _make_table().geometry_columns() == ["geom"]

    def test_pages(self):
        table = _make_table()
        for i in range(Table.ROWS_PER_PAGE + 1):
            table.insert_rows([(i, "x", None, None)])
        assert table.page_count == 2
        assert table.page_of(0) == 0
        assert table.page_of(Table.ROWS_PER_PAGE) == 1


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        catalog.create_table("a", [Column("x", ColumnType.INTEGER)])
        assert catalog.has_table("A")
        assert catalog.table("a").name == "a"

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.create_table("a", [Column("x", ColumnType.INTEGER)])
        with pytest.raises(SqlPlanError):
            catalog.create_table("A", [Column("x", ColumnType.INTEGER)])

    def test_drop_cascades_indexes(self):
        catalog = Catalog()
        catalog.create_table("a", [Column("g", ColumnType.GEOMETRY)])
        catalog.register_index(IndexEntry("idx", "a", "g", RTree()))
        catalog.drop_table("a")
        assert catalog.index_for("a", "g") is None

    def test_index_registry(self):
        catalog = Catalog()
        catalog.create_table("a", [Column("g", ColumnType.GEOMETRY)])
        entry = IndexEntry("idx", "a", "g", RTree())
        catalog.register_index(entry)
        assert catalog.index_for("A", "G") is entry
        with pytest.raises(SqlPlanError):
            catalog.register_index(IndexEntry("idx", "a", "g", RTree()))
        catalog.drop_index("idx")
        assert catalog.index_for("a", "g") is None

    def test_drop_missing_index(self):
        catalog = Catalog()
        with pytest.raises(SqlPlanError):
            catalog.drop_index("nope")
        catalog.drop_index("nope", if_exists=True)
