"""Unit tests for compiled expression semantics: three-valued logic,
NULL propagation, LIKE, the envelope operator, function caching, and
plan-operator behaviours not covered by the end-to-end SQL tests."""

import pytest

from repro.engines import Database
from repro.errors import SqlPlanError


@pytest.fixture
def db():
    database = Database("greenwood")
    database.execute("CREATE TABLE v (i INTEGER, r REAL, s TEXT, g GEOMETRY)")
    database.execute(
        "INSERT INTO v VALUES "
        "(1, 1.5, 'abc', ST_Point(0, 0)), "
        "(2, NULL, 'a%c', NULL), "
        "(NULL, 2.5, NULL, ST_Point(5, 5))"
    )
    return database


def scalar(db, expr, where=None):
    sql = f"SELECT {expr}"
    if where:
        sql += f" FROM v WHERE {where}"
    result = db.execute(sql)
    return result.rows[0][0] if result.rows else None


class TestNullSemantics:
    def test_arithmetic_propagates_null(self, db):
        assert scalar(db, "1 + NULL") is None
        assert scalar(db, "NULL * 3") is None
        assert scalar(db, "-i", "i IS NULL AND r = 2.5") is None

    def test_comparison_with_null_is_unknown(self, db):
        # WHERE NULL = NULL keeps no rows
        got = db.execute("SELECT COUNT(*) FROM v WHERE i = NULL")
        assert got.scalar() == 0

    def test_three_valued_and(self, db):
        # false AND unknown = false; true AND unknown = unknown (filtered)
        got = db.execute("SELECT COUNT(*) FROM v WHERE i = 1 AND r = NULL")
        assert got.scalar() == 0
        got = db.execute(
            "SELECT COUNT(*) FROM v WHERE 1 = 2 AND r = NULL"
        )
        assert got.scalar() == 0

    def test_three_valued_or(self, db):
        # true OR unknown = true
        got = db.execute("SELECT COUNT(*) FROM v WHERE i = 1 OR r = NULL")
        assert got.scalar() == 1

    def test_not_null_is_null(self, db):
        got = db.execute("SELECT COUNT(*) FROM v WHERE NOT (r = NULL)")
        assert got.scalar() == 0

    def test_concat_null(self, db):
        assert scalar(db, "'a' || NULL") is None


#: SQL three-valued logic, None standing for NULL
_TRUTH = (True, False, None)


def _sql_and(a, b):
    if a is False or b is False:
        return False
    return None if a is None or b is None else True


def _sql_or(a, b):
    if a is True or b is True:
        return True
    return None if a is None or b is None else False


@pytest.fixture
def truth_db():
    """One row per (l, r) pair of truth values, as 1 / 0 / NULL."""
    database = Database("greenwood")
    database.execute("CREATE TABLE tv (id INTEGER, l INTEGER, r INTEGER)")
    as_int = {True: 1, False: 0, None: None}
    database.insert_rows("tv", [
        (n, as_int[a], as_int[b])
        for n, (a, b) in enumerate((a, b) for a in _TRUTH for b in _TRUTH)
    ])
    return database


class TestShortCircuit:
    """The compiled AND/OR evaluate their right side only where the left
    side has not decided the row, without changing any result."""

    def test_truth_table_in_one_batch(self, truth_db):
        got = truth_db.execute(
            "SELECT l = 1 AND r = 1, l = 1 OR r = 1, "
            "r = 1 AND l = 1, r = 1 OR l = 1 FROM tv ORDER BY id"
        ).rows
        pairs = [(a, b) for a in _TRUTH for b in _TRUTH]
        assert got == [
            (_sql_and(a, b), _sql_or(a, b), _sql_and(b, a), _sql_or(b, a))
            for a, b in pairs
        ]

    @pytest.mark.parametrize("a", _TRUTH)
    @pytest.mark.parametrize("b", _TRUTH)
    def test_truth_table_of_literals(self, db, a, b):
        text = {True: "TRUE", False: "FALSE", None: "NULL"}
        assert scalar(db, f"{text[a]} AND {text[b]}") is _sql_and(a, b)
        assert scalar(db, f"{text[a]} OR {text[b]}") is _sql_or(a, b)

    def _spy(self, database):
        seen = []

        def spy(value):
            seen.append(value)
            return True

        database.registry.register("spy", spy)
        return seen

    def test_and_skips_rows_the_left_side_rejected(self, truth_db):
        seen = self._spy(truth_db)
        got = truth_db.execute(
            "SELECT id, (l = 1) AND spy(id) FROM tv ORDER BY id"
        ).rows
        # l = 1 is False on ids 3-5 (l = 0): spy never sees them
        assert sorted(seen) == [0, 1, 2, 6, 7, 8]
        assert [v for _id, v in got] == [
            True, True, True, False, False, False, None, None, None
        ]

    def test_or_skips_rows_the_left_side_accepted(self, truth_db):
        seen = self._spy(truth_db)
        truth_db.execute("SELECT (l = 1) OR spy(id) FROM tv")
        assert sorted(seen) == [3, 4, 5, 6, 7, 8]

    def test_where_runs_cheap_conjuncts_before_a_function(self, truth_db):
        seen = self._spy(truth_db)
        got = truth_db.execute(
            "SELECT COUNT(*) FROM tv WHERE spy(id) AND l = 1 AND r = 0"
        )
        assert got.scalar() == 1
        # the planner ranks both comparisons before the call, which then
        # sees only the rows they left undecided: True (1) or NULL
        assert seen == [1, 2, 7, 8]

    def test_spatial_conjunct_first_or_last_same_rows(self):
        database = Database("greenwood")
        database.execute("CREATE TABLE p (id INTEGER, k INTEGER, g GEOMETRY)")
        database.insert_rows("p", [
            (i, None if i % 5 == 0 else i % 3, f"POINT({i} {i % 7})")
            for i in range(40)
        ])
        window = "ST_MakeEnvelope(5, 0, 30, 4)"
        first = database.execute(
            f"SELECT id FROM p WHERE ST_Intersects(g, {window}) "
            "AND k = 1 AND id > 3 ORDER BY id"
        ).rows
        last = database.execute(
            f"SELECT id FROM p WHERE k = 1 AND id > 3 "
            f"AND ST_Intersects(g, {window}) ORDER BY id"
        ).rows
        assert first == last
        assert first == [
            (i,) for i in range(5, 31)
            if i % 5 and i % 3 == 1 and i % 7 <= 4
        ]


class TestTypedArithmeticErrors:
    """A failing operator is a statement error like any other: a typed
    :class:`SqlPlanError` (wire code ``sql``) that aborts the session's
    open transaction."""

    @pytest.mark.parametrize("expr", [
        "10 / i", "10 % i", "s + 1", "s < 1", "-s", "1 - s",
    ])
    def test_operator_raises_the_typed_error(self, db, expr):
        db.execute("INSERT INTO v VALUES (0, 0.0, 'zero', NULL)")
        with pytest.raises(SqlPlanError):
            db.execute(f"SELECT {expr} FROM v WHERE i = 0")

    def test_a_failed_statement_rolls_its_transaction_back(self, db):
        from repro.txn import Session

        session = Session()
        db.execute("INSERT INTO v VALUES (0, 0.0, 'zero', NULL)")
        db.execute("BEGIN", session=session)
        db.execute("INSERT INTO v VALUES (7, 7.0, 'seven', NULL)",
                   session=session)
        with pytest.raises(SqlPlanError):
            db.execute("UPDATE v SET i = 10 / i", session=session)
        assert session.txn is None
        db.execute("COMMIT", session=session)
        assert db.execute("SELECT COUNT(*) FROM v WHERE i = 7").scalar() == 0
        assert db.execute("SELECT COUNT(*) FROM v WHERE i = 0").scalar() == 1

    def test_the_wire_code_is_sql(self, db):
        from repro.service.protocol import error_code

        with pytest.raises(SqlPlanError) as caught:
            db.execute("SELECT 1 % 0")
        assert error_code(caught.value) == "sql"


class TestLike:
    def test_percent(self, db):
        assert scalar(db, "'hello' LIKE 'he%'") is True
        assert scalar(db, "'hello' LIKE '%lo'") is True
        assert scalar(db, "'hello' LIKE '%ell%'") is True
        assert scalar(db, "'hello' LIKE 'he'") is False

    def test_underscore(self, db):
        assert scalar(db, "'cat' LIKE 'c_t'") is True
        assert scalar(db, "'cart' LIKE 'c_t'") is False

    def test_case_insensitive(self, db):
        assert scalar(db, "'HELLO' LIKE 'hello'") is True

    def test_regex_chars_escaped(self, db):
        assert scalar(db, "'a.c' LIKE 'a.c'") is True
        assert scalar(db, "'abc' LIKE 'a.c'") is False

    def test_not_like(self, db):
        assert scalar(db, "'abc' NOT LIKE 'x%'") is True


class TestEnvelopeOperator:
    def test_overlapping(self, db):
        assert scalar(
            db,
            "ST_MakeEnvelope(0,0,2,2) && ST_MakeEnvelope(1,1,3,3)",
        ) is True

    def test_disjoint(self, db):
        assert scalar(
            db,
            "ST_MakeEnvelope(0,0,1,1) && ST_MakeEnvelope(5,5,6,6)",
        ) is False

    def test_null_operand(self, db):
        got = db.execute("SELECT COUNT(*) FROM v WHERE g && ST_Point(0, 0)")
        assert got.scalar() == 1  # NULL geometry row filtered out

    def test_non_geometry_rejected(self, db):
        with pytest.raises(SqlPlanError):
            db.execute("SELECT 1 && 2")


class TestFunctionCache:
    def test_expensive_function_computed_once_per_argument(self, db):
        # same ST_Buffer on the same river geometry across a join: the
        # per-statement memo must collapse it to one computation
        db.execute("CREATE TABLE line (lid INTEGER, g GEOMETRY)")
        db.execute(
            "INSERT INTO line VALUES "
            "(1, ST_GeomFromText('LINESTRING(0 0, 100 0, 200 50)'))"
        )
        db.execute("CREATE TABLE pts (pid INTEGER, g GEOMETRY)")
        rows = ", ".join(f"({i}, ST_Point({i * 10}, 1))" for i in range(30))
        db.execute(f"INSERT INTO pts VALUES {rows}")

        calls = []
        registry = db.registry
        original_impl = registry.lookup("st_buffer")

        def counted_impl(g, r, qs=8):
            calls.append(1)
            return original_impl(g, r, qs)

        registry.register("st_buffer", counted_impl)
        try:
            db.execute(
                "SELECT COUNT(*) FROM line l JOIN pts p "
                "ON ST_Intersects(p.g, ST_Buffer(l.g, 5, 4))"
            )
        finally:
            registry.register("st_buffer", original_impl)
        assert len(calls) == 1

    def test_cache_does_not_leak_between_statements(self, db):
        first = db.execute("SELECT ST_Area(ST_Buffer(ST_Point(0,0), 10))")
        second = db.execute("SELECT ST_Area(ST_Buffer(ST_Point(0,0), 10))")
        assert first.scalar() == second.scalar()


class TestPlanShapes:
    def test_explain_filter_refine(self, db):
        db.execute("CREATE TABLE geoms (g GEOMETRY)")
        db.execute("INSERT INTO geoms VALUES (ST_Point(1, 1))")
        db.execute("CREATE SPATIAL INDEX gx ON geoms (g)")
        plan = db.explain(
            "SELECT COUNT(*) FROM geoms "
            "WHERE ST_Intersects(g, ST_MakeEnvelope(0, 0, 2, 2))"
        )
        # filter step (IndexScan) below, refinement (Filter) above
        assert plan.index("Filter") < plan.index("IndexScan")

    def test_limit_rejects_bad_values(self, db):
        with pytest.raises(SqlPlanError):
            db.execute("SELECT i FROM v LIMIT ?", (-1,))
        with pytest.raises(SqlPlanError):
            db.execute("SELECT i FROM v LIMIT ?", ("ten",))

    def test_between_and_in_null(self, db):
        assert scalar(db, "NULL BETWEEN 1 AND 2") is None
        assert scalar(db, "NULL IN (1, 2)") is None

    def test_order_by_mixed_types_stable(self, db):
        got = db.execute("SELECT s FROM v ORDER BY s")
        # strings lexicographically, then NULL last (as in PostgreSQL)
        assert got.rows == [("a%c",), ("abc",), (None,)]

    def test_params_out_of_range(self, db):
        with pytest.raises(IndexError):
            db.execute("SELECT ? ", ())
