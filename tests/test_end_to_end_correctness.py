"""End-to-end answer validation: SQL results against brute-force
recomputation with direct geometry-API calls over the same dataset.

This closes the loop between the two halves of the stack — if the
planner, executor, indexes or profiles ever corrupt an answer, these
tests catch it with an independently computed ground truth.
"""

import pytest

from repro.algorithms import contains, crosses, intersects, touches, within
from repro.dbapi import connect
from repro.engines import Database


def _rows(dataset, layer):
    lay = dataset.layer(layer)
    gidx = lay.columns.index("geom")
    return [(row, row[gidx]) for row in lay.rows]


class TestJoinAnswers:
    def test_point_in_polygon_join(self, greenwood_conn, small_dataset):
        cur = greenwood_conn.cursor()
        cur.execute(
            "SELECT COUNT(*) FROM counties c JOIN pointlm p "
            "ON ST_Contains(c.geom, p.geom)"
        )
        got = cur.fetchone()[0]
        counties = [g for _r, g in _rows(small_dataset, "counties")]
        points = [g for _r, g in _rows(small_dataset, "pointlm")]
        expected = sum(
            1 for c in counties for p in points if contains(c, p)
        )
        assert got == expected

    def test_line_polygon_intersects_join(self, greenwood_conn, small_dataset):
        cur = greenwood_conn.cursor()
        cur.execute(
            "SELECT COUNT(*) FROM rivers r JOIN counties c "
            "ON ST_Intersects(r.geom, c.geom)"
        )
        got = cur.fetchone()[0]
        rivers = [g for _r, g in _rows(small_dataset, "rivers")]
        counties = [g for _r, g in _rows(small_dataset, "counties")]
        expected = sum(
            1 for r in rivers for c in counties if intersects(r, c)
        )
        assert got == expected

    def test_touches_join(self, greenwood_conn, small_dataset):
        cur = greenwood_conn.cursor()
        cur.execute(
            "SELECT COUNT(*) FROM counties a JOIN counties b "
            "ON ST_Touches(a.geom, b.geom) WHERE a.gid < b.gid"
        )
        got = cur.fetchone()[0]
        counties = [g for _r, g in _rows(small_dataset, "counties")]
        expected = sum(
            1
            for i in range(len(counties))
            for j in range(i + 1, len(counties))
            if touches(counties[i], counties[j])
        )
        assert got == expected

    def test_crosses_join(self, greenwood_conn, small_dataset):
        cur = greenwood_conn.cursor()
        cur.execute(
            "SELECT COUNT(*) FROM rivers r JOIN counties c "
            "ON ST_Crosses(r.geom, c.geom)"
        )
        got = cur.fetchone()[0]
        rivers = [g for _r, g in _rows(small_dataset, "rivers")]
        counties = [g for _r, g in _rows(small_dataset, "counties")]
        expected = sum(
            1 for r in rivers for c in counties if crosses(r, c)
        )
        assert got == expected


class TestWindowAnswers:
    WINDOW = (20000.0, 20000.0, 40000.0, 40000.0)

    def test_window_query(self, greenwood_conn, small_dataset):
        from repro.geometry import Polygon

        x1, y1, x2, y2 = self.WINDOW
        window = Polygon([(x1, y1), (x2, y1), (x2, y2), (x1, y2)])
        cur = greenwood_conn.cursor()
        cur.execute(
            f"SELECT COUNT(*) FROM edges "
            f"WHERE ST_Intersects(geom, ST_MakeEnvelope({x1}, {y1}, {x2}, {y2}))"
        )
        got = cur.fetchone()[0]
        edges = [g for _r, g in _rows(small_dataset, "edges")]
        expected = sum(1 for e in edges if intersects(e, window))
        assert got == expected

    def test_within_window(self, greenwood_conn, small_dataset):
        from repro.geometry import Polygon

        x1, y1, x2, y2 = self.WINDOW
        window = Polygon([(x1, y1), (x2, y1), (x2, y2), (x1, y2)])
        cur = greenwood_conn.cursor()
        cur.execute(
            f"SELECT COUNT(*) FROM arealm "
            f"WHERE ST_Within(geom, ST_MakeEnvelope({x1}, {y1}, {x2}, {y2}))"
        )
        got = cur.fetchone()[0]
        landmarks = [g for _r, g in _rows(small_dataset, "arealm")]
        expected = sum(1 for a in landmarks if within(a, window))
        assert got == expected

    @pytest.mark.parametrize("engine", ["greenwood", "bluestem", "ironbark"])
    def test_landmark_windows_equal_a_box_count(self, engine, small_dataset):
        """A known truth, computed without any kernel: the landmarks a
        window holds, counted over the generator's coordinates. Each window
        has two landmarks for corners, so its edges pass exactly through
        landmark coordinates; a point on an edge intersects the window and
        is not within it."""
        db = Database(engine)
        small_dataset.load_into(db, create_indexes=True)
        points = [g.coord for _r, g in _rows(small_dataset, "pointlm")]
        on_edges = windows = 0
        for i in range(0, len(points) - 40, 23):
            windows += 1
            (ax, ay), (bx, by) = points[i], points[i + 40]
            x0, x1, y0, y1 = min(ax, bx), max(ax, bx), min(ay, by), max(ay, by)
            closed = sum(x0 <= x <= x1 and y0 <= y <= y1 for x, y in points)
            inside = sum(x0 < x < x1 and y0 < y < y1 for x, y in points)
            on_edges += closed - inside
            for predicate, expected in (
                ("ST_Intersects", closed),
                # bluestem answers on bounding boxes: a point on an edge is
                # within the window's box
                ("ST_Within", closed if engine == "bluestem" else inside),
            ):
                got = db.execute(
                    f"SELECT COUNT(*) FROM pointlm WHERE "
                    f"{predicate}(geom, ST_MakeEnvelope(?, ?, ?, ?))",
                    (x0, y0, x1, y1),
                ).rows[0][0]
                assert got == expected, (predicate, x0, y0, x1, y1)
        assert windows >= 5 and on_edges >= 2 * windows  # two corners each


class TestAggregateAnswers:
    def test_total_area(self, greenwood_conn, small_dataset):
        cur = greenwood_conn.cursor()
        cur.execute("SELECT SUM(ST_Area(geom)) FROM arealm")
        got = cur.fetchone()[0]
        expected = sum(g.area() for _r, g in _rows(small_dataset, "arealm"))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_total_length(self, greenwood_conn, small_dataset):
        cur = greenwood_conn.cursor()
        cur.execute("SELECT SUM(ST_Length(geom)) FROM edges")
        got = cur.fetchone()[0]
        expected = sum(g.length() for _r, g in _rows(small_dataset, "edges"))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_group_by_county(self, greenwood_conn, small_dataset):
        cur = greenwood_conn.cursor()
        cur.execute(
            "SELECT county_fips, COUNT(*) FROM pointlm "
            "GROUP BY county_fips ORDER BY county_fips"
        )
        got = dict(cur.fetchall())
        lay = small_dataset.layer("pointlm")
        fips_i = lay.columns.index("county_fips")
        expected = {}
        for row in lay.rows:
            expected[row[fips_i]] = expected.get(row[fips_i], 0) + 1
        assert got == expected
