"""Layer probes: calls into the program's public entry points at
successive depths, timed from outside.

Every function here is called through :class:`harness.Probes.run` (or
inside a traced replay that is itself wrapped), so a moved or renamed
entry point turns into an unavailable metric, never a failed run.
"""

import time

from harness import time_calls
from workloads.statements import Join


class LayerTables:
    """The generated layers as plain rows, plus an envelope index per
    table built through ``SpatialIndex.bulk_load`` — the benchmark's own
    copy, so index probes never reach into the engine's catalog."""

    def __init__(self, dataset, index_kind):
        from repro.index import INDEX_KINDS

        self.rows = {}
        self.columns = {}
        self.geom_at = {}
        self.indexes = {}
        self.build_seconds = {}
        index_class = INDEX_KINDS[index_kind]
        for name, layer in dataset.layers.items():
            rows = list(layer.rows)
            at = layer.columns.index(layer.geometry_column)
            self.rows[name] = rows
            self.columns[name] = layer.columns
            self.geom_at[name] = at
            items = [(i, row[at].envelope) for i, row in enumerate(rows)]
            start = time.perf_counter()
            self.indexes[name] = index_class.bulk_load(items)
            self.build_seconds[name] = time.perf_counter() - start

    def column(self, table, name):
        return self.columns[table].index(name)

    def geoms(self, table):
        at = self.geom_at[table]
        return [row[at] for row in self.rows[table]]


def refine_span(profile):
    """Exact profiles refine in ``repro.algorithms``; the MBR-only
    profile compares envelopes inside ``repro.engines.profiles``."""
    return "algorithms.refine" if profile.exact else "engines.mbr_predicate"


def window_polygon(box):
    from repro.geometry import wkt

    x0, y0, x1, y1 = box
    return wkt.loads(
        f"POLYGON(({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))"
    )


def replay_window(tracer, parent, op, tables, profile, table, pred, box):
    """Filter and refine steps of one window read: ``SpatialIndex.search``
    then the profile's predicate over the candidates. Returns the
    candidate count."""
    from repro.geometry.base import Envelope

    polygon = window_polygon(box)
    envelope = Envelope(*box)
    index = tables.indexes[table]
    ids, _sid, _s = tracer.call(
        "index.search", parent, op, index.search, envelope
    )
    at = tables.geom_at[table]
    rows = tables.rows[table]
    evaluate = profile.evaluate_predicate

    def refine():
        for i in ids:
            evaluate(pred, rows[i][at], polygon)

    tracer.call(refine_span(profile), parent, op, refine)
    return len(ids)


def replay_point(tracer, parent, op, tables, profile, table, pred, x, y):
    """A point probe: index search at the point, predicate(row, point)."""
    from repro.geometry.base import Envelope
    from repro.geometry.point import Point

    point = Point(x, y)
    index = tables.indexes[table]
    ids, _sid, _s = tracer.call(
        "index.search", parent, op, index.search, Envelope(x, y, x, y)
    )
    at = tables.geom_at[table]
    rows = tables.rows[table]
    evaluate = profile.evaluate_predicate

    def refine():
        for i in ids:
            evaluate(pred, rows[i][at], point)

    tracer.call(refine_span(profile), parent, op, refine)
    return len(ids)


def _left_rows(tables, fact):
    rows = tables.rows[fact.left]
    left_eq = fact.left_eq
    if left_eq is None:
        return list(range(len(rows)))
    at = tables.column(fact.left, left_eq[0])
    return [i for i, row in enumerate(rows) if row[at] == left_eq[1]]


def _pair_filter(tables, fact):
    pair = fact.pair
    if pair is None:
        return None
    left, right = tables.rows[fact.left], tables.rows[fact.right]
    gid = tables.column(fact.left, "gid")
    if pair == "gid_lt":
        return lambda i, j: left[i][gid] < right[j][gid]
    name = tables.column(fact.left, "fullname")
    fips = tables.column(fact.left, "county_fips")
    return lambda i, j: (
        left[i][gid] < right[j][gid]
        and left[i][name] == right[j][name]
        and left[i][fips] == right[j][fips]
    )


def join_candidates(tracer, parent, op, tables, fact):
    """Candidate (left, right) row-index pairs of a join statement, the
    envelope filter timed as an ``index`` span."""
    lefts = _left_rows(tables, fact)
    n_right = len(tables.rows[fact.right])
    if not fact.indexed:
        return [(i, j) for i in lefts for j in range(n_right)]
    if fact.pair == "same_street":
        # planned as a hash join on the street name: no envelope filter
        rows = tables.rows[fact.left]
        name = tables.column(fact.left, "fullname")
        fips = tables.column(fact.left, "county_fips")
        groups = {}
        for i, row in enumerate(rows):
            groups.setdefault((row[name], row[fips]), []).append(i)
        return [
            (i, j) for members in groups.values()
            for i in members for j in members
        ]
    left_index = tables.indexes[fact.left]
    right_index = tables.indexes[fact.right]
    if len(lefts) == len(tables.rows[fact.left]):
        pairs, _sid, _s = tracer.call(
            "index.join", parent, op,
            lambda: list(left_index.join(right_index)),
        )
        return pairs
    at = tables.geom_at[fact.left]
    rows = tables.rows[fact.left]
    search = right_index.search

    def probe():
        return [(i, j) for i in lefts for j in search(rows[i][at].envelope)]

    pairs, _sid, _s = tracer.call("index.search", parent, op, probe)
    return pairs


def replay_join(tracer, parent, op, tables, profile, fact, refine_first):
    """Filter, then refinement of one J-T1 join from outside. The cheap
    pair condition runs before the predicate unless the engine's plan
    refines first (tree and partition joins do)."""
    pairs = join_candidates(tracer, parent, op, tables, fact)
    keep = _pair_filter(tables, fact)
    if keep is not None and not refine_first:
        pairs = [(i, j) for i, j in pairs if keep(i, j)]
    left_at, right_at = tables.geom_at[fact.left], tables.geom_at[fact.right]
    left, right = tables.rows[fact.left], tables.rows[fact.right]
    evaluate = profile.evaluate_predicate
    pred = fact.pred

    def refine():
        return [
            (i, j) for i, j in pairs
            if evaluate(pred, left[i][left_at], right[j][right_at])
        ]

    kept, _sid, _s = tracer.call(refine_span(profile), parent, op, refine)
    return len(pairs), kept


def replay_overlay(tracer, parent, op, tables, profile, fact):
    import repro.algorithms as algorithms

    _n, kept = replay_join(tracer, parent, op, tables, profile,
                           Join(fact.left, fact.right, fact.pred), True)
    operation = getattr(algorithms, fact.op)
    left_at, right_at = tables.geom_at[fact.left], tables.geom_at[fact.right]
    left, right = tables.rows[fact.left], tables.rows[fact.right]

    def overlay():
        for i, j in kept:
            operation(left[i][left_at], right[j][right_at])

    tracer.call("algorithms.overlay", parent, op, overlay)
    return len(kept)


def replay_buffer(tracer, parent, op, tables, fact):
    from repro.algorithms import buffer

    rows = tables.rows[fact.table]
    column, value = fact.where
    if column == "gid_le":
        at = tables.column(fact.table, "gid")
        chosen = [row for row in rows if row[at] <= value]
    else:
        at = tables.column(fact.table, column)
        chosen = [row for row in rows if row[at] == value]
    geom_at = tables.geom_at[fact.table]

    def run():
        for row in chosen:
            buffer(row[geom_at], fact.radius, fact.quad_segs)

    tracer.call("algorithms.buffer", parent, op, run)
    return len(chosen)


# -- standalone probes (costs that caches keep off the steady-state path) -----


def sql_front_end(db, statements):
    """``repro.sql.parse`` and ``Planner.plan_select`` per distinct
    statement text."""
    from repro.sql import parse
    from repro.sql.planner import Planner

    planner = Planner(db.catalog, db.registry, db.profile)
    parse_s = time_calls(parse, statements, repeat=3)
    selects = [s for s in (parse(sql) for sql in statements)
               if type(s).__name__ == "Select"]
    plan_s = time_calls(planner.plan_select, selects, repeat=3)
    return {"sql.parse_us": parse_s * 1e6, "sql.plan_us": plan_s * 1e6}


def wkt_round_trip(tables, table="arealm", limit=400):
    from repro.geometry import wkt

    geoms = tables.geoms(table)[:limit]
    format_s = time_calls(wkt.dumps, geoms, repeat=3)
    texts = [wkt.dumps(g) for g in geoms]
    parse_s = time_calls(wkt.loads, texts, repeat=3)
    return {
        "geometry.wkt_format_us": format_s * 1e6,
        "geometry.wkt_parse_us": parse_s * 1e6,
    }


def index_direct(tables, windows, left="counties", right="areawater"):
    """``SpatialIndex.search`` over the workload's windows on the edges
    index, ``.join`` between two layer indexes, and the bulk-load time
    of every layer's envelopes."""
    from repro.geometry.base import Envelope

    envelopes = [Envelope(*box) for box in windows]
    search_s = time_calls(tables.indexes["edges"].search, envelopes, repeat=5)
    start = time.perf_counter()
    pairs = sum(1 for _ in tables.indexes[left].join(tables.indexes[right]))
    join_s = time.perf_counter() - start
    return {
        "index.search_us": search_s * 1e6,
        "index.join_us": join_s / max(pairs, 1) * 1e6,
        "index.build_s": sum(tables.build_seconds.values()),
    }


def empty_transactions(connection, count=300):
    """An empty ``BEGIN``/``COMMIT`` pair through the DB-API."""
    cursor = connection.cursor()
    start = time.perf_counter()
    for _ in range(count):
        cursor.execute("BEGIN")
        connection.commit()
    return {
        "txn.begin_commit_us": (time.perf_counter() - start) / count * 1e6
    }


def stats_delta(after, before):
    return {key: after[key] - before.get(key, 0) for key in after}


def sql_ratios(delta, results):
    lookups = delta["plan_cache_hits"] + delta["plan_cache_misses"]
    return {
        "sql.plan_cache_hit_ratio":
            delta["plan_cache_hits"] / lookups if lookups else 0.0,
        "sql.rows_scanned_per_result":
            delta["rows_scanned"] / max(results, 1),
    }
