"""Seeded op generators for the two macro workloads.

Frozen here (shapes copied once from ``repro.workload.mixes``) so a
refactor of the program's own drivers cannot change the benchmark. An op
is ``(kind, sql, params, pool_index)``; the program sees only ``sql`` and
``params``. Every stream is a pure function of its arguments.
"""

import random

from harness import DATA_SEED

WORLD = 100_000.0
TABLES = ("edges", "pointlm", "arealm")
_ENVELOPE = "WHERE ST_Intersects(geom, ST_MakeEnvelope(?, ?, ?, ?))"
#: map browsing fetches the features in a viewport, geometry included
FEATURE_SQL = {
    "edges": f"SELECT gid, fullname, geom FROM edges {_ENVELOPE}",
    "pointlm": f"SELECT gid, name, geom FROM pointlm {_ENVELOPE}",
    "arealm": f"SELECT gid, name, geom FROM arealm {_ENVELOPE}",
}
COUNT_SQL = {t: f"SELECT COUNT(*) FROM {t} {_ENVELOPE}" for t in TABLES}
POINT_SQL = (
    "SELECT COUNT(*) FROM counties WHERE ST_Contains(geom, ST_Point(?, ?))"
)
INSERT_SQL = "INSERT INTO pointlm VALUES (?, ?, ?, ?, ?)"
UPDATE_SQL = "UPDATE pointlm SET name = ? WHERE gid = ?"

READ_KINDS = ("edges_window", "pointlm_window", "arealm_window",
              "county_point")
POPULAR = 64
HOT_POOL = 8


def _window(rng):
    side = rng.uniform(0.01, 0.06) * WORLD
    x = rng.uniform(0.0, WORLD - side)
    y = rng.uniform(0.0, WORLD - side)
    return (x, y, x + side, y + side)


def _point_wkt(rng):
    # one decimal, so the harness's model holds exactly what was stored
    return f"POINT({rng.uniform(0.0, WORLD):.1f} {rng.uniform(0.0, WORLD):.1f})"


def _read(rng, window_sql, point_share, pool_index=-1):
    if rng.random() < point_share:
        params = (rng.uniform(0.0, WORLD), rng.uniform(0.0, WORLD))
        return ("county_point", POINT_SQL, params, pool_index)
    table = TABLES[rng.randrange(len(TABLES))]
    return (f"{table}_window", window_sql[table], _window(rng), pool_index)


def browse_pool():
    """The popular viewports: the same statements with the same
    parameters every time, which is what a result cache can hit. Which
    places are popular belongs to the map, so the pool follows the data
    seed, not the run's seed: its hottest entry takes an eighth of the
    pool's traffic, and a pool redrawn per seed moves every latency
    metric by a tenth."""
    rng = random.Random(f"{DATA_SEED}:browse:pool")
    return [_read(rng, FEATURE_SQL, 0.3, i) for i in range(POPULAR)]


def browse_fresh(client, count):
    """The viewports nobody asked for before, one list per connection.
    What a miss costs depends on where it lands (the 95th percentile
    of a block moved by a fifth from one random draw to the next), so
    like the pool these places are drawn once, from the data seed;
    :func:`browse_stream` moves them by under a metre per block and run
    seed, which makes each a statement the cache has never seen."""
    rng = random.Random(f"{DATA_SEED}:browse:fresh:{client}")
    return [_read(rng, FEATURE_SQL, 0.3) for _ in range(count)]


def _moved(op, dx, dy):
    kind, sql, params, pool_index = op
    moved = tuple(v + (dx, dy)[i % 2] for i, v in enumerate(params))
    return (kind, sql, moved, pool_index)


def browse_stream(seed, block, client, count, pool):
    """85 % popular pool with quadratic skew, 13 % fresh viewports, 2 %
    inserts into ``pointlm`` (which move its write watermark, so cached
    ``pointlm`` viewports go stale).

    Every block holds the same work — the popular draws are the skew's
    quantiles, not samples of it, and the fresh viewports are
    :func:`browse_fresh`'s — so blocks and runs differ in what the seed
    decides: the order of the ops (which reads fall between two
    inserts), the sub-metre offset of the fresh viewports, and where the
    inserted points lie.
    """
    rng = random.Random(f"{seed}:browse:{block}:{client}")
    popular = round(0.85 * count)
    inserts = round(0.02 * count)
    ops = [pool[int(len(pool) * ((k + 0.5) / popular) ** 2)]
           for k in range(popular)]
    dx, dy = rng.random(), rng.random()
    ops += [_moved(op, dx, dy)
            for op in browse_fresh(client, count - popular - inserts)]
    for k in range(inserts):
        gid = 20_000_000 + client * 5_000_000 + block * 20_000 + k
        ops.append(("insert", INSERT_SQL,
                    (gid, f"browse-{gid}", "workload", "000",
                     _point_wkt(rng)), -1))
    rng.shuffle(ops)
    return ops


def mixed_stream(seed, block, count, hot_gids, max_gid):
    """80 % window and point reads, 20 % single-statement write
    transactions on ``pointlm``: 70 % updates by gid (half from the hot
    pool, half uniform over the table), 30 % inserts."""
    rng = random.Random(f"{seed}:mixed:{block}")
    ops = []
    for position in range(count):
        if rng.random() >= 0.2:
            ops.append(_read(rng, COUNT_SQL, 0.25))
            continue
        roll = rng.random()
        if roll < 0.35:
            gid = hot_gids[rng.randrange(len(hot_gids))]
            ops.append(("update_hot", UPDATE_SQL,
                        (f"b{block}-{position}", gid), -1))
        elif roll < 0.7:
            ops.append(("update_uniform", UPDATE_SQL,
                        (f"b{block}-{position}", rng.randint(1, max_gid)),
                        -1))
        else:
            gid = 10_000_000 + (block + 1) * 20_000 + position
            ops.append(("insert", INSERT_SQL,
                        (gid, f"mixed-{gid}", "workload", "000",
                         _point_wkt(rng)), -1))
    return ops
