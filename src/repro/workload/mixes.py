"""Workload mixes: the operation streams the concurrent driver replays.

A *mix* turns a per-client random stream into a sequence of
:class:`Operation` values. Two mixes ship:

- ``read_only`` — the map-search style mix behind J-X2: window counts
  and point probes over the synthetic TIGER layers, no writes, so no
  transaction is ever open and every scan skips visibility checks.
- ``mixed`` — the read/write mix behind J-X4: ~80% of operations come
  from the read mix, the rest are short explicit transactions against
  ``pointlm`` (single-row hot updates, fresh inserts, and occasional
  two-row updates). Hot updates draw from a small shared pool of gids so
  clients genuinely collide and the driver's abort/retry path is
  exercised, exactly like the update contention the paper's macro
  scenarios gesture at but never measure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.datagen.tiger import WORLD_SIZE

READ_ONLY = "read_only"
MIXED = "mixed"
BROWSE = "browse"
MIXES: Tuple[str, ...] = (READ_ONLY, MIXED, BROWSE)

#: fraction of mixed-mix operations that write
WRITE_FRACTION = 0.2
#: shared hot-row pool size (small on purpose: conflicts are the point)
HOT_POOL = 8
#: gid namespace for driver inserts, far above any generated gid
INSERT_GID_BASE = 10_000_000
#: per-client slice of the insert gid namespace
INSERT_GID_STRIDE = 1_000_000


@dataclass(frozen=True)
class Operation:
    """One timed unit of work: a read statement, or a write transaction
    (the driver wraps ``statements`` in BEGIN/COMMIT when kind=write)."""

    kind: str  # "read" | "write"
    label: str
    statements: Tuple[Tuple[str, tuple], ...]


def _window(rng: random.Random, lo: float, hi: float) -> Tuple[float, ...]:
    side = rng.uniform(lo, hi) * WORLD_SIZE
    x = rng.uniform(0.0, WORLD_SIZE - side)
    y = rng.uniform(0.0, WORLD_SIZE - side)
    return (x, y, x + side, y + side)


class ReadOnlyMix:
    """Map-search reads: window counts plus county point probes."""

    name = READ_ONLY

    _WINDOW_SQL = (
        ("edges_window",
         "SELECT COUNT(*) FROM edges "
         "WHERE ST_Intersects(geom, ST_MakeEnvelope(?, ?, ?, ?))"),
        ("pointlm_window",
         "SELECT COUNT(*) FROM pointlm "
         "WHERE ST_Intersects(geom, ST_MakeEnvelope(?, ?, ?, ?))"),
        ("arealm_window",
         "SELECT COUNT(*) FROM arealm "
         "WHERE ST_Intersects(geom, ST_MakeEnvelope(?, ?, ?, ?))"),
    )
    _POINT_SQL = (
        "SELECT COUNT(*) FROM counties WHERE ST_Contains(geom, ST_Point(?, ?))"
    )

    def next_operation(self, rng: random.Random, client_id: int) -> Operation:
        roll = rng.random()
        if roll < 0.25:
            params = (
                rng.uniform(0.0, WORLD_SIZE), rng.uniform(0.0, WORLD_SIZE)
            )
            return Operation("read", "county_point",
                             ((self._POINT_SQL, params),))
        label, sql = self._WINDOW_SQL[rng.randrange(len(self._WINDOW_SQL))]
        return Operation("read", label, ((sql, _window(rng, 0.01, 0.06)),))


class MixedMix:
    """~80/20 read/write; writes are short transactions on ``pointlm``."""

    name = MIXED

    def __init__(self, hot_gids: List[int]):
        if not hot_gids:
            raise ValueError("mixed mix needs a non-empty hot gid pool")
        self.hot_gids = list(hot_gids)
        self.reads = ReadOnlyMix()
        # each client only ever touches its own slot, so no lock needed
        self._insert_counters: Dict[int, int] = {}

    def _next_insert_gid(self, client_id: int) -> int:
        count = self._insert_counters.get(client_id, 0)
        self._insert_counters[client_id] = count + 1
        return INSERT_GID_BASE + client_id * INSERT_GID_STRIDE + count

    def next_operation(self, rng: random.Random, client_id: int) -> Operation:
        if rng.random() >= WRITE_FRACTION:
            return self.reads.next_operation(rng, client_id)
        roll = rng.random()
        if roll < 0.6:
            # the read-own-write SELECT stretches the row-lock hold time
            # across a real query, which is what makes first-updater-wins
            # conflicts actually happen at benchmark speeds
            gid = rng.choice(self.hot_gids)
            return Operation("write", "hot_update", (
                ("UPDATE pointlm SET name = ? WHERE gid = ?",
                 (f"renamed-{client_id}-{gid}", gid)),
                ("SELECT name FROM pointlm WHERE gid = ?", (gid,)),
            ))
        if roll < 0.9:
            gid = self._next_insert_gid(client_id)
            x = rng.uniform(0.0, WORLD_SIZE)
            y = rng.uniform(0.0, WORLD_SIZE)
            return Operation("write", "insert", ((
                "INSERT INTO pointlm VALUES (?, ?, ?, ?, ?)",
                (gid, f"driver-{gid}", "workload", "000",
                 f"POINT({x:.1f} {y:.1f})"),
            ),))
        # two hot rows in one transaction: with unordered acquisition
        # across clients this is where lock-wait timeouts come from
        first, second = rng.sample(self.hot_gids, 2)
        return Operation("write", "double_update", (
            ("UPDATE pointlm SET name = ? WHERE gid = ?",
             (f"pair-{client_id}-a", first)),
            ("SELECT COUNT(*) FROM pointlm WHERE gid = ?", (first,)),
            ("UPDATE pointlm SET name = ? WHERE gid = ?",
             (f"pair-{client_id}-b", second)),
        ))


class BrowseMix:
    """Map-browsing reads with a popular-viewport pool.

    Real map traffic is heavily skewed: most requests hit a small set of
    popular tiles. Each operation draws from ``popular`` precomputed
    window/point queries with *identical* parameters (quadratic skew
    toward the head of the pool) or, with probability
    ``1 - repeat_fraction``, issues a fresh random viewport. The repeats
    are what give a statement-keyed result cache something to hit;
    the fresh tail keeps it honest.
    """

    name = BROWSE

    #: share of operations drawn from the popular pool
    REPEAT_FRACTION = 0.85

    def __init__(self, seed: int = 42, popular: int = 24):
        pool_rng = random.Random(seed ^ 0x5EED)
        reads = ReadOnlyMix()
        self._fresh = reads
        self._popular: List[Operation] = []
        for index in range(popular):
            if index % 4 == 3:
                params = (
                    pool_rng.uniform(0.0, WORLD_SIZE),
                    pool_rng.uniform(0.0, WORLD_SIZE),
                )
                self._popular.append(Operation(
                    "read", "popular_point", ((reads._POINT_SQL, params),)
                ))
            else:
                label, sql = reads._WINDOW_SQL[
                    index % len(reads._WINDOW_SQL)
                ]
                self._popular.append(Operation(
                    "read", f"popular_{label}",
                    ((sql, _window(pool_rng, 0.01, 0.06)),)
                ))

    def next_operation(self, rng: random.Random, client_id: int) -> Operation:
        if rng.random() < self.REPEAT_FRACTION:
            # rng.random() ** 2 skews toward index 0: the head of the
            # pool is an order of magnitude hotter than the tail
            index = int(len(self._popular) * rng.random() ** 2)
            return self._popular[index]
        return self._fresh.next_operation(rng, client_id)


def get_mix(name: str, database: Any, seed: int = 42):
    """Build a mix instance, sampling the hot-row pool from ``database``."""
    if name == READ_ONLY:
        return ReadOnlyMix()
    if name == BROWSE:
        return BrowseMix(seed=seed)
    if name == MIXED:
        rows = database.execute(
            f"SELECT gid FROM pointlm ORDER BY gid LIMIT {HOT_POOL}"
        ).rows
        return MixedMix([row[0] for row in rows])
    raise ValueError(f"unknown mix {name!r}; expected one of {MIXES}")
