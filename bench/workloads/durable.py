"""``durable_mixed``: land-information edits beside reads, on storage.

Embedded greenwood with ``attach_storage(dir, buffer_pages=64)`` — about
680 pages on disk against a 64-page pool, fsync per commit — one DB-API
connection, closed loop. The run ends with ``durability.crash()`` in the
middle of a transaction and ``Database.open`` on the directory; every
acknowledged commit and no unacknowledged one must be readable.
"""

import os
import shutil
import tempfile
import time

from harness import (
    DATA_SEED, OUT_DIR, Block, Phases, Workload, digest, load_database,
)
from workloads import streams

BLOCK_OPS = 1500
QUICK_BLOCK_OPS = 150
SCALE = 4.0
QUICK_SCALE = 0.25
BUFFER_PAGES = 64
#: ops between two bursts of the reference loop
CHUNK_OPS = 50
#: static-table reads of block 0 replayed on the recovered database
VERIFY_READS = 100


class PointModel:
    """The harness's own record of ``pointlm``: where every point is
    (in a grid of square cells) and what every acknowledged write left
    behind."""

    CELL = streams.WORLD / 64

    def __init__(self, layer):
        gid = layer.columns.index("gid")
        name = layer.columns.index("name")
        geom = layer.columns.index("geom")
        self.names = {row[gid]: row[name] for row in layer.rows}
        self.cells = {}
        for row in layer.rows:
            self._place(row[geom].x, row[geom].y)

    def _place(self, x, y):
        key = (int(x // self.CELL), int(y // self.CELL))
        self.cells.setdefault(key, []).append((x, y))

    def count_in(self, box):
        x0, y0, x1, y1 = box
        cell = self.CELL
        return sum(
            1
            for i in range(int(x0 // cell), int(x1 // cell) + 1)
            for j in range(int(y0 // cell), int(y1 // cell) + 1)
            for x, y in self.cells.get((i, j), ())
            if x0 <= x <= x1 and y0 <= y <= y1
        )

    def apply(self, kind, params):
        if kind == "insert":
            gid, name, _category, _fips, wkt = params
            x, y = wkt[len("POINT("):-1].split()
            self.names[gid] = name
            self._place(float(x), float(y))
        else:
            name, gid = params
            self.names[gid] = name


class DurableMixed(Workload):
    def __init__(self, options):
        super().__init__("durable_mixed", options, SCALE, QUICK_SCALE)
        self.block_ops = QUICK_BLOCK_OPS if options.quick else BLOCK_OPS
        self.root = None
        self.owns_root = False
        self.directory = None
        self.db = None
        self.connection = None
        self.tables = ()
        self.finished = None
        self.model = None
        self.hot = []
        self.max_gid = 0
        self.cycle = 0

    # -- set-up ---------------------------------------------------------------

    def setup(self, warm=True):
        """Generate, load, ``ANALYZE``, ``attach_storage`` (mirror every
        row to pages and checkpoint), connect, and a warm-up block."""
        from repro.datagen import generate
        from repro.dbapi import connect

        if self.root is None:
            if self.options.workdir:
                os.makedirs(self.options.workdir, exist_ok=True)
                self.root = self.options.workdir
            else:
                # inside the checkout, like everything the run writes
                os.makedirs(OUT_DIR, exist_ok=True)
                self.root = tempfile.mkdtemp(prefix="durable_", dir=OUT_DIR)
                self.owns_root = True
        phases = Phases(self.reference)
        dataset = phases.run("generate", generate, DATA_SEED, self.scale)
        self.db = phases.run("load", load_database, dataset, "greenwood")
        phases.rows = dataset.total_rows()
        self.tables = tuple(dataset.layers)
        self.cycle += 1
        self.directory = os.path.join(self.root, f"db{self.cycle}")
        phases.run("attach", lambda: self.db.attach_storage(
            self.directory, buffer_pages=BUFFER_PAGES
        ))
        self.connection = connect(database=self.db)
        self.model = PointModel(dataset.layer("pointlm"))
        gids = sorted(self.model.names)
        self.hot = gids[:streams.HOT_POOL]
        self.max_gid = gids[-1]
        self.finished = None
        if warm:
            block = self._run(self._ops(-1, self.block_ops // 5),
                              self.connection)
            phases.raw["warm"], phases.scaled["warm"] = (
                block.raw_wall, block.wall
            )
        return phases

    def teardown(self):
        if self.db is not None and self.db.durability is not None:
            try:
                self.db.durability.close()
            except (OSError, ValueError):
                pass  # already closed by finish()
        self.db = self.connection = None
        if self.directory and os.path.isdir(self.directory):
            shutil.rmtree(self.directory, ignore_errors=True)
        if self.owns_root and self.root and not os.listdir(self.root):
            os.rmdir(self.root)

    # -- timed work -------------------------------------------------------------

    def _ops(self, block, count):
        return streams.mixed_stream(
            self.options.seed, block, count, self.hot, self.max_gid
        )

    def stream(self, block):
        return self._ops(block, self.block_ops)

    def run_block(self, index):
        return self._run(self.stream(index), self.connection)

    def _run(self, ops, connection, model=True):
        """The closed loop. A read is ``execute`` + ``fetchall``; a write
        is ``BEGIN`` … ``COMMIT``, timed until the commit returns (which
        is when its log record is on disk). Answers are checked against
        the model once the block's clock has stopped."""
        block = Block()
        cursor = connection.cursor()
        clock = time.perf_counter
        outcomes = []
        speed = self.reference
        speed.mark()
        for kind, sql, params, _pool_index in ops:
            start = clock()
            try:
                if kind in streams.READ_KINDS:
                    cursor.execute(sql, params)
                    outcome = cursor.fetchall()
                else:
                    cursor.execute("BEGIN")
                    cursor.execute(sql, params)
                    outcome = cursor.rowcount
                    connection.commit()
            except Exception as exc:
                outcome = exc
            block.add(kind, clock() - start)
            outcomes.append(outcome)
            if len(outcomes) % CHUNK_OPS == 0:
                block.scale(speed.factor())
        block.scale(speed.factor())
        block.raw_wall = sum(block.raw)
        block.wall = sum(block.latency)
        if not model:
            return block  # a twin's or a probe's ops are not the run's
        self.attempted += len(ops)
        for position, ((kind, _sql, params, _p), outcome) in enumerate(
            zip(ops, outcomes)
        ):
            why = None
            if isinstance(outcome, Exception):
                why = f"{type(outcome).__name__}: {outcome}"
            elif kind == "pointlm_window":
                want = self.model.count_in(params)
                if outcome != [(want,)]:
                    why = f"{outcome} != model count {want}"
            elif kind in streams.READ_KINDS:
                if len(outcome) != 1 or not isinstance(outcome[0][0], int):
                    why = f"malformed answer {outcome!r}"
            elif outcome != 1:
                why = f"rowcount {outcome} for {params}"
            else:
                self.model.apply(kind, params)
            if why:
                self.fail(kind, why, block, position)
        return block

    def is_read(self, kind):
        return kind in streams.READ_KINDS

    # -- crash, recover, check ---------------------------------------------------------

    def static_reads(self):
        """Reads of tables nobody writes, the same for every run seed, so
        the committed answers hold for all of them."""
        ops = streams.mixed_stream(DATA_SEED, 0, self.block_ops,
                                   self.hot, self.max_gid)
        return [op for op in ops
                if op[0] in ("edges_window", "arealm_window",
                             "county_point")][:VERIFY_READS]

    def finish(self, before_recovery=None):
        """Crash with one transaction in flight, recover, and compare the
        recovered ``pointlm`` with the model of acknowledged writes.
        ``before_recovery`` runs while the directory is still as the
        crash left it (the traced run times recovery on copies of it)."""
        from repro.engines import Database

        if self.finished is not None:
            return self.finished
        reads = self.static_reads()
        before = [self.db.execute(sql, params).rows
                  for _kind, sql, params, _p in reads]
        got = digest(before)
        want = self.expected.setdefault("static_reads", got)
        if got != want:
            self.fail("static_reads", f"answers {got} != expected {want}")
        stats = self.db.durability.stats()
        lost_gid = 99_000_000
        cursor = self.connection.cursor()
        cursor.execute("BEGIN")
        cursor.execute(streams.INSERT_SQL, (
            lost_gid, "never-committed", "workload", "000", "POINT(1.0 1.0)"
        ))
        cursor.execute(streams.UPDATE_SQL, ("never-committed", self.hot[0]))
        self.db.durability.crash()
        try:
            self.connection.commit()
        except Exception:
            pass  # the simulated crash refuses the commit, as it must
        else:
            self.fail("crash", "commit returned after the crash")
        self.db.durability.close()
        # the crashed instance is done: let go of it before another opens
        del cursor
        self.db = self.connection = None
        if before_recovery is not None:
            before_recovery()
        start = time.perf_counter()
        recovered = Database.open(self.directory, buffer_pages=BUFFER_PAGES)
        recovery_s = time.perf_counter() - start
        try:
            rows = recovered.execute("SELECT gid, name FROM pointlm").rows
            self.attempted += len(self.model.names) + len(reads) + 1
            found = dict(rows)
            if len(rows) != len(found):
                self.fail("recovery", "duplicate gid after recovery")
            if lost_gid in found:
                self.fail("recovery", "an unacknowledged insert is readable")
            for gid, name in self.model.names.items():
                if found.get(gid) != name:
                    self.fail("recovery", f"gid {gid}: {found.get(gid)!r} "
                                          f"!= acknowledged {name!r}")
            extra = set(found) - set(self.model.names)
            if extra:
                self.fail("recovery", f"unknown gids {sorted(extra)[:5]}")
            after = [recovered.execute(sql, params).rows
                     for _kind, sql, params, _p in reads]
            if after != before:
                self.fail("recovery", "static reads changed across recovery")
            report = recovered.recovery_report
        finally:
            recovered.durability.close()
        self.finished = {
            "recovery_s": round(recovery_s, 4),
            "wal_records_recovered": report.wal_records,
            "losers_undone": report.losers,
            "wal_bytes": stats["wal_bytes"],
            "buffer_hit_ratio": round(stats["buffer_hit_ratio"], 4),
        }
        return self.finished

    # -- traced run -------------------------------------------------------------------

    def trace(self, probes, tracer):
        from workloads.durable_trace import trace_durable

        return trace_durable(self, probes, tracer)
