"""``topo_exact`` and ``topo_mbr``: the paper's DE-9IM micro matrix on an
exact-refinement profile and on the MBR-only profile.

One client, embedded ``Database.execute``, closed loop. A block is one
pass over the frozen statement list; ``--seed`` fixes the order of the
statements within each pass.
"""

import random
import time

import probes as layer_probes
from harness import (
    DATA_SEED, Block, Phases, Workload, canonical, load_database,
)
from workloads.statements import (
    ANALYSIS, TOPOLOGY, WINDOW, Buffer, Join, Overlay, Window,
)


#: what the replay of a statement's filter and refine steps feeds
_REPLAYED = ("algorithms.refine_us", "algorithms.overlay_us",
             "algorithms.buffer_us", "algorithms.share", "sql.exec_self_us")


class Topo(Workload):
    def __init__(self, name, options, profile, scale, quick_scale, analysis):
        super().__init__(name, options, scale, quick_scale)
        self.profile_name = profile
        self.statements = list(TOPOLOGY) + (list(ANALYSIS) if analysis else [])
        self.db = None
        self.dataset = None

    # -- set-up ---------------------------------------------------------------

    def setup(self, warm=True):
        """Generate, load, index, ``ANALYZE`` and one cold pass (so that
        lazily built state is paid here, where ``setup_s`` shows it)."""
        from repro.datagen import generate

        phases = Phases(self.reference)
        self.dataset = phases.run("generate", generate, DATA_SEED, self.scale)
        self.db = phases.run(
            "load", load_database, self.dataset, self.profile_name
        )
        parcels = self.dataset.layer("parcels")
        fips = parcels.rows[0][parcels.columns.index("county_fips")]
        self.statements = [
            (sid, sql.replace("{fips}", fips), fact)
            for sid, sql, fact in self.statements
        ]
        if warm:
            cold = self._pass(range(len(self.statements)), reference=True)
            phases.raw["warm"], phases.scaled["warm"] = cold.raw_wall, cold.wall
        phases.rows = self.dataset.total_rows()
        return phases

    def teardown(self):
        self.db = None
        self.dataset = None

    # -- timed work -------------------------------------------------------------

    def order(self, block):
        order = list(range(len(self.statements)))
        random.Random(f"{self.options.seed}:{self.name}:{block}").shuffle(order)
        return order

    def stream(self, block):
        return [self.statements[i][1] for i in self.order(block)]

    def run_block(self, index):
        return self._pass(self.order(index))

    def _pass(self, order, reference=False):
        """One pass. A burst of the reference loop follows every
        statement, outside its timed interval."""
        block = Block()
        execute = self.db.execute
        clock = time.perf_counter
        speed = self.reference
        speed.mark()
        for i in order:
            sid, sql, _fact = self.statements[i]
            start = clock()
            try:
                rows = execute(sql).rows
            except Exception as exc:  # a failed op, counted and named
                rows = exc
            block.add(i, clock() - start)
            block.scale(speed.factor())
            if isinstance(rows, Exception):
                self.fail(sid, f"{type(rows).__name__}: {rows}",
                          block, len(block.raw) - 1)
            else:
                self._check(block, sid, rows, reference)
        block.raw_wall = sum(block.raw)
        block.wall = sum(block.latency)
        self.attempted += len(block.raw)
        return block

    def _check(self, block, sid, rows, reference):
        answer = canonical(rows)
        want = self.expected.get(sid)
        if want is None and reference:
            self.expected[sid] = answer
        elif want != answer:
            self.fail(sid, f"answer {answer} != expected {want}",
                      block, len(block.raw) - 1)

    def is_read(self, _kind):
        return True

    # -- traced run ---------------------------------------------------------------

    def trace(self, probes, tracer):
        """Replay the first block with spans at each public depth and
        collect this workload's per-layer values."""
        db = self.db
        profile = db.profile
        order = self.order(0)
        before = db.stats.snapshot()
        untraced = self._pass(order)
        delta = layer_probes.stats_delta(db.stats.snapshot(), before)
        tables = layer_probes.LayerTables(self.dataset, profile.index_kind)
        execute = db.execute
        speed = self.reference
        speed.mark()
        for i in order:
            sid, sql, fact = self.statements[i]
            _rows, top, _s = tracer.call("sql.execute", None, sid, execute, sql)
            probes.attempt(_REPLAYED, lambda: self._children(
                tracer, top, sid, sql, fact, tables, profile
            ))
            tracer.scale(top, speed.factor())

        refine = tracer.durations("algorithms.refine")
        overlay = tracer.durations("algorithms.overlay")
        buffer = tracer.durations("algorithms.buffer")
        execute_s = tracer.durations("sql.execute")
        selfs = tracer.self_times()
        algorithms_s = sum(refine) + sum(overlay) + sum(buffer)
        calls = delta["join_pairs_considered"]
        probes.set({
            "algorithms.refine_us": sum(refine) / max(calls, 1) * 1e6,
            "algorithms.refine_calls": calls,
            "algorithms.overlay_us": sum(overlay) * 1e6 / max(len(overlay), 1),
            "algorithms.buffer_us": sum(buffer) * 1e6 / max(len(buffer), 1),
            "algorithms.share": algorithms_s / sum(execute_s),
            "index.probes": delta["index_probes"],
            "index.candidates_per_result": (
                delta["join_pairs_considered"]
                / max(delta["join_pairs_emitted"], 1)
            ),
            "engines.execute_us": sum(execute_s) / len(execute_s) * 1e6,
            "sql.exec_self_us": selfs["sql.execute"] / len(execute_s) * 1e6,
        })
        probes.run(
            ("sql.plan_cache_hit_ratio", "sql.rows_scanned_per_result"),
            lambda: layer_probes.sql_ratios(
                delta, delta["join_pairs_emitted"] + len(order)
            ),
        )
        probes.run(
            ("sql.parse_us", "sql.plan_us"),
            lambda: layer_probes.sql_front_end(
                db, [sql for _sid, sql, _f in self.statements]
            ),
        )
        probes.run(
            ("geometry.wkt_format_us", "geometry.wkt_parse_us"),
            lambda: layer_probes.wkt_round_trip(tables),
        )
        probes.run(
            ("index.search_us", "index.join_us", "index.build_s"),
            lambda: layer_probes.index_direct(tables, [WINDOW] * 20),
        )
        return untraced.wall

    def _children(self, tracer, top, sid, sql, fact, tables, profile):
        if isinstance(fact, Join):
            plan = self.db.explain(sql)
            refine_first = "TreeJoin" in plan or "PBSM" in plan
            layer_probes.replay_join(
                tracer, top, sid, tables, profile, fact, refine_first
            )
        elif isinstance(fact, Window):
            layer_probes.replay_window(
                tracer, top, sid, tables, profile, fact.table, fact.pred,
                WINDOW,
            )
        elif isinstance(fact, Overlay):
            layer_probes.replay_overlay(tracer, top, sid, tables, profile, fact)
        elif isinstance(fact, Buffer):
            layer_probes.replay_buffer(tracer, top, sid, tables, fact)


def topo_exact(options):
    return Topo("topo_exact", options, "greenwood", 0.5, 0.1, analysis=True)


def topo_mbr(options):
    return Topo("topo_mbr", options, "bluestem", 8.0, 0.25, analysis=False)
