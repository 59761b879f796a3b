"""``served_browse``: map search and browsing over the wire.

``JackpineServer`` (greenwood, ``pool_size=2``, ``cache_capacity=256``)
runs in a child process; this process drives two ``ServiceClient``
connections, closed loop: each caller waits for its reply before
sending the next request. Both processes are held on one CPU (see
:func:`hold_on_one_cpu`).
"""

import json
import os
import subprocess
import sys
import threading
import time

from harness import (
    DATA_SEED, Block, Phases, Workload, digest, load_database,
)
from workloads import streams

CONNECTIONS = 2
BLOCK_OPS = 1500          # per connection
QUICK_BLOCK_OPS = 150
#: ops per connection between two bursts of the reference loop
CHUNK_OPS = 150
SCALE = 4.0
QUICK_SCALE = 0.25
#: fresh ops replayed against the embedded twin when the run ends
VERIFY_FRESH = 100
_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "server_child.py")
_STATIC = ("edges_window", "arealm_window", "county_point")


class ServerChild:
    """The server process: started, asked, and always stopped."""

    def __init__(self, scale):
        self.process = subprocess.Popen(
            [sys.executable, _CHILD, str(scale)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("server child exited before it was ready")
        self.ready = json.loads(line)
        self.port = self.ready["port"]
        self.last_usage = None

    def usage(self):
        try:
            self.process.stdin.write("usage\n")
            self.process.stdin.flush()
            line = self.process.stdout.readline()
        except (BrokenPipeError, ValueError, OSError):
            line = ""
        if line:
            self.last_usage = json.loads(line)
        return self.last_usage

    def stop(self):
        process = self.process
        if process.poll() is None:
            try:
                process.stdin.write("stop\n")
                process.stdin.flush()
                line = process.stdout.readline()
                if line:
                    self.last_usage = json.loads(line)
                process.wait(timeout=10)
            except (BrokenPipeError, ValueError, OSError,
                    subprocess.TimeoutExpired):
                process.kill()
                process.wait()
        for pipe in (process.stdin, process.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def hold_on_one_cpu():
    """Keep this process, and the server child it starts next, on one
    CPU; returns the CPUs allowed before (``None`` where the platform
    has no affinity call).

    Measured on the 2-vCPU host this was written on: with the two
    processes on different CPUs every request and every reply wakes an
    idle virtual CPU, which costs more than the request (1 550 ops/s
    and a 0.90 ms median read apart, 2 100 ops/s and 0.53 ms together)
    and varies from one minute to the next. On one CPU the time of an
    op is the CPU time this process and the server spend on it, which
    is what a change to the program can move.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


class ServedBrowse(Workload):
    def __init__(self, options):
        super().__init__("served_browse", options, SCALE, QUICK_SCALE)
        self.block_ops = QUICK_BLOCK_OPS if options.quick else BLOCK_OPS
        self.pool = streams.browse_pool()
        self.allowed_cpus = None
        self.child = None
        self.clients = []
        self.reference_rows = {}
        self.inserted = []
        self.hits = 0
        self.reads = 0
        #: the embedded twin (dataset, database) that answers are checked
        #: against, and the gids of the inserts it already holds
        self.embedded = None
        self.embedded_gids = set()

    # -- set-up ---------------------------------------------------------------

    def setup(self, warm=True):
        """Child process up and listening (interpreter start, imports,
        generate, load, ``ANALYZE``, server start), connections open,
        and the popular pool requested once so the cache is warm."""
        if self.allowed_cpus is None:
            self.allowed_cpus = hold_on_one_cpu()
        phases = Phases(self.reference)
        self.child = phases.run("spawn", ServerChild, self.scale)
        ready = self.child.ready
        # what the child timed itself stands as it scaled it; the rest
        # (interpreter start, pipes) is this process's to scale
        inside = sum(ready["raw"].values())
        share = max(phases.raw["spawn"] - inside, 0.0) / phases.raw["spawn"]
        phases.raw["spawn"] *= share
        phases.scaled["spawn"] *= share
        phases.raw.update(ready["raw"])
        phases.scaled.update(ready["scaled"])
        phases.rows = ready["rows"]
        self.reference_rows = {}
        self.inserted = []
        if warm:
            phases.run("warm", self._warm)
        return phases

    def _warm(self):
        from repro.service import ServiceClient

        self.clients = [
            ServiceClient("127.0.0.1", self.child.port, timeout=10.0,
                          trace=False)
            for _ in range(CONNECTIONS)
        ]
        warm = Block()
        outcomes = self._drive(self.clients[0], self.pool, warm)
        self._check(self.pool, outcomes, warm, reference=True)
        self.attempted += len(self.pool)

    def teardown(self):
        for client in self.clients:
            client.close()
        self.clients = []
        if self.child is not None:
            self.child.stop()
        if self.allowed_cpus is not None:
            os.sched_setaffinity(0, self.allowed_cpus)
            self.allowed_cpus = None

    def peak_rss_mb(self):
        usage = self.child.usage() if self.child else None
        return usage["rss_mb"] if usage else 0.0

    # -- timed work -------------------------------------------------------------

    def stream(self, block):
        return [
            streams.browse_stream(self.options.seed, block, client,
                                  self.block_ops, self.pool)
            for client in range(CONNECTIONS)
        ]

    def run_block(self, index, connections=CONNECTIONS):
        """The connections run a chunk of their streams side by side;
        between chunks, with the server idle, one burst of the reference
        loop measures the host's speed for the chunk just finished."""
        per_client = self.stream(index)[:connections]
        parts = [Block() for _ in per_client]
        outcomes = [[] for _ in per_client]
        block = Block()
        speed = self.reference
        speed.mark()
        for low in range(0, self.block_ops, CHUNK_OPS):
            threads = [
                threading.Thread(
                    target=lambda c=c: outcomes[c].extend(self._drive(
                        self.clients[c], per_client[c][low:low + CHUNK_OPS],
                        parts[c],
                    ))
                )
                for c in range(len(per_client))
            ]
            begin = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - begin
            factor = speed.factor()
            for part in parts:
                part.scale(factor)
            block.raw_wall += wall
            block.wall += wall * factor
        for ops, results, part in zip(per_client, outcomes, parts):
            self._check(ops, results, part)
            block.extend(part)
        self.attempted += sum(len(ops) for ops in per_client)
        return block

    def _drive(self, client, ops, block):
        """One connection's closed loop: the client-observed round trip
        of every op. Returns the replies (or the exception raised) for
        checking once the clock has stopped."""
        clock = time.perf_counter
        execute = client.execute
        outcomes = []
        for kind, sql, params, _pool_index in ops:
            start = clock()
            try:
                outcome = execute(sql, params)
            except Exception as exc:  # refused, timed out, lost: failed op
                outcome = exc
            block.add(kind, clock() - start)
            outcomes.append(outcome)
        return outcomes

    def _check(self, ops, outcomes, block, reference=False):
        for position, ((kind, _sql, params, pool_index), outcome) in enumerate(
            zip(ops, outcomes)
        ):
            if isinstance(outcome, Exception):
                block.cached.append(None)
                self.fail(kind, f"{type(outcome).__name__}: {outcome}",
                          block, position)
                continue
            block.cached.append(outcome.cached)
            if kind == "insert":
                if outcome.rowcount != 1:
                    self.fail(kind, f"rowcount {outcome.rowcount}",
                              block, position)
                else:
                    self.inserted.append(params)
                continue
            self.reads += 1
            self.hits += outcome.cached
            if pool_index >= 0 and kind in _STATIC:
                why = self._popular_differs(pool_index, outcome.rows, reference)
                if why:
                    self.fail(f"popular[{pool_index}]", why, block, position)

    def _popular_differs(self, pool_index, rows, reference):
        """A popular viewport on a table nobody writes must answer the
        same every time, and as the committed answers."""
        if reference:
            self.reference_rows[pool_index] = rows
            got = digest(rows, ordered=False)
            want = self.expected.setdefault(str(pool_index), got)
            if want != got:
                return f"answer {got} != expected {want}"
        elif rows != self.reference_rows.get(pool_index):
            return "answer differs from the first reply"
        return None

    def is_read(self, kind):
        return kind != "insert"

    # -- answers against an embedded twin ------------------------------------------

    def twin(self):
        """The same data in an embedded ``Database`` (built once)."""
        from repro.datagen import generate

        if self.embedded is None:
            dataset = generate(seed=DATA_SEED, scale=self.scale)
            self.embedded = dataset, load_database(dataset, "greenwood")
        return self.embedded

    def finish(self):
        """Replay the popular pool and a sample of fresh viewports on the
        wire and on an embedded twin holding the same acknowledged
        inserts; any difference is a failed op."""
        _dataset, twin = self.twin()
        for params in self.inserted:
            if params[0] not in self.embedded_gids:
                twin.execute(streams.INSERT_SQL, params)
                self.embedded_gids.add(params[0])
        client = self.clients[0]
        for kind, sql, params, _pool_index in (
            self.pool + streams.browse_fresh(0, VERIFY_FRESH)
        ):
            self.attempted += 1
            try:
                served = client.execute(sql, params).rows
            except Exception as exc:
                self.fail(kind, f"{type(exc).__name__}: {exc}")
                continue
            embedded = twin.execute(sql, params).rows
            if digest(served, ordered=False) != digest(embedded, ordered=False):
                self.fail(kind, f"served answer differs from the embedded "
                                f"one for {params}")
        ratio = self.hits / self.reads if self.reads else 0.0
        return {"cache_hit_ratio": round(ratio, 4),
                "inserts_acknowledged": len(self.inserted)}

    # -- traced run -------------------------------------------------------------------

    def trace(self, probes, tracer):
        from workloads.served_trace import trace_served

        return trace_served(self, probes, tracer)
