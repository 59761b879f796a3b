"""Kill-at-crash-point harness and the serial-replay recovery oracle.

Crash testing needs two halves: a way to *die* at an exact storage
instruction, and a way to *know* what the database must look like
afterwards. This module provides both.

**The kill.** :func:`kill_at` arms one WAL/page fault site
(:data:`CRASH_SITES`) with :class:`~repro.errors.SimulatedCrashError`.
When the site fires, the :class:`~repro.storage.durability
.DurabilityManager` freezes the on-disk state *first* — the WAL is
truncated to its last fsynced byte, and every later durable write
raises — and only then lets the error propagate. From that instant the
directory looks exactly as it would after ``kill -9``: whatever was
durable stays, whatever was buffered is gone, and no engine cleanup
path can touch the disk again.

**The oracle.** Two strengths, for two kinds of test:

- :func:`run_crash_workload` drives N concurrent clients, each
  committing single-row transactions tagged with a globally unique
  ``gid``. Group commit makes the disposition of every transaction
  deterministic: COMMIT returned ⇔ the commit record was fsynced ⇔ the
  row survives recovery. :func:`verify_recovery` therefore asserts set
  *equality* — recovered gids == committed gids — plus heap/index
  agreement, not just the weaker committed ⊆ recovered ⊆ attempted.
- :class:`SerialReplayOracle` shadows a single-session workload
  statement-for-statement on a plain in-memory database, applying a
  transaction's statements only when its COMMIT returned. After
  recovery, :meth:`SerialReplayOracle.diff` compares full table
  contents value-by-value (geometries via their WKB form). The
  hypothesis property test drives this with randomly chosen crash
  points.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Set, Tuple

from repro.engines import Database
from repro.errors import ReproError, SimulatedCrashError
from repro.faults import FAULTS
from repro.storage.records import encode_value
from repro.workload import WorkloadConfig, run_round

__all__ = [
    "CRASH_SITES",
    "CrashOutcome",
    "SerialReplayOracle",
    "kill_at",
    "run_crash_workload",
    "verify_recovery",
]

#: the durable-path fault sites a crash can be injected at
CRASH_SITES: Tuple[str, ...] = ("wal.append", "wal.fsync", "page.write")


@contextmanager
def kill_at(site: str, on_call: int = 1) -> Iterator[None]:
    """Arm ``site`` to raise :class:`SimulatedCrashError` on its Nth hit.

    The durability layer reacts to that error class by freezing the
    on-disk state before re-raising, so inside this context the Nth
    visit to the site is a process kill as far as the directory is
    concerned.
    """
    FAULTS.arm(site, on_call=on_call, max_fires=1,
               error=SimulatedCrashError)
    try:
        yield
    finally:
        FAULTS.disarm_all()


@dataclass
class CrashOutcome:
    """What the clients managed to do before the lights went out."""

    site: str
    profile: str
    attempted: Set[int] = field(default_factory=set)
    committed: Set[int] = field(default_factory=set)
    fired: bool = False          # did the armed site actually fire?
    forced: bool = False         # deadline hit: crash forced directly
    wall_seconds: float = 0.0
    checkpoints: int = 0

    @property
    def lost_if_leaked(self) -> Set[int]:
        """gids that must be ABSENT after recovery."""
        return self.attempted - self.committed


def run_crash_workload(
    directory: str,
    *,
    profile: str = "greenwood",
    clients: int = 2,
    site: str = "wal.append",
    on_call: int = 50,
    deadline: float = 10.0,
    checkpoint_interval: float = 0.0,
    seed_rows: int = 25,
    pace: float = 0.0005,
) -> CrashOutcome:
    """Run committing clients against a fresh durable database in
    ``directory`` until the armed crash fires.

    Each client loops single-row transactions (``BEGIN`` / ``INSERT
    gid`` / ``COMMIT``) with a unique gid per attempt, pausing ``pace``
    seconds between transactions so a background checkpointer (run at
    ``checkpoint_interval`` when nonzero) can win the exclusive latch
    instead of starving behind the saturated clients. When any
    client observes the simulated crash, every client stops. If the
    site has not fired by ``deadline`` (it can be unreachable — e.g.
    ``page.write`` with no checkpointer), the crash is forced directly
    so the harness still hands back a killed directory. The clients and
    the checkpointer run in one :func:`~repro.workload.run_round`: a
    client that dies of an error that is not the engine's fails the run
    once the others stop.
    """
    if site not in CRASH_SITES:
        raise ValueError(
            f"site {site!r} is not a durable crash site {CRASH_SITES}"
        )
    db = Database(profile)
    db.execute("CREATE TABLE ops (gid INTEGER, g GEOMETRY)")
    db.execute("CREATE SPATIAL INDEX ops_g ON ops (g)")
    db.insert_rows(
        "ops", [(-1 - i, f"POINT({i} {i % 5})") for i in range(seed_rows)]
    )
    db.attach_storage(directory)
    outcome = CrashOutcome(site=site, profile=profile)
    for i in range(seed_rows):
        outcome.committed.add(-1 - i)
        outcome.attempted.add(-1 - i)

    crashed = threading.Event()
    lock = threading.Lock()

    def client(connection, report) -> None:
        cursor = connection.cursor()
        gid = (report.client_id + 1) * 1_000_000
        stop_at = time.perf_counter() + deadline
        while not crashed.is_set() and time.perf_counter() < stop_at:
            gid += 1
            point = f"POINT({gid % 97} {gid % 89})"
            try:
                cursor.execute("BEGIN")
                cursor.execute("INSERT INTO ops VALUES (?, ?)", (gid, point))
                with lock:
                    outcome.attempted.add(gid)
                cursor.execute("COMMIT")
                with lock:
                    outcome.committed.add(gid)
            except ReproError:
                # a COMMIT that raised never reached the disk
                # (group commit: return ⇔ fsync) — roll back the
                # in-memory residue and stop if the disk is dead
                try:
                    connection.rollback()
                except ReproError:
                    pass
                if db.durability.crashed:
                    crashed.set()
            if pace:
                time.sleep(pace)

    with kill_at(site, on_call=on_call):
        report = run_round(db, WorkloadConfig(
            clients=clients, checkpoint_interval=checkpoint_interval,
        ), client)
        outcome.wall_seconds = report.wall_seconds
        outcome.checkpoints = report.checkpoints
        if not db.durability.crashed:
            # deadline elapsed without reaching the site: force the kill
            db.durability.crash()
            outcome.forced = True
        outcome.fired = FAULTS.fire_counts().get(site, 0) > 0
    return outcome


def verify_recovery(outcome: CrashOutcome,
                    database: Database) -> List[str]:
    """Check a recovered database against the crash outcome.

    Returns a list of violation descriptions — empty means the recovery
    honoured both durability directions (committed visible, uncommitted
    absent) and the spatial index agrees with the heap.
    """
    violations: List[str] = []
    recovered = {
        row[0] for row in database.execute("SELECT gid FROM ops").rows
    }
    lost = outcome.committed - recovered
    if lost:
        violations.append(
            f"{len(lost)} committed gid(s) lost: {sorted(lost)[:5]} ..."
        )
    leaked = recovered & outcome.lost_if_leaked
    if leaked:
        violations.append(
            f"{len(leaked)} uncommitted gid(s) leaked: "
            f"{sorted(leaked)[:5]} ..."
        )
    unknown = recovered - outcome.attempted
    if unknown:
        violations.append(
            f"{len(unknown)} gid(s) recovered that were never attempted"
        )
    heap = database.execute("SELECT COUNT(*) FROM ops").scalar()
    via_index = database.execute(
        "SELECT COUNT(*) FROM ops WHERE ST_Intersects(g, "
        "ST_MakeEnvelope(-1000, -1000, 1000, 1000))"
    ).scalar()
    if heap != via_index:
        violations.append(
            f"index/heap disagreement after recovery: "
            f"heap={heap} index={via_index}"
        )
    return violations


def canonical_rows(database: Database, table: str) -> List[tuple]:
    """A database-independent, order-independent rendering of one
    table's visible rows (geometries via their WKB form)."""
    result = database.execute(f"SELECT * FROM {table}")
    return sorted(
        tuple(repr(encode_value(value)) for value in row)
        for row in result.rows
    )


class SerialReplayOracle:
    """A plain in-memory shadow of the committed history.

    DDL applies immediately (the crash workloads create schema before
    arming any fault). DML is staged per transaction and replayed onto
    the shadow only when the real COMMIT returns — exactly the serial
    history the recovered database must equal.
    """

    def __init__(self, profile: str = "greenwood") -> None:
        self.db = Database(profile)
        self._staged: List[Tuple[str, tuple]] = []
        self.tables: List[str] = []

    def ddl(self, sql: str) -> None:
        self.db.execute(sql)
        head = sql.strip().split()
        if head[:2] == ["CREATE", "TABLE"]:
            self.tables.append(head[2].strip("(").lower())

    def stage(self, sql: str, params: tuple = ()) -> None:
        self._staged.append((sql, params))

    def commit(self) -> None:
        for sql, params in self._staged:
            self.db.execute(sql, params)
        self._staged.clear()

    def abort(self) -> None:
        self._staged.clear()

    def diff(self, database: Database) -> List[str]:
        """Table-by-table content comparison; empty list means the
        recovered database equals the committed serial history."""
        problems: List[str] = []
        for table in self.tables:
            expected = canonical_rows(self.db, table)
            actual = canonical_rows(database, table)
            if expected != actual:
                missing = len([r for r in expected if r not in actual])
                extra = len([r for r in actual if r not in expected])
                problems.append(
                    f"table {table!r}: {missing} row(s) missing, "
                    f"{extra} row(s) extra vs serial replay"
                )
        return problems
