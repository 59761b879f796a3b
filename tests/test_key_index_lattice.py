"""The key-index slice of the correctness lattice.

On every profile, random transactions of INSERT, UPDATE by key, DELETE
by key and UPDATE that changes the key — each ending in COMMIT or
ROLLBACK — run on a durable database beside a snapshot reader in a
second session; then the database crashes and is reopened. Every
``... WHERE gid = ?`` answer, looked up through the key index, must
equal the model of committed (or, inside a transaction, the session's
own) writes, the same snapshot's answer through a scan, and — after the
reopen — the recovered database's answer once ``DROP INDEX`` has made
it a scan.
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbapi import connect
from repro.engines import Database

PROFILES = ("greenwood", "bluestem", "ironbark")
GIDS = range(1, 9)
LOOKUP = "SELECT gid, name FROM pts WHERE gid = ?"
#: the same rows through a scan: ``gid + 0`` is not a key column
SCAN = "SELECT gid, name FROM pts WHERE gid + 0 = ?"

gid = st.sampled_from(list(GIDS))
name = st.sampled_from(["a", "b", "c"])
OP = st.one_of(
    st.tuples(st.just("insert"), gid, name),
    st.tuples(st.just("update"), gid, name),
    st.tuples(st.just("delete"), gid),
    st.tuples(st.just("rekey"), gid, gid),
)
TXNS = st.lists(
    st.tuples(st.lists(OP, min_size=1, max_size=4), st.booleans()),
    min_size=1, max_size=6,
)


def _apply(model, op):
    """``model``: gid -> names of its rows (the multiset, sorted)."""
    kind = op[0]
    if kind == "insert":
        model[op[1]] = sorted(model.get(op[1], []) + [op[2]])
    elif kind == "update":
        if op[1] in model:
            model[op[1]] = [op[2]] * len(model[op[1]])
    elif kind == "delete":
        model.pop(op[1], None)
    elif op[1] in model and op[1] != op[2]:
        moved = model.pop(op[1])
        model[op[2]] = sorted(model.get(op[2], []) + moved)


def _statement(op):
    kind = op[0]
    if kind == "insert":
        return ("INSERT INTO pts VALUES (?, ?, ST_Point(?, ?))",
                (op[1], op[2], op[1], op[1]))
    if kind == "update":
        return "UPDATE pts SET name = ? WHERE gid = ?", (op[2], op[1])
    if kind == "delete":
        return "DELETE FROM pts WHERE gid = ?", (op[1],)
    return "UPDATE pts SET gid = ? WHERE gid = ?", (op[2], op[1])


def _rows(db):
    return lambda sql, params: db.execute(sql, params).rows


def _answers(run, sql):
    """gid -> sorted names, read one key at a time."""
    found = {}
    for key in GIDS:
        names = sorted(name for _gid, name in run(sql, (key,)))
        if names:
            found[key] = names
    return found


@settings(max_examples=15, deadline=None)
@given(profile=st.sampled_from(PROFILES), txns=TXNS,
       reader_at=st.integers(min_value=0, max_value=6))
def test_key_lookups_agree_with_scans_and_the_model(profile, txns, reader_at):
    directory = tempfile.mkdtemp(prefix="keyslice_")
    try:
        db = Database(profile)
        db.execute("CREATE TABLE pts (gid INTEGER, name TEXT, g GEOMETRY)")
        db.execute("CREATE SPATIAL INDEX pts_g ON pts (g)")
        db.execute("CREATE INDEX pts_gid ON pts (gid)")
        model = {}
        for key in (1, 2, 3, 3):
            _apply(model, ("insert", key, "seed"))
            db.execute(*_statement(("insert", key, "seed")))
        # rows under other keys, so that a lookup beats a scan
        db.insert_rows("pts", [
            (key, "filler", f"POINT({key} 0)") for key in range(100, 130)
        ])
        db.attach_storage(directory)
        writer = connect(database=db)
        reader = connect(database=db)
        wcur, rcur = writer.cursor(), reader.cursor()

        def read(cursor):
            def run(sql, params):
                cursor.execute(sql, params)
                return cursor.fetchall()
            return run

        seen_by_reader = None
        for position, (ops, commit) in enumerate(txns):
            if position == reader_at:
                rcur.execute("BEGIN")
                seen_by_reader = {k: list(v) for k, v in model.items()}
            pending = {k: list(v) for k, v in model.items()}
            wcur.execute("BEGIN")
            for op in ops:
                wcur.execute(*_statement(op))
                _apply(pending, op)
            # the writer sees its own versions, by key and by scan
            assert _answers(read(wcur), LOOKUP) == pending
            assert _answers(read(wcur), SCAN) == pending
            if commit:
                writer.commit()
                model = pending
            else:
                writer.rollback()
            if seen_by_reader is not None:
                # the reader's snapshot does not move
                assert _answers(read(rcur), LOOKUP) == seen_by_reader
                assert _answers(read(rcur), SCAN) == seen_by_reader
            assert _answers(_rows(db), LOOKUP) == model
        if seen_by_reader is not None:
            reader.commit()
        assert _answers(_rows(db), LOOKUP) == model

        # a transaction in flight when the process dies leaves no trace
        wcur.execute("BEGIN")
        wcur.execute(*_statement(("insert", 1, "lost")))
        db.durability.crash()
        db.durability.close()

        recovered = Database.open(directory)
        try:
            assert "IndexLookup" in recovered.explain(LOOKUP)
            looked_up = _answers(_rows(recovered), LOOKUP)
            assert looked_up == model
            recovered.execute("DROP INDEX pts_gid")
            assert "SeqScan" in recovered.explain(LOOKUP)
            assert _answers(_rows(recovered), LOOKUP) == looked_up
        finally:
            recovered.durability.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
