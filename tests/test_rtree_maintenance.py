"""R-tree maintenance: the tree that inserts and removes build, and the
work they do.

Insert, split and remove compute on the envelopes' floats and make
Guttman's quadratic-split choices, so the shape digest below, recorded
with the Envelope-arithmetic implementation, pins the tree node for node.
The property test reads every node box after every operation: a box left
too large after a remove still searches correctly, so only it would catch
the grow/shrink logic going stale.
"""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.tiger import generate
from repro.engines import Database
from repro.geometry import Envelope
from repro.index import RTree


def _point(x, y):
    return Envelope(x, y, x, y)


def _loaded_then_edited(counts=None):
    """1 000 STR-packed points, 200 inserted, every second inserted one
    (i = 1, 3, 5, ...) removed. ``counts``, when given, is called before
    the inserts and before the removes."""
    tree = RTree.bulk_load(
        [(i, _point(i * 7919 % 1000, i * 104729 % 1000)) for i in range(1000)]
    )
    inserted = [
        (1000 + i, _point(i * 6007 % 997, i * 3001 % 991)) for i in range(1, 201)
    ]
    if counts:
        counts()
    for item_id, env in inserted:
        tree.insert(item_id, env)
    if counts:
        counts()
    for item_id, env in inserted[::2]:
        assert tree.remove(item_id, env)
    return tree


def _shape(node, out):
    box = node.box
    out.append(
        "B-" if box is None
        else f"B{box.min_x!r},{box.min_y!r},{box.max_x!r},{box.max_y!r}"
    )
    if node.children is None:
        out.append("L" + ",".join(str(item_id) for item_id, _env in node.entries))
    else:
        out.append(f"N{len(node.children)}")
        for child in node.children:
            _shape(child, out)
    return out


def test_inserts_and_removes_build_the_pinned_tree():
    """Every box's floats and every leaf's ids, in order. The digest was
    recorded by running this body on the implementation that computed
    choose-leaf, adjust, split and remove with ``Envelope.union`` and
    ``Envelope.area``."""
    tree = _loaded_then_edited()
    assert len(tree) == 1100
    assert tree.height == 3
    assert len(tree.search(Envelope(100, 100, 300, 300))) == 31
    digest = hashlib.sha256("\n".join(_shape(tree.root, [])).encode()).hexdigest()
    assert digest == (
        "3e390989dfbb4a3b8653980d8823e493d56894d06066093338d09b1fce01e50f"
    )


def _counting_envelopes(monkeypatch):
    made = [0]
    real = Envelope.__init__

    def counted(self, *args):
        made[0] += 1
        real(self, *args)

    monkeypatch.setattr(Envelope, "__init__", counted)
    return made


def test_a_write_builds_at_most_two_envelopes(monkeypatch):
    """The 200 inserts above build 249 Envelopes (24 952 when choose-leaf,
    adjust and split each built a union per child and per pair) and the
    100 removes 64 (300 when every box on the path was recomputed)."""
    made = _counting_envelopes(monkeypatch)
    marks = []
    _loaded_then_edited(lambda: marks.append(made[0]))
    inserts = marks[1] - marks[0]
    removes = made[0] - marks[1]
    assert inserts <= 2 * 200
    assert removes <= 2 * 100


def test_a_durable_write_statement_builds_at_most_two_envelopes(
    monkeypatch, tmp_path
):
    """Auto-commit writes on a durable greenwood database at scale 0.1:
    50 ``UPDATE pointlm SET name = ? WHERE gid = ?`` built 46.3 Envelopes
    a statement and 50 point INSERTs 39.2 before the R-tree computed on
    floats and ``ColumnStats.add`` kept bounds that already covered the
    row; now 0.64 and 1.56."""
    db = Database("greenwood")
    generate(seed=42, scale=0.1).load_into(db)
    db.attach_storage(str(tmp_path))
    rng = random.Random(45)
    made = _counting_envelopes(monkeypatch)
    for k in range(50):
        db.execute(
            "UPDATE pointlm SET name = ? WHERE gid = ?", (f"u{k}", k % 75 + 1)
        )
    updates, made[0] = made[0], 0
    for k in range(50):
        db.execute(
            "INSERT INTO pointlm VALUES (?, ?, ?, ?, ?)",
            (900_000 + k, f"p{k}", "workload", "000",
             f"POINT({rng.uniform(0, 1e5):.1f} {rng.uniform(0, 1e5):.1f})"),
        )
    inserts = made[0]
    monkeypatch.undo()
    assert db.execute("SELECT COUNT(*) FROM pointlm").scalar() == 125
    db.close()
    assert updates <= 2 * 50
    assert inserts <= 2 * 50


# ---------------------------------------------------------------------------
# every node box is exactly the union of its members, after every operation
# ---------------------------------------------------------------------------

_ordinate = st.integers(min_value=0, max_value=6).map(float)
_extent = st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0])


@st.composite
def _boxes(draw):
    """Small boxes on a coarse grid: coincident points, duplicates, nested
    and zero-width boxes are all common."""
    x0, y0 = draw(_ordinate), draw(_ordinate)
    return Envelope(x0, y0, x0 + draw(_extent), y0 + draw(_extent))


_operations = st.lists(
    st.tuples(st.sampled_from(["insert", "insert", "insert", "remove", "miss"]),
              _boxes(), st.integers(min_value=0, max_value=10 ** 6)),
    max_size=90,
)


def _check(tree, live):
    """Node boxes, fan-out, balance and ``len`` against the live entries."""
    leaves = []

    def walk(node, depth):
        members = node.entries if node.children is None else node.children
        if node is not tree.root:
            assert 1 <= len(members) <= tree.max_entries
        else:
            assert len(members) <= tree.max_entries
        if node.children is None:
            leaves.append(depth)
            boxes = [env for _id, env in node.entries]
        else:
            assert not node.entries
            assert node is not tree.root or len(node.children) >= 2
            boxes = [child.box for child in node.children]
            for child in node.children:
                walk(child, depth + 1)
        if not boxes:
            assert node is tree.root and node.box is None
        else:
            assert node.box.as_tuple() == Envelope.union_all(boxes).as_tuple()

    walk(tree.root, 1)
    assert set(leaves) == {tree.height}
    assert len(tree) == len(live)
    assert sorted(tree.items(), key=repr) == sorted(live, key=repr)


@given(max_entries=st.sampled_from([4, 5, 16]), operations=_operations,
       window=_boxes(), drain=st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_node_boxes_stay_exact_under_inserts_and_removes(
    max_entries, operations, window, drain
):
    tree = RTree(max_entries=max_entries)
    live = []
    for next_id, (kind, env, pick) in enumerate(operations):
        if kind == "insert":
            if live and pick % 3 == 0:  # a duplicate of a live envelope
                env = live[pick % len(live)][1]
            tree.insert(next_id, env)
            live.append((next_id, env))
        elif kind == "remove" and live:
            item_id, env = live.pop(pick % len(live))
            assert tree.remove(item_id, env)
        else:  # an id the tree does not hold, or a live id under another box
            item_id = live[pick % len(live)][0] if live and pick % 2 else -1
            wrong = Envelope(env.min_x, env.min_y, env.max_x + 7.0, env.max_y)
            assert not tree.remove(item_id, wrong)
        _check(tree, live)
        for query in (window, env):
            assert sorted(tree.search(query)) == sorted(
                item_id for item_id, e in live if e.intersects(query)
            )
    # then empty the tree in a drawn order: every shrink gets its turn
    drain.shuffle(live)
    while live:
        assert tree.remove(*live.pop())
        _check(tree, live)
