"""Common interface for spatial indexes.

Every index maps integer item ids to envelopes and answers three queries:
envelope search (the filter step of every spatial predicate), point
queries, and nearest-neighbour. Engines pick their index class through the
profile system (R-tree for ``greenwood``/``bluestem``, quadtree for
``ironbark``), and experiment J-A2 races the implementations directly.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.geometry.base import Envelope

#: candidate pairs a batched join examines between two yields
JOIN_BATCH = 1024


class SpatialIndex:
    """Abstract spatial index over ``(item_id, envelope)`` pairs."""

    #: human-readable name used in benchmark reports
    kind: str = "abstract"

    def insert(self, item_id: int, envelope: Envelope) -> None:
        raise NotImplementedError

    def remove(self, item_id: int, envelope: Envelope) -> bool:
        """Remove one entry; returns False when it was not present."""
        raise NotImplementedError

    def search(self, envelope: Envelope) -> List[int]:
        """Ids of all items whose envelope intersects the query envelope."""
        raise NotImplementedError

    def search_point(self, x: float, y: float) -> List[int]:
        return self.search(Envelope(x, y, x, y))

    def nearest(self, x: float, y: float, k: int = 1) -> List[int]:
        """Ids of the k items with smallest envelope distance to (x, y)."""
        raise NotImplementedError

    def nearest_iter(self, x: float, y: float) -> Iterator[Tuple[int, float]]:
        """Stream ``(item_id, envelope_distance)`` in nondecreasing
        envelope-distance order.

        The envelope distance is a lower bound on the true geometry
        distance, which makes this iterator the engine's substrate for
        exact KNN (best-first search with exact re-ranking). The default
        materialises and sorts everything; tree indexes override with
        incremental heap traversal.
        """
        ranked = self.nearest(x, y, k=len(self))
        for item_id in ranked:
            yield item_id, 0.0  # distance unknown in the fallback

    def items(self) -> Iterator[Tuple[int, Envelope]]:
        """Every ``(item_id, envelope)`` entry, order unspecified."""
        raise NotImplementedError

    def join(self, other: "SpatialIndex") -> Iterator[Tuple[int, int]]:
        """All ``(self_id, other_id)`` pairs with intersecting envelopes
        (a self-join yields both orientations of every pair plus each
        ``(x, x)``, matching nested-loop join semantics)."""
        for ids, other_ids, _candidates in self.join_batches(other):
            yield from zip(ids, other_ids)

    def join_batches(
        self,
        other: "SpatialIndex",
        test: Optional[Callable[[Envelope, Envelope], bool]] = None,
    ) -> Iterator[Tuple[List[int], List[int], int]]:
        """The envelope join in batches: ``(ids, other_ids, candidates)``.

        ``candidates`` counts the pairs with intersecting envelopes
        examined since the previous batch; the two parallel id lists hold
        those that ``test(own_env, other_env)`` also accepts (all of them
        without a test). A batch is yielded every :data:`JOIN_BATCH`
        candidates or so, accepted or not, so a consumer regains control
        at a steady rate even when the test rejects nearly everything.

        The generic implementation probes ``other`` once per own entry;
        tree indexes override it with a synchronized traversal that
        descends both structures at once and prunes non-intersecting
        node pairs.
        """
        search = other.search
        envelope_of = dict(other.items()) if test is not None else None
        ids: List[int] = []
        other_ids: List[int] = []
        candidates = 0
        for item_id, env in self.items():
            hits = search(env)
            candidates += len(hits)
            if envelope_of is not None:
                hits = [h for h in hits if test(env, envelope_of[h])]
            ids.extend([item_id] * len(hits))
            other_ids.extend(hits)
            if candidates >= JOIN_BATCH:
                yield ids, other_ids, candidates
                ids, other_ids, candidates = [], [], 0
        if candidates:
            yield ids, other_ids, candidates

    def __len__(self) -> int:
        raise NotImplementedError

    @classmethod
    def bulk_load(
        cls, items: Iterable[Tuple[int, Envelope]], **kwargs
    ) -> "SpatialIndex":
        """Default bulk load: repeated insertion (subclasses override)."""
        index = cls(**kwargs)
        for item_id, envelope in items:
            index.insert(item_id, envelope)
        return index
