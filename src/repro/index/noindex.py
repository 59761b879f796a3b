"""Linear-scan "index": the no-index baseline.

Exists so the planner can treat index presence uniformly, and so the
index-effect experiment (J-F5) can flip between a real index and a full
scan without changing any other code.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.geometry.base import Envelope
from repro.index.base import SpatialIndex


class LinearScanIndex(SpatialIndex):
    kind = "scan"

    def __init__(self) -> None:
        self._items: List[Tuple[int, Envelope]] = []

    def insert(self, item_id: int, envelope: Envelope) -> None:
        self._items.append((item_id, envelope))

    def remove(self, item_id: int, envelope: Envelope) -> bool:
        for i, (stored_id, stored_env) in enumerate(self._items):
            if stored_id == item_id and stored_env == envelope:
                self._items.pop(i)
                return True
        return False

    def search(self, envelope: Envelope) -> List[int]:
        return [
            item_id for item_id, env in self._items if env.intersects(envelope)
        ]

    def items(self):
        yield from self._items

    def __len__(self) -> int:
        return len(self._items)
