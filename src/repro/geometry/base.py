"""Core geometry model: envelopes and the abstract ``Geometry`` base.

The model follows the OGC Simple Features specification (the same model the
paper's DE-9IM micro benchmark is defined over): every geometry has a
*dimension* (0 for points, 1 for curves, 2 for surfaces), an *envelope*
(axis-aligned bounding box), a *boundary*, and WKT/WKB serialisations.

Geometries are immutable value objects; all coordinates are 2-D floats.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from repro.errors import GeometryError

Coord = Tuple[float, float]


class GeometryType(enum.Enum):
    """OGC simple-feature type tags (also used as WKB type codes)."""

    POINT = 1
    LINESTRING = 2
    POLYGON = 3
    MULTIPOINT = 4
    MULTILINESTRING = 5
    MULTIPOLYGON = 6
    GEOMETRYCOLLECTION = 7

    @property
    def wkt_name(self) -> str:
        return self.name


class Envelope:
    """An axis-aligned bounding rectangle (possibly degenerate or empty).

    Envelopes are the filter-step currency of the whole system: spatial
    indexes store them, the ``bluestem`` engine profile evaluates topological
    predicates *only* on them (MBR semantics), and the exact engines use them
    to short-circuit expensive DE-9IM evaluation.
    """

    __slots__ = ("min_x", "min_y", "max_x", "max_y")

    def __init__(self, min_x: float, min_y: float, max_x: float, max_y: float):
        if min_x > max_x or min_y > max_y:
            raise GeometryError(
                f"inverted envelope: ({min_x}, {min_y}, {max_x}, {max_y})"
            )
        self.min_x = float(min_x)
        self.min_y = float(min_y)
        self.max_x = float(max_x)
        self.max_y = float(max_y)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_coords(cls, coords: Iterable[Coord]) -> "Envelope":
        it = iter(coords)
        try:
            x, y = next(it)
        except StopIteration:
            raise GeometryError("cannot build an envelope from zero coordinates")
        min_x = max_x = x
        min_y = max_y = y
        for x, y in it:
            if x < min_x:
                min_x = x
            elif x > max_x:
                max_x = x
            if y < min_y:
                min_y = y
            elif y > max_y:
                max_y = y
        return cls(min_x, min_y, max_x, max_y)

    @classmethod
    def union_all(cls, envelopes: Iterable["Envelope"]) -> "Envelope":
        """``min``/``max`` over the envelopes' float columns."""
        boxes = list(envelopes)
        if not boxes:
            raise GeometryError("cannot union zero envelopes")
        return cls(
            min([b.min_x for b in boxes]), min([b.min_y for b in boxes]),
            max([b.max_x for b in boxes]), max([b.max_y for b in boxes]),
        )

    # -- derived properties ----------------------------------------------

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.width + self.height)

    @property
    def center(self) -> Coord:
        return ((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    # -- relations ---------------------------------------------------------

    def intersects(self, other: "Envelope") -> bool:
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def contains(self, other: "Envelope") -> bool:
        # ``other.min_x <= other.max_x``: nothing contains the empty envelope
        return (
            self.min_x <= other.min_x <= other.max_x <= self.max_x
            and self.min_y <= other.min_y
            and self.max_y >= other.max_y
        )

    def contains_point(self, x: float, y: float) -> bool:
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def intersection(self, other: "Envelope") -> Optional["Envelope"]:
        if not self.intersects(other):
            return None
        return Envelope(
            max(self.min_x, other.min_x),
            max(self.min_y, other.min_y),
            min(self.max_x, other.max_x),
            min(self.max_y, other.max_y),
        )

    def union(self, other: "Envelope") -> "Envelope":
        return Envelope(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def tolerance(self) -> float:
        """Margin matched to this envelope's coordinate scale.

        Coordinates derived by the overlay (segment intersection points)
        carry relative rounding error, so exact envelope comparisons can
        reject points the tolerant segment predicates would classify as
        ON the geometry. 1e-9 relative is far above float rounding noise
        yet far below any feature size the benchmark generates.
        """
        scale = max(
            abs(self.min_x),
            abs(self.min_y),
            abs(self.max_x),
            abs(self.max_y),
            1.0,
        )
        return 1e-9 * scale

    def padded(self) -> "Envelope":
        """This envelope expanded by its own relative tolerance."""
        return self.expanded(self.tolerance())

    def expanded(self, margin: float) -> "Envelope":
        return Envelope(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def distance(self, other: "Envelope") -> float:
        """Minimum distance between two envelopes (0 when they intersect)."""
        dx = max(other.min_x - self.max_x, self.min_x - other.max_x, 0.0)
        dy = max(other.min_y - self.max_y, self.min_y - other.max_y, 0.0)
        return math.hypot(dx, dy)

    def distance_to_point(self, x: float, y: float) -> float:
        dx = max(self.min_x - x, x - self.max_x, 0.0)
        dy = max(self.min_y - y, y - self.max_y, 0.0)
        return math.hypot(dx, dy)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Envelope):
            return NotImplemented
        return (
            self.min_x == other.min_x
            and self.min_y == other.min_y
            and self.max_x == other.max_x
            and self.max_y == other.max_y
        )

    def __hash__(self) -> int:
        return hash((self.min_x, self.min_y, self.max_x, self.max_y))

    def __repr__(self) -> str:
        return (
            f"Envelope({self.min_x:g}, {self.min_y:g}, "
            f"{self.max_x:g}, {self.max_y:g})"
        )

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.min_x, self.min_y, self.max_x, self.max_y)


#: the envelope of an empty geometry: inverted to infinity, so it meets no
#: envelope, lies in none and contains none
EMPTY_ENVELOPE = object.__new__(Envelope)
EMPTY_ENVELOPE.min_x = EMPTY_ENVELOPE.min_y = math.inf
EMPTY_ENVELOPE.max_x = EMPTY_ENVELOPE.max_y = -math.inf


class Geometry:
    """Abstract base for all geometry classes.

    Subclasses must provide :attr:`geom_type`, :meth:`coords_iter`,
    :attr:`dimension`, :attr:`is_empty` and equality-related plumbing.
    Topological and analysis operations live in :mod:`repro.algorithms`
    and are exposed here as thin methods so that user code reads naturally
    (``a.intersects(b)``, ``a.buffer(10)``).
    """

    __slots__ = ("_envelope", "_features")

    geom_type: GeometryType

    def __init__(self) -> None:
        self._envelope: Optional[Envelope] = None
        # lazily-built DE-9IM feature decomposition (see
        # repro.algorithms.de9im); geometries are immutable, so caching it
        # here is the "prepared geometry" optimisation real engines apply
        # to repeated predicate probes
        self._features = None

    # -- structure (abstract) ----------------------------------------------

    @property
    def dimension(self) -> int:
        """Topological dimension: 0, 1 or 2 (-1 for the empty geometry)."""
        raise NotImplementedError

    @property
    def is_empty(self) -> bool:
        raise NotImplementedError

    def coords_iter(self) -> Iterator[Coord]:
        """Iterate over every vertex of the geometry."""
        raise NotImplementedError

    @property
    def num_points(self) -> int:
        return sum(1 for _ in self.coords_iter())

    # -- envelope -----------------------------------------------------------

    @property
    def envelope(self) -> Envelope:
        """The geometry's minimum bounding rectangle (cached);
        :data:`EMPTY_ENVELOPE` when the geometry is empty."""
        if self._envelope is None:
            self._envelope = (
                EMPTY_ENVELOPE if self.is_empty
                else Envelope.from_coords(self.coords_iter())
            )
        return self._envelope

    def envelope_geometry(self) -> "Geometry":
        """The envelope as a Polygon geometry (``ST_Envelope`` semantics)."""
        from repro.geometry.polygon import Polygon

        if self.is_empty:
            return self
        env = self.envelope
        if env.width == 0.0 and env.height == 0.0:
            from repro.geometry.point import Point

            return Point(env.min_x, env.min_y)
        if env.width == 0.0 or env.height == 0.0:
            from repro.geometry.linestring import LineString

            return LineString([(env.min_x, env.min_y), (env.max_x, env.max_y)])
        return Polygon(
            [
                (env.min_x, env.min_y),
                (env.max_x, env.min_y),
                (env.max_x, env.max_y),
                (env.min_x, env.max_y),
                (env.min_x, env.min_y),
            ]
        )

    # -- serialisation --------------------------------------------------------

    def wkt(self, precision: int = 12) -> str:
        from repro.geometry.wkt import dumps

        return dumps(self, precision=precision)

    def wkb(self) -> bytes:
        from repro.geometry.wkb import dumps

        return dumps(self)

    # -- topological predicates (delegating to repro.algorithms) --------------

    def relate(self, other: "Geometry") -> str:
        from repro.algorithms.de9im import relate

        return str(relate(self, other))

    def equals(self, other: "Geometry") -> bool:
        from repro.algorithms.de9im import equals

        return equals(self, other)

    def disjoint(self, other: "Geometry") -> bool:
        from repro.algorithms.de9im import disjoint

        return disjoint(self, other)

    def intersects(self, other: "Geometry") -> bool:
        from repro.algorithms.de9im import intersects

        return intersects(self, other)

    def touches(self, other: "Geometry") -> bool:
        from repro.algorithms.de9im import touches

        return touches(self, other)

    def crosses(self, other: "Geometry") -> bool:
        from repro.algorithms.de9im import crosses

        return crosses(self, other)

    def within(self, other: "Geometry") -> bool:
        from repro.algorithms.de9im import within

        return within(self, other)

    def contains(self, other: "Geometry") -> bool:
        from repro.algorithms.de9im import contains

        return contains(self, other)

    def overlaps(self, other: "Geometry") -> bool:
        from repro.algorithms.de9im import overlaps

        return overlaps(self, other)

    def covers(self, other: "Geometry") -> bool:
        from repro.algorithms.de9im import covers

        return covers(self, other)

    def covered_by(self, other: "Geometry") -> bool:
        from repro.algorithms.de9im import covered_by

        return covered_by(self, other)

    # -- analysis operations ---------------------------------------------------

    def distance(self, other: "Geometry") -> float:
        from repro.algorithms.distance import distance

        return distance(self, other)

    def area(self) -> float:
        from repro.algorithms.measures import area

        return area(self)

    def length(self) -> float:
        from repro.algorithms.measures import length

        return length(self)

    def centroid(self) -> "Geometry":
        from repro.algorithms.measures import centroid

        return centroid(self)

    def point_on_surface(self) -> "Geometry":
        from repro.algorithms.measures import point_on_surface

        return point_on_surface(self)

    def convex_hull(self) -> "Geometry":
        from repro.algorithms.convexhull import convex_hull

        return convex_hull(self)

    def buffer(self, radius: float, quad_segs: int = 8) -> "Geometry":
        from repro.algorithms.buffer import buffer

        return buffer(self, radius, quad_segs=quad_segs)

    def intersection(self, other: "Geometry") -> "Geometry":
        from repro.algorithms.overlay import intersection

        return intersection(self, other)

    def union(self, other: "Geometry") -> "Geometry":
        from repro.algorithms.overlay import union

        return union(self, other)

    def difference(self, other: "Geometry") -> "Geometry":
        from repro.algorithms.overlay import difference

        return difference(self, other)

    def sym_difference(self, other: "Geometry") -> "Geometry":
        from repro.algorithms.overlay import sym_difference

        return sym_difference(self, other)

    def simplify(self, tolerance: float) -> "Geometry":
        from repro.algorithms.simplify import simplify

        return simplify(self, tolerance)

    # -- dunder ------------------------------------------------------------------

    def __repr__(self) -> str:
        text = self.wkt(precision=6)
        if len(text) > 80:
            text = text[:77] + "..."
        return f"<{type(self).__name__} {text}>"

    def __eq__(self, other: object) -> bool:
        """Structural equality (same type, same coordinates in order).

        Topological equality (``POINT(0 0)`` vs ``MULTIPOINT(0 0)``) is
        :meth:`equals`, matching the OGC split between ``=`` and
        ``ST_Equals``.
        """
        if type(self) is not type(other):
            return NotImplemented
        return self._struct_key() == other._struct_key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._struct_key()))

    def _struct_key(self) -> tuple:
        raise NotImplementedError


def clean_coords(coords: Sequence[Coord], what: str) -> Tuple[Coord, ...]:
    """Validate and normalise a coordinate sequence to float tuples."""
    out = []
    for raw in coords:
        try:
            x, y = raw
        except (TypeError, ValueError):
            raise GeometryError(f"{what}: coordinate {raw!r} is not an (x, y) pair")
        x = float(x)
        y = float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GeometryError(f"{what}: non-finite coordinate ({x}, {y})")
        out.append((x, y))
    return tuple(out)
