"""Boolean operations by segment arrangement and face stitching.

The one noder: :func:`_split_segments` splits the segments of any
operands that have them (polygon rings, lines, collections of either) at
their mutual intersections, and both the areal overlay below and the line
overlays of :mod:`repro.algorithms.overlay` take their pieces from it.

The areal overlay is the classic clipper pipeline, implemented over this
library's own primitives:

1. split every operand's boundary segments at each intersection with
   another operand's (one sweep along x over all of them), so each
   resulting *piece* lies entirely within one interior/boundary/exterior
   class of every other operand;
2. label each piece's two open sides once against every operand: the
   owners of its coincident pieces (*twins*) by direction (an owner's
   interior is always to its piece's left — rings are stored shell-CCW,
   hole-CW), the other operands from the piece midpoint;
3. keep exactly the pieces where the boolean result differs across the
   piece, oriented result-interior-on-the-left;
4. stitch kept pieces into rings by rotational edge pairing, then assign
   CW rings as holes of the smallest containing CCW shell.

Two operands are the common case; ``ST_Union(geom)`` and ``ST_Buffer``
pass every operand to one call, which nodes and stitches each once.

This trades the raw speed of a sweep-line clipper for transparency: every
step reuses predicates that are independently unit-tested, which is the
right trade for a benchmark whose *answers* must be trustworthy.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.algorithms.location import (
    Location, Prepared, Segment, locate_in_ring, prepare,
)
from repro.algorithms.measures import area as geom_area
from repro.algorithms.predicates import segment_intersection
from repro.errors import TopologyError
from repro.geometry.base import Coord, Geometry
from repro.geometry.polygon import MultiPolygon, Polygon, signed_ring_area

_INT, _BND, _EXT = Location.INTERIOR, Location.BOUNDARY, Location.EXTERIOR

_KEY_DECIMALS = 9

#: an op reads the operands whose interior holds one side of a piece, as a
#: bit mask (bit k = operand k), against the mask of every operand; with
#: two operands each is the textbook boolean
BoolOp = Callable[[int, int], bool]

OPS: Dict[str, BoolOp] = {
    "intersection": lambda inside, every: inside == every,
    "union": lambda inside, every: inside != 0,
    "difference": lambda inside, every: inside == 1,
    "sym_difference": lambda inside, every: bin(inside).count("1") % 2 == 1,
}


def _key(p: Coord) -> Tuple[float, float]:
    return (round(p[0], _KEY_DECIMALS), round(p[1], _KEY_DECIMALS))


def _edge_key(a: Coord, b: Coord) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    ka, kb = _key(a), _key(b)
    return (ka, kb) if ka <= kb else (kb, ka)


class _Piece:
    """A directed boundary fragment; owner interior is on its left."""

    __slots__ = ("start", "end", "owner", "mid")

    def __init__(self, start: Coord, end: Coord, owner: int):
        self.start = start
        self.end = end
        self.owner = owner  # the operand's position
        self.mid = ((start[0] + end[0]) / 2.0, (start[1] + end[1]) / 2.0)


def _boundary_segments(geom: Geometry) -> List[Segment]:
    """The segments an operand is split along: a line's in line order, a
    polygon's in ring order (whatever order refinement has put
    ``segments`` in: the stitched rings start where their first kept piece
    does), a collection's member by member."""
    prepared = prepare(geom)
    if not (prepared.lineal or prepared.areal):
        raise TypeError(f"overlay has no segments to split in {type(geom).__name__}")
    return [s for _ends, line in prepared.lineal for s in line] + [
        s for _env, rings in prepared.areal for ring in rings for s in ring
    ]


def _meeting(boxes: List[tuple]) -> Iterator[Tuple[object, object]]:
    """Every pair of boxes from different owners that meet, by one sweep
    along x. A box is ``(min_x, min_y, max_x, max_y, owner, item)``."""
    boxes.sort(key=itemgetter(0))
    for i, (_x0, y0, x1, y1, owner, item) in enumerate(boxes):
        for j in range(i + 1, len(boxes)):
            ox0, oy0, _ox1, oy1, other_owner, other = boxes[j]
            if ox0 > x1:
                break  # and so does every box after it
            if other_owner != owner and oy0 <= y1 and oy1 >= y0:
                yield item, other


def _split_segments(
    boundaries: Sequence[Sequence[Segment]],
) -> Tuple[List[_Piece], List[Coord]]:
    """Split every operand's segments at their intersections with the other
    operands' segments; also return the intersection points themselves
    (used for 0-dim intersection output)."""
    splits: Dict[Tuple[int, Segment], List[Coord]] = {}
    crossing_points: List[Coord] = []
    boxes = [
        (s[4], s[5], s[6], s[7], k, (k, s))
        for k, segments in enumerate(boundaries) for s in segments
    ]
    for s, t in _meeting(boxes):
        hit = segment_intersection(s[1][0], s[1][1], t[1][0], t[1][1])
        if hit is None:
            continue
        for p in hit if isinstance(hit[0], tuple) else (hit,):
            splits.setdefault(s, []).append(p)
            splits.setdefault(t, []).append(p)
            crossing_points.append(p)
    pieces = [
        piece for k, segments in enumerate(boundaries)
        for piece in _make_pieces(segments, splits, k)
    ]
    return pieces, crossing_points


def _make_pieces(
    segments: Sequence[Segment],
    splits: Dict[Tuple[int, Segment], List[Coord]],
    owner: int,
) -> List[_Piece]:
    pieces: List[_Piece] = []
    for segment in segments:
        a, b = segment[:2]
        cuts = splits.get((owner, segment))
        if not cuts:
            pieces.append(_Piece(a, b, owner))
            continue
        dx, dy = b[0] - a[0], b[1] - a[1]
        use_x = abs(dx) >= abs(dy)

        def param(p: Coord) -> float:
            return (p[0] - a[0]) / dx if use_x else (p[1] - a[1]) / dy

        ordered = sorted(
            {(_clamp01(param(p)), _key(p)): p for p in cuts}.items()
        )
        waypoints: List[Coord] = [a]
        last = _key(a)
        for (t, k), p in ordered:
            if 0.0 < t < 1.0 and k != last:
                waypoints.append(p)
                last = k
        if _key(b) != last:
            waypoints.append(b)
        for s, e in zip(waypoints, waypoints[1:]):
            pieces.append(_Piece(s, e, owner))
    return pieces


def _clamp01(t: float) -> float:
    return 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)


def overlay(
    operands: Sequence[Geometry], op: str
) -> Tuple[List[Tuple[Tuple[Coord, ...], List[Tuple[Coord, ...]]]],
           List[Tuple[Coord, Coord]], List[Coord]]:
    """Low-level areal overlay of any number of operands, in one pass.

    Every operand's boundary is split once; the pieces that coincide
    (*twins*, one per operand that has the edge) are labelled together,
    each operand that owns none locating the piece midpoint only when its
    envelope comes near the piece's owner; the kept pieces are stitched
    once. Returns ``(polygons, line_pieces, touch_points)`` where polygons
    is a list of (shell, holes) coordinate rings. Line pieces and touch
    points are only populated for ``op='intersection'`` (they describe the
    lower-dimensional portion of the intersection, which
    ``ST_Intersection`` must report when polygons share edges or corners
    without overlapping).
    """
    if op not in OPS:
        raise ValueError(f"unknown overlay op {op!r}")
    boolean = OPS[op]
    boundaries = [_boundary_segments(g) for g in operands]
    prepared = [prepare(g) for g in operands]
    every = (1 << len(operands)) - 1
    pieces, crossings = _split_segments(boundaries)

    near: List[List[int]] = [[] for _g in operands]
    for k, m in _meeting([
        (p.env.min_x - p.pad, p.env.min_y - p.pad,
         p.env.max_x + p.pad, p.env.max_y + p.pad, k, k)
        for k, p in enumerate(prepared)
    ]):
        near[k].append(m)
        near[m].append(k)
    twins: Dict[tuple, List[_Piece]] = {}
    for piece in pieces:
        twins.setdefault(_edge_key(piece.start, piece.end), []).append(piece)

    kept: List[Tuple[Coord, Coord]] = []
    shared_line_pieces: List[Tuple[Coord, Coord]] = []
    for group in twins.values():
        piece = group[0]
        # masks of the operands with interior on the piece's left, on its
        # right, and with the piece on their boundary
        left, right = 1 << piece.owner, 0
        on = left
        for twin in group[1:]:
            bit = 1 << twin.owner
            on |= bit
            if _same_direction(piece, twin):
                left |= bit
            else:
                right |= bit
        for k in near[piece.owner]:
            bit = 1 << k
            if on & bit:
                continue
            where = prepared[k].locate(piece.mid)
            if where is _INT:
                left |= bit
                right |= bit
            elif where is _BND:
                on |= bit
                in_left, in_right = _probe_sides(piece, prepared[k])
                left |= bit if in_left else 0
                right |= bit if in_right else 0
        left_in = boolean(left, every)
        if left_in != boolean(right, every):
            kept.append(
                (piece.start, piece.end) if left_in else (piece.end, piece.start)
            )
        elif op == "intersection" and not left_in and on == every:
            shared_line_pieces.append((piece.start, piece.end))

    polygons = _stitch(kept)

    touch_points: List[Coord] = []
    if op == "intersection":
        kept_nodes = set()
        for shell, holes in polygons:
            for ring in [shell] + holes:
                kept_nodes.update(_key(p) for p in ring)
        line_nodes = set()
        for s, e in shared_line_pieces:
            line_nodes.add(_key(s))
            line_nodes.add(_key(e))
        seen = set()
        for p in crossings:
            k = _key(p)
            if k in seen or k in kept_nodes or k in line_nodes:
                continue
            seen.add(k)
            if all(g.locate(p) is not _EXT for g in prepared):
                touch_points.append(p)
    return polygons, shared_line_pieces, touch_points


def _same_direction(p: _Piece, q: _Piece) -> bool:
    dx1, dy1 = p.end[0] - p.start[0], p.end[1] - p.start[1]
    dx2, dy2 = q.end[0] - q.start[0], q.end[1] - q.start[1]
    return dx1 * dx2 + dy1 * dy2 > 0.0


def _probe_sides(piece: _Piece, other: Prepared) -> Tuple[bool, bool]:
    """Numeric fallback: probe both sides of the piece against ``other``."""
    dx, dy = piece.end[0] - piece.start[0], piece.end[1] - piece.start[1]
    norm = math.hypot(dx, dy)
    eps = norm * 1e-4
    ux, uy = -dy / norm, dx / norm
    left = (piece.mid[0] + eps * ux, piece.mid[1] + eps * uy)
    right = (piece.mid[0] - eps * ux, piece.mid[1] - eps * uy)
    return (
        other.locate(left) is _INT,
        other.locate(right) is _INT,
    )


def _stitch(
    edges: List[Tuple[Coord, Coord]]
) -> List[Tuple[Tuple[Coord, ...], List[Tuple[Coord, ...]]]]:
    """Connect directed result-left edges into rings and group into polygons."""
    if not edges:
        return []
    out_edges: Dict[Tuple[float, float], List[int]] = {}
    for idx, (s, _e) in enumerate(edges):
        out_edges.setdefault(_key(s), []).append(idx)
    used = [False] * len(edges)
    rings: List[List[Coord]] = []

    for start_idx in range(len(edges)):
        if used[start_idx]:
            continue
        ring: List[Coord] = [edges[start_idx][0]]
        ring_key = _key(ring[0])
        cur = start_idx
        used[cur] = True
        guard = 0
        while True:
            guard += 1
            if guard > len(edges) + 1:
                raise TopologyError("overlay stitching failed to close a ring")
            s, e = edges[cur]
            ring.append(e)
            end_key = _key(e)
            if end_key == ring_key:
                rings.append(ring)
                break
            candidates = [
                i for i in out_edges.get(end_key, ()) if not used[i]
            ]
            if not candidates:
                # dangling chain: numerical casualty — drop it
                rings.append([])
                break
            if len(candidates) == 1:
                nxt = candidates[0]
            else:
                nxt = _pick_clockwise(edges, cur, candidates)
            used[nxt] = True
            cur = nxt

    polys: List[Tuple[Tuple[Coord, ...], float]] = []
    holes: List[Tuple[Tuple[Coord, ...], float]] = []
    for ring in rings:
        if len(ring) < 4:
            continue
        coords = tuple(ring)
        signed = signed_ring_area(coords)
        if abs(signed) < 1e-12:
            continue
        if signed > 0.0:
            polys.append((coords, signed))
        else:
            holes.append((coords, signed))

    result: List[Tuple[Tuple[Coord, ...], List[Tuple[Coord, ...]]]] = [
        (shell, []) for shell, _a in sorted(polys, key=lambda t: t[1])
    ]
    for hole, _a in holes:
        probe = _ring_inner_probe(hole)
        placed = False
        for shell, shell_holes in result:  # smallest containing shell first
            if locate_in_ring(probe, shell) is _INT:
                shell_holes.append(hole)
                placed = True
                break
        if not placed:
            # A hole with no shell means inconsistent stitching; surface it.
            raise TopologyError("overlay produced an orphan hole ring")
    return result


def _pick_clockwise(
    edges: List[Tuple[Coord, Coord]], cur: int, candidates: List[int]
) -> int:
    """Next edge = first candidate rotating clockwise from the reversed
    incoming direction (keeps the traced face on the left)."""
    s, e = edges[cur]
    rev = math.atan2(s[1] - e[1], s[0] - e[0])
    best = None
    best_delta = math.inf
    for idx in candidates:
        cs, ce = edges[idx]
        ang = math.atan2(ce[1] - cs[1], ce[0] - cs[0])
        delta = (rev - ang) % (2.0 * math.pi)
        if delta < 1e-12:
            delta = 2.0 * math.pi  # the straight-back edge is the last resort
        if delta < best_delta:
            best_delta = delta
            best = idx
    assert best is not None
    return best


def _ring_inner_probe(ring: Sequence[Coord]) -> Coord:
    """A point strictly inside ``ring``: the centroid of the first corner
    triangle that holds one. (The midpoint of a corner's two neighbours
    lies *on* a triangular ring, so it cannot place a triangle hole that
    touches its shell at a vertex.)"""
    for i in range(1, len(ring) - 1):
        centroid = (
            (ring[i - 1][0] + ring[i][0] + ring[i + 1][0]) / 3.0,
            (ring[i - 1][1] + ring[i][1] + ring[i + 1][1]) / 3.0,
        )
        if locate_in_ring(centroid, ring) is _INT:
            return centroid
    return ring[0]


def polygons_from_overlay(
    parts: List[Tuple[Tuple[Coord, ...], List[Tuple[Coord, ...]]]]
) -> Optional[Geometry]:
    """Build a Polygon/MultiPolygon from stitched rings (None when empty)."""
    built = [Polygon(shell, holes) for shell, holes in parts]
    if not built:
        return None
    if len(built) == 1:
        return built[0]
    return MultiPolygon(built)


def overlay_areal(operands: Sequence[Geometry], op: str) -> Optional[Geometry]:
    """Areal part of the boolean result (None when it has no area)."""
    parts, _lines, _pts = overlay(operands, op)
    geom = polygons_from_overlay(parts)
    if geom is not None and geom_area(geom) < 1e-15:
        return None
    return geom
