"""Areal boolean operations by segment arrangement and face stitching.

The classic clipper pipeline, implemented over this library's own
primitives:

1. split both operands' boundary segments at every mutual intersection,
   so each resulting *piece* lies entirely within one
   interior/boundary/exterior class of the other polygon;
2. classify each piece's two open sides against both operands (the piece's
   own polygon interior is always to its left — rings are stored shell-CCW,
   hole-CW — and the other polygon's class comes from the piece midpoint,
   with coincident-edge orientation resolving the shared-boundary case);
3. keep exactly the pieces where the boolean result differs across the
   piece, oriented result-interior-on-the-left;
4. stitch kept pieces into rings by rotational edge pairing, then assign
   CW rings as holes of the smallest containing CCW shell.

This trades the raw speed of a sweep-line clipper for transparency: every
step reuses predicates that are independently unit-tested, which is the
right trade for a benchmark whose *answers* must be trustworthy.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.location import (
    Location, Segment, box_pairs, locate, locate_in_ring, prepare,
)
from repro.algorithms.measures import area as geom_area
from repro.algorithms.predicates import segment_intersection
from repro.errors import TopologyError
from repro.geometry.base import Coord, Geometry
from repro.geometry.polygon import MultiPolygon, Polygon, signed_ring_area

_INT, _BND, _EXT = Location.INTERIOR, Location.BOUNDARY, Location.EXTERIOR

_KEY_DECIMALS = 9

BoolOp = Callable[[bool, bool], bool]

OPS: Dict[str, BoolOp] = {
    "intersection": lambda a, b: a and b,
    "union": lambda a, b: a or b,
    "difference": lambda a, b: a and not b,
    "sym_difference": lambda a, b: a != b,
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
        self.owner = owner  # 0 = A, 1 = B
        self.mid = ((start[0] + end[0]) / 2.0, (start[1] + end[1]) / 2.0)


def _boundary_segments(geom: Geometry) -> Sequence[Segment]:
    if not isinstance(geom, (Polygon, MultiPolygon)):
        raise TypeError(
            f"areal overlay requires polygons, got {type(geom).__name__}"
        )
    return prepare(geom).segments


def _split_segments(
    segs_a: Sequence[Segment], segs_b: Sequence[Segment]
) -> Tuple[List[_Piece], List[_Piece], List[Coord]]:
    """Split both segment sets at mutual intersections; also return the
    intersection points themselves (used for 0-dim intersection output)."""
    splits_a: Dict[Segment, List[Coord]] = {}
    splits_b: Dict[Segment, List[Coord]] = {}
    crossing_points: List[Coord] = []
    for s, t in box_pairs(segs_a, segs_b, 0.0):
        hit = segment_intersection(s[0], s[1], t[0], t[1])
        if hit is None:
            continue
        for p in hit if isinstance(hit[0], tuple) else (hit,):
            splits_a.setdefault(s, []).append(p)
            splits_b.setdefault(t, []).append(p)
            crossing_points.append(p)
    pieces_a = _make_pieces(segs_a, splits_a, owner=0)
    pieces_b = _make_pieces(segs_b, splits_b, owner=1)
    return pieces_a, pieces_b, crossing_points


def _make_pieces(
    segments: Sequence[Segment],
    splits: Dict[Segment, List[Coord]],
    owner: int,
) -> List[_Piece]:
    pieces: List[_Piece] = []
    for segment in segments:
        a, b = segment[:2]
        cuts = splits.get(segment)
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
        for (t, _k), p in ordered:
            if 0.0 < t < 1.0 and _key(p) != _key(waypoints[-1]):
                waypoints.append(p)
        if _key(b) != _key(waypoints[-1]):
            waypoints.append(b)
        for s, e in zip(waypoints, waypoints[1:]):
            pieces.append(_Piece(s, e, owner))
    return pieces


def _clamp01(t: float) -> float:
    return 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)


def overlay(
    a: Geometry, b: Geometry, op: str
) -> Tuple[List[Tuple[Tuple[Coord, ...], List[Tuple[Coord, ...]]]],
           List[Tuple[Coord, Coord]], List[Coord]]:
    """Low-level areal overlay.

    Returns ``(polygons, line_pieces, touch_points)`` where polygons is a
    list of (shell, holes) coordinate rings. Line pieces and touch points
    are only populated for ``op='intersection'`` (they describe the
    lower-dimensional portion of the intersection, which ``ST_Intersection``
    must report when polygons share edges or corners without overlapping).
    """
    if op not in OPS:
        raise ValueError(f"unknown overlay op {op!r}")
    boolean = OPS[op]
    segs_a = _boundary_segments(a)
    segs_b = _boundary_segments(b)
    pieces_a, pieces_b, crossings = _split_segments(segs_a, segs_b)

    coincident: Dict[tuple, _Piece] = {}
    for piece in pieces_a:
        coincident[_edge_key(piece.start, piece.end)] = piece

    kept: List[Tuple[Coord, Coord]] = []
    shared_line_pieces: List[Tuple[Coord, Coord]] = []

    for piece in pieces_a:
        where = locate(piece.mid, b)
        if where is _INT:
            left_b = right_b = True
        elif where is _EXT:
            left_b = right_b = False
        else:
            twin = _find_twin(piece, pieces_b)
            if twin is None:
                left_b, right_b = _probe_sides(piece, b)
            else:
                same_dir = _same_direction(piece, twin)
                # twin's interior (B's) is on the twin's left
                left_b = same_dir  # B-interior on A-piece's left?
                right_b = not same_dir
        left_in = boolean(True, left_b)
        right_in = boolean(False, right_b)
        if left_in != right_in:
            kept.append(
                (piece.start, piece.end) if left_in else (piece.end, piece.start)
            )
        elif (
            op == "intersection"
            and not left_in
            and where is _BND
        ):
            shared_line_pieces.append((piece.start, piece.end))

    twin_keys = {
        _edge_key(p.start, p.end) for p in pieces_a
    }
    for piece in pieces_b:
        if _edge_key(piece.start, piece.end) in twin_keys:
            continue  # handled (or deliberately dropped) via the A twin
        where = locate(piece.mid, a)
        if where is _INT:
            left_a = right_a = True
        elif where is _EXT:
            left_a = right_a = False
        else:
            left_a, right_a = _probe_sides(piece, a)
        left_in = boolean(left_a, True)
        right_in = boolean(right_a, False)
        if left_in != right_in:
            kept.append(
                (piece.start, piece.end) if left_in else (piece.end, piece.start)
            )

    polygons = _stitch(kept)

    touch_points: List[Coord] = []
    if op == "intersection":
        line_keys = {_edge_key(s, e) for s, e in shared_line_pieces}
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
            if (
                locate(p, a) is not _EXT
                and locate(p, b) is not _EXT
            ):
                touch_points.append(p)
        del line_keys
    return polygons, shared_line_pieces, touch_points


def _find_twin(piece: _Piece, pieces_other: List[_Piece]) -> Optional[_Piece]:
    key = _edge_key(piece.start, piece.end)
    for other in pieces_other:
        if _edge_key(other.start, other.end) == key:
            return other
    return None


def _same_direction(p: _Piece, q: _Piece) -> bool:
    dx1, dy1 = p.end[0] - p.start[0], p.end[1] - p.start[1]
    dx2, dy2 = q.end[0] - q.start[0], q.end[1] - q.start[1]
    return dx1 * dx2 + dy1 * dy2 > 0.0


def _probe_sides(piece: _Piece, other: Geometry) -> Tuple[bool, bool]:
    """Numeric fallback: probe both sides of the piece against ``other``."""
    dx, dy = piece.end[0] - piece.start[0], piece.end[1] - piece.start[1]
    norm = math.hypot(dx, dy)
    eps = norm * 1e-4
    ux, uy = -dy / norm, dx / norm
    left = (piece.mid[0] + eps * ux, piece.mid[1] + eps * uy)
    right = (piece.mid[0] - eps * ux, piece.mid[1] - eps * uy)
    return (
        locate(left, other) is _INT,
        locate(right, other) is _INT,
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
        cur = start_idx
        used[cur] = True
        guard = 0
        while True:
            guard += 1
            if guard > len(edges) + 1:
                raise TopologyError("overlay stitching failed to close a ring")
            s, e = edges[cur]
            ring.append(e)
            if _key(e) == _key(ring[0]):
                rings.append(ring)
                break
            candidates = [
                i for i in out_edges.get(_key(e), ()) if not used[i]
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


def overlay_areal(a: Geometry, b: Geometry, op: str) -> Optional[Geometry]:
    """Areal part of the boolean result (None when it has no area)."""
    parts, _lines, _pts = overlay(a, b, op)
    geom = polygons_from_overlay(parts)
    if geom is not None and geom_area(geom) < 1e-15:
        return None
    return geom
