"""DE-9IM: the Dimensionally Extended 9-Intersection Model.

This module is the heart of the reproduction — the paper's topological
micro benchmark is defined directly over DE-9IM relations, so every query
in experiment J-T1/J-F1 bottoms out in the one kernel below, :func:`_relate`:
:func:`relate` asks it for all nine cells, every named predicate for the
cells its mask leaves open (:data:`PREDICATES`, :func:`evaluate`). The
kernel is set up once per run of pairs that share one operand
(:func:`evaluator`): a join hands it an outer row and its candidates.

The matrix is computed by *split-and-sample* over the operands' prepared
forms (:class:`repro.algorithms.location.Prepared`: vertices tagged with
their interior/boundary role, segments tagged as curve-interior or
areal-boundary and carrying their bounds). Segments of each operand are
split at every intersection with the other operand, after which each split
piece lies entirely within a single interior/boundary/exterior class of the
other geometry, so classifying one midpoint classifies the piece.
Dimension-2 entries follow from an open-set limit argument: an areal
boundary piece whose midpoint sits in the other operand's interior proves
interior/interior AND exterior/interior intersections of dimension 2 (the
two open sides of the piece converge to it); where the piece runs along the
other polygon's boundary, the two ring directions say on which side each
interior lies. No step probes at a numeric distance.

It is a filter-then-verify kernel. Filter: nothing outside the overlap of
the two (tolerance-widened) envelopes is tested, and an orientation is
computed only for a segment pair, or a point and a segment, whose boxes
meet. Verify only what was asked: evidence is gathered in order of cost and
only while it can still change whether the requested mask matches:

0. the rectangle case, for a run that shares an axis-aligned rectangle: its
   bounds decide each pair, unprepared, beyond the tolerance band of its edges;
1. the exact reject, for a mask that forbids only cells where the operands
   meet (intersects, disjoint, touches, crosses, overlaps): one vertex of
   each line and polygon located against the other's areal members, then
   one sweep of the segment boxes. No box pair and no vertex in or on the
   other proves the pair disjoint; otherwise the pairs are kept for step 3;
2. vertices;
3. segment crossings;
4. split pieces;
5. interior points.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.algorithms.location import (
    Location, Prepared, Segment, box_pairs, locate_in_ring, prepare,
)
from repro.algorithms.measures import point_on_surface
from repro.algorithms.predicates import on_segment, segment_intersection
from repro.geometry.base import Coord, Geometry
from repro.geometry.collection import GeometryCollection
from repro.geometry.linestring import LineString
from repro.geometry.polygon import MultiPolygon, Polygon

_INT, _BND, _EXT = Location.INTERIOR, Location.BOUNDARY, Location.EXTERIOR

_DIM_CHARS = {-1: "F", 0: "0", 1: "1", 2: "2"}


class DE9IM:
    """An immutable 9-intersection matrix with pattern matching."""

    __slots__ = ("_cells",)

    def __init__(self, cells: Sequence[int]):
        if len(cells) != 9:
            raise ValueError("DE-9IM needs exactly nine cells")
        self._cells = tuple(cells)

    @classmethod
    def from_string(cls, text: str) -> "DE9IM":
        mapping = {"F": -1, "0": 0, "1": 1, "2": 2}
        try:
            return cls([mapping[ch] for ch in text.upper()])
        except KeyError as exc:
            raise ValueError(f"bad DE-9IM character {exc.args[0]!r}")

    def cell(self, loc_a: Location, loc_b: Location) -> int:
        return self._cells[int(loc_a) * 3 + int(loc_b)]

    def transpose(self) -> "DE9IM":
        c = self._cells
        return DE9IM([c[0], c[3], c[6], c[1], c[4], c[7], c[2], c[5], c[8]])

    def matches(self, pattern: str) -> bool:
        """Match against a nine-character pattern of ``T F * 0 1 2``."""
        return _holds(_compile((pattern,)), self._cells)

    def __str__(self) -> str:
        return "".join(_DIM_CHARS[c] for c in self._cells)

    def __repr__(self) -> str:
        return f"DE9IM({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DE9IM):
            return self._cells == other._cells
        if isinstance(other, str):
            return str(self) == other.upper()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._cells)


#: bit ``3 * loc_a + loc_b`` stands for one matrix cell
_ROWS = (0o007, 0o070, 0o700)  # all cells of A's interior / boundary / exterior
_COLS = (0o111, 0o222, 0o444)  # the same for B
_II, _IE, _EI = 0, 2, 6
_AREA_CELLS = 1 << _II | 1 << _IE | 1 << _EI
_MEET = 0o033  # II, IB, BI, BB: the cells that are empty iff A and B are disjoint

#: one alternative of a relation: (cells that must stay empty, cells that
#: must fill, ((cell, exact dimension), ...))
_Alternative = Tuple[int, int, Tuple[Tuple[int, int], ...]]


@lru_cache(maxsize=256)
def _compile(patterns: Tuple[str, ...]) -> Tuple[_Alternative, ...]:
    """Nine-character patterns of ``T F * 0 1 2``, any of which may match."""
    alternatives = []
    for pattern in patterns:
        if len(pattern) != 9:
            raise ValueError("DE-9IM pattern must have nine characters")
        forbid = need = 0
        exact = []
        for idx, want in enumerate(pattern.upper()):
            if want == "T":
                need |= 1 << idx
            elif want == "F":
                forbid |= 1 << idx
            elif want != "*":
                exact.append((idx, int(want)))
        alternatives.append((forbid, need, tuple(exact)))
    return tuple(alternatives)


def _open_cells(
    alternatives: Sequence[_Alternative], cells: Sequence[int], filled: int
) -> int:
    """The cells whose further evidence can still change the verdict.

    ``filled`` has the bit of every non-empty cell. Cells only ever grow, so
    an alternative is refuted for good by a filled ``F`` cell or an exceeded
    dimension, and one with nothing left open has matched for good: 0 means
    the verdict is decided.
    """
    open_cells = 0
    for forbid, need, exact in alternatives:
        if forbid & filled:
            continue
        still = forbid | (need & ~filled)
        for idx, dim in exact:
            if cells[idx] > dim:
                break
            still |= 1 << idx
        else:
            if not still:
                return 0
            open_cells |= still
    return open_cells


def _holds(alternatives: Sequence[_Alternative], cells: Sequence[int]) -> bool:
    filled = 0
    for idx, dim in enumerate(cells):
        if dim >= 0:
            filled |= 1 << idx
    for forbid, need, exact in alternatives:
        if (
            not forbid & filled
            and not need & ~filled
            and (not exact or all(cells[idx] == dim for idx, dim in exact))
        ):
            return True
    return False


def _seg_point_param(a: Coord, b: Coord, p: Coord) -> float:
    """Parameter of ``p`` along segment ab (projection, for sorting splits)."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    if abs(dx) >= abs(dy):
        return (p[0] - a[0]) / dx if dx else 0.0
    return (p[1] - a[1]) / dy if dy else 0.0


def _interior_reps(feats: Prepared, geom: Geometry) -> List[Coord]:
    """One interior point per areal member (computed on first use)."""
    if feats.interior_reps is None:
        feats.interior_reps = []
        members = [geom]
        while members:
            member = members.pop()
            if isinstance(member, Polygon):
                feats.interior_reps.append(point_on_surface(member).coord)
            elif isinstance(member, MultiPolygon):
                members.extend(member.polygons)
            elif isinstance(member, GeometryCollection):
                members.extend(member.geoms)
    return feats.interior_reps


def _members(geom: Geometry, f: Prepared) -> Sequence[Tuple[Location, Coord]]:
    """One vertex of each line and each polygon (a shell vertex) of
    ``geom``, with its role there; ``f`` is ``geom`` prepared."""
    if isinstance(geom, LineString):
        p = geom.coords[0]
        return ((_BND if p in f.boundary else _INT, p),)
    if isinstance(geom, Polygon):
        return ((_BND, geom.shell[0]),)
    return [v for member in geom for v in _members(member, f)]


def _sweep(fa: Prepared, fb: Prepared):
    """The window the two envelopes share, each operand's segments that
    meet it, and the sweep over every segment pair whose boxes meet.

    Both sides are widened by the larger tolerance, the one the sweep
    pairs boxes with, so a pair whose boxes meet never falls outside it.
    """
    ea, eb = fa.env, fb.env
    pad = max(fa.pad, fb.pad)
    window = (
        max(ea.min_x, eb.min_x) - pad, max(ea.min_y, eb.min_y) - pad,
        min(ea.max_x, eb.max_x) + pad, min(ea.max_y, eb.max_y) + pad,
    )
    inside_a, inside_b = fa.segments_in(*window), fb.segments_in(*window)
    return window, inside_a, inside_b, box_pairs(inside_a, inside_b, pad)


def _disjoint(cells: List[int], fa: Prepared, fb: Prepared) -> List[int]:
    """Fill the exterior cells of a pair that does not meet."""
    if fa.env is not None:
        cells[2], cells[5] = fa.max_dim, fa.boundary_dim
    if fb.env is not None:
        cells[6], cells[7] = fb.max_dim, fb.boundary_dim
    return cells


def _clips(ax: float, ay: float, bx: float, by: float, *box: float) -> bool:
    """Does the closed segment ab (a point when ``a == b``) meet the closed
    box? Liang–Barsky: clip the segment's parameter range to each slab."""
    t0, t1 = 0.0, 1.0
    for p, d, lo, hi in ((ax, bx - ax, box[0], box[2]), (ay, by - ay, box[1], box[3])):
        if d:
            u0, u1 = (lo - p) / d, (hi - p) / d
            t0, t1 = max(t0, min(u0, u1)), min(t1, max(u0, u1))
        elif p < lo or p > hi:
            return False
    return t0 <= t1


def _is_rectangle(g: Optional[Geometry]) -> bool:
    """Is ``g`` a rectangle as ``ST_MakeEnvelope`` builds it: a polygon
    without holes, its closed 5-point shell on its envelope's corners?"""
    if type(g) is not Polygon or g.holes or len(g.shell) != 5:
        return False
    x0, y0, x1, y1 = g.envelope.as_tuple()
    return set(g.shell) == {(x0, y0), (x1, y0), (x1, y1), (x0, y1)}


def _rectangle(fixed: Optional[Geometry], fixed_is_b: bool, mask) -> Optional[Callable]:
    """The rectangle case of :func:`_relate` (``fixed`` :func:`_is_rectangle`;
    intersects/disjoint, or within with ``fixed`` as B): ``decide(g)`` answers
    from the bounds and ``g``'s coordinates, unprepared, as (the rule, cells),
    or leaves to the kernel (None) what comes within twice the larger
    tolerance of the boundary, the widest the kernel's tests reach."""
    meet = (0, -1, -1, -1, -1, -1, -1, -1, 2)  # the interiors meet
    apart = (-1, -1, 0, -1, -1, -1, -1, -1, 2)  # A's interior in B's exterior, alone
    within = mask == _WITHIN and fixed_is_b
    if not (within or mask == _DISJOINT) or not _is_rectangle(fixed):
        return None
    x0, y0, x1, y1 = fixed.envelope.as_tuple()
    pad = 2.0 * fixed.envelope.tolerance()

    def decide(g: Geometry):
        if type(g) is GeometryCollection:
            return None
        e = g.envelope
        if not within:
            if x0 <= e.min_x and e.max_x <= x1 and y0 <= e.min_y and e.max_y <= y1:
                return "envelope", meet
            for x, y in g.coords_iter():
                if x0 <= x <= x1 and y0 <= y <= y1:
                    return "vertex", meet
        band = max(pad, 2.0 * e.tolerance())
        ox0, oy0, ox1, oy1 = outer = (x0 - band, y0 - band, x1 + band, y1 + band)
        ix0, iy0, ix1, iy1 = inner = (x0 + band, y0 + band, x1 - band, y1 - band)
        if within:  # of g in the rectangle
            if ix0 < e.min_x and e.max_x < ix1 and iy0 < e.min_y and e.max_y < iy1:
                return "envelope", meet
            for x, y in g.coords_iter():
                if x < ox0 or x > ox1 or y < oy0 or y > oy1:
                    return "vertex", apart
            return None
        inner = ix0 <= ix1 and iy0 <= iy1 and inner  # unless the band swallows it
        near = False
        segments = (zip(g.coords, g.coords[1:]) if type(g) is LineString  # no generator
                    else g.segments() if g.dimension else ((p, p) for p in g.coords_iter()))
        for (ax, ay), (bx, by) in segments:
            if ax < ox0 > bx or ax > ox1 < bx or ay < oy0 > by or ay > oy1 < by:
                continue  # its box misses the widened rectangle
            if inner and _clips(ax, ay, bx, by, *inner):
                return "clip", meet
            near = near or _clips(ax, ay, bx, by, *outer)
        # no edge enters the rectangle: g meets it only if it holds a corner
        for poly in getattr(g, "polygons", (g,)) if g.dimension == 2 else ():
            where = [locate_in_ring((x0, y0), ring) for ring in poly.rings()]
            if where[0] is _BND or where[0] is _INT and _INT not in where[1:]:
                return "corner", meet
        return None if near else ("clip", apart)

    return decide


def _piece_evidence(
    fx: Prepared,
    fy: Prepared,
    inside: Sequence[Segment],
    window: Optional[Tuple[float, float, float, float]],
    splits: Dict[Segment, List[Coord]],
    shared: Dict[Segment, List[Segment]],
) -> Iterator[Tuple[Location, Location, int]]:
    """Classify every split piece of X's segments against Y.

    Yields ``(class in X, class in Y, dimension)``. A piece lies within one
    class of Y, so its midpoint classifies it. An areal boundary piece also
    proves 2-D entries by an open-set limit argument: X's interior and
    exterior converge to it from its left and right.
    """
    if window is not None and len(inside) < len(fx.segments):
        x0, y0, x1, y1 = window
        for role in {  # whole segments beyond the window, so beyond Y
            s[2] for s in fx.segments
            if s[4] > x1 or s[6] < x0 or s[5] > y1 or s[7] < y0
        }:
            yield role, _EXT, 1
            if role is _BND:
                yield _INT, _EXT, 2
    # is Y's interior an open 2-D set (areal members and nothing else)?
    y_open = fy.areal and not (fy.puntal or fy.lineal)
    locate_y = fy.locate
    for seg in inside:
        a, b, role, interior_left = seg[:4]
        cuts = {0.0, 1.0}
        for p in splits.get(seg, ()):
            t = _seg_point_param(a, b, p)
            if 0.0 < t < 1.0:
                cuts.add(t)
        for p in fy.puntal:  # no segment of their own to have split this one
            if on_segment(p, a, b):
                cuts.add(_seg_point_param(a, b, p))
        params = sorted(cuts)
        for t0, t1 in zip(params, params[1:]):
            if t1 - t0 <= 1e-12:
                continue
            tm = (t0 + t1) / 2.0
            mid = (a[0] + tm * (b[0] - a[0]), a[1] + tm * (b[1] - a[1]))
            where = locate_y(mid)
            yield role, where, 1
            if not interior_left:
                continue  # not an areal boundary piece
            if where is _EXT:
                yield _INT, _EXT, 2
            elif where is _INT:
                if y_open:
                    yield _INT, _INT, 2
                    yield _EXT, _INT, 2
            else:
                # Shared boundary: both interiors lie left of their own
                # directed ring segment, so the sign of the direction dot
                # product says whether they lie on the same side.
                sides = set()
                for c, d, _r, _l, x0, y0, x1, y1 in shared.get(seg, ()):
                    if (
                        x0 - fy.pad <= mid[0] <= x1 + fy.pad
                        and y0 - fy.pad <= mid[1] <= y1 + fy.pad
                    ):
                        sides.add(
                            (b[0] - a[0]) * (d[0] - c[0])
                            + (b[1] - a[1]) * (d[1] - c[1]) > 0.0
                        )
                if sides:
                    yield _INT, (_INT if True in sides else _EXT), 2
                    yield _EXT, (_INT if False in sides else _EXT), 2


def _relate(
    fixed: Geometry,
    fixed_is_b: bool = False,
    mask: Optional[Sequence[_Alternative]] = None,
) -> Callable[[Geometry], Sequence[int]]:
    """The kernel, set up for a run of pairs that share the operand ``fixed``.

    Returns the function that gives the nine intersection dimensions of
    ``fixed`` against its argument (of the argument against ``fixed`` when
    ``fixed_is_b``). ``fixed`` is prepared (in the rectangle case once a pair
    falls through), whether the mask takes the rectangle case or the exact
    reject is decided, and the closure that records evidence is built, once.

    With a ``mask`` the evidence is gathered only while it can still change
    whether the mask matches: steps that cannot touch an open cell are
    skipped and the evaluation stops once the verdict is decided, so the
    cells returned are exact only as far as ``_holds(mask, cells)`` needs.
    """
    rectangle = _rectangle(fixed, fixed_is_b, mask)
    ff = None if rectangle else prepare(fixed)
    # The exact reject, for a mask whose alternatives forbid no cell but
    # MEET ones (intersects, disjoint, touches, crosses, overlaps): a vertex
    # outside the other operand decides nothing for it, and most of its
    # candidates share no segment box at all. With no segments meeting, each
    # line and polygon lies wholly inside or wholly outside each of the
    # other's polygons, so one vertex of each, located against the other,
    # tells whether the operands meet. An isolated point lies on nothing it
    # would be swept against, so it skips the reject; so does the full
    # matrix.
    reject = mask is not None and not (ff and ff.puntal)
    for forbid, _need, _exact in mask if reject else ():
        if forbid & ~_MEET:
            reject = False
    cells: List[int] = []
    filled = open_cells = 0

    def decided(idx: int, dim: int) -> bool:
        """Record a cell that grew; is the verdict decided now?"""
        nonlocal filled, open_cells
        cells[idx] = dim
        filled |= 1 << idx
        if mask is None or not open_cells >> idx & 1:
            return False  # a cell no live alternative looks at
        open_cells = _open_cells(mask, cells, filled)
        return not open_cells

    def kernel(g: Geometry) -> Sequence[int]:
        nonlocal ff, cells, filled, open_cells
        if rectangle and (decided_by := rectangle(g)):
            return decided_by[1]
        ff = ff or prepare(fixed)
        fg = prepare(g)
        a, b, fa, fb = (g, fixed, fg, ff) if fixed_is_b else (fixed, g, ff, fg)
        cells = [-1] * 9
        cells[8] = 2
        filled = 1 << 8  # the bit of every non-empty cell
        ea, eb = fa.env, fb.env
        if ea is None or eb is None or not ea.intersects(eb):
            return _disjoint(cells, fa, fb)
        # A 2-D interior can never be covered by a lower-dimensional operand.
        if fa.max_dim == 2 and fb.max_dim < 2:
            cells[_IE] = 2
            filled |= 1 << _IE
        if fb.max_dim == 2 and fa.max_dim < 2:
            cells[_EI] = 2
            filled |= 1 << _EI
        open_cells = 0o777 if mask is None else _open_cells(mask, cells, filled)
        if not open_cells:
            return cells

        # Each kind of evidence is gathered for A against B, then for B
        # against A: (X, Y, the cell stride of X's class and of Y's, the
        # cells of X's interior and boundary, the geometry X was prepared
        # from).
        sides = ((fa, fb, 3, 1, _ROWS, a), (fb, fa, 1, 3, _COLS, b))

        # --- the exact reject: a vertex per member, then one sweep ---------
        pairs = None
        if reject and not fg.puntal and fa.segments and fb.segments:
            for fx, fy, own, other, _lines, geom in sides:
                if fy.areal:
                    for role, p in _members(geom, fx):
                        idx = role * own + fy.locate(p) * other
                        if cells[idx] < 0 and decided(idx, 0):
                            return cells
            window, inside_a, inside_b, pairs = _sweep(fa, fb)
            pairs = list(pairs)
            if not pairs and not filled & _MEET:
                return _disjoint(cells, fa, fb)

        # --- 0-dimensional evidence: vertices and isolated points ----------
        # (boxes widened by their own tolerance: see ``Prepared.locate``)
        pad = fa.pad
        box_a = (ea.min_x - pad, ea.min_y - pad, ea.max_x + pad, ea.max_y + pad)
        pad = fb.pad
        box_b = (eb.min_x - pad, eb.min_y - pad, eb.max_x + pad, eb.max_y + pad)
        every_vertex = True
        for (fx, fy, own, other, lines, _geom), box_y in zip(sides, (box_b, box_a)):
            x0, y0, x1, y1 = box_y
            locate_y = fy.locate
            for role, points in enumerate((fx.interior_points, fx.boundary_points)):
                if not open_cells & lines[role]:
                    every_vertex = False
                    continue
                for p in points:
                    x, y = p
                    if x < x0 or x > x1 or y < y0 or y > y1:
                        idx = role * own + 2 * other
                    else:
                        idx = role * own + locate_y(p) * other
                    if cells[idx] < 0 and decided(idx, 0):
                        return cells

        # --- segment intersections: split points + 0-dim evidence ----------
        # Intersection points are classified *structurally*: a point produced
        # from segments s of A and t of B lies on both by construction, so
        # its location in each operand is the segment's own role (curve
        # interior / areal boundary) unless it coincides with a boundary
        # vertex. Calling ``locate`` here would be both slower and fragile —
        # the computed point carries eps*|coord| error that can defeat
        # on-segment tests.
        # per operand: split points per segment, the other's ring segments
        # running along a segment
        splits_a, shared_a, splits_b, shared_b = {}, {}, {}, {}
        if not (fa.segments and fb.segments):
            window, inside_a, inside_b = None, fa.segments, fb.segments
        else:
            if pairs is None:
                window, inside_a, inside_b, pairs = _sweep(fa, fb)
            for s, t in pairs:
                hit = segment_intersection(s[0], s[1], t[0], t[1])
                if hit is None:
                    continue
                if isinstance(hit[0], tuple):
                    points = hit
                    if s[3] and t[3]:  # two ring segments overlap collinearly
                        shared_a.setdefault(s, []).append(t)
                        shared_b.setdefault(t, []).append(s)
                else:
                    points = (hit,)
                for p in points:
                    splits_a.setdefault(s, []).append(p)
                    splits_b.setdefault(t, []).append(p)
                    idx = (1 if p in fa.boundary else s[2]) * 3 + (
                        1 if p in fb.boundary else t[2]
                    )
                    if cells[idx] < 0 and decided(idx, 0):
                        return cells
        if every_vertex and not filled & _MEET:
            # no vertex of either in or on the other, no segments meeting
            return _disjoint(cells, fa, fb)

        # --- 1- and 2-dimensional evidence: classified split pieces --------
        parts = (
            (inside_a, window, splits_a, shared_a),
            (inside_b, window, splits_b, shared_b),
        )
        for (fx, fy, own, other, lines, _geom), part in zip(sides, parts):
            # a ring piece proves X's interior outside Y or, when Y has area
            # too, any of the 2-D cells
            area_cells = 0
            if fx.areal:
                area_cells = _AREA_CELLS if fy.areal else 1 << 2 * other
            if fx.segments and open_cells & (lines[0] | lines[1] | area_cells):
                for lx, ly, dim in _piece_evidence(fx, fy, *part):
                    idx = lx * own + ly * other
                    if dim > cells[idx] and decided(idx, dim):
                        return cells

        # --- representative interior points of areal members ---------------
        for fx, fy, own, other, lines, geom in sides:
            if fx.areal and open_cells & lines[0]:
                for p in _interior_reps(fx, geom):
                    where = fy.locate(p)
                    dim = 0
                    if where is _EXT or (
                        where is _INT and fy.locate_areal(p) is _INT
                    ):
                        dim = 2
                    if dim > cells[where * other] and decided(where * other, dim):
                        return cells
        return cells

    return kernel


def relate(a: Geometry, b: Geometry) -> DE9IM:
    """Compute the full DE-9IM matrix of ``a`` against ``b``."""
    return DE9IM(_relate(a)(b))


def relate_pattern(a: Geometry, b: Geometry, pattern: str) -> bool:
    """``ST_Relate(a, b, pattern)``."""
    mask = _compile((pattern,))
    return _holds(mask, _relate(a, False, mask)(b))


# ---------------------------------------------------------------------------
# named predicates: masks over the one kernel
# ---------------------------------------------------------------------------


def _equals_mask(da: int, db: int) -> Tuple[_Alternative, ...]:
    if da != db:
        return ()
    return _EQUALS if da >= 0 else _BOTH_EMPTY


def _touches_mask(da: int, db: int) -> Tuple[_Alternative, ...]:
    # two points have empty boundaries: never touch
    return () if da == 0 and db == 0 else _TOUCHES


def _crosses_mask(da: int, db: int) -> Tuple[_Alternative, ...]:
    if da == 1 and db == 1:
        return _CROSSES_LINES
    return _CROSSES_UP if da < db else _CROSSES_DOWN if da > db else ()


def _overlaps_mask(da: int, db: int) -> Tuple[_Alternative, ...]:
    if da != db:
        return ()
    return _OVERLAPS_LINES if da == 1 else _OVERLAPS


_EQUALS, _BOTH_EMPTY = _compile(("T*F**FFF*",)), _compile(("**F**FFF*",))
_TOUCHES = _compile(("FT*******", "F**T*****", "F***T****"))
_CROSSES_LINES = _compile(("0********",))
_CROSSES_UP, _CROSSES_DOWN = _compile(("T*T******",)), _compile(("T*****T**",))
_OVERLAPS_LINES, _OVERLAPS = _compile(("1*T***T**",)), _compile(("T*T***T**",))
_WITHIN = _compile(("T*F**F***",))
_COVERS = _compile(("T*****FF*", "*T****FF*", "***T**FF*", "****T*FF*"))
_DISJOINT = _compile(("FF*FF****",))

#: predicate -> (its mask, or the rule giving it from the two dimensions;
#: evaluate it on (b, a); answer with the complement)
PREDICATES: Dict[str, Tuple[object, bool, bool]] = {
    "equals": (_equals_mask, False, False),
    "disjoint": (_DISJOINT, False, False),
    "intersects": (_DISJOINT, False, True),
    "touches": (_touches_mask, False, False),
    "crosses": (_crosses_mask, False, False),
    "within": (_WITHIN, False, False),
    "contains": (_WITHIN, True, False),
    "overlaps": (_overlaps_mask, False, False),
    "covers": (_COVERS, False, False),
    "coveredby": (_COVERS, True, False),
}


def evaluator(
    name: str, fixed: Geometry, fixed_is_b: bool = False, every_cell: bool = False
) -> Callable[[Geometry], bool]:
    """The named predicate of :data:`PREDICATES` over a run of pairs that
    share one operand: the returned test answers ``name(fixed, g)`` for its
    argument ``g`` (``name(g, fixed)`` when ``fixed_is_b``), with the
    kernel set up once for the run.

    ``every_cell`` computes the whole matrix before matching it (the
    full-matrix refinement of the ``ironbark`` profile); by default only
    the cells the predicate's mask leaves open are evaluated.
    """
    rule, swap, negate = PREDICATES[name]
    fixed_is_b = fixed_is_b != swap
    if not callable(rule):
        kernel = _relate(fixed, fixed_is_b, None if every_cell else rule)
        return lambda other: _holds(rule, kernel(other)) != negate
    # the mask depends on the two dimensions: set up again when the other
    # operand's changes
    dim = mask = kernel = None

    def test(other: Geometry) -> bool:
        nonlocal dim, mask, kernel
        if other.dimension != dim:
            dim = other.dimension
            dims = (dim, fixed.dimension) if fixed_is_b else (fixed.dimension, dim)
            mask = rule(*dims)
            kernel = _relate(fixed, fixed_is_b, None if every_cell else mask)
        return _holds(mask, kernel(other)) != negate

    return test


def shares_first(a: Optional[Geometry], b: Optional[Geometry]) -> bool:
    """The operand a run of one pair ``(a, b)`` is set up on: ``a``, unless only
    ``b`` is a rectangle, which the rectangle case may answer unprepared."""
    return not _is_rectangle(b) or _is_rectangle(a)


def evaluate(name: str, a: Geometry, b: Geometry, every_cell: bool = False) -> bool:
    """Does the named predicate of :data:`PREDICATES` hold for ``(a, b)``?
    (:func:`evaluator` for a run of one pair, set up on the operand
    :func:`shares_first` picks, or on ``a`` for the full matrix.)"""
    first = every_cell or shares_first(a, b)
    return evaluator(name, a if first else b, not first, every_cell)(b if first else a)


def equals(a: Geometry, b: Geometry) -> bool:
    """Topological equality: same point set."""
    return evaluate("equals", a, b)


def disjoint(a: Geometry, b: Geometry) -> bool:
    return evaluate("disjoint", a, b)


def intersects(a: Geometry, b: Geometry) -> bool:
    return evaluate("intersects", a, b)


def touches(a: Geometry, b: Geometry) -> bool:
    """Boundaries meet, interiors do not."""
    return evaluate("touches", a, b)


def crosses(a: Geometry, b: Geometry) -> bool:
    return evaluate("crosses", a, b)


def within(a: Geometry, b: Geometry) -> bool:
    return evaluate("within", a, b)


def contains(a: Geometry, b: Geometry) -> bool:
    return evaluate("contains", a, b)


def overlaps(a: Geometry, b: Geometry) -> bool:
    return evaluate("overlaps", a, b)


def covers(a: Geometry, b: Geometry) -> bool:
    return evaluate("covers", a, b)


def covered_by(a: Geometry, b: Geometry) -> bool:
    return evaluate("coveredby", a, b)
