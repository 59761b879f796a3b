"""Synthetic TIGER-like dataset.

The paper loads US Census TIGER/Line shapefiles for the state of Texas:
road edges, point landmarks, area landmarks, area water, and county
polygons. Those files are not available offline, so this module generates
a deterministic state with the same layers, geometry types and
relative cardinalities (documented in DESIGN.md as a substitution). The
generator aims at the properties the benchmark exercises, not cartographic
realism:

- counties tile the plane with exactly shared borders (Touches queries);
- roads form connected mini-grids inside counties plus long cross-state
  highways (Crosses/Intersects with water and counties, geocoding ranges);
- lakes and rivers overlap roads and parcels (flood/spill scenarios);
- parcels subdivide suburban blocks (land-management adjacency queries);
- every feature carries the attribute columns the macro scenarios filter
  on (street names and address ranges, landmark categories, county FIPS).

Layer schemas (SQL):

- ``counties  (gid INTEGER, name TEXT, fips TEXT, geom GEOMETRY)``
- ``edges     (gid INTEGER, fullname TEXT, county_fips TEXT, road_class TEXT,
               lfromadd INTEGER, ltoadd INTEGER, geom GEOMETRY)``
- ``pointlm   (gid INTEGER, name TEXT, category TEXT, county_fips TEXT,
               geom GEOMETRY)``
- ``arealm    (gid INTEGER, name TEXT, category TEXT, county_fips TEXT,
               geom GEOMETRY)``
- ``areawater (gid INTEGER, name TEXT, water_type TEXT, geom GEOMETRY)``
- ``rivers    (gid INTEGER, name TEXT, width REAL, geom GEOMETRY)``
- ``parcels   (gid INTEGER, owner TEXT, land_use TEXT, county_fips TEXT,
               assessed_value REAL, geom GEOMETRY)``
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datagen import shapes
from repro.geometry.base import Coord, Geometry
from repro.geometry.linestring import LineString
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon

#: the synthetic state is a WORLD_SIZE × WORLD_SIZE square (unit ~ metres)
WORLD_SIZE = 100_000.0

_STREET_STEMS = (
    "Oak", "Maple", "Cedar", "Pecan", "Live Oak", "Mesquite", "Juniper",
    "Bluebonnet", "Brazos", "Colorado", "Lamar", "Houston", "Austin",
    "Crockett", "Travis", "Guadalupe", "Nueces", "Llano", "Pedernales",
    "Comal", "Medina", "Sabine", "Trinity", "Neches", "Frio",
)
_STREET_KINDS = ("St", "Ave", "Rd", "Blvd", "Ln", "Dr")
_POINT_CATEGORIES = (
    "school", "hospital", "church", "fire_station", "library", "museum",
    "post_office", "cemetery", "tower", "park_gate",
)
_AREA_CATEGORIES = ("park", "airport", "campus", "golf_course", "cemetery",
                    "shopping_center")
_LAND_USE = ("residential", "commercial", "agricultural", "industrial")


@dataclass
class Layer:
    """One generated table: schema DDL plus rows of Python values."""

    name: str
    create_sql: str
    columns: Tuple[str, ...]
    rows: List[tuple] = field(default_factory=list)
    geometry_column: str = "geom"

    def geometries(self) -> List[Geometry]:
        idx = self.columns.index(self.geometry_column)
        return [row[idx] for row in self.rows]


@dataclass
class TigerDataset:
    """The full synthetic state: layers keyed by name, plus metadata."""

    seed: int
    scale: float
    layers: Dict[str, Layer]
    world_size: float = WORLD_SIZE

    def layer(self, name: str) -> Layer:
        return self.layers[name]

    def total_rows(self) -> int:
        return sum(len(layer.rows) for layer in self.layers.values())

    def load_into(self, db, create_indexes: bool = True,
                  index_kind: Optional[str] = None) -> None:
        """Create tables, bulk-insert rows and (optionally) build indexes:
        a spatial index on every layer's geometry (``idx_<layer>_geom``,
        of ``index_kind`` or the profile's kind) and a key index on its
        ``gid`` (``idx_<layer>_gid``)."""
        for layer in self.layers.values():
            db.execute(layer.create_sql)
            db.insert_rows(layer.name, layer.rows)
        if create_indexes:
            for layer in self.layers.values():
                using = f" USING {index_kind}" if index_kind else ""
                db.execute(
                    f"CREATE SPATIAL INDEX idx_{layer.name}_geom "
                    f"ON {layer.name} ({layer.geometry_column}){using}"
                )
                db.execute(
                    f"CREATE INDEX idx_{layer.name}_gid ON {layer.name} (gid)"
                )


def generate(
    seed: int = 42, scale: float = 1.0, distribution: str = "uniform"
) -> TigerDataset:
    """Generate the synthetic state.

    ``scale`` multiplies feature counts (used by the J-F6 scalability
    sweep); geometry sizes stay constant so density grows with scale,
    like moving from rural to urban extracts.

    ``distribution`` places landmarks either ``"uniform"`` (spread evenly
    per county, the default) or ``"clustered"`` (Gaussian blobs around a
    few urban centres). Skewed placement is what separates the index
    structures in ablation J-A2 — a uniform grid thrives on uniform data
    and degrades on skew.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if distribution not in ("uniform", "clustered"):
        raise ValueError(
            f"distribution must be 'uniform' or 'clustered', "
            f"got {distribution!r}"
        )
    rng = random.Random(seed)
    layers: Dict[str, Layer] = {}

    counties, county_cells = _gen_counties(rng)
    sampler = (
        _ClusteredSampler(rng, county_cells)
        if distribution == "clustered"
        else None
    )
    layers["counties"] = counties
    layers["edges"] = _gen_edges(rng, county_cells, scale)
    layers["pointlm"] = _gen_pointlm(rng, county_cells, scale, sampler)
    layers["arealm"] = _gen_arealm(rng, county_cells, scale, sampler)
    layers["areawater"] = _gen_areawater(rng, scale)
    layers["rivers"] = _gen_rivers(rng, scale)
    layers["parcels"] = _gen_parcels(rng, county_cells, scale)
    return TigerDataset(seed=seed, scale=scale, layers=layers)


class _ClusteredSampler:
    """Draws landmark locations from Gaussian blobs around urban centres
    and reports which county each draw landed in."""

    CITIES = 3
    SIGMA_FRACTION = 0.04  # of the state's extent

    def __init__(self, rng: random.Random,
                 county_cells: Sequence[Tuple[str, Polygon]]):
        self._rng = rng
        self._cells = county_cells
        self.centers = [
            (
                rng.uniform(0.2, 0.8) * WORLD_SIZE,
                rng.uniform(0.2, 0.8) * WORLD_SIZE,
            )
            for _ in range(self.CITIES)
        ]

    def draw(self) -> Tuple[Point, str]:
        from repro.algorithms.location import Location, locate_in_polygon

        sigma = self.SIGMA_FRACTION * WORLD_SIZE
        while True:
            cx, cy = self._rng.choice(self.centers)
            x = self._rng.gauss(cx, sigma)
            y = self._rng.gauss(cy, sigma)
            if not (0.0 < x < WORLD_SIZE and 0.0 < y < WORLD_SIZE):
                continue
            for fips, cell in self._cells:
                if locate_in_polygon((x, y), cell) is Location.INTERIOR:
                    return Point(x, y), fips
            # landed exactly on a county border: re-draw


# ---------------------------------------------------------------------------
# per-layer generators
# ---------------------------------------------------------------------------

_COUNTY_GRID = 5  # 5x5 = 25 counties (Texas has 254; ratios matter, not counts)


def _gen_counties(
    rng: random.Random,
) -> Tuple[Layer, List[Tuple[str, Polygon]]]:
    layer = Layer(
        name="counties",
        create_sql=(
            "CREATE TABLE counties (gid INTEGER, name TEXT, fips TEXT, "
            "geom GEOMETRY)"
        ),
        columns=("gid", "name", "fips", "geom"),
    )
    nodes = shapes.jittered_lattice(
        rng, _COUNTY_GRID, _COUNTY_GRID, WORLD_SIZE, WORLD_SIZE, jitter=0.22
    )
    cells: List[Tuple[str, Polygon]] = []
    gid = 0
    for iy in range(_COUNTY_GRID):
        for ix in range(_COUNTY_GRID):
            gid += 1
            fips = f"48{gid:03d}"
            polygon = shapes.lattice_cell(nodes, ix, iy)
            name = f"{rng.choice(_STREET_STEMS)} County"
            layer.rows.append((gid, name, fips, polygon))
            cells.append((fips, polygon))
    return layer, cells


def _gen_edges(
    rng: random.Random,
    county_cells: Sequence[Tuple[str, Polygon]],
    scale: float,
) -> Layer:
    layer = Layer(
        name="edges",
        create_sql=(
            "CREATE TABLE edges (gid INTEGER, fullname TEXT, "
            "county_fips TEXT, road_class TEXT, lfromadd INTEGER, "
            "ltoadd INTEGER, geom GEOMETRY)"
        ),
        columns=(
            "gid", "fullname", "county_fips", "road_class",
            "lfromadd", "ltoadd", "geom",
        ),
    )
    gid = 0
    streets_per_county = max(2, round(6 * scale))
    for fips, cell in county_cells:
        env = cell.envelope
        # local street mini-grid: horizontal + vertical wiggly streets,
        # each chopped into address-range blocks
        for axis in ("h", "v"):
            for s in range(streets_per_county):
                stem = rng.choice(_STREET_STEMS)
                kind = rng.choice(_STREET_KINDS)
                fullname = f"{stem} {kind}"
                t = (s + 0.5) / streets_per_county
                if axis == "h":
                    y = env.min_y + t * env.height
                    start = (env.min_x + 0.02 * env.width, y)
                    end = (env.max_x - 0.02 * env.width, y)
                else:
                    x = env.min_x + t * env.width
                    start = (x, env.min_y + 0.02 * env.height)
                    end = (x, env.max_y - 0.02 * env.height)
                street = shapes.wiggly_line(rng, start, end,
                                            segments=6, wobble=0.05)
                blocks = rng.randint(2, 5)
                base_addr = rng.randrange(100, 400, 100)
                coords = street.coords
                per_block = max(1, (len(coords) - 1) // blocks)
                for b in range(blocks):
                    lo = b * per_block
                    hi = min((b + 1) * per_block, len(coords) - 1)
                    if lo >= hi:
                        continue
                    gid += 1
                    lfrom = base_addr + b * 100
                    lto = lfrom + 98
                    layer.rows.append(
                        (
                            gid, fullname, fips, "local", lfrom, lto,
                            LineString(coords[lo : hi + 1]),
                        )
                    )
    # cross-state highways
    highways = max(2, round(8 * scale))
    for h in range(highways):
        gid += 1
        if rng.random() < 0.5:
            start = (0.0, rng.uniform(0.1, 0.9) * WORLD_SIZE)
            end = (WORLD_SIZE, rng.uniform(0.1, 0.9) * WORLD_SIZE)
        else:
            start = (rng.uniform(0.1, 0.9) * WORLD_SIZE, 0.0)
            end = (rng.uniform(0.1, 0.9) * WORLD_SIZE, WORLD_SIZE)
        layer.rows.append(
            (
                gid,
                f"State Highway {h + 1}",
                "48000",
                "highway",
                1000,
                9998,
                shapes.wiggly_line(rng, start, end, segments=24, wobble=0.04),
            )
        )
    return layer


def _gen_pointlm(
    rng: random.Random,
    county_cells: Sequence[Tuple[str, Polygon]],
    scale: float,
    sampler: "Optional[_ClusteredSampler]" = None,
) -> Layer:
    layer = Layer(
        name="pointlm",
        create_sql=(
            "CREATE TABLE pointlm (gid INTEGER, name TEXT, category TEXT, "
            "county_fips TEXT, geom GEOMETRY)"
        ),
        columns=("gid", "name", "category", "county_fips", "geom"),
    )
    per_county = max(3, round(30 * scale))
    total = per_county * len(county_cells)
    gid = 0
    if sampler is not None:
        for _ in range(total):
            gid += 1
            point, fips = sampler.draw()
            category = rng.choice(_POINT_CATEGORIES)
            name = f"{rng.choice(_STREET_STEMS)} {category.title()} #{gid}"
            layer.rows.append((gid, name, category, fips, point))
        return layer
    for fips, cell in county_cells:
        for _ in range(per_county):
            gid += 1
            category = rng.choice(_POINT_CATEGORIES)
            name = f"{rng.choice(_STREET_STEMS)} {category.title()} #{gid}"
            layer.rows.append(
                (gid, name, category, fips, shapes.random_point_in(rng, cell))
            )
    return layer


def _gen_arealm(
    rng: random.Random,
    county_cells: Sequence[Tuple[str, Polygon]],
    scale: float,
    sampler: "Optional[_ClusteredSampler]" = None,
) -> Layer:
    layer = Layer(
        name="arealm",
        create_sql=(
            "CREATE TABLE arealm (gid INTEGER, name TEXT, category TEXT, "
            "county_fips TEXT, geom GEOMETRY)"
        ),
        columns=("gid", "name", "category", "county_fips", "geom"),
    )
    per_county = max(1, round(5 * scale))
    gid = 0

    def emit(fips: str, center_coord) -> None:
        nonlocal gid
        gid += 1
        category = rng.choice(_AREA_CATEGORIES)
        radius = rng.uniform(0.01, 0.035) * WORLD_SIZE / _COUNTY_GRID
        blob = shapes.convex_blob(rng, center_coord, radius)
        name = f"{rng.choice(_STREET_STEMS)} {category.title()}"
        layer.rows.append((gid, name, category, fips, blob))

    if sampler is not None:
        for _ in range(per_county * len(county_cells)):
            point, fips = sampler.draw()
            emit(fips, point.coord)
        return layer
    for fips, cell in county_cells:
        for _ in range(per_county):
            emit(fips, shapes.random_point_in(rng, cell).coord)
    return layer


def _gen_areawater(rng: random.Random, scale: float) -> Layer:
    layer = Layer(
        name="areawater",
        create_sql=(
            "CREATE TABLE areawater (gid INTEGER, name TEXT, "
            "water_type TEXT, geom GEOMETRY)"
        ),
        columns=("gid", "name", "water_type", "geom"),
    )
    lakes = max(4, round(40 * scale))
    for gid in range(1, lakes + 1):
        center = (
            rng.uniform(0.05, 0.95) * WORLD_SIZE,
            rng.uniform(0.05, 0.95) * WORLD_SIZE,
        )
        radius = rng.uniform(400.0, 2500.0)
        lake = shapes.radial_polygon(rng, center, radius,
                                     irregularity=0.4, vertices=16)
        name = f"Lake {rng.choice(_STREET_STEMS)}"
        layer.rows.append((gid, name, "lake", lake))
    return layer


def _gen_rivers(rng: random.Random, scale: float) -> Layer:
    layer = Layer(
        name="rivers",
        create_sql=(
            "CREATE TABLE rivers (gid INTEGER, name TEXT, width REAL, "
            "geom GEOMETRY)"
        ),
        columns=("gid", "name", "width", "geom"),
    )
    rivers = max(2, round(8 * scale))
    for gid in range(1, rivers + 1):
        start = (rng.uniform(0.0, 1.0) * WORLD_SIZE, 0.0)
        end = (rng.uniform(0.0, 1.0) * WORLD_SIZE, WORLD_SIZE)
        if rng.random() < 0.5:
            start = (0.0, rng.uniform(0.0, 1.0) * WORLD_SIZE)
            end = (WORLD_SIZE, rng.uniform(0.0, 1.0) * WORLD_SIZE)
        river = shapes.wiggly_line(rng, start, end, segments=30, wobble=0.08)
        layer.rows.append(
            (gid, f"{rng.choice(_STREET_STEMS)} River",
             rng.uniform(30.0, 150.0), river)
        )
    return layer


def _gen_parcels(
    rng: random.Random,
    county_cells: Sequence[Tuple[str, Polygon]],
    scale: float,
) -> Layer:
    """Rectangular parcel blocks in a subset of counties (the 'suburbs').

    Parcels inside one block share borders exactly, which the land
    management scenario relies on for its Touches adjacency queries.
    """
    layer = Layer(
        name="parcels",
        create_sql=(
            "CREATE TABLE parcels (gid INTEGER, owner TEXT, land_use TEXT, "
            "county_fips TEXT, assessed_value REAL, geom GEOMETRY)"
        ),
        columns=(
            "gid", "owner", "land_use", "county_fips", "assessed_value", "geom",
        ),
    )
    suburb_count = max(3, round(6 * scale))
    suburbs = rng.sample(list(county_cells), min(suburb_count, len(county_cells)))
    gid = 0
    grid = max(3, round(6 * math.sqrt(scale)))
    for fips, cell in suburbs:
        env = cell.envelope
        # one rectangular block per suburb, inset from the county border
        block_w = env.width * 0.4
        block_h = env.height * 0.4
        ox = env.min_x + rng.uniform(0.1, 0.5) * env.width
        oy = env.min_y + rng.uniform(0.1, 0.5) * env.height
        step_x = block_w / grid
        step_y = block_h / grid
        for iy in range(grid):
            for ix in range(grid):
                gid += 1
                x0 = ox + ix * step_x
                y0 = oy + iy * step_y
                parcel = Polygon(
                    [
                        (x0, y0),
                        (x0 + step_x, y0),
                        (x0 + step_x, y0 + step_y),
                        (x0, y0 + step_y),
                    ]
                )
                layer.rows.append(
                    (
                        gid,
                        f"Owner {gid:05d}",
                        rng.choice(_LAND_USE),
                        fips,
                        round(rng.uniform(40_000.0, 900_000.0), 2),
                        parcel,
                    )
                )
    return layer
