"""Domain types, and the one table reader behind every input file: demand,
supply, regions, origin-destination costs and per-unit values.

Coordinates are either geographic (lon, lat in decimal degrees) or planar
(x, y in meters). The coordinate kind is declared per dataset; input file
headers must agree with the declared kind and mixing kinds is rejected.
Loading is eager and fail-fast: the first defective row raises an error
naming that row.
"""

import csv
import json
import math
from dataclasses import dataclass

from .errors import (
    AccessKitError,
    DuplicateId,
    MalformedRow,
    MissingColumn,
    NegativePopulation,
    NoRecords,
    NegativeResource,
    NonFiniteCoordinate,
    NonPositiveArea,
    NonPositiveCapacity,
    OutOfRangeCoordinate,
)

COORD_KINDS = ("geographic", "planar")


def _check_coords(x: float, y: float, coord_kind: str, where: str = "") -> None:
    prefix = f"{where}: " if where else ""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise NonFiniteCoordinate(f"{prefix}coordinate ({x}, {y}) is not finite")
    if coord_kind == "geographic":
        if not -180.0 <= x <= 180.0:
            raise OutOfRangeCoordinate(f"{prefix}lon {x} outside [-180, 180]")
        if not -90.0 <= y <= 90.0:
            raise OutOfRangeCoordinate(f"{prefix}lat {y} outside [-90, 90]")


@dataclass(frozen=True, slots=True)
class DemandSite:
    """A population location. ``x``/``y`` hold (lon, lat) when geographic."""

    id: str
    x: float
    y: float
    population: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise NonFiniteCoordinate(f"demand {self.id!r}: coordinates not finite")
        if not math.isfinite(self.population) or self.population < 0:
            raise NegativePopulation(
                f"demand {self.id!r}: population {self.population} must be >= 0"
            )


@dataclass(frozen=True, slots=True)
class SupplySite:
    """A facility location with a positive capacity.

    ``candidate=True`` relaxes the capacity > 0 invariant to >= 0; it marks
    prospective zero-capacity sites used only in reallocation runs.
    """

    id: str
    x: float
    y: float
    capacity: float
    candidate: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise NonFiniteCoordinate(f"supply {self.id!r}: coordinates not finite")
        floor_ok = self.capacity >= 0 if self.candidate else self.capacity > 0
        if not math.isfinite(self.capacity) or not floor_ok:
            raise NonPositiveCapacity(
                f"supply {self.id!r}: capacity {self.capacity} must be "
                f"{'>= 0' if self.candidate else '> 0'}"
            )


@dataclass(frozen=True, slots=True)
class Region:
    """An areal unit carrying a resource count, for agglomeration analysis."""

    id: str
    area_km2: float
    resource: float
    population: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.area_km2) or self.area_km2 <= 0:
            raise NonPositiveArea(f"region {self.id!r}: area {self.area_km2} must be > 0")
        if not math.isfinite(self.resource) or self.resource < 0:
            raise NegativeResource(
                f"region {self.id!r}: resource {self.resource} must be >= 0"
            )
        if self.population is not None and (
            not math.isfinite(self.population) or self.population < 0
        ):
            raise NegativePopulation(
                f"region {self.id!r}: population {self.population} must be >= 0"
            )


@dataclass(frozen=True)
class Dataset:
    """Immutable bundle of demand and supply sites plus optional regions."""

    demand: tuple[DemandSite, ...]
    supply: tuple[SupplySite, ...]
    regions: tuple[Region, ...] | None = None
    coord_kind: str = "geographic"

    def __post_init__(self):
        object.__setattr__(self, "demand", tuple(self.demand))
        object.__setattr__(self, "supply", tuple(self.supply))
        if self.regions is not None:
            object.__setattr__(self, "regions", tuple(self.regions))
        if self.coord_kind not in COORD_KINDS:
            raise ValueError(f"coord_kind must be one of {COORD_KINDS}")
        if not self.demand or not self.supply:
            raise NoRecords("dataset needs at least one demand and one supply site")
        _check_unique_ids(self.demand, "demand")
        _check_unique_ids(self.supply, "supply")
        if self.regions is not None:
            _check_unique_ids(self.regions, "region")
        for site in self.demand:
            _check_coords(site.x, site.y, self.coord_kind, f"demand {site.id!r}")
        for site in self.supply:
            _check_coords(site.x, site.y, self.coord_kind, f"supply {site.id!r}")


def _check_unique_ids(records, label: str) -> None:
    seen = set()
    for rec in records:
        if rec.id in seen:
            raise DuplicateId(f"duplicate {label} id {rec.id!r}")
        seen.add(rec.id)


# --- reading --------------------------------------------------------------

def _coord_columns(coord_kind: str) -> tuple[str, str]:
    return ("lon", "lat") if coord_kind == "geographic" else ("x", "y")


def _parse_float(raw, row_num: int, column: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise MalformedRow(f"row {row_num}: cannot parse {column}={raw!r}") from None


def _read_table(path, required: tuple[str, ...], point: tuple[str, str] | None = None):
    """Yield ``(row_number, row)`` for every record of a CSV or GeoJSON file.

    A ``.geojson`` extension selects GeoJSON, anything else CSV. CSV rows
    map header names to cells and are numbered from 2, the header being
    row 1; a cell missing from a short row is None. GeoJSON rows are the
    features' properties, numbered from 1; when ``point`` names two
    columns, each feature must be a Point whose coordinates fill them.
    Every ``required`` column must be present.
    """
    if str(path).endswith(".geojson"):
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as err:  # not JSON, or not UTF-8
                raise MalformedRow(f"{path}: not JSON: {err}") from None
        features = doc.get("features") if isinstance(doc, dict) else None
        if not isinstance(features, list):
            raise MalformedRow(f"{path}: not a GeoJSON FeatureCollection")
        for row_num, feat in enumerate(features, start=1):
            feat = feat if isinstance(feat, dict) else {}
            props = feat.get("properties")
            row = dict(props) if isinstance(props, dict) else {}
            if point is not None:
                geom = feat.get("geometry")
                coords = geom.get("coordinates") if isinstance(geom, dict) else None
                if not (isinstance(coords, list) and len(coords) >= 2
                        and geom.get("type") == "Point"):
                    raise MalformedRow(f"row {row_num}: geometry must be a Point")
                row[point[0]], row[point[1]] = coords[0], coords[1]
            for col in required:
                if row.get(col) is None:
                    raise MissingColumn(f"row {row_num}: properties lack {col!r}")
            yield row_num, row
        return
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            for col in required:
                if col not in header:
                    raise MissingColumn(f"{path}: header lacks column {col!r}")
            yield from enumerate(reader, start=2)
        except (UnicodeDecodeError, csv.Error) as err:
            raise MalformedRow(f"{path}: not a UTF-8 CSV table: {err}") from None


def _collect(rows, make, columns, optional=(), coord_kind: str | None = None) -> list:
    """Build ``make(id, *cells)`` for each row of a table.

    ``columns`` are parsed as numbers; an ``optional`` column that is blank
    or absent gives None. Ids must be unique. With a ``coord_kind`` the
    first two columns are coordinates checked against it. An error the
    record raises is re-raised naming its row.
    """
    records, seen = [], set()
    for row_num, row in rows:
        cells = [_parse_float(row[c], row_num, c) for c in columns]
        cells += [None if row.get(c) in (None, "") else _parse_float(row[c], row_num, c)
                  for c in optional]
        rec_id = str(row["id"])
        if rec_id in seen:
            raise DuplicateId(f"row {row_num}: duplicate id {rec_id!r}")
        seen.add(rec_id)
        try:
            record = make(rec_id, *cells)
            if coord_kind is not None:
                _check_coords(cells[0], cells[1], coord_kind)
        except AccessKitError as err:
            raise type(err)(f"row {row_num}: {err}") from None
        records.append(record)
    return records


# --- loaders --------------------------------------------------------------

def _load_sites(path, make, value: str, coord_kind: str) -> list:
    cx, cy = _coord_columns(coord_kind)
    rows = _read_table(path, ("id", cx, cy, value), point=(cx, cy))
    return _collect(rows, make, (cx, cy, value), coord_kind=coord_kind)


def load_demand(path, coord_kind: str = "geographic") -> list[DemandSite]:
    """Load demand sites from CSV (``id,lon,lat,population``) or GeoJSON points."""
    return _load_sites(path, DemandSite, "population", coord_kind)


def load_supply(path, coord_kind: str = "geographic") -> list[SupplySite]:
    """Load supply sites from CSV (``id,lon,lat,capacity``) or GeoJSON points."""
    return _load_sites(path, SupplySite, "capacity", coord_kind)


def load_regions(path) -> list[Region]:
    """Load regions from CSV (``id,area_km2,resource[,population]``) or from
    GeoJSON features with those properties; a blank population is absent."""
    rows = _read_table(path, ("id", "area_km2", "resource"))
    return _collect(rows, Region, ("area_km2", "resource"), optional=("population",))


def load_values(path, column: str):
    """Load one value column of a per-unit table: ``id``, coordinates, values.

    Coordinate columns decide the kind: ``lon,lat`` is geographic, ``x,y``
    planar; GeoJSON Point coordinates are ``lon,lat``. Ids and coordinates
    are checked as for demand sites. Returns ``(ids, locations, coord_kind,
    values)`` with ``locations`` a list of (x, y) pairs.
    """
    rows = list(_read_table(path, ("id", column), point=("lon", "lat")))
    if not rows:
        raise NoRecords(f"{path}: table has no rows")
    header = rows[0][1]
    if "lon" in header and "lat" in header:
        coord_kind = "geographic"
    elif "x" in header and "y" in header:
        coord_kind = "planar"
    else:
        raise MissingColumn(f"{path}: need lon/lat or x/y coordinate columns")
    cx, cy = _coord_columns(coord_kind)
    units = _collect(rows, lambda *unit: unit, (cx, cy, column), coord_kind=coord_kind)
    ids, xs, ys, values = zip(*units)
    return list(ids), list(zip(xs, ys)), coord_kind, list(values)


def load_dataset(demand_path, supply_path, regions_path=None,
                 coord_kind: str = "geographic") -> Dataset:
    """Load and validate a full dataset in one call; each file's format
    follows its extension."""
    demand = load_demand(demand_path, coord_kind=coord_kind)
    supply = load_supply(supply_path, coord_kind=coord_kind)
    regions = load_regions(regions_path) if regions_path is not None else None
    return Dataset(
        demand=tuple(demand),
        supply=tuple(supply),
        regions=tuple(regions) if regions is not None else None,
        coord_kind=coord_kind,
    )


# --- serialization --------------------------------------------------------

def _sites_csv_text(sites, coord_kind: str, value: str) -> str:
    cx, cy = _coord_columns(coord_kind)
    lines = [f"id,{cx},{cy},{value}"]
    for s in sites:
        lines.append(f"{s.id},{s.x!r},{s.y!r},{getattr(s, value)!r}")
    return "\n".join(lines) + "\n"


def demand_csv_text(sites, coord_kind: str = "geographic") -> str:
    return _sites_csv_text(sites, coord_kind, "population")


def supply_csv_text(sites, coord_kind: str = "geographic") -> str:
    return _sites_csv_text(sites, coord_kind, "capacity")


def regions_csv_text(regions) -> str:
    with_pop = any(r.population is not None for r in regions)
    lines = ["id,area_km2,resource" + (",population" if with_pop else "")]
    for r in regions:
        row = f"{r.id},{r.area_km2!r},{r.resource!r}"
        if with_pop:
            row += f",{r.population!r}" if r.population is not None else ","
        lines.append(row)
    return "\n".join(lines) + "\n"


def write_dataset(dataset: Dataset, demand_path, supply_path, regions_path=None) -> None:
    """Serialize a dataset back to CSV; floats use shortest round-trip text."""
    with open(demand_path, "w", encoding="utf-8") as fh:
        fh.write(demand_csv_text(dataset.demand, dataset.coord_kind))
    with open(supply_path, "w", encoding="utf-8") as fh:
        fh.write(supply_csv_text(dataset.supply, dataset.coord_kind))
    if regions_path is not None and dataset.regions is not None:
        with open(regions_path, "w", encoding="utf-8") as fh:
            fh.write(regions_csv_text(dataset.regions))

