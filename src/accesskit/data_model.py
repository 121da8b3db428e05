"""Domain types, the one table reader behind every input file (demand,
supply, regions, origin-destination costs and per-unit values), and the
one CSV writer behind every output table.

The reader streams a CSV or GeoJSON table as ``(row_number, cells)``
pairs, ``cells`` a tuple of the asked-for columns in the order asked, so
each loader reads a record by position, not by column name.

Coordinates are either geographic (lon, lat in decimal degrees) or planar
(x, y in meters). The coordinate kind is declared per dataset; input file
headers must agree with the declared kind and mixing kinds is rejected.
Loading is eager and fail-fast: the first defective row raises an error
naming that row, also where a loader checks its rows in bulk.
"""

import csv
import json
import math
from dataclasses import dataclass
from operator import itemgetter
from types import SimpleNamespace

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
    """A cell as a float; a GeoJSON ``true``/``false`` is no number."""
    if not isinstance(raw, bool):
        try:
            return float(raw)
        except (TypeError, ValueError, OverflowError):  # an int too large for a float
            pass
    raise MalformedRow(f"row {row_num}: cannot parse {column}={raw!r}")


# An optional column the table lacks: its cell in every row (CSV), or in a
# feature whose properties lack it (GeoJSON). Unlike None, the cell of a
# short row, it tells a missing column from a missing cell.
_ABSENT = object()


def _read_table(path, columns: tuple[str, ...], optional: tuple[str, ...] = (),
                point: tuple[str, str] | None = None):
    """Yield ``(row_number, cells)`` for every record of a CSV or GeoJSON file.

    ``cells`` is a tuple holding the record's value of each of ``columns``
    and then of each ``optional`` column, in that order. Every one of
    ``columns`` must be present; an ``optional`` column that is not gives
    ``_ABSENT``. A ``.geojson`` extension selects GeoJSON, anything else CSV.

    CSV follows the rules of the csv module's dictionary reader: the first
    line is the header, row 1, and records are numbered from 2; blank lines
    are skipped and not counted; a cell missing from a short row is None; a
    column named twice is read from its last occurrence. GeoJSON records
    are the features' properties, numbered from 1; when ``point`` names two
    columns, each feature must be a Point whose coordinates fill them.
    """
    names = (*columns, *optional)
    if str(path).endswith(".geojson"):
        with open(path, encoding="utf-8-sig") as fh:
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
            for col in columns:
                if row.get(col) is None:
                    raise MissingColumn(f"row {row_num}: properties lack {col!r}")
            yield row_num, tuple(row.get(col, _ABSENT) for col in names)
        return
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            lines = csv.reader(fh)
            header = next(lines, [])
            where = {col: pos for pos, col in enumerate(header)}  # the last one wins
            for col in columns:
                if col not in where:
                    raise MissingColumn(f"{path}: header lacks column {col!r}")
            # an absent column sits past the end of every row
            at = tuple(where.get(col, math.inf) for col in names)
            pick, width = itemgetter(*at), max(at) + 1
            for row_num, cells in enumerate(filter(None, lines), start=2):
                if len(cells) >= width:
                    yield row_num, pick(cells)
                else:
                    yield row_num, tuple(
                        cells[pos] if pos < len(cells)
                        else None if pos < len(header) else _ABSENT
                        for pos in at)
        except (UnicodeDecodeError, csv.Error) as err:
            raise MalformedRow(f"{path}: not a UTF-8 CSV table: {err}") from None


def _collect(rows, make, columns, optional=(), coord_kind: str | None = None) -> list:
    """Build ``make(id, *cells)`` for each row of a table.

    Each row's cells are its id, then its ``columns``, parsed as numbers,
    then its ``optional`` columns, where a blank or absent cell gives None.
    Ids must be unique. With a ``coord_kind`` the first two columns are
    coordinates checked against it. An error the record raises is
    re-raised naming its row.
    """
    n = len(columns) + 1
    records, seen = [], set()
    for row_num, cells in rows:
        values = [_parse_float(cell, row_num, col) for cell, col in zip(cells[1:n], columns)]
        values += [None if cell is _ABSENT or cell in (None, "")
                   else _parse_float(cell, row_num, col)
                   for cell, col in zip(cells[n:], optional)]
        rec_id = str(cells[0])
        if rec_id in seen:
            raise DuplicateId(f"row {row_num}: duplicate id {rec_id!r}")
        seen.add(rec_id)
        try:
            record = make(rec_id, *values)
            if coord_kind is not None:
                _check_coords(values[0], values[1], coord_kind)
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
    rows = _read_table(path, ("id", "area_km2", "resource"), optional=("population",))
    return _collect(rows, Region, ("area_km2", "resource"), optional=("population",))


def load_values(path, column: str):
    """Load one value column of a per-unit table: ``id``, coordinates, values.

    Coordinate columns decide the kind: ``lon,lat`` is geographic, ``x,y``
    planar; GeoJSON Point coordinates are ``lon,lat``. Ids and coordinates
    are checked as for demand sites. Returns ``(ids, locations, coord_kind,
    values)`` with ``locations`` a list of (x, y) pairs.
    """
    rows = list(_read_table(path, ("id", column), optional=("lon", "lat", "x", "y"),
                            point=("lon", "lat")))
    if not rows:
        raise NoRecords(f"{path}: table has no rows")
    first = rows[0][1]
    if _ABSENT not in first[2:4]:
        coord_kind, pick = "geographic", itemgetter(0, 2, 3, 1)  # id, lon, lat, value
    elif _ABSENT not in first[4:6]:
        coord_kind, pick = "planar", itemgetter(0, 4, 5, 1)  # id, x, y, value
    else:
        raise MissingColumn(f"{path}: need lon/lat or x/y coordinate columns")
    units = _collect(((row_num, pick(cells)) for row_num, cells in rows),
                     lambda *unit: unit, (*_coord_columns(coord_kind), column),
                     coord_kind=coord_kind)
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


# --- writing --------------------------------------------------------------

def _csv_text(header, rows) -> str:
    """The text of a CSV table: the ``header`` line, then one line per row.

    Every line ends with a bare newline. A float, NumPy's included, is
    written in its shortest round-trip form, None as an empty cell, and a
    cell holding a comma, quote or line break is quoted.
    """
    # csv writes each cell's str(), the shortest round-trip text of a float
    # or NumPy float64. It quotes a cell holding any character of the line
    # terminator, so lines end "\r\n" as made (a bare "\r" would otherwise
    # go unquoted and split the row on reading), then "\n"; writerow returns
    # what the file's write returns, here the line itself.
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\r\n").writerow
    return "".join(line(row)[:-2] + "\n" for row in (header, *rows))


def _sites_csv_text(sites, coord_kind: str, value: str) -> str:
    return _csv_text(("id", *_coord_columns(coord_kind), value),
                     ((s.id, s.x, s.y, getattr(s, value)) for s in sites))


def demand_csv_text(sites, coord_kind: str = "geographic") -> str:
    return _sites_csv_text(sites, coord_kind, "population")


def supply_csv_text(sites, coord_kind: str = "geographic") -> str:
    return _sites_csv_text(sites, coord_kind, "capacity")


def regions_csv_text(regions) -> str:
    header = ("id", "area_km2", "resource", "population")
    if all(r.population is None for r in regions):
        header = header[:3]
    return _csv_text(header, ((r.id, r.area_km2, r.resource, r.population)[:len(header)]
                              for r in regions))


def write_dataset(dataset: Dataset, demand_path, supply_path, regions_path=None) -> None:
    """Serialize a dataset back to CSV; floats use shortest round-trip text."""
    with open(demand_path, "w", encoding="utf-8") as fh:
        fh.write(demand_csv_text(dataset.demand, dataset.coord_kind))
    with open(supply_path, "w", encoding="utf-8") as fh:
        fh.write(supply_csv_text(dataset.supply, dataset.coord_kind))
    if regions_path is not None and dataset.regions is not None:
        with open(regions_path, "w", encoding="utf-8") as fh:
            fh.write(regions_csv_text(dataset.regions))

