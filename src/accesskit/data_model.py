"""Domain types, the one table reader behind every input file (demand,
supply, regions, origin-destination costs and per-unit values), and the
one CSV writer behind every output table.

A dataset keeps its sites as columns: a ``DemandTable`` or ``SupplyTable``
holds the ids, one read-only (n, 2) coordinate array and the value column
(population or capacity; supply adds the candidate flags). A table is still
a sequence of records: indexing or iterating it builds each ``DemandSite``
or ``SupplySite`` through the record's own constructor, so the numeric
stages read the columns and build no record at all.

Every input table takes one loading path, ``_load_table``. A plain CSV
table (no quotes, one cell per header column on every line) is split a
block of lines at a time; any other table, GeoJSON included, is streamed
as ``(row_number, cells)`` pairs, ``cells`` a tuple of the asked-for
columns in the order asked, and handed on a block of rows at a time. Each
loader parses a block's cells straight into columns, and checks the
columns in bulk once the last block is in.

Coordinates are either geographic (lon, lat in decimal degrees) or planar
(x, y in meters). The coordinate kind is declared per dataset; input file
headers must agree with the declared kind and mixing kinds is rejected.
Loading is eager and fail-fast. On any defect (a cell that does not
parse, an error of the reader, a bulk check that fails) the table is read
once more row by row, and its first defective row raises an error naming
that row: the error the record's constructor or the coordinate check
raises for that row alone.
"""

import csv
import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

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


def _coords_ok(xy: np.ndarray, coord_kind: str) -> np.ndarray:
    """Per row of (x, y) pairs, whether ``_check_coords`` accepts it."""
    x, y = xy[:, 0], xy[:, 1]
    if coord_kind == "geographic":  # NaN fails these tests too
        return (-180.0 <= x) & (x <= 180.0) & (-90.0 <= y) & (y <= 90.0)
    return np.isfinite(x) & np.isfinite(y)


def _first_repeat(ids) -> int:
    """The position of the first id that an earlier one repeats, else ``len(ids)``."""
    if len(set(ids)) == len(ids):
        return len(ids)
    seen = set()
    for k, rec_id in enumerate(ids):
        if rec_id in seen:
            return k
        seen.add(rec_id)


def _in_range(values, low: float, closed: bool = True) -> np.ndarray:
    """Per value, whether it is finite and >= ``low`` (> ``low`` unless closed)."""
    return ((low <= values) if closed else (low < values)) & (values < math.inf)


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


class _SiteTable(Sequence):
    """Sites stored as columns, read as a sequence of records.

    A subclass is a frozen dataclass whose fields are ``ids``, ``xy`` and
    then ``COLUMNS``, the record's fields after ``id``, ``x`` and ``y``.
    Its columns are read-only arrays; every site in them satisfies the
    record's invariants, which ``ok`` tests in bulk.
    """

    __slots__ = ()

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        n = len(self.ids)
        columns = (("xy", float, (n, 2)),
                   *((name, dtype, (n,)) for name, dtype in self.COLUMNS.items()))
        for name, dtype, shape in columns:
            column = getattr(self, name)
            column = np.array(np.zeros(n, bool) if column is None else column, dtype=dtype)
            if column.size == 0:  # no sites; an empty list has no second axis
                column = column.reshape(shape)
            if column.shape != shape:
                raise ValueError(f"{name} has shape {column.shape}, expected {shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        for k in np.flatnonzero(~self.ok(self.xy, *self._columns())).tolist():
            self[k]  # the record's constructor raises its own error

    @classmethod
    def of(cls, sites):
        """``sites`` as a table: a table of this kind as it is, records as columns."""
        if isinstance(sites, cls):
            return sites
        sites = tuple(sites)
        return cls([s.id for s in sites], [(s.x, s.y) for s in sites],
                   *([getattr(s, name) for s in sites] for name in cls.COLUMNS))

    def _columns(self):
        return tuple(getattr(self, name) for name in self.COLUMNS)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return type(self)(self.ids[i], self.xy[i], *(c[i] for c in self._columns()))
        x, y = self.xy[i].tolist()
        return self.RECORD(self.ids[i], x, y, *(c[i].item() for c in self._columns()))

    def __iter__(self):
        return map(self.RECORD, self.ids, self.xy[:, 0].tolist(), self.xy[:, 1].tolist(),
                   *(c.tolist() for c in self._columns()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ids == other.ids and all(
            np.array_equal(a, b) for a, b in zip((self.xy, *self._columns()),
                                                 (other.xy, *other._columns())))

    def __hash__(self) -> int:  # equal tables have equal ids
        return hash(self.ids)


@dataclass(frozen=True, eq=False, slots=True)
class DemandTable(_SiteTable):
    """Demand sites as columns: ``ids``, ``xy`` and ``population``."""

    RECORD = DemandSite
    COLUMNS = {"population": float}

    ids: tuple[str, ...]
    xy: np.ndarray
    population: np.ndarray

    @staticmethod
    def ok(xy, population) -> np.ndarray:
        """Per site, whether ``DemandSite`` accepts it."""
        return np.isfinite(xy).all(axis=1) & _in_range(population, 0.0)


@dataclass(frozen=True, eq=False, slots=True)
class SupplyTable(_SiteTable):
    """Supply sites as columns: ``ids``, ``xy``, ``capacity`` and
    ``candidate``, all False when not given."""

    RECORD = SupplySite
    COLUMNS = {"capacity": float, "candidate": bool}

    ids: tuple[str, ...]
    xy: np.ndarray
    capacity: np.ndarray
    candidate: np.ndarray | None = None

    @staticmethod
    def ok(xy, capacity, candidate=False) -> np.ndarray:
        """Per site, whether ``SupplySite`` accepts it."""
        return np.isfinite(xy).all(axis=1) & np.where(
            candidate, _in_range(capacity, 0.0), _in_range(capacity, 0.0, closed=False))


@dataclass(frozen=True)
class Dataset:
    """Immutable bundle of demand and supply sites plus optional regions.

    ``demand`` and ``supply`` may be given as tables or as records; they
    are kept as tables. Ids must be unique, and coordinates must be of
    ``coord_kind``, which both checks test over the columns.
    """

    demand: DemandTable
    supply: SupplyTable
    regions: tuple[Region, ...] | None = None
    coord_kind: str = "geographic"

    def __post_init__(self):
        object.__setattr__(self, "demand", DemandTable.of(self.demand))
        object.__setattr__(self, "supply", SupplyTable.of(self.supply))
        if self.regions is not None:
            object.__setattr__(self, "regions", tuple(self.regions))
        if self.coord_kind not in COORD_KINDS:
            raise ValueError(f"coord_kind must be one of {COORD_KINDS}")
        if not self.demand or not self.supply:
            raise NoRecords("dataset needs at least one demand and one supply site")
        for label, ids in (("demand", self.demand.ids), ("supply", self.supply.ids),
                           ("region", [r.id for r in self.regions or ()])):
            k = _first_repeat(ids)
            if k < len(ids):
                raise DuplicateId(f"duplicate {label} id {ids[k]!r}")
        for label, sites in (("demand", self.demand), ("supply", self.supply)):
            bad = ~_coords_ok(sites.xy, self.coord_kind)
            if bad.any():
                k = int(bad.argmax())
                _check_coords(*sites.xy[k].tolist(), self.coord_kind, f"{label} {sites.ids[k]!r}")


# --- reading --------------------------------------------------------------

def _coord_columns(coord_kind: str) -> tuple[str, str]:
    return ("lon", "lat") if coord_kind == "geographic" else ("x", "y")


def _parse_float(raw, row_num: int, column: str) -> float:
    """A cell as a float, read as ``float()`` reads it."""
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError):  # an int too large for a float
        raise MalformedRow(f"row {row_num}: cannot parse {column}={raw!r}") from None


# An optional column the table lacks: its cell in every row (CSV), or in a
# feature whose properties lack it (GeoJSON). Unlike None, the cell of a
# short row, it tells a missing column from a missing cell.
_ABSENT = object()


class _Flag:
    """A GeoJSON ``true`` or ``false`` cell: it reads as the bool does, but
    no number parses from it, as ``float()`` would take it for 1 or 0."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def __repr__(self) -> str:
        return repr(self.value)


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
    columns, each feature must be a Point whose coordinates fill them. A
    GeoJSON ``true`` or ``false`` is read as a ``_Flag``.
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
            cells = (row.get(col, _ABSENT) for col in names)
            yield row_num, tuple(_Flag(c) if c.__class__ is bool else c for c in cells)
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


# Characters per block of lines that the bulk reader reads at once: its
# text and cells take a bounded amount of memory whatever the file's size.
# A block's lines and cells, as str objects, take about 20 times its text;
# blocks four times this size read no faster and raised the peak resident
# memory by about 1 MB.
CSV_BLOCK = 1 << 14

# Rows per block that the row reader hands a table's parser at once, which
# bounds the memory of the block's cells the same way.
ROW_BLOCK = 1 << 10


def _plain_text(lines, width: int):
    """The text of ``lines`` if the csv module reads each line as its text
    split at every comma into ``width`` cells, else None: no line may hold a
    quote, carriage return or NUL, be blank or be longer than the field size
    limit (so none of its cells is), and each must end in a newline and hold
    ``width - 1`` commas."""
    text = "".join(lines)
    if (text.endswith("\n") and '"' not in text and "\r" not in text
            and "\0" not in text and "\n" not in lines
            and max(map(len, lines)) <= csv.field_size_limit()
            and set(map(str.count, lines, repeat(","))) == {width - 1}):
        return text
    return None


def _read_plain(path, columns: tuple[str, ...], optional: tuple[str, ...], parse) -> bool:
    """Whether ``path`` is a plain CSV table, each block of which ``parse``
    has been given.

    The table is read ``CSV_BLOCK`` characters of lines at a time, and a
    block is split into cells once. ``parse`` is given, per column of
    ``columns`` and then of ``optional``, the list of that column's cells
    in the block's rows, in row order; an optional column the header lacks
    gives ``_ABSENT`` in every row, as ``_read_table`` gives it.

    A table is plain when it is not GeoJSON, its header names each column
    once and names every one of ``columns``, and ``_plain_text`` takes the
    header and every block; its rows are then numbered from 2 without a gap.
    False tells the caller to drop what ``parse`` was given and read the
    table with ``_read_table``. What ``parse`` raises, and a
    UnicodeDecodeError, is raised.
    """
    if str(path).endswith(".geojson"):
        return False
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = fh.readline()
        names = header[:-1].split(",")
        if (_plain_text([header], len(names)) is None or len(set(names)) < len(names)
                or not set(columns) <= set(names)):
            return False
        width = len(names)
        at = [names.index(col) if col in names else None for col in (*columns, *optional)]
        while lines := fh.readlines(CSV_BLOCK):
            text = _plain_text(lines, width)
            if text is None:
                return False
            cells = text[:-1].replace("\n", ",").split(",")
            parse(*(cells[pos::width] if pos is not None else [_ABSENT] * len(lines)
                    for pos in at))
    return True


def _load_table(path, columns, table, parse, build, check_row, optional=(), point=None):
    """What ``build`` makes of the columns of ``table`` filled from a
    table's cells by ``parse``; else the error of the table's first
    defective row.

    ``table`` holds empty columns, each an ``array.array`` or a list.
    ``parse`` is given a block of rows as one sequence of cells per column
    of ``columns`` and then of ``optional``, and returns, per column of
    ``table``, what extends it. It raises KeyError, TypeError, ValueError
    or OverflowError for a cell it cannot take, or an AccessKitError for a
    block it cannot read. A plain CSV table is read a block of lines at a
    time by ``_read_plain``, any other table ``ROW_BLOCK`` rows at a time
    by ``_read_table``, which takes ``optional`` and ``point`` as it
    describes. Once the last block is in, ``build`` is given the columns,
    each array column viewed as a NumPy array; it runs the bulk checks and
    returns None, or raises an AccessKitError, if a row fails them.

    When a cell does not parse or ``build`` rejects the rows,
    the table is read again row by row, and ``check_row(row_num, cells, seen)``
    checks each row in turn, ``seen`` a set kept across the rows; it raises
    the error of the first defective row, naming that row.
    """
    def take(*cells):
        for column, part in zip(table, parse(*cells)):
            column.extend(part)

    try:
        if not _read_plain(path, columns, optional, take):
            for column in table:
                del column[:]
            rows = _read_table(path, columns, optional, point)
            while block := [cells for _, cells in islice(rows, ROW_BLOCK)]:
                take(*zip(*block))
        built = build(*(np.frombuffer(column, column.typecode) if isinstance(column, array)
                        else column for column in table))
        if built is not None:
            return built
    except (AccessKitError, KeyError, TypeError, ValueError, OverflowError):
        pass
    seen = set()
    for row_num, cells in _read_table(path, columns, optional, point):
        check_row(row_num, cells, seen)
    raise AssertionError(f"{path}: the bulk checks reject a table whose rows all pass")


def _blank(cell) -> bool:
    return cell is _ABSENT or cell is None or cell == ""


def _check_record(row_num, cells, seen, columns, optional=(), make=None, coord_kind=None):
    """Check one row of a table of records as a row-by-row reading does.

    The row's cells are its id, then those of ``columns[1:]``, then those
    of ``optional``. They parse in that order by ``float()``, an optional
    cell that is blank or absent as None; then the id, as text, is new to
    ``seen``; then ``make(id, *numbers)`` and, with a ``coord_kind``, the
    check of the first two numbers as coordinates of that kind pass. The
    first that fails raises its error, naming the row.
    """
    numbers = [_parse_float(cell, row_num, col) for cell, col in zip(cells[1:], columns[1:])]
    numbers += [None if _blank(cell) else _parse_float(cell, row_num, col)
                for cell, col in zip(cells[len(columns):], optional)]
    rec_id = str(cells[0])
    if rec_id in seen:
        raise DuplicateId(f"row {row_num}: duplicate id {rec_id!r}")
    seen.add(rec_id)
    try:
        if make is not None:
            make(rec_id, *numbers)
        if coord_kind is not None:
            _check_coords(numbers[0], numbers[1], coord_kind)
    except AccessKitError as err:
        raise type(err)(f"row {row_num}: {err}") from None


# --- loaders --------------------------------------------------------------

def _points():
    """The empty columns of a table of points: ids, x, y and values."""
    return [], array("d"), array("d"), array("d")


def _parse_points(ids, xs, ys, values):
    """A block of a table of points: ids as text, and x, y and value floats."""
    return map(str, ids), map(float, xs), map(float, ys), map(float, values)


def _load_sites(path, table, coord_kind: str):
    """A ``DemandTable`` or ``SupplyTable`` read from a file."""
    columns = ("id", *_coord_columns(coord_kind), next(iter(table.COLUMNS)))

    def build(ids, x, y, values):  # the table's constructor runs its own checks
        xy = np.column_stack([x, y])
        if _coords_ok(xy, coord_kind).all() and _first_repeat(ids) == len(ids):
            return table(ids, xy, values)
        return None

    return _load_table(
        path, columns, _points(), _parse_points, build,
        partial(_check_record, columns=columns, make=table.RECORD, coord_kind=coord_kind),
        point=columns[1:3])


def load_demand(path, coord_kind: str = "geographic") -> list[DemandSite]:
    """Load demand sites from CSV (``id,lon,lat,population``) or GeoJSON points."""
    return list(_load_sites(path, DemandTable, coord_kind))


def load_supply(path, coord_kind: str = "geographic") -> list[SupplySite]:
    """Load supply sites from CSV (``id,lon,lat,capacity``) or GeoJSON points."""
    return list(_load_sites(path, SupplyTable, coord_kind))


def _parse_regions(ids, area, resource, population):
    """A block of a regions table: ids as text, area and resource floats,
    and populations, None where blank or absent."""
    return (map(str, ids), map(float, area), map(float, resource),
            (None if _blank(cell) else float(cell) for cell in population))


def _regions(ids, area, resource, population):
    """The regions of the columns, each checked by ``Region``; None unless
    the ids are unique."""
    if _first_repeat(ids) == len(ids):
        return list(map(Region, ids, area.tolist(), resource.tolist(), population))
    return None


def load_regions(path) -> list[Region]:
    """Load regions from CSV (``id,area_km2,resource[,population]``) or from
    GeoJSON features with those properties; a blank population is absent."""
    columns, optional = ("id", "area_km2", "resource"), ("population",)
    return _load_table(
        path, columns, ([], array("d"), array("d"), []), _parse_regions, _regions,
        partial(_check_record, columns=columns, optional=optional, make=Region), optional)


def _values_kind(path, lon, lat, x, y) -> str:
    """The coordinate kind of a values table whose row holds these cells."""
    if _ABSENT not in (lon, lat):
        return "geographic"
    if _ABSENT not in (x, y):
        return "planar"
    raise MissingColumn(f"{path}: need lon/lat or x/y coordinate columns")


def load_values(path, column: str):
    """Load one value column of a per-unit table: ``id``, coordinates, values.

    Coordinate columns decide the kind: ``lon,lat`` is geographic, ``x,y``
    planar; GeoJSON Point coordinates are ``lon,lat``. Ids and coordinates
    are checked as for demand sites. Returns ``(ids, locations, coord_kind,
    values)`` with ``locations`` a read-only (n, 2) array and ``values`` a
    read-only array.
    """
    kind = []  # the coordinate kind, as the first row's cells show it

    def parse(ids, values, *coords):
        if not kind:
            kind.append(_values_kind(path, *(cells[0] for cells in coords)))
        at = 0 if kind == ["geographic"] else 2
        return _parse_points(ids, *coords[at:at + 2], values)

    def build(ids, x, y, values):
        xy = np.column_stack([x, y])
        if ids and not (_coords_ok(xy, kind[0]).all() and _first_repeat(ids) == len(ids)):
            return None
        xy.flags.writeable = values.flags.writeable = False
        return ids, xy, values

    def check_row(row_num, cells, seen):
        row_kind = _values_kind(path, *cells[2:])
        at = 2 if row_kind == "geographic" else 4
        _check_record(row_num, (cells[0], *cells[at:at + 2], cells[1]), seen,
                      ("id", *_coord_columns(row_kind), column), coord_kind=row_kind)

    ids, locations, values = _load_table(path, ("id", column), _points(), parse, build,
                                         check_row, ("lon", "lat", "x", "y"), ("lon", "lat"))
    if not ids:
        raise NoRecords(f"{path}: table has no rows")
    return ids, locations, kind[0], values


def load_dataset(demand_path, supply_path, regions_path=None,
                 coord_kind: str = "geographic") -> Dataset:
    """Load and validate a full dataset in one call; each file's format
    follows its extension. The sites go straight into columns."""
    return Dataset(
        demand=_load_sites(demand_path, DemandTable, coord_kind),
        supply=_load_sites(supply_path, SupplyTable, coord_kind),
        regions=load_regions(regions_path) if regions_path is not None else None,
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
