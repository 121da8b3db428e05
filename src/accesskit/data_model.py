"""Domain types, the one table reader behind every input file (demand,
supply, regions, origin-destination costs and per-unit values), and the
one CSV writer behind every output table.

A dataset keeps its sites as columns: a ``DemandTable`` or ``SupplyTable``
holds the ids, one read-only (n, 2) coordinate array and the value column
(population or capacity; supply adds the candidate flags). A table is still
a sequence of records: indexing or iterating it builds each ``DemandSite``
or ``SupplySite`` through the record's own constructor, so the numeric
stages read the columns and build no record at all.

The reader streams a CSV or GeoJSON table as ``(row_number, cells)``
pairs, ``cells`` a tuple of the asked-for columns in the order asked, so
each loader reads a record by position, not by column name. The loaders
parse the cells straight into columns and check them in bulk. Site and
origin-destination CSV tables are first tried by a bulk reader, which
splits a plain table (no quotes, one cell per header column on every line)
a block of lines at a time; any other table, or one with a cell that does
not parse, is read row by row.

Coordinates are either geographic (lon, lat in decimal degrees) or planar
(x, y in meters). The coordinate kind is declared per dataset; input file
headers must agree with the declared kind and mixing kinds is rejected.
Loading is eager and fail-fast: the first defective row raises an error
naming that row, the error the record's constructor or the coordinate
check raises for that row alone.
"""

import csv
import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
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


def _regions_ok(values: np.ndarray, extra) -> np.ndarray:
    """Per row of (area, resource) values and (population,) extras, None where
    absent, whether ``Region`` accepts it."""
    population = np.array([0.0 if p is None else p for p, in extra])
    return (_in_range(values[:, 0], 0.0, closed=False) & _in_range(values[:, 1], 0.0)
            & _in_range(population, 0.0))


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


def _read_plain(path, columns: tuple[str, ...], parse) -> bool:
    """Whether ``path`` is a plain CSV table, each block of which ``parse``
    has taken.

    The table is read ``CSV_BLOCK`` characters of lines at a time, and a
    block is split into cells once. ``parse`` is given, per column of
    ``columns``, the list of that column's cells in the block's rows, in
    row order; it keeps what it makes of them.

    A table is plain when it is not GeoJSON, its header names each column
    once and names every one of ``columns``, and ``_plain_text`` takes the
    header and every block; its rows are then numbered from 2 without a gap.
    False, also when ``parse`` raises KeyError or ValueError (a
    UnicodeDecodeError included), tells the caller to drop what ``parse``
    kept and read the table row by row with ``_read_table``, which raises
    the error of the first defective row.
    """
    if str(path).endswith(".geojson"):
        return False
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = fh.readline()
            names = header[:-1].split(",")
            if (_plain_text([header], len(names)) is None or len(set(names)) < len(names)
                    or not set(columns) <= set(names)):
                return False
            width, at = len(names), [names.index(col) for col in columns]
            while lines := fh.readlines(CSV_BLOCK):
                text = _plain_text(lines, width)
                if text is None:
                    return False
                cells = text[:-1].replace("\n", ",").split(",")
                parse(*(cells[pos::width] for pos in at))
    except (KeyError, ValueError):
        return False
    return True


def _blank(cell) -> bool:
    return cell is _ABSENT or cell is None or cell == ""


def _optional_float(cell):
    """An optional cell as a float, or None where it is blank or absent."""
    return None if _blank(cell) else float(cell)


def _collect(rows, columns, optional=(), make=None, ok=None, coord_kind=None):
    """Stream a table's rows into columns: ``(ids, values, extra)``.

    Each row's cells are its id, then its ``columns``, then its
    ``optional`` columns. ``ids`` is the list of ids as text; ``values``
    the read-only (rows, len(columns)) array of the columns' cells, each
    parsed by ``float()``; ``extra`` the list, one tuple per row, of the
    optional cells parsed the same way, None where blank or absent.

    Once the rows are in, ids must be unique and, per row, ``ok(values,
    extra)`` must hold (all rows pass without an ``ok``) and, with a
    ``coord_kind``, the first two columns must be coordinates of that
    kind. The first row that fails a check or holds a cell that does not
    parse raises. Its error is the one a row-by-row reading raises: a
    cell's MalformedRow, else DuplicateId, else what ``make(id, *values,
    *extra)`` and then the coordinate check raise for that row alone,
    each naming the row.
    """
    n, width = len(columns) + 1, len(columns)
    ids, numbers, extra = [], array("d"), []
    add_id, add_numbers, add_extra = ids.append, numbers.extend, extra.append
    row_num, unparsed, reader_error = 0, None, None
    try:
        for row_num, cells in rows:
            try:
                add_numbers(map(float, cells[1:n]))
                if optional:
                    add_extra(tuple(map(_optional_float, cells[n:])))
            except (TypeError, ValueError, OverflowError):
                del numbers[len(ids) * width:], extra[len(ids):]
                unparsed = cells
                break
            add_id(cells[0])
    except AccessKitError as err:  # the reader's, from a row after those read
        reader_error = err
    # rows are numbered consecutively; row_num is the last one read
    ids, values = list(map(str, ids)), np.frombuffer(numbers).reshape(-1, width)
    values.flags.writeable = False
    _check_rows(ids, values, extra, row_num - len(ids) + (unparsed is None), make, ok,
                coord_kind)
    if unparsed is not None:
        for cell, col in zip(unparsed[1:n], columns):
            _parse_float(cell, row_num, col)
        for cell, col in zip(unparsed[n:], optional):
            if not _blank(cell):
                _parse_float(cell, row_num, col)
    if reader_error is not None:
        raise reader_error
    return ids, values, extra


def _check_rows(ids, values, extra, first_row: int, make=None, ok=None, coord_kind=None):
    """Check the parsed rows of a table, numbered from ``first_row``, as
    ``_collect`` describes: the first row that fails a check raises."""
    good = np.ones(len(ids), bool) if ok is None else ok(values, extra)
    if coord_kind is not None:
        good &= _coords_ok(values[:, :2], coord_kind)
    # the checks of one row, from the first the bulk tests reject; no row
    # before the first repeated id repeats one
    repeat = _first_repeat(ids)
    for k in sorted({repeat, *np.flatnonzero(~good).tolist()}):
        if k == len(ids):
            break
        if k == repeat:
            raise DuplicateId(f"row {first_row + k}: duplicate id {ids[k]!r}")
        row = values[k].tolist()
        try:
            if make is not None:
                make(ids[k], *row, *(extra[k] if extra else ()))
            if coord_kind is not None:
                _check_coords(row[0], row[1], coord_kind)
        except AccessKitError as err:
            raise type(err)(f"row {first_row + k}: {err}") from None


# --- loaders --------------------------------------------------------------

def _load_sites(path, table, coord_kind: str):
    """A ``DemandTable`` or ``SupplyTable`` read from a file."""
    cx, cy = _coord_columns(coord_kind)
    value = next(iter(table.COLUMNS))
    checks = dict(make=table.RECORD, ok=lambda v, _: table.ok(v[:, :2], v[:, 2]),
                  coord_kind=coord_kind)
    ids, numbers = [], (array("d"), array("d"), array("d"))

    def parse(block_ids, *cells):
        for column, column_cells in zip(numbers, cells):
            column.extend(map(float, column_cells))
        ids.extend(block_ids)

    if _read_plain(path, ("id", cx, cy, value), parse):
        values = np.column_stack([np.frombuffer(column) for column in numbers])
        _check_rows(ids, values, [], 2, **checks)
    else:
        rows = _read_table(path, ("id", cx, cy, value), point=(cx, cy))
        ids, values, _ = _collect(rows, (cx, cy, value), **checks)
    return table(ids, values[:, :2], values[:, 2])


def load_demand(path, coord_kind: str = "geographic") -> list[DemandSite]:
    """Load demand sites from CSV (``id,lon,lat,population``) or GeoJSON points."""
    return list(_load_sites(path, DemandTable, coord_kind))


def load_supply(path, coord_kind: str = "geographic") -> list[SupplySite]:
    """Load supply sites from CSV (``id,lon,lat,capacity``) or GeoJSON points."""
    return list(_load_sites(path, SupplyTable, coord_kind))


def load_regions(path) -> list[Region]:
    """Load regions from CSV (``id,area_km2,resource[,population]``) or from
    GeoJSON features with those properties; a blank population is absent."""
    rows = _read_table(path, ("id", "area_km2", "resource"), optional=("population",))
    ids, values, extra = _collect(rows, ("area_km2", "resource"), optional=("population",),
                                  make=Region, ok=_regions_ok)
    return [Region(i, *v, *e) for i, v, e in zip(ids, values.tolist(), extra)]


def load_values(path, column: str):
    """Load one value column of a per-unit table: ``id``, coordinates, values.

    Coordinate columns decide the kind: ``lon,lat`` is geographic, ``x,y``
    planar; GeoJSON Point coordinates are ``lon,lat``. Ids and coordinates
    are checked as for demand sites. Returns ``(ids, locations, coord_kind,
    values)`` with ``locations`` a read-only (n, 2) array and ``values`` a
    read-only array.
    """
    rows = _read_table(path, ("id", column), optional=("lon", "lat", "x", "y"),
                       point=("lon", "lat"))
    head = next(rows, None)
    if head is None:
        raise NoRecords(f"{path}: table has no rows")
    first = head[1]
    if _ABSENT not in first[2:4]:
        coord_kind, pick = "geographic", itemgetter(0, 2, 3, 1)  # id, lon, lat, value
    elif _ABSENT not in first[4:6]:
        coord_kind, pick = "planar", itemgetter(0, 4, 5, 1)  # id, x, y, value
    else:
        raise MissingColumn(f"{path}: need lon/lat or x/y coordinate columns")
    ids, values, _ = _collect(((row_num, pick(cells)) for row_num, cells in chain([head], rows)),
                              (*_coord_columns(coord_kind), column), coord_kind=coord_kind)
    return ids, values[:, :2], coord_kind, values[:, 2]


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
