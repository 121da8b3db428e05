"""Domain types, the one table reader behind every input file (demand,
supply, regions, origin-destination costs and per-unit values), and the
one CSV writer behind every output table.

A dataset keeps its sites as columns: a ``DemandTable`` or ``SupplyTable``
holds the ids, one read-only (n, 2) coordinate array and the value column
(population or capacity; supply adds the candidate flags). A table is still
a sequence of records, built only when it is indexed or iterated, so the
numeric stages read the columns and build no record at all. A record's
``RULES`` check its numbers, and a table's columns, through ``errors._real``.

Every input table takes one loading path, ``_load_table``, and one
reader, ``_read_blocks``, which hands on a block of rows at a time as the
cells of each asked-for column. It splits the plain lines of a CSV table
(no quotes, one cell per header column on every line) a block at once,
and lets the csv module read on from the first line that is not plain.
Each loader parses a block's cells straight into columns, and checks the
columns in bulk once the last block is in.

Coordinates are of a kind of ``COORD_KINDS``: geographic (lon, lat in
degrees) or planar (x, y in meters). The kind is declared per dataset; input
file headers must agree with it, and mixing kinds is rejected.
Loading is eager and fail-fast. On any defect (a cell that does not
parse, an error of the reader, a bulk check that fails) the table is read
once more, and its first defective row raises an error naming that row:
the error the record's constructor or the coordinate check raises for
that row alone.
"""

import csv
import json
import math
from array import array
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat
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
    _flag,
    _real,
)

# Each coordinate kind's two columns, distance metric and largest |x| and |y|.
CoordKind = namedtuple("CoordKind", "columns metric bound")
COORD_KINDS = {
    "geographic": CoordKind(("lon", "lat"), "haversine", (180.0, 90.0)),
    "planar": CoordKind(("x", "y"), "euclidean", (np.finfo(float).max,) * 2),  # any finite
}


def _kind(coord_kind: str) -> CoordKind:
    if coord_kind not in tuple(COORD_KINDS):
        raise ValueError(f"coord_kind must be one of {tuple(COORD_KINDS)}")
    return COORD_KINDS[coord_kind]


def _check_coords(x: float, y: float, coord_kind: str, where: str = "") -> None:
    prefix = f"{where}: " if where else ""
    try:  # the message is made only when it is raised: the replay checks every row
        x, y = (_real(NonFiniteCoordinate, v, "", low=-math.inf) for v in (x, y))
    except NonFiniteCoordinate:
        raise NonFiniteCoordinate(f"{prefix}coordinate ({x}, {y}) is not finite") from None
    kind = COORD_KINDS[coord_kind]
    for name, value, bound in zip(kind.columns, (x, y), kind.bound):
        if not -bound <= value <= bound:
            raise OutOfRangeCoordinate(f"{prefix}{name} {value} outside [-{bound:g}, {bound:g}]")


def _check_xy(xy: np.ndarray, coord_kind: str, name=None) -> None:
    """``_check_coords``' error for the first row ``k`` of ``xy`` it refuses, named ``name(k)``."""
    for k in np.flatnonzero(~(np.abs(xy) <= COORD_KINDS[coord_kind].bound).all(axis=1)).tolist():
        _check_coords(*xy[k].tolist(), coord_kind, name(k) if name else "")


def _check_unique(ids, label: str) -> None:
    """DuplicateId for the first of ``ids`` that an earlier one repeats."""
    if len(set(ids)) < len(ids):
        seen = set()  # set.add gives None: the first id found in it is the first repeat
        rec_id = next(rec_id for rec_id in ids if rec_id in seen or seen.add(rec_id))
        raise DuplicateId(f"duplicate {label} id {rec_id!r}")


_XY = tuple((k, NonFiniteCoordinate, "coordinates not finite", -math.inf, False) for k in "xy")


class _Record:
    """A record whose ``RULES``, one ``(field, error, message, low, closed)`` per number, go
    through ``errors._real``; ``closed`` may name a flag field, checked by ``errors._flag``."""

    __slots__ = ()

    def __post_init__(self):
        for name, error, message, low, closed in self.RULES:
            value = getattr(self, name)
            if isinstance(closed, str):  # the flag that closes the bound
                closed = _flag(MalformedRow, flag := getattr(self, closed),
                               f"{self.KIND} {self.id!r}: {closed} {flag!r} must be a bool")
            try:
                number = _real(error, value, message, low, closed)
            except error:
                if value is None and self.__dataclass_fields__[name].default is None:
                    continue  # unset: None is the field's default
                bound = f"{'>=' if closed else '>'} {low:g}"
                raise error(f"{self.KIND} {self.id!r}: "
                            + message.format(value=value, bound=bound)) from None
            if number is not value:
                object.__setattr__(self, name, number)


@dataclass(frozen=True, slots=True)
class DemandSite(_Record):
    """A population location. ``x``/``y`` hold (lon, lat) when geographic."""

    KIND = "demand"
    RULES = (*_XY,
             ("population", NegativePopulation, "population {value} must be {bound}", 0.0, True))

    id: str
    x: float
    y: float
    population: float


@dataclass(frozen=True, slots=True)
class SupplySite(_Record):
    """A facility location with a positive capacity.

    ``candidate=True`` relaxes the capacity > 0 invariant to >= 0; it marks
    prospective zero-capacity sites used only in reallocation runs.
    """

    KIND = "supply"
    RULES = (*_XY, ("capacity", NonPositiveCapacity, "capacity {value} must be {bound}", 0.0,
                    "candidate"))

    id: str
    x: float
    y: float
    capacity: float
    candidate: bool = False


@dataclass(frozen=True, slots=True)
class Region(_Record):
    """An areal unit carrying a resource count, for agglomeration analysis."""

    KIND = "region"
    RULES = (("area_km2", NonPositiveArea, "area {value} must be {bound}", 0.0, False),
             ("resource", NegativeResource, "resource {value} must be {bound}", 0.0, True),
             ("population", NegativePopulation, "population {value} must be {bound}", 0.0, True))

    id: str
    area_km2: float
    resource: float
    population: float | None = None


class _SiteTable(Sequence):
    """Sites stored as columns, read as a sequence of records.

    A subclass is a frozen dataclass whose fields are ``ids``, ``xy`` and
    then ``COLUMNS``, the record's fields after ``id``, ``x`` and ``y``.
    Its columns are read-only arrays; every site in them satisfies the
    record's ``RULES``, which the table tests a column at a time, and its
    ids are unique, which only the table checks.
    """

    __slots__ = ()

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        n = len(self.ids)
        given = {}  # columns NumPy could misread (a bool as a number, text as a flag)
        for name, dtype in {"xy": float, **self.COLUMNS}.items():
            column, shape = getattr(self, name), (n, 2) if name == "xy" else (n,)
            if column is None and self.__dataclass_fields__[name].default is None:
                column = np.zeros(n, dtype)  # unset: None is the field's default
            elif getattr(column, "dtype", np.dtype(object)).kind not in (
                    "iuf" if dtype is float else "b"):
                given[name], dtype = dtype, object
            column = np.array(column, dtype=dtype)
            if column.size == 0:  # no sites; an empty list has no second axis
                column = column.reshape(shape)
            if column.shape != shape:
                raise ValueError(f"{name} has shape {column.shape}, expected {shape}")
            object.__setattr__(self, name, column)
        if given:  # their records read those values as given
            list(map(self.RECORD, *self._lists()))
            for name, dtype in given.items():
                object.__setattr__(self, name, getattr(self, name).astype(dtype))
        fields = dict(zip(("x", "y", *self.COLUMNS), (*self.xy.T, *self._columns())))
        ok = np.ones(n, bool)
        for name, _, _, low, closed in self.RECORD.RULES:
            column, closed = fields[name], fields[closed] if isinstance(closed, str) else closed
            ok &= np.isfinite(column) & np.where(closed, low <= column, low < column)
        for k in np.flatnonzero(~ok).tolist():
            self[k]  # the record's constructor raises its own error
        _check_unique(self.ids, self.RECORD.KIND)
        for column in (self.xy, *self._columns()):
            column.flags.writeable = False

    @classmethod
    def of(cls, sites):
        """``sites`` as a table: a table of this kind as it is, records as columns."""
        if isinstance(sites, cls):
            return sites
        sites = tuple(sites)
        return cls([s.id for s in sites], np.array([(s.x, s.y) for s in sites], float),
                   *(np.array([getattr(s, name) for s in sites], dtype)
                     for name, dtype in cls.COLUMNS.items()))

    def _columns(self):
        return tuple(getattr(self, name) for name in self.COLUMNS)

    def _lists(self):
        return (self.ids, *self.xy.T.tolist(), *(c.tolist() for c in self._columns()))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return type(self)(self.ids[i], self.xy[i], *(c[i] for c in self._columns()))
        x, y = self.xy[i].tolist()
        return self.RECORD(self.ids[i], x, y, *(c[i].item() for c in self._columns()))

    def __iter__(self):  # the sites passed the record's rules: no record is checked again
        records = list(map(object.__new__, repeat(self.RECORD, len(self))))
        for name, values in zip(self.RECORD.__dataclass_fields__, self._lists()):
            list(map(object.__setattr__, records, repeat(name), values))
        return iter(records)

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


@dataclass(frozen=True)
class Dataset:
    """Immutable bundle of demand and supply sites plus optional regions.

    ``demand`` and ``supply`` may be given as tables or as records; they
    are kept as tables, which check their ids. Region ids must be unique,
    and coordinates of ``coord_kind``, which is tested over the columns.
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
        _kind(self.coord_kind)
        if not self.demand or not self.supply:
            raise NoRecords("dataset needs at least one demand and one supply site")
        _check_unique([r.id for r in self.regions or ()], Region.KIND)
        for label, sites in (("demand", self.demand), ("supply", self.supply)):
            _check_xy(sites.xy, self.coord_kind, lambda k: f"{label} {sites.ids[k]!r}")


# --- reading --------------------------------------------------------------

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


class _Flag(str):
    """A GeoJSON ``true`` or ``false`` cell: the text ``True`` or ``False``,
    shown as the bool is, which no number parses from, where ``float()``
    would take the bool for 1 or 0."""

    __repr__ = str.__str__


def _features(path, columns, names, point):
    """``(row_number, cells)`` for each feature of a GeoJSON file, as
    ``_read_blocks`` describes them. The properties must hold each of
    ``columns`` but the two the Point's coordinates fill, which are cells."""
    properties = [col for col in columns if col not in (point or ())]
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
        for col in properties:
            if row.get(col) is None:
                raise MissingColumn(f"row {row_num}: properties lack {col!r}")
        cells = (row.get(col, _ABSENT) for col in names)
        yield row_num, tuple(_Flag(c) if c.__class__ is bool else c for c in cells)


# Characters per block of lines that the reader splits at once: its text
# and cells take a bounded amount of memory whatever the file's size. A
# block's lines and cells, as str objects, take about 20 times its text;
# blocks four times this size read no faster and raised the peak resident
# memory by about 1 MB.
CSV_BLOCK = 1 << 14

# Rows per block in which the reader hands on the csv module's rows and
# GeoJSON features, which bounds the memory of the block's cells the same way.
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


def _in_blocks(rows):
    """``rows``, ``(row_number, cells)`` pairs, as ``(row_numbers, cells)``
    blocks of ``ROW_BLOCK`` rows, ``cells`` a tuple per column. When reading
    a row raises, the rows of its block before it go out first."""
    while True:
        block = []
        try:
            block.extend(islice(rows, ROW_BLOCK))  # keeps the rows taken when the next raises
        finally:
            if block:
                row_nums, cells = zip(*block)
                yield row_nums, list(zip(*cells))
        if len(block) < ROW_BLOCK:
            return


def _csv_rows(path, skip: int):
    """The csv module's rows of a CSV file, past its first ``skip``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        yield from islice(csv.reader(fh), skip, None)


def _read_blocks(path, columns: tuple[str, ...], optional: tuple[str, ...] = (),
                 point: tuple[str, str] | None = None):
    """Yield the records of a CSV or GeoJSON file in order, as blocks of
    ``(row_numbers, cells)``, ``cells`` holding per column of ``columns``
    and then of ``optional`` its value in each of the block's rows. An
    ``optional`` column the file lacks gives ``_ABSENT``.

    CSV follows the rules of the csv module's dictionary reader: the first
    row is the header, row 1, and records are numbered from 2; blank lines
    are skipped and not counted; a cell missing from a short row is None; a
    column named twice is read from its last occurrence. Lines are split at
    commas ``CSV_BLOCK`` characters at a time while ``_plain_text`` takes
    them, the header included; from the first it refuses the csv module
    reads on. GeoJSON records are the features' properties, numbered from
    1, each ``true`` or ``false`` a ``_Flag``; when ``point`` names two
    columns, each feature must be a Point whose coordinates fill them. The
    rows read before an error of the reader are yielded before it.
    """
    names = (*columns, *optional)
    if str(path).endswith(".geojson"):
        yield from _in_blocks(_features(path, columns, names, point))
        return
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            first = fh.readline()
            header = first[:-1].split(",")
            plain = _plain_text([first], len(header)) is not None
            if not plain:  # the csv module's first row, which may span lines
                rows = csv.reader(chain([first], fh))
                header = next(rows, [])
            where = {col: pos for pos, col in enumerate(header)}  # the last one wins
            for col in columns:
                if col not in where:
                    raise MissingColumn(f"{path}: header lacks column {col!r}")
            # an absent column sits past the end of every row
            at, row, width = tuple(where.get(col, math.inf) for col in names), 2, len(header)
            while plain:
                try:
                    lines = fh.readlines(CSV_BLOCK)
                except UnicodeDecodeError:  # which drops the lines read: the csv module
                    rows = _csv_rows(path, row - 1)  # reads the file anew past the rows yielded
                    break
                if not (text := _plain_text(lines, width)):  # the csv module reads on from here
                    rows = csv.reader(chain(lines, fh)) if lines else ()
                    break
                cells = text[:-1].replace("\n", ",").split(",")
                yield range(row, row + len(lines)), [
                    cells[pos::width] if pos < width else [_ABSENT] * len(lines) for pos in at]
                row += len(lines)
            held = [pos for pos in at if pos < width]  # each absent column is filled per block
            pick, end = itemgetter(*held), max(held) + 1
            for row_nums, cells in _in_blocks(
                    (row_num, pick(cells) if len(cells) >= end else tuple(
                        cells[pos] if pos < len(cells) else None for pos in held))
                    for row_num, cells in enumerate(filter(None, rows), start=row)):
                cells = iter(cells)
                yield row_nums, [next(cells) if pos < width else [_ABSENT] * len(row_nums)
                                 for pos in at]
        except (UnicodeDecodeError, csv.Error) as err:
            raise MalformedRow(f"{path}: not a UTF-8 CSV table: {err}") from None


def _load_table(path, columns, table, parse, build, check_row, optional=(), point=None):
    """What ``build`` makes of the columns of ``table`` filled from a
    table's cells by ``parse``; else the error of the table's first
    defective row.

    ``table`` holds empty columns, each an ``array.array`` or a list.
    ``parse`` is given each block of ``_read_blocks`` and returns, per
    column of ``table``, what extends it; it raises KeyError, TypeError,
    ValueError or OverflowError for a cell it cannot take, or an
    AccessKitError. Once the last block is in, ``build`` is given the
    columns, an array column viewed as a NumPy array; it runs the bulk
    checks, and returns what it makes of them or raises an AccessKitError.

    On any such error the table is read again, and ``check_row(row_num,
    cells, seen)`` raises the error of its first defective row, ``seen`` a
    set kept across the rows; if no row is defective, the error is raised.
    """
    blocks = _read_blocks(path, columns, optional, point)
    try:
        for _, cells in blocks:
            for column, part in zip(table, parse(*cells)):
                column.extend(part)
        return build(*(np.frombuffer(column, column.typecode) if isinstance(column, array)
                       else column for column in table))
    except (AccessKitError, KeyError, TypeError, ValueError, OverflowError) as err:
        error = err
    blocks.close()  # a block that did not parse leaves the file open
    seen = set()
    for row_nums, cells in _read_blocks(path, columns, optional, point):
        for row_num, row in zip(row_nums, zip(*cells)):
            check_row(row_num, row, seen)
    raise error


def _blank(cell) -> bool:
    return cell is _ABSENT or cell is None or cell == ""


def _check_record(row_num, cells, seen, columns, optional=(), make=None, coord_kind=None):
    """Check one row of a table of records as a row-by-row reading does.

    The row's cells are its id, then those of ``columns[1:]``, then those
    of ``optional``. They parse in that order by ``float()``, an optional
    cell that is blank or absent as None; then the id is there (a short
    row's is None) and, as text, new to ``seen``; then ``make(id,
    *numbers)`` and, with a ``coord_kind``, the check of the first two
    numbers as coordinates of that kind pass. The first that fails raises
    its error, naming the row.
    """
    numbers = [_parse_float(cell, row_num, col) for cell, col in zip(cells[1:], columns[1:])]
    numbers += [None if _blank(cell) else _parse_float(cell, row_num, col)
                for cell, col in zip(cells[len(columns):], optional)]
    if cells[0] is None:
        raise MalformedRow(f"row {row_num}: too short to hold its id")
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


def _ids(ids):
    """A block's ids as text; the None of a row too short to hold its id fails."""
    if None in ids:
        raise TypeError("a row lacks its id cell")
    return map(str, ids)


def _parse_points(ids, xs, ys, values):
    """A block of a table of points: ids as text, and x, y and value floats."""
    return _ids(ids), map(float, xs), map(float, ys), map(float, values)


def _load_sites(path, table, coord_kind: str):
    """A ``DemandTable`` or ``SupplyTable`` read from a file."""
    columns = ("id", *_kind(coord_kind).columns, next(iter(table.COLUMNS)))

    def build(ids, x, y, values):  # the table's constructor runs its own checks
        xy = np.column_stack([x, y])
        _check_xy(xy, coord_kind)
        return table(ids, xy, values)

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
    return (_ids(ids), map(float, area), map(float, resource),
            (None if _blank(cell) else float(cell) for cell in population))


def _regions(ids, area, resource, population):
    """The regions of the columns, their ids unique and each checked by ``Region``."""
    _check_unique(ids, Region.KIND)
    return list(map(Region, ids, area.tolist(), resource.tolist(), population))


def load_regions(path) -> list[Region]:
    """Load regions from CSV (``id,area_km2,resource[,population]``) or from
    GeoJSON features with those properties; a blank population is absent."""
    columns, optional = ("id", "area_km2", "resource"), ("population",)
    return _load_table(
        path, columns, ([], array("d"), array("d"), []), _parse_regions, _regions,
        partial(_check_record, columns=columns, optional=optional, make=Region), optional)


def load_values(path, column: str):
    """Load one value column of a per-unit table: ``id``, coordinates, values.

    The first kind of ``COORD_KINDS`` whose two columns a row holds is the
    kind: ``lon,lat`` geographic, ``x,y`` planar; GeoJSON Point coordinates
    are ``lon,lat``. Ids and coordinates are checked as for demand sites.
    Returns ``(ids, locations, coord_kind, values)`` with ``locations`` a
    read-only (n, 2) array and ``values`` a read-only array.
    """
    def kind_of(coords):  # the first kind whose two coordinate cells are there, and their place
        for at, name in enumerate(COORD_KINDS):
            if _ABSENT not in coords[2 * at:2 * at + 2]:
                return name, 2 * at
        need = " or ".join("/".join(k.columns) for k in COORD_KINDS.values())
        raise MissingColumn(f"{path}: need {need} coordinate columns")

    kind = []  # the coordinate kind and where its cells start, as a block's first row shows them

    def parse(ids, values, *coords):  # every row of a table holds the same coordinate columns
        kind[:] = kind_of([cells[0] for cells in coords])
        return _parse_points(ids, *coords[kind[1]:kind[1] + 2], values)

    def build(ids, x, y, values):
        xy = np.column_stack([x, y])
        if ids:  # else no row has shown the kind
            _check_xy(xy, kind[0])
            _check_unique(ids, "unit")
        xy.flags.writeable = values.flags.writeable = False
        return ids, xy, values

    def check_row(row_num, cells, seen):
        row_kind, at = kind_of(cells[2:])
        _check_record(row_num, (cells[0], *cells[2 + at:4 + at], cells[1]), seen,
                      ("id", *COORD_KINDS[row_kind].columns, column), coord_kind=row_kind)

    coords = tuple(col for k in COORD_KINDS.values() for col in k.columns)
    ids, locations, values = _load_table(path, ("id", column), _points(), parse, build, check_row,
                                         coords, COORD_KINDS["geographic"].columns)
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
    return _csv_text(("id", *_kind(coord_kind).columns, value),
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
