import csv
import json
from dataclasses import astuple, replace
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from accesskit import data_model
from accesskit.data_model import (
    Dataset,
    DemandSite,
    DemandTable,
    Region,
    SupplySite,
    SupplyTable,
    _check_coords,
    demand_csv_text,
    load_demand,
    load_regions,
    load_supply,
    regions_csv_text,
    supply_csv_text,
    write_dataset,
    load_dataset,
)
from accesskit.errors import (
    AccessKitError,
    DuplicateId,
    MalformedRow,
    MissingColumn,
    NegativePopulation,
    NegativeResource,
    NonFiniteCoordinate,
    NonPositiveArea,
    NonPositiveCapacity,
    OutOfRangeCoordinate,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDemand:
    def test_csv_row_maps_to_fields(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,lon,lat,population\nd1,117.0,36.65,1200\n")
        sites = load_demand(path)
        assert sites == [DemandSite("d1", 117.0, 36.65, 1200.0)]

    def test_duplicate_id_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv",
                     "id,lon,lat,population\nd1,117.0,36.65,1200\nd1,117.1,36.7,90\n")
        with pytest.raises(DuplicateId, match="row 3"):
            load_demand(path)

    def test_geojson_point_feature(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [117.05, 36.7]},
                "properties": {"id": "d2", "population": 500},
            }],
        }
        path = write(tmp_path, "d.geojson", json.dumps(doc))
        sites = load_demand(path)
        assert sites == [DemandSite("d2", 117.05, 36.7, 500.0)]

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,lon,population\nd1,117.0,1200\n")
        with pytest.raises(MissingColumn, match="lat"):
            load_demand(path)

    def test_planar_header(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,x,y,population\nd1,10.0,20.0,5\n")
        sites = load_demand(path, coord_kind="planar")
        assert sites[0].x == 10.0 and sites[0].y == 20.0

    def test_planar_header_rejected_for_geographic(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,x,y,population\nd1,10.0,20.0,5\n")
        with pytest.raises(MissingColumn):
            load_demand(path, coord_kind="geographic")

    def test_negative_population_names_row(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,lon,lat,population\nd1,117.0,36.65,-4\n")
        with pytest.raises(NegativePopulation, match="row 2"):
            load_demand(path)

    def test_zero_population_accepted(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,lon,lat,population\nd1,117.0,36.65,0\n")
        assert load_demand(path)[0].population == 0.0

    def test_non_finite_coordinate(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,lon,lat,population\nd1,nan,36.65,5\n")
        with pytest.raises(NonFiniteCoordinate, match="row 2"):
            load_demand(path)

    def test_out_of_range_latitude(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,lon,lat,population\nd1,117.0,96.65,5\n")
        with pytest.raises(OutOfRangeCoordinate, match="row 2"):
            load_demand(path)

    def test_unparseable_cell(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,lon,lat,population\nd1,117.0,36.65,many\n")
        with pytest.raises(MalformedRow, match="population"):
            load_demand(path)

    def test_order_preserved(self, tmp_path):
        rows = "\n".join(f"d{i},{100 + i},{30 + i % 5},{i * 10}" for i in range(20))
        path = write(tmp_path, "d.csv", "id,lon,lat,population\n" + rows + "\n")
        sites = load_demand(path)
        assert [s.id for s in sites] == [f"d{i}" for i in range(20)]


class TestLoadSupply:
    def test_csv_row(self, tmp_path):
        path = write(tmp_path, "s.csv", "id,lon,lat,capacity\nh1,117.02,36.66,250\n")
        assert load_supply(path)[0].capacity == 250.0

    @pytest.mark.parametrize("capacity", ["0", "-3"])
    def test_non_positive_capacity(self, tmp_path, capacity):
        path = write(tmp_path, "s.csv", f"id,lon,lat,capacity\nh1,117.02,36.66,{capacity}\n")
        with pytest.raises(NonPositiveCapacity, match="row 2"):
            load_supply(path)

    def test_geojson_capacity(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [117.0, 36.6]},
                "properties": {"id": "h9", "capacity": 40},
            }],
        }
        path = write(tmp_path, "s.geojson", json.dumps(doc))
        assert load_supply(path)[0].id == "h9"


class TestLoadRegions:
    def test_row_without_population(self, tmp_path):
        path = write(tmp_path, "r.csv", "id,area_km2,resource\nr1,120.5,340\n")
        region = load_regions(path)[0]
        assert region == Region("r1", 120.5, 340.0, None)

    def test_zero_area_rejected(self, tmp_path):
        path = write(tmp_path, "r.csv", "id,area_km2,resource\nr2,0,10\n")
        with pytest.raises(NonPositiveArea, match="row 2"):
            load_regions(path)

    def test_population_column(self, tmp_path):
        path = write(tmp_path, "r.csv",
                     "id,area_km2,resource,population\nr3,50,20,80000\n")
        assert load_regions(path)[0].population == 80000.0

    def test_negative_resource(self, tmp_path):
        path = write(tmp_path, "r.csv", "id,area_km2,resource\nr1,10,-1\n")
        with pytest.raises(NegativeResource):
            load_regions(path)

    def test_blank_population_is_absent(self, tmp_path):
        path = write(tmp_path, "r.csv",
                     "id,area_km2,resource,population\nr1,10,5,\nr2,20,5,70\n")
        regions = load_regions(path)
        assert regions[0].population is None and regions[1].population == 70.0


class TestDataset:
    def test_mixed_kind_flag_validates_bounds(self):
        # planar magnitudes are fine under the planar flag, rejected as geographic
        demand = (DemandSite("d1", 500_000.0, 4_000_000.0, 10.0),)
        supply = (SupplySite("h1", 501_000.0, 4_000_100.0, 5.0),)
        Dataset(demand=demand, supply=supply, coord_kind="planar")
        with pytest.raises(OutOfRangeCoordinate):
            Dataset(demand=demand, supply=supply, coord_kind="geographic")

    def test_duplicate_ids_rejected_across_list(self):
        demand = (DemandSite("a", 0, 0, 1), DemandSite("a", 1, 1, 1))
        with pytest.raises(DuplicateId):
            Dataset(demand=demand, supply=(SupplySite("h", 0, 0, 1),), coord_kind="planar")

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            Dataset(demand=(), supply=(SupplySite("h", 0, 0, 1),), coord_kind="planar")

    def test_candidate_flag_allows_zero_capacity(self):
        SupplySite("new", 0.0, 0.0, 0.0, candidate=True)
        with pytest.raises(NonPositiveCapacity):
            SupplySite("new", 0.0, 0.0, 0.0)


class TestRoundTrip:
    def test_random_datasets_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(7)
        for case in range(10):
            n_d, n_s, n_r = rng.integers(1, 30), rng.integers(1, 10), rng.integers(1, 8)
            demand = tuple(
                DemandSite(f"d{i}", float(rng.uniform(-180, 180)),
                           float(rng.uniform(-90, 90)), float(rng.uniform(0, 1e5)))
                for i in range(n_d)
            )
            supply = tuple(
                SupplySite(f"h{j}", float(rng.uniform(-180, 180)),
                           float(rng.uniform(-90, 90)), float(rng.uniform(1e-3, 1e4)))
                for j in range(n_s)
            )
            regions = tuple(
                Region(f"r{k}", float(rng.uniform(0.1, 500)), float(rng.uniform(0, 900)),
                       float(rng.uniform(0, 1e6)) if rng.random() < 0.5 else None)
                for k in range(n_r)
            )
            ds = Dataset(demand=demand, supply=supply, regions=regions)
            write_dataset(ds, tmp_path / "d.csv", tmp_path / "s.csv", tmp_path / "r.csv")
            back = load_dataset(tmp_path / "d.csv", tmp_path / "s.csv", tmp_path / "r.csv")
            assert back.demand == ds.demand
            assert back.supply == ds.supply
            assert back.regions == ds.regions

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_awkward_ids_and_numpy_scalars_round_trip(self, tmp_path, data):
        # CSV and UTF-8 carry any text but NUL and lone surrogates
        text = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00")
                       | st.sampled_from([",", '"', "\r", "\n", " "]), max_size=8)
        ids = data.draw(st.lists(text, min_size=3, max_size=12, unique=True))
        number = data.draw(st.sampled_from([float, np.float64]))
        coord = st.floats(-90, 90, allow_nan=False).map(number)
        demand = [DemandSite(i, data.draw(coord), data.draw(coord), number(1.5)) for i in ids]
        supply = [SupplySite(i, number(0.25), number(-0.5),
                             data.draw(st.floats(1e-3, 1e4).map(number))) for i in ids]
        regions = [Region(i, number(1.0), number(2.0),
                          data.draw(st.none() | st.floats(0, 1e6).map(number))) for i in ids]
        ds = Dataset(demand=demand, supply=supply, regions=regions)
        write_dataset(ds, tmp_path / "d.csv", tmp_path / "s.csv", tmp_path / "r.csv")
        back = load_dataset(tmp_path / "d.csv", tmp_path / "s.csv", tmp_path / "r.csv")
        assert (back.demand, back.supply, back.regions) == (ds.demand, ds.supply, ds.regions)

    @pytest.mark.parametrize("name", ["d.csv", "d.geojson"])
    def test_byte_order_mark_is_skipped(self, tmp_path, name):
        sites = (DemandSite("d1", 117.0, 36.65, 1200.0), DemandSite("d2", 117.5, 36.0, 0.0))
        text = demand_csv_text(sites) if name.endswith(".csv") else json.dumps({
            "type": "FeatureCollection", "features": [
                {"type": "Feature", "geometry": {"type": "Point", "coordinates": [s.x, s.y]},
                 "properties": {"id": s.id, "population": s.population}} for s in sites]})
        plain = write(tmp_path, name, text)
        bom = tmp_path / f"bom-{name}"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_demand(bom) == load_demand(plain) == list(sites)

    def test_loading_is_deterministic(self, tmp_path):
        text = "id,lon,lat,population\n" + "\n".join(
            f"d{i},{i / 7},{i / 11},{i}" for i in range(50)) + "\n"
        path = write(tmp_path, "d.csv", text)
        assert load_demand(path) == load_demand(path)

    def test_csv_text_helpers_match_headers(self):
        demand = (DemandSite("d1", 1.0, 2.0, 3.0),)
        supply = (SupplySite("h1", 1.0, 2.0, 3.0),)
        regions = (Region("r1", 1.0, 2.0),)
        assert demand_csv_text(demand).startswith("id,lon,lat,population\n")
        assert demand_csv_text(demand, "planar").startswith("id,x,y,population\n")
        assert supply_csv_text(supply).startswith("id,lon,lat,capacity\n")
        assert regions_csv_text(regions).startswith("id,area_km2,resource\n")


# --- the columnar loader against a row-by-row reference ----------------------

def row_by_row(path, record, value, coord_kind):
    """The sites of a table read one row at a time, each through the record's
    constructor: the records, or the error of the first defective row.

    Cells are read by the csv module's dictionary reader or from the GeoJSON
    features; a row's cells are parsed in column order (a JSON true or false
    is no number), then its id must be new, then the record must construct
    and its coordinates be of ``coord_kind``.
    """
    cx, cy = ("lon", "lat") if coord_kind == "geographic" else ("x", "y")
    columns = ("id", cx, cy, value)
    if path.suffix == ".geojson":
        rows = []
        for row_num, feat in enumerate(json.loads(path.read_text())["features"], start=1):
            row = dict(feat["properties"])
            row[cx], row[cy] = feat["geometry"]["coordinates"]
            rows.append((row_num, row))
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                rows = list(enumerate(csv.DictReader(fh), start=2))
            except csv.Error as err:  # a NUL before Python 3.11
                raise MalformedRow(f"{path}: not a UTF-8 CSV table: {err}") from None
    records, seen = [], set()
    for row_num, row in rows:
        for col in columns:
            if path.suffix == ".geojson" and row.get(col) is None:
                raise MissingColumn(f"row {row_num}: properties lack {col!r}")
        numbers = []
        for col in columns[1:]:
            raw = row[col]
            try:
                if isinstance(raw, bool):
                    raise TypeError
                numbers.append(float(raw))
            except (TypeError, ValueError, OverflowError):
                raise MalformedRow(f"row {row_num}: cannot parse {col}={raw!r}") from None
        rec_id = str(row["id"])
        if rec_id in seen:
            raise DuplicateId(f"row {row_num}: duplicate id {rec_id!r}")
        seen.add(rec_id)
        try:
            records.append(record(rec_id, *numbers))
            _check_coords(numbers[0], numbers[1], coord_kind)
        except AccessKitError as err:
            raise type(err)(f"row {row_num}: {err}") from None
    return records


def outcome(load):
    """What ``load()`` gives: each record's id and the bits of its numbers,
    or the code and message of the error it raises."""
    try:
        return [(r.id, *(float(v).hex() for v in astuple(r)[1:4])) for r in load()]
    except AccessKitError as err:
        return err.code, str(err)


# cells a row-by-row reading takes or rejects; the loader must agree on each
ODD_CELLS = ("nan", "-inf", "inf", "1e400", "1_0", " 2 ", "", "x", "-4", "0", "-0.0",
             "5e-324", "200", "-95", "1e309", "-180", "90", "90.00000000000001",
             "1_000.5", "\uff15", "\u0663.5", "1\0")
ODD_JSON = (True, False, None, [1], {"a": 1}, 10 ** 400, 7, "nan", "1_0", " 2 ", "1e400")
ID_CHARS = "ab1"


@st.composite
def site_tables(draw):
    """A CSV or GeoJSON demand or supply table: valid rows, then zero or
    more defects (odd cells, repeated ids, out-of-range coordinates, blank
    and short CSV rows), and for half the CSV tables a ``write_site_table``
    layout (line ends, final newline, a repeated column, quoted ids)."""
    kind = draw(st.sampled_from(["demand", "supply"]))
    coord_kind = draw(st.sampled_from(["geographic", "planar"]))
    geojson = draw(st.booleans())
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=3), min_size=n, max_size=n,
                        unique=True))
    low = 0.0 if kind == "demand" else 5e-324
    rows = [[i, draw(st.floats(-180, 180)), draw(st.floats(-90, 90)),
             draw(st.floats(low, 1e300))] for i in ids]
    odd = st.sampled_from(ODD_JSON if geojson else ODD_CELLS)
    inserted = []
    for _ in range(draw(st.integers(0, 3))):
        defect = draw(st.sampled_from(["cell", "cell", "repeat", "blank", "short"]))
        k = draw(st.integers(0, n - 1))
        if defect == "cell":
            rows[k][draw(st.integers(1, 3))] = draw(odd)
        elif defect == "repeat":
            rows[k][0] = rows[draw(st.integers(0, n - 1))][0]
        elif not geojson:  # blank and short rows exist only in CSV
            inserted.append((k, [] if defect == "blank" else rows[k][:draw(st.integers(1, 3))]))
    for k, row in sorted(inserted, key=lambda pair: -pair[0]):
        rows.insert(k, row)
    layout = {} if geojson or draw(st.booleans()) else draw(st.fixed_dictionaries({
        "newline": st.sampled_from(("\n", "\r\n")), "final_newline": st.booleans(),
        "repeat": st.sampled_from((None, 0, 1, 2, 3)), "quote_ids": st.booleans()}))
    return kind, coord_kind, geojson, rows, layout


def write_site_table(directory, kind, coord_kind, geojson, rows, newline="\n",
                     final_newline=True, repeat=None, quote_ids=False):
    """The table's file. A CSV table's lines end in ``newline``, the last
    one too if ``final_newline``; the column at position ``repeat``, if
    any, is named again at the end of the header, and the first occurrence
    of a full row's cell holds junk; ``quote_ids`` quotes every id."""
    value = "population" if kind == "demand" else "capacity"
    cx, cy = ("lon", "lat") if coord_kind == "geographic" else ("x", "y")
    if geojson:
        path = directory / f"{kind}.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "geometry": {"type": "Point", "coordinates": [x, y]},
             "properties": {"id": i, value: v}} for i, x, y, v in rows]}), encoding="utf-8")
        return path
    header = ["id", cx, cy, value]
    lines = []
    for row in [header, *rows]:
        cells = [c if isinstance(c, str) else repr(c) for c in row]
        if quote_ids and row is not header and cells:
            cells[0] = f'"{cells[0]}"'
        if repeat is not None and len(cells) == len(header):
            cells.append(cells[repeat])
            if row is not header:
                cells[repeat] = "junk"
        lines.append(",".join(cells))
    path = directory / f"{kind}.csv"
    path.write_text(newline.join(lines) + (newline if final_newline else ""),
                    encoding="utf-8", newline="")
    return path


@settings(max_examples=300, deadline=None)
@given(table=site_tables())
@example(table=("demand", "geographic", False, [["a", 1.0, 2.0, " 2 "], ["b", "1_0", 2.0, 3.0]]))
@example(table=("supply", "geographic", True, [["a", 1.0, 2.0, True]]))
@example(table=("supply", "geographic", True, [["a", None, 2.0, 1.0]]))
@example(table=("supply", "planar", False, [["a", 1.0, 2.0, 5.0], ["b", 1.0, 2.0, "0"]]))
@example(table=("demand", "geographic", False, [["a", 1.0, "-95", 5.0], ["a", 1.0, 2.0, 5.0]]))
@example(table=("demand", "geographic", True, [["a", 1.0, 2.0, 5.0], ["b", "200", 2.0, "-4"]]))
@example(table=("supply", "geographic", False, [["a", -180.0, 90.0, 5e-324], ["b", 180.0, -90.0, 1.0]]))
@example(table=("supply", "geographic", False, [["a", 1.0, 2.0, 1.0], ["b", "200", 2.0, 1.0]]))
@example(table=("demand", "geographic", False, [["a", 1.0, 2.0, 5.0], ["a", "x", 2.0, 5.0]]))
@example(table=("demand", "planar", False, [["a", 1.0, 2.0, "1e400"], [], ["b", 1.0]]))
def test_columnar_loader_takes_and_rejects_what_a_row_by_row_reading_does(table):
    kind, coord_kind, geojson, rows = table[:4]
    layout = table[4] if len(table) > 4 else {}
    record, value = (DemandSite, "population") if kind == "demand" else (SupplySite, "capacity")
    load = load_demand if kind == "demand" else load_supply
    with TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = write_site_table(tmp, kind, coord_kind, geojson, rows, **layout)
        other = write_site_table(tmp, "supply" if kind == "demand" else "demand", coord_kind,
                                 False, [["z", 1.0, 2.0, 3.0]])
        paths = (path, other) if kind == "demand" else (other, path)
        want = outcome(lambda: row_by_row(path, record, value, coord_kind))
        assert outcome(lambda: load(path, coord_kind=coord_kind)) == want
        # the dataset's table, filled without building records, holds the same
        dataset = outcome(lambda: getattr(load_dataset(*paths, coord_kind=coord_kind), kind))
        assert dataset == (want or ("data_model.NoRecords",
                                    "dataset needs at least one demand and one supply site"))


class TestBulkReader:
    """A plain CSV site table is read in bulk; anything else, row by row,
    with the errors a row-by-row reading gives."""

    TEXT = "id,lon,lat,population\n" + "".join(
        f"d{k},{k / 7!r},{k / 11!r},{k}\n" for k in range(40))

    def test_a_plain_table_never_reaches_the_row_loop(self, tmp_path, monkeypatch):
        demand = write(tmp_path, "d.csv", self.TEXT)
        supply = write(tmp_path, "s.csv", "id,lon,lat,capacity\nh1,1,2,3\n")
        want = load_demand(demand), load_supply(supply)
        monkeypatch.setattr(data_model, "_read_table", lambda *args, **kwargs: 1 / 0)
        assert (load_demand(demand), load_supply(supply)) == want and len(want[0]) == 40
        assert load_dataset(demand, supply).demand == DemandTable.of(want[0])

    def test_a_cell_past_the_field_size_limit_is_the_row_loops_error(self, tmp_path):
        limit = csv.field_size_limit()
        path = write(tmp_path, "d.csv", self.TEXT + f"{'d' * (limit + 1)},1,2,3\n")
        with pytest.raises(MalformedRow, match=f"field larger than field limit \\({limit}\\)"):
            load_demand(path)
        # a line past the limit whose cells are all within it is read
        cell = "d" * (limit // 2)
        path = write(tmp_path, "d.csv", f"id,lon,lat,population,note\n{cell},1,2,3,{cell}\n")
        assert load_demand(path) == [DemandSite(cell, 1.0, 2.0, 3.0)]

    @pytest.mark.parametrize("edit, error", [
        (lambda lines: lines.__setitem__(30, "d29,1,2,x"), "MalformedRow"),
        (lambda lines: lines.__setitem__(30, "d29,1,2,-4"), "NegativePopulation"),
        (lambda lines: lines.__setitem__(30, "d3,1,2,3"), "DuplicateId"),
        (lambda lines: lines.__setitem__(30, "d29,1,95,3"), "OutOfRangeCoordinate"),
        (lambda lines: lines.__setitem__(30, '"d29",1,2,3'), None),
        (lambda lines: lines.insert(20, ""), None),
        (lambda lines: (lines.insert(20, ""), lines.__setitem__(31, "d29,1,2,-4")),
         "NegativePopulation"),
    ], ids=["unparsed", "negative", "repeat", "out-of-range", "quoted", "blank-line",
            "blank-line-then-negative"])
    def test_a_defect_in_a_later_block_names_the_row_of_the_row_loop(self, tmp_path,
                                                                      monkeypatch, edit, error):
        lines = self.TEXT.splitlines()
        edit(lines)  # row 31 is well past the first block of 100 characters
        path = write(tmp_path, "d.csv", "\n".join(lines) + "\n")
        monkeypatch.setattr(data_model, "_read_plain", lambda *args: None)
        want = outcome(lambda: load_demand(path))
        monkeypatch.undo()
        monkeypatch.setattr(data_model, "CSV_BLOCK", 100)
        assert outcome(lambda: load_demand(path)) == want
        if error is None:
            assert len(want) == 40
        else:
            assert want[0] == f"data_model.{error}" and want[1].startswith("row 31: ")


class TestSiteTables:
    DEMAND = (DemandSite("a", 1.0, 2.0, 3.0), DemandSite("b", -0.0, 5.0, 0.0),
              DemandSite("c", 7.0, 8.0, 9.5))
    SUPPLY = (SupplySite("h", 1.0, 2.0, 4.0), SupplySite("k", 3.0, 4.0, 0.0, candidate=True))

    def dataset(self):
        return Dataset(demand=self.DEMAND, supply=self.SUPPLY, coord_kind="planar")

    def test_records_are_kept_as_columns(self):
        ds = self.dataset()
        assert isinstance(ds.demand, DemandTable) and isinstance(ds.supply, SupplyTable)
        assert ds.demand.ids == ("a", "b", "c")
        assert ds.demand.xy.tolist() == [[1.0, 2.0], [-0.0, 5.0], [7.0, 8.0]]
        assert ds.demand.population.tolist() == [3.0, 0.0, 9.5]
        assert ds.supply.capacity.tolist() == [4.0, 0.0]
        assert ds.supply.candidate.tolist() == [False, True]

    def test_indexing_and_iterating_give_the_records(self):
        ds = self.dataset()
        assert list(ds.demand) == list(self.DEMAND) and list(ds.supply) == list(self.SUPPLY)
        assert ds.demand[-1] == self.DEMAND[-1] and ds.supply[1] == self.SUPPLY[1]
        assert ds.demand[1:] == DemandTable.of(self.DEMAND[1:])
        assert [s.x.hex() for s in ds.demand] == [s.x.hex() for s in self.DEMAND]
        assert len(ds.demand) == 3 and self.DEMAND[2] in ds.demand
        with pytest.raises(IndexError):
            ds.demand[3]

    def test_columns_are_read_only(self):
        ds = self.dataset()
        for column in (ds.demand.xy, ds.demand.population, ds.supply.capacity,
                       ds.supply.candidate):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_replacing_sites_with_records(self):
        ds = self.dataset()
        grown = replace(ds, demand=(*ds.demand, DemandSite("d", 0.0, 0.0, 1.0)))
        assert grown.demand.ids == ("a", "b", "c", "d") and grown.supply == ds.supply
        assert replace(ds, demand=tuple(ds.demand)) == ds
        assert hash(replace(ds, demand=tuple(ds.demand))) == hash(ds)

    def test_columns_hold_only_valid_sites(self):
        with pytest.raises(NegativePopulation, match="demand 'a': population -1.0"):
            DemandTable(["a"], [[0.0, 0.0]], [-1.0])
        with pytest.raises(NonPositiveCapacity, match="supply 'h'"):
            SupplyTable(["h"], [[0.0, 0.0]], [0.0])
        assert SupplyTable(["h"], [[0.0, 0.0]], [0.0], [True])[0].candidate is True
        with pytest.raises(ValueError, match="shape"):
            DemandTable(["a", "b"], [[0.0, 0.0]], [1.0, 2.0])
