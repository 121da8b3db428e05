import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from accesskit import data_model, travel
from accesskit.data_model import Dataset, DemandSite, DemandTable, SupplySite, SupplyTable
from accesskit.errors import (
    DuplicateId, DuplicatePair, MalformedRow, NegativeCost, NonPositiveSpeed, UnknownId,
)
from accesskit.travel import (
    EARTH_RADIUS_KM,
    TravelMatrix,
    build_travel_matrix,
    cost_rows,
    haversine_distance,
    load_od_matrix,
)

from helpers import dataset_with_matrix, distance_matrix, planar_dataset, traced_peak


class TestHaversine:
    def test_identical_points(self):
        assert haversine_distance((12.3, 45.6), (12.3, 45.6)) == 0.0

    def test_one_degree_of_latitude(self):
        # arc length R * pi/180 for a meridian degree
        expected = EARTH_RADIUS_KM * math.pi / 180
        got = haversine_distance((0.0, 0.0), (0.0, 1.0))
        assert got == pytest.approx(111.195, abs=1e-3)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = (rng.uniform(-180, 180), rng.uniform(-90, 90))
            q = (rng.uniform(-180, 180), rng.uniform(-90, 90))
            assert haversine_distance(p, q) == pytest.approx(
                haversine_distance(q, p), rel=1e-14, abs=0.0)

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            pts = [(rng.uniform(-180, 180), rng.uniform(-90, 90)) for _ in range(3)]
            ab = haversine_distance(pts[0], pts[1])
            bc = haversine_distance(pts[1], pts[2])
            ac = haversine_distance(pts[0], pts[2])
            assert ac <= ab + bc + 1e-9 * max(1.0, ac)

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(13)
        a = rng.uniform([-180, -90], [180, 90], size=(5, 2))
        b = rng.uniform([-180, -90], [180, 90], size=(4, 2))
        mat = distance_matrix(a, b, "haversine")
        for i in range(5):
            for j in range(4):
                assert mat[i, j] == pytest.approx(
                    haversine_distance(a[i], b[j]), rel=1e-12)


def one_shot_haversine(a, b):
    """Every pair in one whole-matrix expression: the reference for the blocks."""
    a = np.radians(np.asarray(a, dtype=float))
    b = np.radians(np.asarray(b, dtype=float))
    lon1, lat1 = a[:, 0][:, None], a[:, 1][:, None]
    lon2, lat2 = b[:, 0][None, :], b[:, 1][None, :]
    s = (
        np.sin((lat2 - lat1) / 2) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2
    )
    return EARTH_RADIUS_KM * 2 * np.arcsin(np.sqrt(s))


def one_shot_euclidean(a, b):
    diff = np.asarray(a, dtype=float)[:, None, :] - np.asarray(b, dtype=float)[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2)) / 1000.0


def point_arrays(x, y):
    return st.lists(st.tuples(x, y), max_size=9).map(
        lambda pts: np.array(pts, dtype=float).reshape(-1, 2))


LON_LAT = point_arrays(st.floats(-180, 180), st.floats(-90, 90))
METERS = point_arrays(st.floats(-1e7, 1e7), st.floats(-1e7, 1e7))


@settings(max_examples=200, deadline=None)
@given(block=st.integers(1, 20), geographic=st.booleans(), data=st.data())
def test_blocks_give_the_one_shot_distances_bit_for_bit(block, geographic, data):
    # a block of 1..20 entries splits the rows of a matrix up to 9 x 9 into
    # blocks of one to all of its rows, with 0-row and 0-column inputs too
    points = LON_LAT if geographic else METERS
    a, b = data.draw(points), data.draw(points)
    metric, one_shot = (("haversine", one_shot_haversine) if geographic
                        else ("euclidean", one_shot_euclidean))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(travel, "BLOCK", block)
        got = distance_matrix(a, b, metric)
    want = one_shot(a, b)
    assert got.shape == want.shape == (len(a), len(b))
    assert got.tobytes() == want.tobytes()


class TestBuildTravelMatrix:
    def test_shape(self):
        ds = planar_dataset([(0, 0), (100, 0)], [1, 1],
                            [(0, 0), (50, 0), (0, 80)], [1, 1, 1])
        m = build_travel_matrix(ds)
        assert m.cost.shape == (2, 3)

    def test_speed_converts_km_to_minutes(self):
        ds = planar_dataset([(0, 0)], [1], [(10_000, 0)], [1])
        m = build_travel_matrix(ds, speed=0.5)
        assert m.cost[0, 0] == pytest.approx(20.0, rel=1e-12)

    def test_three_four_five_triangle(self):
        ds = planar_dataset([(0, 0)], [1], [(3, 4)], [1])
        m = build_travel_matrix(ds)
        assert m.cost[0, 0] == pytest.approx(0.005, rel=1e-12)

    def test_a_geographic_dataset_gets_great_circle_km(self):
        # the coordinate kind picks the metric: one degree of latitude
        ds = Dataset(demand=(DemandSite("d", 117.0, 36.0, 1.0),),
                     supply=(SupplySite("h", 117.0, 37.0, 1.0),))
        m = build_travel_matrix(ds)
        assert m.cost[0, 0] == pytest.approx(EARTH_RADIUS_KM * math.pi / 180, rel=1e-12)

    def test_multiplying_back_by_speed_restores_distances(self):
        rng = np.random.default_rng(5)
        ds = planar_dataset(rng.uniform(0, 9000, (6, 2)), np.ones(6),
                            rng.uniform(0, 9000, (4, 2)), np.ones(4))
        km = build_travel_matrix(ds).cost
        speed = 0.73
        minutes = build_travel_matrix(ds, speed=speed).cost
        assert np.allclose(minutes * speed, km, rtol=1e-12, atol=0)

    def test_cost_rows_checks_before_any_block(self):
        # the check runs at the call, not at the first block
        planar = planar_dataset([(0, 0)], [1], [(1, 1)], [1])
        with pytest.raises(NonPositiveSpeed):
            cost_rows(planar, speed=0.0)

    def test_cost_rows_are_the_matrix_rows(self):
        rng = np.random.default_rng(11)
        ds = planar_dataset(rng.uniform(0, 9000, (9, 2)), np.ones(9),
                            rng.uniform(0, 9000, (4, 2)), np.ones(4))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(travel, "BLOCK", 10)  # two rows per block; the last has one
            blocks = list(cost_rows(ds, speed=0.7))
        assert [(lo, len(rows)) for lo, rows in blocks] == [(0, 2), (2, 2), (4, 2), (6, 2), (8, 1)]
        stacked = np.concatenate([rows for _, rows in blocks])
        want = build_travel_matrix(ds, speed=0.7).cost
        assert stacked.tobytes() == want.tobytes()

    @pytest.mark.parametrize("metric", ["haversine", "euclidean"])
    def test_memory_is_the_matrix(self, metric):
        # the distances, divided by the speed in place, which TravelMatrix
        # takes over without a copy, and about four blocks of temporaries
        # (2 MB): about 1.3x the matrix's bytes at 3000 x 300
        rng = np.random.default_rng(7)
        lon_lat = rng.uniform([116.9, 36.5], [117.3, 36.8], (3300, 2))
        xy = lon_lat * 1000.0 if metric == "euclidean" else lon_lat
        ds = Dataset(demand=tuple(DemandSite(f"d{i}", x, y, 1.0) for i, (x, y) in enumerate(xy[:3000])),
                     supply=tuple(SupplySite(f"h{j}", x, y, 1.0) for j, (x, y) in enumerate(xy[3000:])),
                     coord_kind="geographic" if metric == "haversine" else "planar")
        peak = traced_peak(lambda: build_travel_matrix(ds, speed=0.5))
        assert peak <= 1.5 * 3000 * 300 * 8

    def test_matrix_copies_the_array_it_is_given(self):
        cost = np.array([[1.0, 2.0]])
        m = TravelMatrix(cost=cost)
        cost[0, 0] = 9.0
        assert m.cost[0, 0] == 1.0 and not np.shares_memory(m.cost, cost)
        assert cost.flags.writeable
        # a read-only view of that array could still change through it
        view = cost[:]
        view.flags.writeable = False
        assert not np.shares_memory(TravelMatrix(cost=view).cost, cost)

    def test_matrix_is_immutable(self):
        ds = planar_dataset([(0, 0)], [1], [(1, 1)], [1])
        m = build_travel_matrix(ds)
        with pytest.raises(ValueError):
            m.cost[0, 0] = 3.0


class TestTravelMatrixValidation:
    """A NaN or negative cost is NegativeCost, as in an OD file, and a ValueError."""

    def test_rejects_nan(self):
        with pytest.raises(NegativeCost, match="cost entries must be finite or \\+inf, not NaN"):
            TravelMatrix(cost=np.array([[np.nan]]))

    def test_rejects_negative(self):
        with pytest.raises(NegativeCost, match="cost entries must be nonnegative"):
            TravelMatrix(cost=np.array([[-1.0]]))
        assert issubclass(NegativeCost, ValueError)

    def test_accepts_infinity(self):
        m = TravelMatrix(cost=np.array([[np.inf, 2.0]]))
        assert np.isinf(m.cost[0, 0])


class TestLoadOdMatrix:
    def make_sites(self):
        ds = planar_dataset([(0, 0)], [1], [(1, 0), (2, 0)], [1, 1])
        return ds.demand, ds.supply

    def test_missing_pairs_become_unreachable(self, tmp_path):
        demand, supply = self.make_sites()
        path = tmp_path / "od.csv"
        path.write_text("demand_id,supply_id,cost\nd0,h0,12.5\n")
        m = load_od_matrix(path, demand, supply)
        assert m.cost[0, 0] == 12.5
        assert np.isinf(m.cost[0, 1])

    def test_unknown_id(self, tmp_path):
        demand, supply = self.make_sites()
        path = tmp_path / "od.csv"
        path.write_text("demand_id,supply_id,cost\nzz,h0,1\n")
        with pytest.raises(UnknownId, match="zz"):
            load_od_matrix(path, demand, supply)

    def test_duplicate_pair(self, tmp_path):
        demand, supply = self.make_sites()
        path = tmp_path / "od.csv"
        path.write_text("demand_id,supply_id,cost\nd0,h0,1\nd0,h0,2\n")
        with pytest.raises(DuplicatePair):
            load_od_matrix(path, demand, supply)

    def test_negative_cost(self, tmp_path):
        demand, supply = self.make_sites()
        path = tmp_path / "od.csv"
        path.write_text("demand_id,supply_id,cost\nd0,h0,-2\n")
        with pytest.raises(NegativeCost):
            load_od_matrix(path, demand, supply)

    @pytest.mark.parametrize("demand_of, supply_of", [(list, list),
                                                      (DemandTable.of, SupplyTable.of)],
                             ids=["records", "tables"])
    @pytest.mark.parametrize("demand_ids, supply_ids, message", [
        pytest.param(("a", "a", "b"), ("h",), "duplicate demand id 'a'", id="demand-aab"),
        pytest.param(("a", "b", "a"), ("h",), "duplicate demand id 'a'", id="demand-aba"),
        pytest.param(("a",), ("h", "h"), "duplicate supply id 'h'", id="supply-hh"),
    ])
    def test_repeated_site_id(self, tmp_path, demand_of, supply_of, demand_ids, supply_ids,
                              message):
        path = tmp_path / "od.csv"
        path.write_text("demand_id,supply_id,cost\na,h,1\n")
        with pytest.raises(DuplicateId) as raised:  # a table refuses them as it is built
            load_od_matrix(path, demand_of(DemandSite(i, 0.0, 0.0, 1.0) for i in demand_ids),
                           supply_of(SupplySite(i, 0.0, 0.0, 1.0) for i in supply_ids))
        assert str(raised.value) == message and raised.value.code == "data_model.DuplicateId"

    def test_memory_is_the_matrix_and_the_rows(self, tmp_path):
        # 1000 x 300 with one pair in 20 listed: the matrix, taken over without
        # a copy, the rows' pair indices and costs, and a mask of filled pairs
        ds = planar_dataset(np.zeros((1000, 2)), np.ones(1000), np.ones((300, 2)), np.ones(300))
        path = tmp_path / "od.csv"
        path.write_text("demand_id,supply_id,cost\n" + "".join(
            f"d{k // 300},h{k % 300},{k % 7}\n" for k in range(0, 300_000, 20)))
        peak = traced_peak(lambda: load_od_matrix(path, ds.demand, ds.supply))
        assert peak <= 1.5 * 1000 * 300 * 8


# --- the OD loader against a row-by-row reference ---------------------------

OD_DEMAND = ("d0", "d,1", 'd"2', "d 3")
OD_SUPPLY = ("h0", "h,1", "h2")
# ids that need no quoting, for tables whose lines are all split in bulk
PLAIN_DEMAND, PLAIN_SUPPLY = ("d0", "d 3"), ("h0", "h2")
OD_DEFECTS = ("unknown-demand", "unknown-supply", "repeat", "negative", "nan",
              "not-a-number", "nul", "short", "long")
# costs float() reads, written in forms other than its own
ODD_COSTS = ("1_0", "1_000.5", " 2 ", "\u0663", "\uff15.5", "-0.0")


def od_sites():
    ds = dataset_with_matrix([1] * len(OD_DEMAND), [1] * len(OD_SUPPLY),
                             np.zeros((len(OD_DEMAND), len(OD_SUPPLY))))[0]
    demand = [replace(s, id=i) for s, i in zip(ds.demand, OD_DEMAND)]
    supply = [replace(s, id=i) for s, i in zip(ds.supply, OD_SUPPLY)]
    return demand, supply


def reference_od(path):
    """Each row checked in turn, in file order: the matrix, or the class and
    row of the first defect (row None for a file the csv module rejects)."""
    d_index = {d: i for i, d in enumerate(OD_DEMAND)}
    s_index = {s: j for j, s in enumerate(OD_SUPPLY)}
    cost = np.full((len(OD_DEMAND), len(OD_SUPPLY)), np.inf)
    filled = np.zeros(cost.shape, dtype=bool)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            rows = list(csv.DictReader(fh))
        except csv.Error:  # a NUL before Python 3.11
            return MalformedRow, None
    for row_num, row in enumerate(rows, start=2):
        if row["demand_id"] not in d_index or row["supply_id"] not in s_index:
            return UnknownId, row_num
        i, j = d_index[row["demand_id"]], s_index[row["supply_id"]]
        if filled[i, j]:
            return DuplicatePair, row_num
        try:
            c = float(row["cost"])
        except (TypeError, ValueError):
            return MalformedRow, row_num
        if not c >= 0:
            return NegativeCost, row_num
        cost[i, j], filled[i, j] = c, True
    return cost


@st.composite
def od_tables(draw):
    """The text of an OD table: shuffled, extra and repeated columns, quoted
    or plain ids, a possible BOM, ``\n`` or ``\r\n`` line ends, blank lines,
    a possible missing final newline, ``inf`` costs, costs with underscores,
    spaces or non-ASCII digits, up to two defects, and a possible short or
    long row (a cell fewer or more than the header). A repeated column's
    earlier cells hold junk, as the last one is read. A tidy table has plain
    ids and none of the blank lines, ``\r\n``, missing final newline,
    short or long row or NUL that make the csv module read on, nor a
    repeated column."""
    plain = draw(st.booleans())
    tidy = plain and draw(st.booleans())
    demand_ids, supply_ids = (PLAIN_DEMAND, PLAIN_SUPPLY) if plain else (OD_DEMAND, OD_SUPPLY)
    pairs = draw(st.lists(st.tuples(st.sampled_from(demand_ids), st.sampled_from(supply_ids)),
                          unique=True, max_size=len(demand_ids) * len(supply_ids)))
    costs = st.one_of(st.floats(0, 1e6).map(repr), st.just("inf"), st.sampled_from(ODD_COSTS))
    rows = [{"demand_id": d, "supply_id": s, "cost": draw(costs)} for d, s in pairs]
    defects = OD_DEFECTS[:-3] if tidy else OD_DEFECTS
    for defect in draw(st.lists(st.sampled_from(defects), max_size=2)):
        row = {"demand_id": draw(st.sampled_from(demand_ids)),
               "supply_id": draw(st.sampled_from(supply_ids)), "cost": "1.5"}
        if defect == "unknown-demand":
            row["demand_id"] = "d9" if plain else "d,9"
        elif defect == "unknown-supply":
            row["supply_id"] = "h9"
        elif defect == "repeat" and rows:
            row = dict(draw(st.sampled_from(rows)))
        elif defect in ("negative", "nan", "not-a-number", "nul"):
            row["cost"] = {"negative": "-0.5", "nan": "nan", "not-a-number": "1;5" if plain
                           else "1,5", "nul": "1\0"}[defect]
        rows.insert(draw(st.integers(0, len(rows))), row)
    extra = draw(st.lists(st.sampled_from(("mode",) if plain else ("mode", "note, quoted")),
                          unique=True, max_size=2))
    header = draw(st.permutations(["demand_id", "supply_id", "cost", *extra]))
    header += draw(st.lists(st.sampled_from(header), max_size=0 if tidy else 1))
    last = {col: k for k, col in enumerate(header)}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([row.get(col, "x y" if plain else "x, y") if last[col] == k else "junk"
                         for k, col in enumerate(header)])
    lines = out.getvalue().splitlines()
    row_defect = draw(st.lists(st.sampled_from(defects), max_size=1))
    if row_defect in (["short"], ["long"]) and len(lines) > 1:
        at = draw(st.integers(1, len(lines) - 1))
        lines[at] = lines[at].rsplit(",", 1)[0] if row_defect == ["short"] else lines[at] + ",x"
    for _ in range(draw(st.integers(0, 0 if tidy else 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = "\n" if tidy else draw(st.sampled_from(("\n", "\r\n")))
    text = end.join(lines) + (end if tidy else draw(st.sampled_from((end, ""))))
    return draw(st.sampled_from(("", "\ufeff"))) + text


class TestOdReader:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=od_tables())
    def test_matches_the_row_by_row_reference(self, tmp_path, text):
        path = tmp_path / "od.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = reference_od(path)
        if isinstance(expected, np.ndarray):
            assert np.array_equal(load_od_matrix(path, *od_sites()).cost, expected)
        else:
            error, row_num = expected
            with pytest.raises(error) as info:
                load_od_matrix(path, *od_sites())
            assert type(info.value) is error
            assert str(info.value).startswith(f"row {row_num}: " if row_num else f"{path}: ")

    # every pair of the plain ids but ("d 3", "h2"), one row each, costs 0 to 2
    PLAIN = "cost,supply_id,demand_id\n" + "".join(
        f"{k},{s},{d}\n" for k, (d, s) in enumerate(
            [(d, s) for d in PLAIN_DEMAND for s in PLAIN_SUPPLY][:-1]))

    def test_a_plain_table_never_reaches_the_row_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "od.csv"
        path.write_text(self.PLAIN, encoding="utf-8")
        want = reference_od(path)
        monkeypatch.setattr(data_model.csv, "reader", lambda *args, **kwargs: 1 / 0)
        assert np.array_equal(load_od_matrix(path, *od_sites()).cost, want)
        assert np.isfinite(want).sum() == 3

    def test_a_cell_past_the_field_size_limit_is_the_row_loops_error(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "od.csv"
        path.write_text(self.PLAIN + f"d0,h0,{'1' * (limit + 1)}\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=f"field larger than field limit \\({limit}\\)"):
            load_od_matrix(path, *od_sites())

    @pytest.mark.parametrize("row, error", [
        ("1,h9,d0", UnknownId), ("x,h2,d 3", MalformedRow), ("-1,h2,d 3", NegativeCost),
        ("1,h0,d0", DuplicatePair), ('1,"h0",d0', DuplicatePair), ("nan,h2,d 3", NegativeCost),
    ], ids=["unknown-id", "unparsed", "negative", "repeat", "quoted-repeat", "nan"])
    def test_a_defect_in_a_later_block_names_the_row_of_the_row_loop(self, tmp_path,
                                                                      monkeypatch, row, error):
        path = tmp_path / "od.csv"
        path.write_text(self.PLAIN + row + "\n", encoding="utf-8")  # row 5, past block 1
        assert reference_od(path) == (error, 5)
        monkeypatch.setattr(data_model, "_plain_text", lambda *args: None)
        with pytest.raises(error) as row_loop:
            load_od_matrix(path, *od_sites())
        monkeypatch.undo()
        monkeypatch.setattr(data_model, "CSV_BLOCK", 20)
        with pytest.raises(error) as bulk:
            load_od_matrix(path, *od_sites())
        assert str(bulk.value) == str(row_loop.value) and str(bulk.value).startswith("row 5: ")

    def test_geojson_round_trip(self, tmp_path):
        demand, supply = od_sites()
        rows = [("d,1", "h0", 2.5), ('d"2', "h2", 0), ("d0", "h,1", 7.25)]
        csv_path, geo_path = tmp_path / "od.csv", tmp_path / "od.geojson"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("demand_id", "supply_id", "cost"), *rows])

        def write_geojson(rows):
            geo_path.write_text(json.dumps({"type": "FeatureCollection", "features": [
                {"type": "Feature", "geometry": None,
                 "properties": {"demand_id": d, "supply_id": s, "cost": c}}
                for d, s, c in rows]}), encoding="utf-8")

        write_geojson(rows)
        from_csv = load_od_matrix(csv_path, demand, supply).cost
        assert np.array_equal(load_od_matrix(geo_path, demand, supply).cost, from_csv)
        assert np.isfinite(from_csv).sum() == len(rows)
        write_geojson([*rows[:2], ("d0", "h,1", True)])
        with pytest.raises(MalformedRow, match="^row 3: cannot parse cost=True$"):
            load_od_matrix(geo_path, demand, supply)
