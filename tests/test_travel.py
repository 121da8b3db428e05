import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from accesskit.data_model import Dataset, DemandSite, SupplySite
from accesskit.errors import DuplicatePair, MalformedRow, MetricMismatch, NegativeCost, UnknownId
from accesskit.travel import (
    EARTH_RADIUS_KM,
    TravelMatrix,
    build_travel_matrix,
    haversine_distance,
    haversine_matrix,
    load_od_matrix,
)

from helpers import dataset_with_matrix, planar_dataset


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
        mat = haversine_matrix(a, b)
        for i in range(5):
            for j in range(4):
                assert mat[i, j] == pytest.approx(
                    haversine_distance(a[i], b[j]), rel=1e-12)


class TestBuildTravelMatrix:
    def test_shape(self):
        ds = planar_dataset([(0, 0), (100, 0)], [1, 1],
                            [(0, 0), (50, 0), (0, 80)], [1, 1, 1])
        m = build_travel_matrix(ds, metric="euclidean")
        assert m.cost.shape == (2, 3)
        assert m.unit == "km"

    def test_speed_converts_km_to_minutes(self):
        ds = planar_dataset([(0, 0)], [1], [(10_000, 0)], [1])
        m = build_travel_matrix(ds, metric="euclidean", speed=0.5)
        assert m.unit == "minutes"
        assert m.cost[0, 0] == pytest.approx(20.0, rel=1e-12)

    def test_three_four_five_triangle(self):
        ds = planar_dataset([(0, 0)], [1], [(3, 4)], [1])
        m = build_travel_matrix(ds, metric="euclidean")
        assert m.cost[0, 0] == pytest.approx(0.005, rel=1e-12)

    def test_multiplying_back_by_speed_restores_distances(self):
        rng = np.random.default_rng(5)
        ds = planar_dataset(rng.uniform(0, 9000, (6, 2)), np.ones(6),
                            rng.uniform(0, 9000, (4, 2)), np.ones(4))
        km = build_travel_matrix(ds, metric="euclidean").cost
        speed = 0.73
        minutes = build_travel_matrix(ds, metric="euclidean", speed=speed).cost
        assert np.allclose(minutes * speed, km, rtol=1e-12, atol=0)

    def test_metric_must_match_coordinate_kind(self):
        planar = planar_dataset([(0, 0)], [1], [(1, 1)], [1])
        with pytest.raises(MetricMismatch):
            build_travel_matrix(planar, metric="haversine")
        geo = Dataset(demand=(DemandSite("d", 10.0, 10.0, 1.0),),
                      supply=(SupplySite("h", 10.1, 10.1, 1.0),))
        with pytest.raises(MetricMismatch):
            build_travel_matrix(geo, metric="euclidean")

    def test_matrix_is_immutable(self):
        ds = planar_dataset([(0, 0)], [1], [(1, 1)], [1])
        m = build_travel_matrix(ds, metric="euclidean")
        with pytest.raises(ValueError):
            m.cost[0, 0] = 3.0


class TestTravelMatrixValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TravelMatrix(cost=np.array([[np.nan]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TravelMatrix(cost=np.array([[-1.0]]))

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
        assert m.unit == "minutes"

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

    def test_unit_flag(self, tmp_path):
        demand, supply = self.make_sites()
        path = tmp_path / "od.csv"
        path.write_text("demand_id,supply_id,cost\nd0,h0,3.5\n")
        assert load_od_matrix(path, demand, supply, unit="km").unit == "km"


# --- the OD loader against a row-by-row reference ---------------------------

OD_DEMAND = ("d0", "d,1", 'd"2', "d 3")
OD_SUPPLY = ("h0", "h,1", "h2")
OD_DEFECTS = ("unknown-demand", "unknown-supply", "repeat", "negative", "nan",
              "not-a-number", "short")


def od_sites():
    ds = dataset_with_matrix([1] * len(OD_DEMAND), [1] * len(OD_SUPPLY),
                             np.zeros((len(OD_DEMAND), len(OD_SUPPLY))))[0]
    demand = [replace(s, id=i) for s, i in zip(ds.demand, OD_DEMAND)]
    supply = [replace(s, id=i) for s, i in zip(ds.supply, OD_SUPPLY)]
    return demand, supply


def reference_od(path):
    """Each row checked in turn, in file order: the matrix, or the class and
    row of the first defect."""
    d_index = {d: i for i, d in enumerate(OD_DEMAND)}
    s_index = {s: j for j, s in enumerate(OD_SUPPLY)}
    cost = np.full((len(OD_DEMAND), len(OD_SUPPLY)), np.inf)
    filled = np.zeros(cost.shape, dtype=bool)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for row_num, row in enumerate(csv.DictReader(fh), start=2):
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
    """The text of an OD table: shuffled and extra columns, quoted ids, a
    possible BOM, blank lines, ``inf`` costs and up to two defects."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(OD_DEMAND), st.sampled_from(OD_SUPPLY)),
                          unique=True, max_size=len(OD_DEMAND) * len(OD_SUPPLY)))
    costs = st.one_of(st.floats(0, 1e6).map(repr), st.just("inf"))
    rows = [{"demand_id": d, "supply_id": s, "cost": draw(costs)} for d, s in pairs]
    for defect in draw(st.lists(st.sampled_from(OD_DEFECTS), max_size=2)):
        row = {"demand_id": draw(st.sampled_from(OD_DEMAND)),
               "supply_id": draw(st.sampled_from(OD_SUPPLY)), "cost": "1.5"}
        if defect == "unknown-demand":
            row["demand_id"] = "d,9"
        elif defect == "unknown-supply":
            row["supply_id"] = "h9"
        elif defect == "repeat" and rows:
            row = dict(draw(st.sampled_from(rows)))
        elif defect in ("negative", "nan", "not-a-number"):
            row["cost"] = {"negative": "-0.5", "nan": "nan", "not-a-number": "1,5"}[defect]
        rows.insert(draw(st.integers(0, len(rows))), row)
    extra = draw(st.lists(st.sampled_from(("mode", "note, quoted")), unique=True, max_size=2))
    header = draw(st.permutations(["demand_id", "supply_id", "cost", *extra]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([row.get(col, "x, y") for col in header])
    lines = out.getvalue().splitlines()
    if "short" in draw(st.lists(st.sampled_from(OD_DEFECTS), max_size=1)) and len(lines) > 1:
        at = draw(st.integers(1, len(lines) - 1))
        lines[at] = lines[at].rsplit(",", 1)[0]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    return draw(st.sampled_from(("", "﻿"))) + "\n".join(lines) + "\n"


class TestOdReader:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=od_tables())
    def test_matches_the_row_by_row_reference(self, tmp_path, text):
        path = tmp_path / "od.csv"
        path.write_text(text, encoding="utf-8")
        expected = reference_od(path)
        if isinstance(expected, np.ndarray):
            assert np.array_equal(load_od_matrix(path, *od_sites()).cost, expected)
        else:
            error, row_num = expected
            with pytest.raises(error) as info:
                load_od_matrix(path, *od_sites())
            assert type(info.value) is error
            assert str(info.value).startswith(f"row {row_num}: ")

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
