import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from accesskit.data_model import (
    Dataset,
    DemandSite,
    Region,
    SupplySite,
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
