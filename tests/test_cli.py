import csv
import errno
import gc
import json
import os
import pickle
import re
import time
import weakref
from dataclasses import replace
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from accesskit import _workers, cli, fca, optimize, spatial_stats, travel
from accesskit.cli import main
from accesskit.data_model import (DemandSite, DemandTable, SupplySite, _SiteTable,
                                  demand_csv_text, load_dataset, load_values)
from accesskit.errors import AccessKitError
from accesskit.optimize import CHUNK
from accesskit.synth import synthetic_city, write_city
from accesskit.travel import TravelMatrix

from helpers import needs_fork, traced_peak


def write_files(tmp_path, *, decay=None, extra=None):
    (tmp_path / "demand.csv").write_text(
        "id,lon,lat,population\nd1,117.0,36.65,100\n", encoding="utf-8")
    (tmp_path / "supply.csv").write_text(
        "id,lon,lat,capacity\nh1,117.0,36.65,10\n", encoding="utf-8")
    config = {
        "coord_kind": "geographic",
        "demand": "demand.csv",
        "supply": "supply.csv",
        "metric": "haversine",
        "speed_km_per_min": 0.5,
        "method": "g2sfca",
        "decay": decay or {"kind": "binary", "d0": 30.0},
        "out": str(tmp_path / "out"),
    }
    if extra:
        config.update(extra)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    return cfg


def values_csv(tmp_path):
    rng = np.random.default_rng(90)
    lines = ["id,lon,lat,score"]
    for i in range(15):
        lon, lat = 117.0 + rng.uniform(-0.1, 0.1), 36.65 + rng.uniform(-0.1, 0.1)
        lines.append(f"u{i},{lon},{lat},{rng.uniform(0, 5)}")
    path = tmp_path / "values.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestAccess:
    def test_trivial_dataset_scores_supply_over_demand(self, tmp_path, capsys):
        cfg = write_files(tmp_path)
        assert main(["access", "--config", str(cfg)]) == 0
        text = (tmp_path / "out" / "scores.csv").read_text()
        assert text == "demand_id,score\nd1,0.1\n"

    def test_missing_beta_is_a_config_error(self, tmp_path, capsys):
        cfg = write_files(tmp_path, decay={"kind": "gaussian", "d0": 30.0})
        assert main(["access", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "cli.ConfigError" in err and "beta" in err

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_files(tmp_path)
        main(["access", "--config", str(cfg)])
        first = (tmp_path / "out" / "scores.csv").read_bytes()
        main(["access", "--config", str(cfg)])
        assert (tmp_path / "out" / "scores.csv").read_bytes() == first

    def test_per_thousand_flag(self, tmp_path):
        cfg = write_files(tmp_path)
        main(["access", "--config", str(cfg), "--per-thousand"])
        assert (tmp_path / "out" / "scores.csv").read_text().splitlines()[1] == "d1,100.0"

    def test_method_flag_overrides_config(self, tmp_path):
        cfg = write_files(tmp_path)
        assert main(["access", "--config", str(cfg), "--method", "m2sfca"]) == 0

    def test_an_overflow_is_the_only_line_before_any_zero_capture_warning(self, tmp_path, capsys):
        # h0's ratio overflows and h1, 9000 km out, captures no demand; the
        # catchment's scores are read before its warnings are printed
        (tmp_path / "demand.csv").write_text(
            "id,x,y,population\nd0,0,0,1e-200\nd1,100,0,1e-200\n", encoding="utf-8")
        (tmp_path / "supply.csv").write_text(
            "id,x,y,capacity\nh0,0,0,1e200\nh1,9000000,0,1\n", encoding="utf-8")
        config = {"coord_kind": "planar", "demand": "demand.csv", "supply": "supply.csv",
                  "decay": {"kind": "gaussian", "d0": 30.0, "beta": 180.0}, "out": "out"}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert main(["access", "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: fca.NonFiniteScore: supply 'h0': ")
        assert not (tmp_path / "out").exists()

    def test_bad_path_reported(self, tmp_path, capsys):
        cfg = write_files(tmp_path, extra={"demand": "nope.csv"})
        assert main(["access", "--config", str(cfg)]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_config_out_is_relative_to_the_config_file(self, tmp_path, monkeypatch):
        (tmp_path / "runs").mkdir()
        cfg = write_files(tmp_path / "runs", extra={"out": "res"})
        monkeypatch.chdir(tmp_path)
        assert main(["access", "--config", str(cfg)]) == 0
        assert (tmp_path / "runs" / "res" / "scores.csv").is_file()
        assert not (tmp_path / "res").exists()
        # the --out flag stays relative to the working directory
        assert main(["access", "--config", str(cfg), "--out", "flagged"]) == 0
        assert (tmp_path / "flagged" / "scores.csv").is_file()

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"demands": "x.csv"}))
        assert main(["access", "--config", str(cfg)]) == 2


class TestMoranLisa:
    def test_moran_writes_summary(self, tmp_path):
        vals = values_csv(tmp_path)
        out = tmp_path / "stats"
        assert main(["moran", "--values", str(vals), "--column", "score",
                     "--knn", "4", "--perms", "99", "--seed", "7",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "moran.json").read_text())
        assert set(doc) == {"i", "expected_i", "z", "p", "permutations", "seed"}
        assert doc["permutations"] == 99 and doc["seed"] == 7

    def test_lisa_writes_table(self, tmp_path):
        vals = values_csv(tmp_path)
        out = tmp_path / "stats"
        assert main(["lisa", "--values", str(vals), "--column", "score",
                     "--band", "25", "--perms", "49", "--seed", "3",
                     "--out", str(out)]) == 0
        lines = (out / "lisa.csv").read_text().splitlines()
        assert lines[0] == "unit_id,local_i,quadrant,p_value"
        assert len(lines) == 16

    def test_missing_column_reported(self, tmp_path, capsys):
        vals = values_csv(tmp_path)
        assert main(["moran", "--values", str(vals), "--column", "nope",
                     "--knn", "4", "--out", str(tmp_path)]) == 2
        assert "MissingColumn" in capsys.readouterr().err

    def test_nan_value_rejected(self, tmp_path, capsys):
        vals = values_csv(tmp_path)
        lines = vals.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:3] + ["nan"])
        vals.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "stats"
        assert main(["moran", "--values", str(vals), "--column", "score",
                     "--knn", "4", "--perms", "99", "--out", str(out)]) == 2
        assert "spatial_stats.NonFiniteValue" in capsys.readouterr().err
        assert not (out / "moran.json").exists()

    def test_geojson_values_match_csv(self, tmp_path):
        vals = values_csv(tmp_path)
        rows = [line.split(",") for line in vals.read_text().splitlines()[1:]]
        points = tmp_path / "values.geojson"
        points.write_text(feature_collection(
            [([float(lon), float(lat)], {"id": uid, "score": float(score)})
             for uid, lon, lat, score in rows]))
        for path, out in ((vals, "a"), (points, "b")):
            assert main(["lisa", "--values", str(path), "--column", "score", "--knn", "4",
                         "--perms", "49", "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "a" / "lisa.csv").read_bytes() == \
            (tmp_path / "b" / "lisa.csv").read_bytes()

    @pytest.mark.parametrize("command, bad", [
        ("moran", ["--knn", "4", "--perms", "0"]),
        ("moran", ["--knn", "4", "--seed", "-1"]),
        ("moran", ["--band", "0"]),
        ("report", {"permutations": 0}),
        ("report", {"weights": {"scheme": "distance_band", "band": -1}}),
    ], ids=["perms-0", "seed-negative", "band-0", "config-perms-0", "config-band-negative"])
    def test_bad_stat_argument_exits_2(self, tmp_path, capsys, command, bad):
        out = tmp_path / "out"
        if command == "moran":
            argv = ["moran", "--values", str(values_csv(tmp_path)), "--column", "score",
                    *bad, "--out", str(out)]
        else:
            cfg = write_city(tmp_path / "city", seed=99, n_demand=60, n_supply=8,
                             n_regions=5)
            cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **bad}))
            argv = ["report", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        assert "spatial_stats.InvalidStatArgument" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestHrad:
    def test_basic_table(self, tmp_path):
        regions = tmp_path / "regions.csv"
        regions.write_text("id,area_km2,resource\nr1,10,20\nr2,90,80\n")
        assert main(["hrad", "--regions", str(regions), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "hrad.csv").read_text().splitlines()
        assert lines[1].startswith("r1,2.0,relatively_fair")

    def test_with_population(self, tmp_path):
        regions = tmp_path / "regions.csv"
        regions.write_text(
            "id,area_km2,resource,population\nr1,10,20,200\nr2,90,80,800\n")
        assert main(["hrad", "--regions", str(regions), "--with-population",
                     "--out", str(tmp_path)]) == 0
        header = (tmp_path / "hrad.csv").read_text().splitlines()[0]
        assert header == "region_id,hrad,classification,pad,hrad_over_pad"

    def test_data_error_exit_code(self, tmp_path, capsys):
        regions = tmp_path / "regions.csv"
        regions.write_text("id,area_km2,resource\nr1,0,20\n")
        assert main(["hrad", "--regions", str(regions), "--out", str(tmp_path)]) == 2
        assert "data_model.NonPositiveArea" in capsys.readouterr().err


class TestOptimize:
    def test_plan_written_with_flag_overrides(self, tmp_path):
        cfg = write_files(tmp_path)
        assert main(["optimize", "--config", str(cfg), "--budget", "2",
                     "--unit-size", "5", "--objective", "max_min_access"]) == 0
        doc = json.loads((tmp_path / "out" / "plan.json").read_text())
        assert doc["objective"] == "max_min_access"
        assert doc["after"] == pytest.approx(0.2)  # (10 + 2*5) / 100
        assert sum(a["units_added"] for a in doc["allocations"]) == 2

    def test_budget_required(self, tmp_path, capsys):
        # a missing budget, and one that is not an integer, are config errors
        for budget in (None, "10", 2.7, True):
            cfg = write_files(tmp_path, extra=None if budget is None else {"budget": budget})
            assert main(["optimize", "--config", str(cfg)]) == 2, budget
            err = capsys.readouterr().err
            assert "cli.ConfigError" in err and "budget" in err
            assert not (tmp_path / "out" / "plan.json").exists()

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_a_budget_below_1_is_named_with_its_range(self, tmp_path, capsys, budget):
        cfg = write_files(tmp_path)
        assert main(["optimize", "--config", str(cfg), "--budget", budget]) == 2
        assert capsys.readouterr().err == \
            f"error: cli.ConfigError: budget must be >= 1, got {budget}\n"
        assert not (tmp_path / "out").exists()


class TestReport:
    def test_full_pipeline_outputs(self, tmp_path):
        city_cfg = write_city(tmp_path / "city", seed=99, n_demand=60,
                              n_supply=8, n_regions=5)
        out = tmp_path / "rep"
        assert main(["report", "--config", str(city_cfg), "--out", str(out),
                     "--perms", "99"]) == 0
        for name in ("scores.csv", "moran.json", "lisa.csv", "hrad.csv",
                     "plan.json", "summary.json", "config.json"):
            assert (out / name).is_file(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_demand"] == 60
        assert summary["moran"]["permutations"] == 99

    def test_error_leaves_no_partial_outputs(self, tmp_path, capsys):
        cfg = write_files(tmp_path)  # no regions -> report must fail
        out = tmp_path / "rep"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())
        assert "regions" in capsys.readouterr().err


class TestMetric:
    """The coordinate kind fixes the metric: an absent metric is the kind's,
    and any other is a config error."""

    def test_a_planar_config_without_a_metric_runs(self, tmp_path, capsys):
        (tmp_path / "demand.csv").write_text(
            "id,x,y,population\nd1,0,0,100\nd2,3000,4000,50\nd3,40000,0,20\n", encoding="utf-8")
        (tmp_path / "supply.csv").write_text("id,x,y,capacity\nh1,0,0,15\n", encoding="utf-8")
        (tmp_path / "regions.csv").write_text(REGIONS, encoding="utf-8")
        config = {"coord_kind": "planar", "demand": "demand.csv", "supply": "supply.csv",
                  "regions": "regions.csv", "decay": {"kind": "binary", "d0": 30.0},
                  "weights": {"scheme": "knn", "k": 1}, "permutations": 19, "budget": 1,
                  "out": "out"}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        for command in ("access", "optimize", "report"):
            assert main([command, "--config", str(cfg)]) == 0, capsys.readouterr().err
        out = tmp_path / "out"
        # d1 and d2 lie 0 and 5 km from h1, d3 40 km, past the 30 km cutoff
        assert (out / "scores.csv").read_text() == "demand_id,score\nd1,0.1\nd2,0.1\nd3,0.0\n"
        plan = json.loads((out / "plan.json").read_text())
        assert sum(a["units_added"] for a in plan["allocations"]) == 1
        assert json.loads((out / "config.json").read_text())["metric"] == "euclidean"

    def test_a_metric_that_is_not_the_kinds_exits_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_files(tmp_path, extra={"metric": "euclidean"})
        assert main(["access", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == ("error: cli.ConfigError: metric must be 'haversine' "
                                           "for geographic coordinates, got 'euclidean'\n")
        assert not (tmp_path / "out").exists()


# --- malformed inputs: exit 2, a module.Class diagnostic, no output -----------

CITY = {"seed": 99, "n_demand": 60, "n_supply": 8, "n_regions": 5}
VALUES = "id,lon,lat,score\nu0,117.0,36.6,1\nu1,117.1,36.7,2\nu2,117.2,36.5,5\nu3,117.05,36.62,3\n"
OD = "demand_id,supply_id,cost\nd000,h00,3.0\n"
REGIONS = "id,area_km2,resource\nr0,10,20\nr1,90,80\n"
# values whose squared deviations from their mean overflow a float
HUGE_VALUES = "id,lon,lat,score\n" + "".join(
    f"u{i},{117.0 + i / 10},36.6,{(-1) ** i * 1e300}\n" for i in range(4))


def feature_collection(features):
    return json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "geometry": {"type": "Point", "coordinates": xy},
         "properties": props} for xy, props in features]})


def report_argv(tmp_path, files=(), **config):
    """``report`` on a small city, with input files and config fields replaced."""
    cfg = write_city(tmp_path / "city", **CITY)
    for name, data in files:
        (cfg.parent / name).write_bytes(data.encode() if isinstance(data, str) else data)
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **config}))
    return ["report", "--config", str(cfg), "--perms", "19"]


def optimize_argv(tmp_path, files=(), **config):
    return ["optimize"] + report_argv(tmp_path, files, **config)[1:3]


def moran_argv(tmp_path, text):
    path = tmp_path / "values.csv"
    path.write_text(text, encoding="utf-8")
    return ["moran", "--values", str(path), "--column", "score", "--knn", "2", "--perms", "9"]


def hrad_argv(tmp_path, text):
    path = tmp_path / "regions.csv"
    path.write_text(text, encoding="utf-8")
    return ["hrad", "--regions", str(path)]


def demand_geojson(features):
    return [("demand.geojson", feature_collection(features))]


def od_geojson_argv(tmp_path, *rows):
    """``report`` reading costs from a GeoJSON OD table of ``rows``."""
    features = [([0, 0], dict(zip(("demand_id", "supply_id", "cost"), row))) for row in rows]
    return report_argv(tmp_path, [("od.geojson", feature_collection(features))],
                       od_matrix="od.geojson")


ZERO_POPULATION = "id,lon,lat,population\n" + "".join(
    f"{s.id},{s.x!r},{s.y!r},0\n" for s in synthetic_city(**CITY).demand)
# three populations whose total overflows a float; no facility's captured demand does
HUGE_POPULATION = "id,lon,lat,population\n" + "".join(
    f"{s.id},{s.x!r},{s.y!r},{6e307 if i < 3 else s.population!r}\n"
    for i, s in enumerate(synthetic_city(**CITY).demand))
# populations of 1e-200: with a unit of 1e200, one unit's score shift overflows
TINY_POPULATION = "id,lon,lat,population\n" + "".join(
    f"{s.id},{s.x!r},{s.y!r},1e-200\n" for s in synthetic_city(**CITY).demand)
# capacities of 1e200: over populations of 1e-200, every supply-to-demand ratio overflows
HUGE_CAPACITY = "id,lon,lat,capacity\n" + "".join(
    f"{s.id},{s.x!r},{s.y!r},1e200\n" for s in synthetic_city(**CITY).supply)
# three populations of 1e308: some facility's captured demand overflows
OVERFLOWING_CAPTURE = "id,lon,lat,population\n" + "".join(
    f"{s.id},{s.x!r},{s.y!r},{1e308 if i < 3 else s.population!r}\n"
    for i, s in enumerate(synthetic_city(**CITY).demand))
# regions whose resource densities all underflow to 0: each degree is 0 / 0
UNDERFLOWING_DENSITY = "id,area_km2,resource,population\n" + "".join(
    f"r{k:02d},1e150,1e-310,100\n" for k in range(CITY["n_regions"]))
HRAD_HEAD = "id,area_km2,resource,population\n"
NEGATIVE_BAND = {"scheme": "distance_band", "band": -1.0}


def reencoded_config_argv(tmp_path, encoding):
    """``report`` on a copy of its config file encoded in ``encoding``, beside the original."""
    command, flag, cfg, *rest = report_argv(tmp_path)
    copy = Path(cfg).with_name(f"city-{encoding}.json")
    copy.write_bytes(Path(cfg).read_text(encoding="utf-8").encode(encoding))
    return [command, flag, str(copy), *rest]


def od_argv(tmp_path, rows):
    """``report`` reading costs from an OD table: ``OD`` then ``rows``, row 3 on."""
    return report_argv(tmp_path, [("od.csv", OD + rows)], od_matrix="od.csv")


def config_text_argv(tmp_path, text):
    """``access`` on a config file holding ``text``."""
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    return ["access", "--config", str(path)]


def report_without_argv(tmp_path, name):
    """``report`` on the small city's config with its field ``name`` removed."""
    argv = report_argv(tmp_path)
    cfg = Path(argv[2])
    fields = json.loads(cfg.read_text())
    del fields[name]
    cfg.write_text(json.dumps(fields))
    return argv


def a_file(tmp_path):
    """An existing file where an output directory is expected."""
    path = tmp_path / "afile"
    path.write_text("not a directory\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("argv, code, row", [
    pytest.param(lambda t: od_argv(t, "zz,h00,1\n"),
                 "travel.UnknownId", 3, id="od-unknown-demand-id"),
    pytest.param(lambda t: od_argv(t, "d001,zz,1\n"),
                 "travel.UnknownId", 3, id="od-unknown-supply-id"),
    pytest.param(lambda t: od_argv(t, "d001,h00,2\nd000,h00,4\n"),
                 "travel.DuplicatePair", 4, id="od-repeated-pair"),
    pytest.param(lambda t: od_argv(t, "d001,h00,-1\n"),
                 "travel.NegativeCost", 3, id="od-negative-cost"),
    pytest.param(lambda t: od_argv(t, "d001,h00,nan\n"),
                 "travel.NegativeCost", 3, id="od-nan-cost"),
    pytest.param(lambda t: od_argv(t, "d001,h00,-1\nd002,h00,1\nzz,h00,1\n"),
                 "travel.NegativeCost", 3, id="od-first-defect-before-unknown-id"),
    pytest.param(lambda t: ["access"] + report_argv(t, [("demand.csv", OVERFLOWING_CAPTURE)])[1:3],
                 "fca.NonFiniteCapture", None, id="captured-demand-overflow"),
    pytest.param(lambda t: ["access"] + report_argv(t, [("demand.csv", TINY_POPULATION),
                                                        ("supply.csv", HUGE_CAPACITY)])[1:3],
                 "fca.NonFiniteScore", None, id="supply-ratio-overflow"),
    pytest.param(lambda t: od_geojson_argv(t, ("d000", "h00", 3.0), (["d001"], "h00", 1.0)),
                 "travel.UnknownId", 2, id="od-geojson-demand-id-a-list"),
    pytest.param(lambda t: od_geojson_argv(t, ("d000", {"id": "h00"}, 3.0)),
                 "travel.UnknownId", 1, id="od-geojson-supply-id-an-object"),
    pytest.param(lambda t: od_geojson_argv(t, ("d000", "h00", 3.0), ("d001", "h00", 10**400)),
                 "data_model.MalformedRow", 2, id="od-geojson-cost-overflows-a-float"),
    pytest.param(lambda t: report_argv(t, demand_geojson(
                     [([117.0, 36.6], {"id": "d1", "population": 10**400})]),
                     demand="demand.geojson"),
                 "data_model.MalformedRow", 1, id="geojson-population-overflows-a-float"),
    pytest.param(lambda t: report_argv(t, [("od.csv", OD + "d001,h00,abc\n")], od_matrix="od.csv"),
                 "data_model.MalformedRow", 3, id="od-cost-not-a-number"),
    pytest.param(lambda t: report_argv(t, [("od.csv", OD + "d001,h00\n")], od_matrix="od.csv"),
                 "data_model.MalformedRow", 3, id="od-cost-cell-missing"),
    pytest.param(lambda t: moran_argv(t, VALUES + "u4,x,36.6,1\n"),
                 "data_model.MalformedRow", 6, id="values-coordinate-not-a-number"),
    pytest.param(lambda t: moran_argv(t, VALUES + "u4,117.0\n"),
                 "data_model.MalformedRow", 6, id="values-short-row"),
    pytest.param(lambda t: moran_argv(t, VALUES + "u4,nan,36.6,1\n"),
                 "data_model.NonFiniteCoordinate", 6, id="values-lon-nan"),
    pytest.param(lambda t: moran_argv(t, VALUES + "u4,500,36.6,1\n"),
                 "data_model.OutOfRangeCoordinate", 6, id="values-lon-out-of-range"),
    pytest.param(lambda t: moran_argv(t, VALUES + "u0,117.3,36.6,1\n"),
                 "data_model.DuplicateId", 6, id="values-duplicate-id"),
    pytest.param(lambda t: moran_argv(t, VALUES + "u4,117.3,36.6,abc\n"),
                 "data_model.MalformedRow", 6, id="values-column-not-a-number"),
    pytest.param(lambda t: report_argv(t, demand_geojson(
                     [([117.0, 36.6], {"id": "d1", "population": "abc"})]),
                     demand="demand.geojson"),
                 "data_model.MalformedRow", 1, id="geojson-population-not-a-number"),
    pytest.param(lambda t: report_argv(t, demand_geojson(
                     [(["a", "b"], {"id": "d1", "population": 5})]),
                     demand="demand.geojson"),
                 "data_model.MalformedRow", 1, id="geojson-point-not-numbers"),
    pytest.param(lambda t: report_argv(t, [("demand.geojson", "id,lon,lat\n")],
                                       demand="demand.geojson"),
                 "data_model.MalformedRow", None, id="geojson-not-json"),
    pytest.param(lambda t: report_argv(t, [("demand.geojson", '{"features": {}}')],
                                       demand="demand.geojson"),
                 "data_model.MalformedRow", None, id="geojson-not-a-feature-collection"),
    pytest.param(lambda t: report_argv(t, [("demand.csv",
                                            b"id,lon,lat,population\nd\xe9,1,2,3\n")]),
                 "data_model.MalformedRow", None, id="csv-not-utf8"),
    pytest.param(lambda t: report_argv(t, [("demand.csv", "id,lon,lat,population\n")]),
                 "data_model.NoRecords", None, id="demand-header-only"),
    pytest.param(lambda t: report_argv(t, [("supply.csv", "id,lon,lat,capacity\n")]),
                 "data_model.NoRecords", None, id="supply-header-only"),
    pytest.param(lambda t: hrad_argv(t, "id,area_km2,resource\n"),
                 "equity.EmptyInput", None, id="regions-header-only"),
    pytest.param(lambda t: hrad_argv(t, "area_km2,resource,id\n10,20,r0\n90,80\n"),
                 "data_model.MalformedRow", 3, id="regions-row-short-of-its-last-column-id"),
    pytest.param(lambda t: report_argv(t, weights={"scheme": "knn", "k": 2.5}),
                 "cli.ConfigError", None, id="config-k-not-an-int"),
    pytest.param(lambda t: report_argv(t, weights={"scheme": "knn", "k": "x"}),
                 "cli.ConfigError", None, id="config-k-text"),
    pytest.param(lambda t: report_argv(t, weights={"scheme": "distance_band", "band": "x"}),
                 "cli.ConfigError", None, id="config-band-text"),
    pytest.param(lambda t: report_argv(t, threads=0),
                 "cli.ConfigError", None, id="config-threads-0"),
    pytest.param(lambda t: report_argv(t, decay={"kind": "gaussian", "d0": 30.0, "beta": "180"}),
                 "cli.ConfigError", None, id="config-beta-text"),
    pytest.param(lambda t: report_argv(t, decay={"kind": "gaussian", "d0": True, "beta": 180}),
                 "cli.ConfigError", None, id="config-d0-bool"),
    pytest.param(lambda t: report_argv(t, unit_size=-1),
                 "optimize.NonPositiveUnitSize", None, id="config-unit-size-negative"),
    pytest.param(lambda t: report_argv(t, unit_size=float("inf")),
                 "optimize.NonPositiveUnitSize", None, id="config-unit-size-infinite"),
    pytest.param(lambda t: optimize_argv(t) + ["--unit-size", "inf"],
                 "optimize.NonPositiveUnitSize", None, id="unit-size-inf"),
    pytest.param(lambda t: report_argv(t, speed_km_per_min=0),
                 "travel.NonPositiveSpeed", None, id="config-speed-0"),
    pytest.param(lambda t: report_argv(t, speed_km_per_min=float("inf")),
                 "travel.NonPositiveSpeed", None, id="config-speed-inf"),
    pytest.param(lambda t: optimize_argv(t, [("demand.csv", ZERO_POPULATION)],
                                         objective="min_weighted_gini"),
                 "equity.EmptyInput", None, id="gini-objective-zero-population"),
    pytest.param(lambda t: moran_argv(t, VALUES) + ["--threads", "0"],
                 "cli.ConfigError", None, id="moran-threads-0"),
    pytest.param(lambda t: ["lisa"] + moran_argv(t, VALUES)[1:] + ["--threads", "0"],
                 "cli.ConfigError", None, id="lisa-threads-0"),
    # a permutation count past spatial_stats.MAX_PERMUTATIONS, at one and two threads
    *(pytest.param(lambda t, argv=argv, threads=threads: argv(t) + ["--threads", threads],
                   "spatial_stats.InvalidStatArgument", None, id=f"{name}-threads-{threads}")
      for name, argv in (
          ("moran-perms-10**30", lambda t: moran_argv(t, VALUES) + ["--perms", str(10**30)]),
          ("lisa-perms-10**15",
           lambda t: ["lisa"] + moran_argv(t, VALUES)[1:] + ["--perms", str(10**15)]),
          ("report-config-permutations-2**63",
           lambda t: report_argv(t, permutations=2**63)[:3]))
      for threads in ("1", "2")),
    pytest.param(lambda t: report_argv(t, decay={"kind": "zonal", "zones": ["a", 20, 30],
                                                 "weights": [1, 0.5, 0.2]}),
                 "cli.ConfigError", None, id="config-zones-text-entry"),
    pytest.param(lambda t: report_argv(t, decay={"kind": "zonal", "zones": 5, "weights": [1]}),
                 "cli.ConfigError", None, id="config-zones-not-a-list"),
    pytest.param(lambda t: report_argv(t, decay={"kind": "zonal", "zones": [10, 20, 30],
                                                 "weights": ["x", 0.5, 0.2]}),
                 "cli.ConfigError", None, id="config-zonal-weights-text-entry"),
    pytest.param(lambda t: optimize_argv(t, candidates=[]),
                 "optimize.InvalidProblem", None, id="config-candidates-empty"),
    pytest.param(lambda t: optimize_argv(t, candidates=["h00", "h00"]),
                 "optimize.InvalidProblem", None, id="config-candidates-repeated"),
    pytest.param(lambda t: report_argv(t, demand_geojson(
                     [([117.0, 36.6], {"id": "d1", "population": True})]),
                     demand="demand.geojson"),
                 "data_model.MalformedRow", 1, id="geojson-population-true"),
    pytest.param(lambda t: hrad_argv(t, "id,area_km2,resource\n")[:2] + [str(t / "nope.csv")],
                 "cli.ConfigError", None, id="hrad-regions-missing"),
    pytest.param(lambda t: moran_argv(t, VALUES)[:-4] + ["--band", "nan", "--perms", "9"],
                 "spatial_stats.InvalidStatArgument", None, id="moran-band-nan"),
    pytest.param(lambda t: report_argv(t, weights={"scheme": "distance_band", "band": float("nan")}),
                 "spatial_stats.InvalidStatArgument", None, id="config-band-nan"),
    pytest.param(lambda t: report_argv(t, weights={"scheme": "distance_band", "band": float("inf")}),
                 "spatial_stats.InvalidStatArgument", None, id="config-band-inf"),
    pytest.param(lambda t: moran_argv(t, HUGE_VALUES),
                 "spatial_stats.NonFiniteValue", None, id="moran-values-overflow"),
    pytest.param(lambda t: ["lisa"] + moran_argv(t, HUGE_VALUES)[1:],
                 "spatial_stats.NonFiniteValue", None, id="lisa-values-overflow"),
    pytest.param(lambda t: moran_argv(t, HUGE_VALUES) + ["--threads", "2"],
                 "spatial_stats.NonFiniteValue", None, id="moran-values-overflow-threads-2"),
    pytest.param(lambda t: ["lisa"] + moran_argv(t, HUGE_VALUES)[1:] + ["--threads", "2"],
                 "spatial_stats.NonFiniteValue", None, id="lisa-values-overflow-threads-2"),
    pytest.param(lambda t: hrad_argv(t, REGIONS) + ["--epsilon", "nan"],
                 "equity.InvalidEpsilon", None, id="hrad-epsilon-nan"),
    pytest.param(lambda t: hrad_argv(t, REGIONS) + ["--epsilon", "-1"],
                 "equity.InvalidEpsilon", None, id="hrad-epsilon-negative"),
    pytest.param(lambda t: hrad_argv(t, HRAD_HEAD + "r0,5e-324,1,1\nr1,5e-324,1,1\n"),
                 "equity.NonFiniteTotal", None, id="hrad-degree-overflow"),
    pytest.param(lambda t: hrad_argv(t, HRAD_HEAD + "r0,1,1.7e308,1\nr1,1,1.7e308,1\n"),
                 "equity.NonFiniteTotal", None, id="hrad-resource-total-overflow"),
    pytest.param(lambda t: hrad_argv(t, HRAD_HEAD + "r0,1e-300,1e-200,1e300\n"
                                     "r1,1e-300,1e-200,1e300\n") + ["--with-population"],
                 "equity.NonFiniteTotal", None, id="hrad-pad-overflow"),
    pytest.param(lambda t: hrad_argv(t, HRAD_HEAD + "r0,10,20,1.7e308\nr1,90,80,1.7e308\n")
                 + ["--with-population"],
                 "equity.NonFiniteTotal", None, id="hrad-population-total-overflow"),
    pytest.param(lambda t: hrad_argv(t, HRAD_HEAD + "r0,1,1,1e10\nr1,1,1e300,1e-300\n")
                 + ["--with-population"],
                 "equity.NonFiniteTotal", None, id="hrad-over-pad-overflow"),
    pytest.param(lambda t: hrad_argv(t, HRAD_HEAD + "r0,10,20,1e-320\nr1,90,80,1e300\n")
                 + ["--with-population"],
                 "equity.NonFiniteTotal", None, id="hrad-inhabited-pad-underflow"),
    pytest.param(lambda t: report_argv(t, [("regions.csv", UNDERFLOWING_DENSITY)]),
                 "equity.NonFiniteTotal", None, id="report-hrad-density-underflow"),
    pytest.param(lambda t: report_argv(t, decay={"kind": "gaussian", "d0": 30.0, "beta": 180.0,
                                                 "betta": 5}),
                 "cli.ConfigError", None, id="config-decay-unknown-key"),
    pytest.param(lambda t: report_argv(t, decay={"kind": "zonal", "zones": [10, 20, 30],
                                                 "weights": [1.0, 0.68, 0.22], "d0": 50}),
                 "cli.ConfigError", None, id="config-zonal-d0-not-last-zone"),
    pytest.param(lambda t: report_argv(t, weights={"scheme": "knn", "K": 3}),
                 "cli.ConfigError", None, id="config-weights-unknown-key"),
    pytest.param(lambda t: report_argv(t, weights={"scheme": "knn", "band": 3.0}),
                 "cli.ConfigError", None, id="config-weights-key-of-other-scheme"),
    pytest.param(lambda t: optimize_argv(t) + ["--budget", "2", "--unit-size", "1e200",
                                               "--objective", "min_variance"],
                 "optimize.NonFiniteObjective", None, id="variance-overflow"),
    pytest.param(lambda t: optimize_argv(t) + ["--budget", "2", "--unit-size", "1e308",
                                               "--objective", "min_weighted_gini"],
                 "equity.NonFiniteTotal", None, id="gini-unit-size-overflow"),
    pytest.param(lambda t: optimize_argv(t, [("demand.csv", HUGE_POPULATION)],
                                         objective="min_weighted_gini"),
                 "equity.NonFiniteTotal", None, id="gini-population-overflow"),
    pytest.param(lambda t: optimize_argv(t, [("demand.csv", TINY_POPULATION)], unit_size=1e200,
                                         objective="min_weighted_gini"),
                 "optimize.NonFiniteObjective", None, id="unit-shift-overflow"),
    pytest.param(lambda t: optimize_argv(t, [("demand.csv", ZERO_POPULATION)])
                 + ["--unit-size", "1.7e308"],
                 "optimize.NonFiniteObjective", None, id="candidate-capacity-overflow"),
    pytest.param(lambda t: reencoded_config_argv(t, "utf-16"),
                 "cli.ConfigError", None, id="config-not-utf8"),
    pytest.param(lambda t: ["access", "--config", str(t / "absent.json")],
                 "cli.ConfigError", None, id="config-missing"),
    pytest.param(lambda t: config_text_argv(t, '{"seed": 1'),
                 "cli.ConfigError", None, id="config-not-json"),
    pytest.param(lambda t: config_text_argv(t, '["seed", 1]'),
                 "cli.ConfigError", None, id="config-not-an-object"),
    pytest.param(lambda t: report_argv(t, objective="max_access"),
                 "cli.ConfigError", None, id="config-objective-unknown"),
    pytest.param(lambda t: report_argv(t, coord_kind="cartesian"),
                 "cli.ConfigError", None, id="config-coord-kind-unknown"),
    pytest.param(lambda t: report_without_argv(t, "decay"),
                 "cli.ConfigError", None, id="config-without-decay"),
    pytest.param(lambda t: report_argv(t, weights={"scheme": "rook"}),
                 "cli.ConfigError", None, id="config-weights-scheme-unknown"),
    pytest.param(lambda t: report_without_argv(t, "demand"),
                 "cli.ConfigError", None, id="config-without-demand"),
    pytest.param(lambda t: report_without_argv(t, "supply"),
                 "cli.ConfigError", None, id="config-without-supply"),
    pytest.param(lambda t: ["moran", "--values", str(t / "absent.csv"), "--column", "score",
                            "--knn", "2"],
                 "cli.ConfigError", None, id="values-file-missing"),
    pytest.param(lambda t: ["access", *report_argv(t)[1:3], "--out", str(a_file(t))],
                 "cli.ConfigError", None, id="out-is-a-file"),
    # the plan's errors at one thread, and from a worker process at two
    pytest.param(lambda t: report_argv(t, budget=0) + ["--threads", "1"],
                 "cli.ConfigError", None, id="report-budget-0"),
    pytest.param(lambda t: report_argv(t, budget=0) + ["--threads", "2"],
                 "cli.ConfigError", None, id="report-budget-0-threads-2"),
    pytest.param(lambda t: report_argv(t, unit_size=-1) + ["--threads", "2"],
                 "optimize.NonPositiveUnitSize", None, id="config-unit-size-negative-threads-2"),
    pytest.param(lambda t: report_argv(t, candidates=["h00", "zz"]) + ["--threads", "1"],
                 "cli.ConfigError", None, id="report-unknown-candidate"),
    pytest.param(lambda t: report_argv(t, candidates=["h00", "zz"]) + ["--threads", "2"],
                 "cli.ConfigError", None, id="report-unknown-candidate-threads-2"),
    # a bad band fails before the plan, at any thread count
    pytest.param(lambda t: report_argv(t, weights=NEGATIVE_BAND, budget=0) + ["--threads", "1"],
                 "spatial_stats.InvalidStatArgument", None, id="report-band-negative-budget-0"),
    pytest.param(lambda t: report_argv(t, weights=NEGATIVE_BAND, budget=0) + ["--threads", "2"],
                 "spatial_stats.InvalidStatArgument", None,
                 id="report-band-negative-budget-0-threads-2"),
    pytest.param(lambda t: ["access", *report_argv(t)[1:3], "--out", str(a_file(t) / "sub")],
                 "cli.ConfigError", None, id="out-under-a-file"),
    # a bad command line is a ConfigError too, with no usage text
    pytest.param(lambda t: optimize_argv(t) + ["--budget", "abc"],
                 "cli.ConfigError", None, id="budget-text"),
    pytest.param(lambda t: ["access", *report_argv(t)[1:3], "--method", "bogus"],
                 "cli.ConfigError", None, id="method-unknown"),
    pytest.param(lambda t: ["access"], "cli.ConfigError", None, id="access-without-config"),
    pytest.param(lambda t: report_argv(t) + ["--bogus"], "cli.ConfigError", None,
                 id="flag-unknown"),
    pytest.param(lambda t: ["bogus"], "cli.ConfigError", None, id="command-unknown"),
    # only the commands that start workers take --threads
    pytest.param(lambda t: ["access", *report_argv(t)[1:3], "--threads", "2"],
                 "cli.ConfigError", None, id="access-takes-no-threads"),
    pytest.param(lambda t: optimize_argv(t) + ["--threads", "2"],
                 "cli.ConfigError", None, id="optimize-takes-no-threads"),
    pytest.param(lambda t: hrad_argv(t, REGIONS) + ["--threads", "2"],
                 "cli.ConfigError", None, id="hrad-takes-no-threads"),
])
def test_bad_input_exits_2_and_writes_nothing(tmp_path, capsys, argv, code, row):
    out = tmp_path / "out"
    command, *rest = argv(tmp_path)
    # ``out`` goes first, so a row's own --out wins
    assert main([command, "--out", str(out), *rest]) == 2
    err = capsys.readouterr().err
    assert f"error: {code}: " in err and err.count("error: ") == 1
    assert "usage:" not in err
    if row is not None:
        assert f"row {row}: " in err
    assert not out.exists()


def raised(load):
    """``code: message`` of the error ``load()`` raises."""
    with pytest.raises(AccessKitError) as err:
        load()
    return f"{err.value.code}: {err.value}"


def exit_2_line(capsys, argv, out):
    """``code: message`` of the one line ``main(argv)`` exits 2 with, having written nothing."""
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    return err[len("error: "):-1]


@pytest.mark.parametrize("defect, message", [
    pytest.param("geojson", "row 1: cannot parse lat=None", id="point-lat-null"),
    pytest.param("csv", "row 3: too short to hold its id", id="row-short-of-its-last-column-id"),
])
@pytest.mark.parametrize("table, read", [
    pytest.param("demand", lambda cfg, path, capsys: raised(
        lambda: load_dataset(path, cfg.parent / "supply.csv")), id="load_dataset-demand"),
    pytest.param("supply", lambda cfg, path, capsys: raised(
        lambda: load_dataset(cfg.parent / "demand.csv", path)), id="load_dataset-supply"),
    pytest.param("values", lambda cfg, path, capsys: raised(lambda: load_values(path, "score")),
                 id="load_values"),
    pytest.param("demand", lambda cfg, path, capsys: exit_2_line(
        capsys, ["access", "--config", str(cfg)], cfg.parent / "out"), id="access"),
    pytest.param("supply", lambda cfg, path, capsys: exit_2_line(
        capsys, ["report", "--config", str(cfg)], cfg.parent / "out"), id="report"),
    pytest.param("values", lambda cfg, path, capsys: exit_2_line(
        capsys, ["moran", "--values", str(path), "--column", "score", "--knn", "2"],
        cfg.parent / "out"), id="moran"),
])
def test_a_null_point_coordinate_or_a_row_short_of_its_id_is_a_malformed_row(
        tmp_path, capsys, table, read, defect, message):
    # a Point's coordinates are cells, not properties; a short row's missing id is no 'None'
    value = {"demand": "population", "supply": "capacity", "values": "score"}[table]
    name = f"{table}.{defect}"
    text = (feature_collection([([117.0, None], {"id": "a", value: 3.0})]) if defect == "geojson"
            else f"lon,lat,{value},id\n117.0,36.6,3.0,a\n117.1,36.7,4.0\n")
    config = {table: name} if table != "values" else {}
    cfg = Path(report_argv(tmp_path, [(name, text)], **config)[2])
    assert read(cfg, cfg.parent / name, capsys) == f"data_model.MalformedRow: {message}"


@pytest.mark.parametrize("argv", [[], ["access"], ["moran"], ["lisa"], ["hrad"],
                                  ["optimize"], ["report"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: accesskit")


def test_subnormal_speed_exits_0_with_every_facility_out_of_reach(tmp_path, capsys):
    # each nonzero distance overflows to +inf minutes, which is unreachable,
    # without a RuntimeWarning, which the test configuration makes an error
    out = tmp_path / "out"
    argv = report_argv(tmp_path, speed_km_per_min=5e-324)[1:3]
    assert main(["access", *argv, "--out", str(out)]) == 0
    rows = (out / "scores.csv").read_text().splitlines()[1:]
    assert len(rows) == CITY["n_demand"] and {row.split(",")[1] for row in rows} == {"0.0"}
    assert "captures no demand" in capsys.readouterr().err


def test_config_with_a_bom_writes_the_same_files(tmp_path):
    out = tmp_path / "out"  # one --out, which config.json echoes
    written = []
    for argv in (report_argv(tmp_path), reencoded_config_argv(tmp_path, "utf-8-sig")):
        assert main(argv + ["--out", str(out)]) == 0
        written.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert written[0] == written[1]


def test_geojson_demand_with_csv_supply(tmp_path):
    city = synthetic_city(**CITY)
    features = [([s.x, s.y], {"id": s.id, "population": s.population}) for s in city.demand]
    csv_argv = report_argv(tmp_path / "csv")
    geojson_argv = report_argv(tmp_path / "geojson", demand_geojson(features),
                               demand="demand.geojson")
    assert main(csv_argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(geojson_argv + ["--out", str(tmp_path / "b")]) == 0
    for name in ("scores.csv", "lisa.csv", "plan.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_report_tables_quote_an_id_holding_a_comma(tmp_path):
    cfg = write_city(tmp_path / "city", **CITY)
    city = synthetic_city(**CITY)
    demand = (replace(city.demand[0], id="Block 7, North"), *city.demand[1:])
    (cfg.parent / "demand.csv").write_text(demand_csv_text(demand), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg), "--perms", "19", "--out", str(out)]) == 0
    for name, id_column, numeric in (("scores.csv", "demand_id", ("score",)),
                                     ("lisa.csv", "unit_id", ("local_i", "p_value"))):
        with open(out / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0][id_column] == "Block 7, North", name
        assert len(rows) == CITY["n_demand"]
        for row in rows:
            assert None not in row
            for column in numeric:
                float(row[column])  # raises unless the cell is a number


def test_report_writes_the_files_of_the_stage_commands(tmp_path):
    cfg = write_city(tmp_path / "city", **CITY)
    rep = tmp_path / "report"
    stat_flags = ["--perms", "49", "--seed", "11"]
    assert main(["report", "--config", str(cfg), *stat_flags, "--out", str(rep)]) == 0
    # moran and lisa run on the report's scores, as a values table at the demand sites
    sites = cfg.parent.joinpath("demand.csv").read_text().splitlines()[1:]
    scores = rep.joinpath("scores.csv").read_text().splitlines()[1:]
    values = tmp_path / "values.csv"
    assert [s.split(",")[0] for s in sites] == [s.split(",")[0] for s in scores]
    values.write_text("id,lon,lat,score\n" + "".join(
        f"{site.rsplit(',', 1)[0]},{score.split(',')[1]}\n" for site, score in zip(sites, scores)))
    knn = str(json.loads(cfg.read_text())["weights"]["k"])
    stat = ["--values", str(values), "--column", "score", "--knn", knn, *stat_flags]
    for argv, name in (
        (["access", "--config", str(cfg)], "scores.csv"),
        (["optimize", "--config", str(cfg)], "plan.json"),
        (["hrad", "--regions", str(cfg.parent / "regions.csv")], "hrad.csv"),
        (["moran", *stat], "moran.json"),
        (["lisa", *stat], "lisa.csv"),
    ):
        out = tmp_path / argv[0]
        assert main(argv + ["--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [name]
        assert out.joinpath(name).read_bytes() == rep.joinpath(name).read_bytes(), name
    summary = json.loads(rep.joinpath("summary.json").read_text())
    assert summary["moran"] == json.loads(rep.joinpath("moran.json").read_text())
    assert summary["optimize"] == json.loads(rep.joinpath("plan.json").read_text())


def test_report_evaluates_the_decay_once(tmp_path, monkeypatch):
    # the access scores and the plan share one catchment
    calls, evaluate_decay = [], fca.evaluate_decay

    def counting(spec, d):
        calls.append(spec)
        return evaluate_decay(spec, d)

    monkeypatch.setattr(fca, "evaluate_decay", counting)
    assert main(report_argv(tmp_path) + ["--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def full_od_argv(tmp_path, **config):
    """``report`` reading costs from an OD table of every pair, 1 to 40 minutes."""
    city = synthetic_city(**CITY)
    rows = "".join(f"{d.id},{s.id},{1 + (7 * i + 3 * j) % 40}\n"
                   for i, d in enumerate(city.demand) for j, s in enumerate(city.supply))
    return report_argv(tmp_path, [("od.csv", "demand_id,supply_id,cost\n" + rows)],
                       od_matrix="od.csv", **config)


def output_bytes(out):
    """Every output file but the config echo, which records the thread count."""
    return {p.name: p.read_bytes() for p in sorted(out.glob("*")) if p.name != "config.json"}


@needs_fork
@pytest.mark.parametrize("argv", [
    *(pytest.param(lambda t, objective=objective: report_argv(t, objective=objective),
                   id=objective) for objective in optimize.OBJECTIVES),
    pytest.param(lambda t: full_od_argv(t, objective="min_weighted_gini"), id="od-table"),
])
def test_report_plan_worker_writes_the_files_of_one_thread(tmp_path, workers, monkeypatch,
                                                          argv):
    argv = argv(tmp_path)
    calls, greedy = [], optimize.greedy_allocate  # a worker's calls are not recorded here
    monkeypatch.setattr(optimize, "greedy_allocate",
                        lambda problem: calls.append(None) or greedy(problem))
    assert main(argv + ["--threads", "1", "--out", str(tmp_path / "one")]) == 0
    assert workers.forks == 0 and len(calls) == 1
    assert main(argv + ["--threads", "2", "--out", str(tmp_path / "two")]) == 0
    # one each for the weights, the plan, Moran's permutations and LISA's units
    assert workers.forks == 4
    assert workers.statuses == [0, 0, 0, 0] and len(calls) == 1
    one = output_bytes(tmp_path / "one")
    assert "plan.json" in one and output_bytes(tmp_path / "two") == one


@needs_fork
def test_a_failed_plan_worker_has_its_plan_computed_here(tmp_path, workers, monkeypatch):
    argv = report_argv(tmp_path, objective="min_weighted_gini")
    assert main(argv + ["--out", str(tmp_path / "one")]) == 0
    parent, greedy = os.getpid(), optimize.greedy_allocate
    monkeypatch.setattr(optimize, "greedy_allocate",
                        lambda problem: os._exit(1) if os.getpid() != parent else greedy(problem))
    assert main(argv + ["--threads", "2", "--out", str(tmp_path / "two")]) == 0
    assert workers.forks == 4
    assert [os.waitstatus_to_exitcode(s) for s in workers.statuses] == [0, 0, 0, 1]
    assert output_bytes(tmp_path / "two") == output_bytes(tmp_path / "one")


@needs_fork
def test_report_without_a_pipe_writes_the_files_of_one_thread(tmp_path, workers, monkeypatch):
    argv = report_argv(tmp_path)
    assert main(argv + ["--threads", "1", "--out", str(tmp_path / "one")]) == 0

    def no_pipe():
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "pipe", no_pipe)
    assert main(argv + ["--threads", "2", "--out", str(tmp_path / "two")]) == 0
    assert workers.forks == 0
    assert output_bytes(tmp_path / "two") == output_bytes(tmp_path / "one")


@needs_fork
def test_a_raise_here_kills_and_reaps_the_plan_worker(tmp_path, workers, monkeypatch):
    parent, greedy = os.getpid(), optimize.greedy_allocate

    def slow(problem):
        if os.getpid() != parent:
            time.sleep(60)
        return greedy(problem)

    def failing(*args, **kwargs):
        raise LookupError("lisa failed")

    monkeypatch.setattr(optimize, "greedy_allocate", slow)
    monkeypatch.setattr(spatial_stats, "lisa", failing)
    out = tmp_path / "out"
    start = time.monotonic()
    with pytest.raises(LookupError, match="lisa failed"):
        main(report_argv(tmp_path) + ["--threads", "2", "--out", str(out)])
    assert time.monotonic() - start < 30
    assert workers.forks == 3  # the weights', the plan's, then Moran's
    # the weights' and Moran's workers reaped as they finished, the plan's killed
    assert workers.statuses[:2] == [0, 0] and os.WIFSIGNALED(workers.statuses[2])
    assert not out.exists()


BAND_WITH_ISOLATED_UNITS = {"scheme": "distance_band", "band": 2.0}  # 20 of CITY's 60


@needs_fork
@pytest.mark.parametrize("failure", ["exits-1", "short-bytes"])
def test_a_failed_weights_worker_has_its_weights_built_here(tmp_path, workers, monkeypatch,
                                                            capsys, failure):
    argv = report_argv(tmp_path, weights=BAND_WITH_ISOLATED_UNITS)
    assert main(argv + ["--threads", "1", "--out", str(tmp_path / "one")]) == 0
    err = capsys.readouterr().err
    assert err.count("has no neighbors in the distance band") == 20
    parent, build, dumps = os.getpid(), spatial_stats.build_weights, pickle.dumps
    if failure == "exits-1":
        monkeypatch.setattr(spatial_stats, "build_weights", lambda *args, **kwargs: (
            os._exit(1) if os.getpid() != parent else build(*args, **kwargs)))
    else:  # the weights' pickle cut short by 8 bytes
        monkeypatch.setattr(pickle, "dumps", lambda value, **kwargs: dumps(value, **kwargs)[
            :-8 if isinstance(value, spatial_stats.SpatialWeights) else None])
    assert main(argv + ["--threads", "2", "--out", str(tmp_path / "two")]) == 0
    assert capsys.readouterr().err == err
    assert workers.forks == 4
    assert [os.waitstatus_to_exitcode(s) for s in workers.statuses] == \
        [1 if failure == "exits-1" else 0, 0, 0, 0]
    assert output_bytes(tmp_path / "two") == output_bytes(tmp_path / "one")


@needs_fork
@pytest.mark.parametrize("weights", [{"k": 4}, {"band": 2.0}], ids=["knn", "band-isolated"])
def test_weights_from_a_worker_are_the_built_weights_bit_for_bit(workers, weights):
    city = synthetic_city(**CITY)
    xy = [(s.x, s.y) for s in city.demand]
    built, sent = _workers.run(2, *[lambda: spatial_stats.build_weights(
        xy, coord_kind=city.coord_kind, **weights)] * 2)
    assert "band" not in weights or len(built.isolated) == 20
    for name in ("indptr", "indices", "data"):
        want, got = getattr(built, name), getattr(sent, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert got.flags.writeable, name
    assert sent.isolated == built.isolated
    assert workers.forks == 1 and workers.statuses == [0]


@needs_fork
def test_report_prints_each_warning_once_at_any_threads(tmp_path, workers, capfd):
    # h00 alone captures demand, and 20 units are isolated. The weights worker
    # builds from the demand sites alone: were it to compute the access scores,
    # its own zero-capture warnings would reach stderr as well
    argv = report_argv(tmp_path, [("od.csv", OD)], od_matrix="od.csv",
                       weights=BAND_WITH_ISOLATED_UNITS)
    errs = []
    for threads in ("1", "2"):
        assert main(argv + ["--threads", threads, "--out", str(tmp_path / threads)]) == 0
        errs.append(capfd.readouterr().err)
    lines = errs[0].splitlines()
    assert sum("captures no demand" in line for line in lines) == CITY["n_supply"] - 1
    assert sum("has no neighbors in the distance band" in line for line in lines) == 20
    assert len(set(lines)) == len(lines) and errs[1] == errs[0]
    assert workers.forks == 4


@needs_fork
def test_a_bad_od_table_is_reported_before_bad_weights_at_any_threads(tmp_path, workers,
                                                                      capsys):
    argv = report_argv(tmp_path, [("od.csv", OD + "zz,h00,1.0\n")], od_matrix="od.csv",
                       weights={"scheme": "rook"})
    errs = []
    for threads in ("1", "2"):
        assert main(argv + ["--threads", threads, "--out", str(tmp_path / threads)]) == 2
        errs.append(capsys.readouterr().err)
        assert not (tmp_path / threads).exists()
    assert errs[0] == errs[1] == "error: travel.UnknownId: row 3: unknown demand id 'zz'\n"
    assert workers.forks == 1  # the weights' worker, killed or reaped as the load raised


@pytest.mark.parametrize("loader, argv", [
    pytest.param("cost_rows", optimize_argv, id="computed"),
    pytest.param("load_od_matrix", lambda t: ["optimize"] + od_argv(t, "d001,h01,5.0\n")[1:3],
                 id="od-table"),
])
def test_plan_keeps_no_travel_matrix(tmp_path, monkeypatch, loader, argv):
    refs = []
    load = getattr(cli, loader)

    def recording(*args, **kwargs):
        matrix = load(*args, **kwargs)
        refs.append(weakref.ref(matrix))
        return matrix

    monkeypatch.setattr(cli, loader, recording)
    run = cli.Run(cli.build_parser().parse_args(argv(tmp_path)))
    problem, plan = run.plan
    assert sum(plan.units) == problem.budget
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None


@pytest.fixture(scope="module")
def wide_city(tmp_path_factory):
    """A city of 1500 demand and 320 supply sites: its N x M cost matrix is
    several cost blocks, and its N x C shifts ten N x CHUNK blocks."""
    return write_city(tmp_path_factory.mktemp("wide"), seed=5, n_demand=1500, n_supply=320,
                      n_regions=3)


def test_computed_catchment_holds_one_cost_sized_array(wide_city, monkeypatch):
    # the weights, plus a few blocks of costs and decay temporaries; no
    # cost matrix is built
    built = []
    monkeypatch.setattr(TravelMatrix, "__post_init__", lambda self: built.append(self))
    run = cli.Run(cli.build_parser().parse_args(["access", "--config", str(wide_city)]))
    n, m = len(run.dataset.demand), len(run.dataset.supply)
    peak = traced_peak(lambda: run.catchment)
    assert peak <= n * m * 8 + 6 * travel.BLOCK * 8
    assert built == []


@pytest.mark.parametrize("objective", ["max_min_access", "min_variance"])
def test_plan_memory_is_a_few_chunk_blocks(wide_city, objective):
    # every supply site is a candidate: the shifts are built one N x CHUNK
    # block at a time, never as one N x C block
    run = cli.Run(cli.build_parser().parse_args(
        ["optimize", "--config", str(wide_city), "--objective", objective, "--budget", "5"]))
    n = len(run.catchment.population)
    peak = traced_peak(lambda: run.plan)
    assert peak <= 3 * n * CHUNK * 8
    problem, plan = run.plan
    assert len(problem.candidates) == 10 * CHUNK and sum(plan.units) == 5


def test_optimize_builds_no_demand_record(small_city, monkeypatch, capsys):
    # the sites stay columns from the loader to plan.json and to every output
    # of report: no demand or supply record is built, by its constructor or by
    # iterating a table
    built = []
    for record in (DemandSite, SupplySite):
        monkeypatch.setattr(record, "__post_init__", lambda self, post_init=record.__post_init__:
                            built.append(self.id) or post_init(self))
    iterate = _SiteTable.__iter__
    monkeypatch.setattr(_SiteTable, "__iter__",
                        lambda self: built.append(type(self).__name__) or iterate(self))
    for command in (["optimize"], ["report", "--threads", "1"]):
        out = small_city.parent / f"out-{command[0]}"
        assert main([*command, "--config", str(small_city), "--out", str(out)]) == 0
    assert built == []
    # the count sees a construction and an iteration
    DemandSite("d", 0.0, 0.0, 1.0), SupplySite("h", 0.0, 0.0, 1.0)
    list(DemandTable(["e"], np.zeros((1, 2)), np.ones(1)))
    assert built == ["d", "h", "DemandTable"]


# What each config field accepts, by JSON kind; an int counts as a number.
FIELD_KINDS = {
    "coord_kind": {"str"}, "demand": {"str", "null"}, "supply": {"str", "null"},
    "regions": {"str", "null"}, "od_matrix": {"str", "null"}, "metric": {"str", "null"},
    "speed_km_per_min": {"int", "float", "null"}, "cost_unit": {"str"}, "method": {"str"},
    "decay": {"dict"}, "weights": {"dict"}, "permutations": {"int"}, "seed": {"int"},
    "objective": {"str"}, "budget": {"int"}, "unit_size": {"int", "float"},
    "candidates": {"list", "null"}, "per_thousand": {"bool"}, "threads": {"int"},
    "out": {"str"},
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3, allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=3)


def json_kind(value) -> str:
    for kind, cls in (("null", type(None)), ("bool", bool), ("int", int), ("float", float),
                      ("str", str), ("list", list), ("dict", dict)):
        if isinstance(value, cls):
            return kind


@st.composite
def malformed_field(draw):
    name = draw(st.sampled_from(sorted(FIELD_KINDS)))
    value = draw(JSON_VALUES.filter(lambda v: json_kind(v) not in FIELD_KINDS[name]))
    return name, value


@pytest.fixture(scope="module")
def small_city(tmp_path_factory):
    return write_city(tmp_path_factory.mktemp("city"), **CITY)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=malformed_field())
def test_malformed_config_exits_2_and_writes_nothing(small_city, capsys, field):
    name, value = field
    cfg = small_city.parent / "malformed.json"
    cfg.write_text(json.dumps({**json.loads(small_city.read_text()), name: value}))
    out = small_city.parent / "out"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"error: cli.ConfigError: {name} " in capsys.readouterr().err
    assert not out.exists()


# Out-of-range values of each numeric flag, and the subcommands that take it;
# the small city has 60 demand sites, so --knn 60 is one too many.
BAD_FLAGS = {
    "--epsilon": (("hrad",), ("-1", "nan", "inf")),
    "--band": (("moran", "lisa"), ("0", "-1", "nan", "inf")),
    "--knn": (("moran", "lisa"), ("0", "-1", str(CITY["n_demand"]), "1000")),
    "--perms": (("moran", "lisa", "report"), ("0", "-5", "1000001", str(10**30))),
    "--seed": (("lisa", "report"), ("-1",)),
    "--budget": (("optimize",), ("0", "-3")),
    "--unit-size": (("optimize",), ("0", "-1", "nan", "inf")),
}


@st.composite
def bad_flag(draw):
    flag = draw(st.sampled_from(sorted(BAD_FLAGS)))
    commands, values = BAD_FLAGS[flag]
    return draw(st.sampled_from(commands)), flag, draw(st.sampled_from(values))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=bad_flag())
def test_out_of_range_flag_exits_2_and_writes_nothing(small_city, capsys, case):
    command, flag, value = case
    city = small_city.parent
    if command == "hrad":
        argv = ["hrad", "--regions", str(city / "regions.csv")]
    elif command in ("moran", "lisa"):
        argv = [command, "--values", str(city / "demand.csv"), "--column", "population"]
        if flag not in ("--knn", "--band"):
            argv += ["--knn", "4"]
    else:
        argv = [command, "--config", str(small_city)]
    out = city / "out"
    assert main(argv + [flag, value, "--out", str(out)]) == 2
    assert re.search(r"^error: [a-z_]+\.[A-Za-z]+: ", capsys.readouterr().err, re.MULTILINE)
    assert not out.exists()


# Magnitudes from zero and the subnormals up to the largest floats. On any mix
# of them, a run exits 0 with finite outputs or exits 2 with one diagnostic.
MAGNITUDES = (0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1.0, 1e150, 1e200, 1e300, 1.7e308)
CYCLE = st.lists(st.sampled_from(MAGNITUDES), min_size=1, max_size=3)
SIGNS = st.lists(st.booleans(), min_size=1, max_size=3)
EXTREMES = st.fixed_dictionaries({
    "population": CYCLE, "capacity": CYCLE, "area_km2": CYCLE, "resource": CYCLE,
    "region_population": CYCLE, "value": CYCLE, "value_sign": SIGNS, "cost": CYCLE,
    "unit_size": st.sampled_from(MAGNITUDES), "speed": st.sampled_from(MAGNITUDES),
})
CONTRACT_COMMANDS = {
    "access": ["access", "--config", "city.json"],
    "moran": ["moran", "--values", "values.csv", "--column", "value", "--knn", "4",
              "--perms", "19"],
    "lisa": ["lisa", "--values", "values.csv", "--column", "value", "--knn", "4",
             "--perms", "19"],
    "hrad": ["hrad", "--regions", "regions.csv", "--with-population"],
    **{f"optimize-{objective}": ["optimize", "--config", "city.json", "--objective", objective]
       for objective in ("max_min_access", "min_weighted_gini", "min_variance")},
    "report": ["report", "--config", "city.json", "--perms", "19"],
    # costs read from an OD table listing every pair
    "access-od": ["access", "--config", "city-od.json"],
    "report-od": ["report", "--config", "city-od.json", "--perms", "19"],
}


def with_cycles(text, cycles, signs=(False,)):
    """A CSV table with each column named in ``cycles`` replaced by its
    values repeated down the rows, negated where ``signs`` repeated says so."""
    head, *rows = text.splitlines()
    names = head.split(",")
    cells = [row.split(",") for row in rows]
    for name, cycle in cycles.items():
        for i, row in enumerate(cells):
            value = cycle[i % len(cycle)]
            row[names.index(name)] = repr(-value if signs[i % len(signs)] else value)
    return "\n".join([head] + [",".join(row) for row in cells]) + "\n"


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(CONTRACT_COMMANDS)), sizes=EXTREMES)
@example(command="hrad", sizes={"population": [1.0], "capacity": [1.0], "area_km2": [1e-300],
                                "resource": [1e-200], "region_population": [1e300],
                                "value": [1.0], "value_sign": [False], "cost": [1.0],
                                "unit_size": 1.0, "speed": 1.0})
@example(command="report-od", sizes={"population": [1.0], "capacity": [1.0], "area_km2": [1.0],
                                     "resource": [1.0], "region_population": [1.0],
                                     "value": [1.0], "value_sign": [False],
                                     "cost": [0.0, 5e-324, 1.7e308], "unit_size": 1.0,
                                     "speed": 1.0})
# a unit so large that a candidate's capacity overflows: the plan fails, in a worker at 2 threads
@example(command="report", sizes={"population": [1.0], "capacity": [1.0], "area_km2": [1.0],
                                  "resource": [1.0], "region_population": [1.0], "value": [1.0],
                                  "value_sign": [False], "cost": [1.0], "unit_size": 1.7e308,
                                  "speed": 1.0})
def test_extreme_magnitudes_exit_0_with_finite_outputs_or_exit_2(
        small_city, capsys, monkeypatch, command, sizes):
    # two CPUs, so that a report at --threads 2 computes its plan in a worker process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    city = small_city.parent
    with TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        demand = (city / "demand.csv").read_text()
        for name, text in (
            ("demand.csv", with_cycles(demand, {"population": sizes["population"]})),
            ("supply.csv", with_cycles((city / "supply.csv").read_text(),
                                       {"capacity": sizes["capacity"]})),
            ("regions.csv", with_cycles((city / "regions.csv").read_text(), {
                "area_km2": sizes["area_km2"], "resource": sizes["resource"],
                "population": sizes["region_population"]})),
            ("values.csv", with_cycles(demand.replace(",population\n", ",value\n", 1),
                                       {"value": sizes["value"]}, sizes["value_sign"])),
        ):
            (tmp / name).write_text(text, encoding="utf-8")
        pairs = [(d.split(",")[0], s.split(",")[0]) for d in demand.splitlines()[1:]
                 for s in (city / "supply.csv").read_text().splitlines()[1:]]
        (tmp / "od.csv").write_text("demand_id,supply_id,cost\n" + "".join(
            f"{d},{s},{sizes['cost'][k % len(sizes['cost'])]!r}\n"
            for k, (d, s) in enumerate(pairs)), encoding="utf-8")
        config = {**json.loads(small_city.read_text()), "unit_size": sizes["unit_size"],
                  "speed_km_per_min": sizes["speed"]}
        (tmp / "city.json").write_text(json.dumps(config))
        (tmp / "city-od.json").write_text(json.dumps({**config, "od_matrix": "od.csv"}))
        out = tmp / "out"
        argv = [str(tmp / arg) if arg.endswith((".json", ".csv")) else arg
                for arg in CONTRACT_COMMANDS[command]]
        capsys.readouterr()
        code = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        if command.startswith("report"):
            # the plan from a worker process: the same exit, diagnostics and files
            assert main(argv + ["--threads", "2", "--out", str(tmp / "out-2")]) == code
            assert capsys.readouterr().err == err
            assert output_bytes(tmp / "out-2") == output_bytes(out)
        if code == 2:
            errors = [line for line in err.splitlines() if line.startswith("error: ")]
            assert len(errors) == 1 and re.match(r"error: [a-z_]+\.[A-Za-z]+: ", errors[0]), err
            assert not out.exists()
            return
        assert code == 0
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{path.name}: {c}"))
        for path in out.glob("*.csv"):
            with open(path, newline="", encoding="utf-8") as fh:
                cells = [cell.lower() for row in csv.reader(fh) for cell in row]
            assert not {"nan", "inf", "-inf"} & set(cells), path.name
