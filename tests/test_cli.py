import json

import numpy as np
import pytest

from accesskit.cli import main
from accesskit.synth import write_city


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

    def test_bad_path_reported(self, tmp_path, capsys):
        cfg = write_files(tmp_path, extra={"demand": "nope.csv"})
        assert main(["access", "--config", str(cfg)]) == 2
        assert "ConfigError" in capsys.readouterr().err

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

    def test_env_threads_do_not_change_output(self, tmp_path, monkeypatch):
        vals = values_csv(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["moran", "--values", str(vals), "--column", "score",
              "--knn", "4", "--perms", "99", "--seed", "7", "--out", str(out1)])
        monkeypatch.setenv("ACCESSKIT_THREADS", "4")
        main(["moran", "--values", str(vals), "--column", "score",
              "--knn", "4", "--perms", "99", "--seed", "7", "--out", str(out2)])
        assert (out1 / "moran.json").read_bytes() == (out2 / "moran.json").read_bytes()

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
