"""Workload definitions and seeded input generation.

Each workload is one ``accesskit`` CLI command on files generated from the
benchmark seed; the generator runs before any timing, and the program sees
only the files. NumPy and ``accesskit`` are imported only inside the
generator, so the benchmark's parent process can read the definitions
without growing.

Why these three:

report_knn  ``report`` at 2000 demand x 50 supply with kNN weights and 999
            permutations. ``spatial_stats`` is ~85 % of the run (weights,
            Moran, LISA), so spatial-weights and permutation work shows
            here, while the optimizer (~2 %) should read "no change". It is
            not in ``BENCHMARK.json``: at 50 s a run, only two workloads fit
            the time allowed for 22 runs of each, and every layer it uses
            is also measured on report_od. Run it by name.
plan_large  ``optimize`` at 10000 x 200 with budget 20. Greedy is ~60 % of
            the run; N x M work (travel, decay, mat-vec per evaluation)
            dominates and ``spatial_stats`` never runs.
report_od   ``report`` at 2000 x 250 with costs read from a sparse OD CSV,
            m2sfca, a 0.7 km distance band (~9 neighbours on average, ~80
            units with none), the Gini objective and two threads. It uses
            the same layers as report_knn differently (CSV path, ragged and
            empty neighbour rows, thread pool, a sort per objective
            evaluation), so a gain for one use that costs another shows.

What the seed changes: the permutation seed, so every Moran and LISA
draw differs, and a common scale of all demand populations, 2**k with k
drawn from -3..3. The map (site and facility positions, capacities,
regions, populations up to that scale) and the OD detours are ``synth``'s
city at ``MAP_SEED`` for every seed. A power-of-two scale is exact in
floating point, so every sum, ratio and comparison of the program scales
exactly and the optimizer takes the same path at every seed: the seed
changes the numbers, never the amount of work. Anything else changes it.
On other maps the band's neighbour counts vary (LISA cost varies 4x in
sum k^2) and local search on about one map in five walks the budget
between facilities one unit per sweep (up to 33 sweeps, a 6x longer
plan_large run). Redrawing each site's population or each OD detour moved
report_od's local search between one and three improving sweeps (0.2 to
1.4 s of a 7 s run), wider than the benchmark's bound allows.
"""

import hashlib
import json
import os
import platform
import sys
from dataclasses import dataclass, replace
from pathlib import Path

# The seed the stored reference outputs were made with.
DEFAULT_SEED = 2026
# Every seed uses the same map: synth's city at this seed.
MAP_SEED = 2026
# Populations are scaled by 2**k, k uniform on these integers.
POPULATION_SCALE_EXPONENTS = (-3, 3)

SPEED_KM_PER_MIN = 0.5
DECAY = {"kind": "gaussian", "beta": 180.0, "d0": 30.0}
OD_CUTOFF_MIN = 30.0
OD_DETOUR = (1.1, 1.6)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # CLI subcommand
    n_demand: int
    n_supply: int
    n_regions: int
    config: dict          # config fields on top of the common ones
    od: bool = False      # costs come from a generated OD CSV


WORKLOADS = {
    "report_knn": Workload(
        "report_knn", "report", 2000, 50, 12,
        {"method": "g2sfca", "weights": {"scheme": "knn", "k": 8},
         "permutations": 999, "objective": "max_min_access", "budget": 10,
         "threads": 1},
    ),
    "plan_large": Workload(
        "plan_large", "optimize", 10000, 200, 12,
        {"method": "g2sfca", "objective": "max_min_access", "budget": 20,
         "threads": 1},
    ),
    "report_od": Workload(
        "report_od", "report", 2000, 250, 12,
        {"method": "m2sfca", "weights": {"scheme": "distance_band", "band": 0.7},
         "permutations": 999, "objective": "min_weighted_gini", "budget": 10,
         "threads": 2},
        od=True,
    ),
}

# Same shapes at a size that runs in well under a second, for the self-test.
TINY = {
    "report_knn": dict(n_demand=120, n_supply=8, n_regions=4,
                       config={"permutations": 49, "budget": 3}),
    "plan_large": dict(n_demand=300, n_supply=12, n_regions=4,
                       config={"budget": 4}),
    "report_od": dict(n_demand=120, n_supply=15, n_regions=4,
                      config={"permutations": 49, "budget": 3,
                              "weights": {"scheme": "distance_band", "band": 1.2}}),
}


def get(name: str, size: str = "full") -> Workload:
    w = WORKLOADS[name]
    if size == "full":
        return w
    tiny = TINY[name]
    return Workload(w.name, w.command, tiny["n_demand"], tiny["n_supply"],
                    tiny["n_regions"], {**w.config, **tiny["config"]}, w.od)


def generate(workload: Workload, seed: int, directory: Path) -> dict:
    """Write the workload's input files and config into ``directory``.

    Returns ``{"config": path, "files": [input paths]}``. The same seed
    always writes byte-identical files.
    """
    from accesskit.data_model import demand_csv_text, regions_csv_text, supply_csv_text
    from accesskit.synth import synthetic_city

    directory.mkdir(parents=True, exist_ok=True)
    city = synthetic_city(seed=MAP_SEED, n_demand=workload.n_demand,
                          n_supply=workload.n_supply, n_regions=workload.n_regions)
    city = replace(city, demand=_scale_populations(city.demand, seed))
    files = {
        "demand.csv": demand_csv_text(city.demand, city.coord_kind),
        "supply.csv": supply_csv_text(city.supply, city.coord_kind),
        "regions.csv": regions_csv_text(city.regions),
    }
    config = {
        "coord_kind": "geographic",
        "demand": "demand.csv",
        "supply": "supply.csv",
        "regions": "regions.csv",
        "metric": "haversine",
        "speed_km_per_min": SPEED_KM_PER_MIN,
        "decay": dict(DECAY),
        "seed": seed,
        "unit_size": 10.0,
        "per_thousand": False,
        **workload.config,
    }
    config["threads"] = min(config["threads"], os.cpu_count() or 1)
    if workload.od:
        files["od.csv"] = _od_csv_text(city)
        config["od_matrix"] = "od.csv"
        config["cost_unit"] = "minutes"
    paths = []
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
        paths.append(directory / name)
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    return {"config": config_path, "files": paths + [config_path]}


def _scale_populations(demand, seed: int):
    import numpy as np

    lo, hi = POPULATION_SCALE_EXPONENTS
    scale = 2.0 ** int(np.random.default_rng([seed, 2]).integers(lo, hi + 1))
    return tuple(replace(s, population=s.population * scale) for s in demand)


def _od_csv_text(city) -> str:
    """Network-like minutes: straight-line minutes times a detour factor
    drawn from U(1.1, 1.6), kept only for pairs within the cutoff."""
    import numpy as np

    from oracle import haversine_km

    d_xy = np.array([(s.x, s.y) for s in city.demand])
    s_xy = np.array([(s.x, s.y) for s in city.supply])
    minutes = haversine_km(d_xy, s_xy) / SPEED_KM_PER_MIN
    rng = np.random.default_rng([MAP_SEED, 1])
    minutes = minutes * rng.uniform(*OD_DETOUR, size=minutes.shape)
    lines = ["demand_id,supply_id,cost"]
    for i, j in zip(*np.nonzero(minutes <= OD_CUTOFF_MIN)):
        lines.append(f"{city.demand[i].id},{city.supply[j].id},{round(float(minutes[i, j]), 4)!r}")
    return "\n".join(lines) + "\n"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def main(argv) -> None:
    """``workloads.py NAME SIZE SEED DIR``: generate the inputs and print
    the config path, the SHA-256 of each file and the environment as JSON."""
    name, size, seed, directory = argv
    made = generate(get(name, size), int(seed), Path(directory))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in made["files"]}
    print(json.dumps({"config": str(made["config"]), "inputs": digests, "env": environment()}))


if __name__ == "__main__":
    main(sys.argv[1:])
