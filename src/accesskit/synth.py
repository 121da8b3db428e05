"""Deterministic synthetic city for demos and end-to-end runs.

The generator draws population blobs, facilities, and regions from a
single seeded stream, so the same seed always yields byte-identical files.
Defaults give a mid-size city: 500 demand points clustered into districts,
25 facilities, 12 administrative regions.
"""

import json
from pathlib import Path

import numpy as np

from .data_model import (
    Dataset,
    DemandSite,
    Region,
    SupplySite,
    write_dataset,
)

CITY_CENTER = (117.0, 36.65)


def synthetic_city(seed: int = 2026, n_demand: int = 500, n_supply: int = 25,
                   n_regions: int = 12) -> Dataset:
    """Build a clustered synthetic city dataset (geographic coordinates)."""
    rng = np.random.default_rng(seed)
    lon0, lat0 = CITY_CENTER

    n_blobs = 6
    blob_centers = np.column_stack([
        rng.uniform(lon0 - 0.12, lon0 + 0.12, n_blobs),
        rng.uniform(lat0 - 0.10, lat0 + 0.10, n_blobs),
    ])
    blob_of = rng.integers(0, n_blobs, n_demand)
    spread = rng.uniform(0.015, 0.04, n_blobs)
    coords = blob_centers[blob_of] + rng.normal(0.0, 1.0, (n_demand, 2)) * spread[blob_of][:, None]
    populations = np.round(rng.lognormal(mean=6.5, sigma=0.6, size=n_demand))

    demand = tuple(
        DemandSite(f"d{i:03d}", round(float(coords[i, 0]), 6),
                   round(float(coords[i, 1]), 6), float(populations[i]))
        for i in range(n_demand)
    )

    # facilities near blob centers plus a few dispersed ones
    supply_rows = []
    for j in range(n_supply):
        if j < n_blobs * 2:
            base = blob_centers[j % n_blobs]
            pos = base + rng.normal(0.0, 0.01, 2)
        else:
            pos = np.array([
                rng.uniform(lon0 - 0.14, lon0 + 0.14),
                rng.uniform(lat0 - 0.12, lat0 + 0.12),
            ])
        capacity = float(np.round(rng.lognormal(mean=4.0, sigma=0.7)))
        supply_rows.append(
            SupplySite(f"h{j:02d}", round(float(pos[0]), 6),
                       round(float(pos[1]), 6), max(capacity, 5.0))
        )

    regions = tuple(
        Region(
            f"r{k:02d}",
            round(float(rng.uniform(20.0, 200.0)), 3),
            float(np.round(rng.lognormal(mean=4.5, sigma=0.8))),
            float(np.round(rng.lognormal(mean=10.0, sigma=0.5))),
        )
        for k in range(n_regions)
    )

    return Dataset(demand=demand, supply=tuple(supply_rows), regions=regions,
                   coord_kind="geographic")


def default_config(out_dir: str = ".") -> dict:
    """Run configuration matching the generated files."""
    return {
        "coord_kind": "geographic",
        "demand": "demand.csv",
        "supply": "supply.csv",
        "regions": "regions.csv",
        "speed_km_per_min": 0.5,
        "method": "g2sfca",
        "decay": {"kind": "gaussian", "beta": 180.0, "d0": 30.0},
        "weights": {"scheme": "knn", "k": 8},
        "permutations": 999,
        "seed": 42,
        "objective": "max_min_access",
        "budget": 10,
        "unit_size": 10.0,
        "per_thousand": False,
        "threads": 1,
        "out": out_dir,
    }


def write_city(directory, seed: int = 2026, **kwargs) -> Path:
    """Write demand/supply/regions CSVs plus a ready-to-run config JSON.

    Returns the config path. Existing files are overwritten.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    city = synthetic_city(seed=seed, **kwargs)
    write_dataset(city, directory / "demand.csv", directory / "supply.csv",
                  directory / "regions.csv")
    config_path = directory / "city.json"
    config_path.write_text(
        json.dumps(default_config(out_dir="output"), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return config_path
