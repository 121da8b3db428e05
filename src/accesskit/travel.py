"""Travel-cost matrices between demand and supply sites.

Costs are kilometers (great-circle or planar) or minutes (km divided by a
speed). Unreachable pairs are +inf; every decay function maps +inf to
weight 0, so infinity cleanly encodes "outside any catchment".
"""

import math
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, _parse_float, _read_table
from .errors import DuplicatePair, MetricMismatch, NegativeCost, NonPositiveSpeed, UnknownId

EARTH_RADIUS_KM = 6371.0

COST_UNITS = ("km", "minutes")


@dataclass(frozen=True, eq=False)
class TravelMatrix:
    """Dense demand x supply cost matrix, immutable once built."""

    cost: np.ndarray
    unit: str = "km"

    def __post_init__(self):
        arr = np.asarray(self.cost, dtype=float)
        if arr.ndim != 2:
            raise ValueError("cost must be a 2-d matrix")
        if np.isnan(arr).any():
            raise ValueError("cost entries must be finite or +inf, not NaN")
        if (arr < 0).any():
            raise ValueError("cost entries must be nonnegative")
        if self.unit not in COST_UNITS:
            raise ValueError(f"unit must be one of {COST_UNITS}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "cost", arr)

    @property
    def n_demand(self) -> int:
        return self.cost.shape[0]

    @property
    def n_supply(self) -> int:
        return self.cost.shape[1]


def haversine_distance(p, q) -> float:
    """Great-circle distance in km between (lon, lat) points in degrees."""
    lon1, lat1 = math.radians(p[0]), math.radians(p[1])
    lon2, lat2 = math.radians(q[0]), math.radians(q[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return EARTH_RADIUS_KM * 2 * math.asin(math.sqrt(a))


def haversine_matrix(a, b) -> np.ndarray:
    """Pairwise great-circle km between two (n, 2) arrays of (lon, lat)."""
    a = np.radians(np.asarray(a, dtype=float))
    b = np.radians(np.asarray(b, dtype=float))
    lon1, lat1 = a[:, 0][:, None], a[:, 1][:, None]
    lon2, lat2 = b[:, 0][None, :], b[:, 1][None, :]
    s = (
        np.sin((lat2 - lat1) / 2) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2
    )
    return EARTH_RADIUS_KM * 2 * np.arcsin(np.sqrt(s))


def euclidean_matrix(a, b) -> np.ndarray:
    """Pairwise planar distance in km between (n, 2) arrays of (x, y) meters."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2)) / 1000.0


def build_travel_matrix(dataset: Dataset, metric: str = "haversine",
                        speed: float | None = None) -> TravelMatrix:
    """Build the demand x supply cost matrix from site coordinates.

    Parameters
    ----------
    dataset : Dataset
        Source of demand and supply coordinates.
    metric : {"haversine", "euclidean"}
        Must match the dataset's coordinate kind: haversine for geographic
        (degrees), euclidean for planar (meters).
    speed : float, optional
        Km per minute. When given, entries are travel minutes (km / speed)
        and the matrix unit is "minutes"; otherwise entries stay in km.
    """
    if metric == "haversine":
        if dataset.coord_kind != "geographic":
            raise MetricMismatch("haversine requires geographic coordinates")
        dist_fn = haversine_matrix
    elif metric == "euclidean":
        if dataset.coord_kind != "planar":
            raise MetricMismatch("euclidean requires planar coordinates")
        dist_fn = euclidean_matrix
    else:
        raise ValueError(f"unknown metric {metric!r}")
    d_xy = np.array([(s.x, s.y) for s in dataset.demand], dtype=float)
    s_xy = np.array([(s.x, s.y) for s in dataset.supply], dtype=float)
    km = dist_fn(d_xy, s_xy)
    if speed is not None:
        if not speed > 0:
            raise NonPositiveSpeed(f"speed must be positive km per minute, got {speed!r}")
        return TravelMatrix(cost=km / speed, unit="minutes")
    return TravelMatrix(cost=km, unit="km")


def load_od_matrix(path, demand, supply, unit: str = "minutes") -> TravelMatrix:
    """Load a precomputed origin-destination cost table.

    Columns ``demand_id,supply_id,cost`` (CSV, or properties of GeoJSON
    features); each pair appears at most once.
    Pairs absent from the file are unreachable (+inf).
    """
    d_index = {s.id: i for i, s in enumerate(demand)}
    s_index = {s.id: j for j, s in enumerate(supply)}
    cost = np.full((len(d_index), len(s_index)), np.inf)
    filled = np.zeros_like(cost, dtype=bool)
    for row_num, row in _read_table(path, ("demand_id", "supply_id", "cost")):
        did, sid = row["demand_id"], row["supply_id"]
        if did not in d_index:
            raise UnknownId(f"row {row_num}: unknown demand id {did!r}")
        if sid not in s_index:
            raise UnknownId(f"row {row_num}: unknown supply id {sid!r}")
        i, j = d_index[did], s_index[sid]
        if filled[i, j]:
            raise DuplicatePair(f"row {row_num}: pair ({did!r}, {sid!r}) repeated")
        c = _parse_float(row["cost"], row_num, "cost")
        if math.isnan(c) or c < 0:
            raise NegativeCost(f"row {row_num}: cost {row['cost']!r} must be >= 0")
        cost[i, j] = c
        filled[i, j] = True
    return TravelMatrix(cost=cost, unit=unit)
