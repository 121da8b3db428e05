"""Travel-cost matrices between demand and supply sites.

Costs are kilometers (great-circle or planar) or minutes (km divided by a
speed). Unreachable pairs are +inf; every decay function maps +inf to
weight 0, so infinity cleanly encodes "outside any catchment".
"""

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, _parse_float, _read_table
from .errors import (
    AccessKitError,
    DuplicatePair,
    MetricMismatch,
    NegativeCost,
    NonPositiveSpeed,
    UnknownId,
)

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


_OD_COLUMNS = ("demand_id", "supply_id", "cost")


def load_od_matrix(path, demand, supply, unit: str = "minutes") -> TravelMatrix:
    """Load a precomputed origin-destination cost table.

    Columns ``demand_id,supply_id,cost`` (CSV, or properties of GeoJSON
    features); each pair appears at most once.
    Pairs absent from the file are unreachable (+inf).

    Rows are read into flat indices ``i * len(supply) + j`` and costs;
    repeated pairs and NaN or negative costs are found with array checks
    once the rows are in. The error names the first defective row of the
    file, whatever its defect.
    """
    d_index = {s.id: i for i, s in enumerate(demand)}
    s_index = {s.id: j for j, s in enumerate(supply)}
    shape = (len(d_index), len(s_index))
    m = shape[1]
    pairs, costs = array("q"), array("d")
    add_pair, add_cost = pairs.append, costs.append
    try:
        for row_num, (did, sid, raw) in _read_table(path, _OD_COLUMNS):
            add_pair(d_index[did] * m + s_index[sid])
            if raw.__class__ is bool:  # float() would take a GeoJSON true as 1
                raise ValueError
            add_cost(float(raw))
    except (KeyError, TypeError, ValueError):
        del pairs[len(costs):]
        _cost_matrix(path, pairs, costs, shape)
        if did not in d_index:
            raise UnknownId(f"row {row_num}: unknown demand id {did!r}") from None
        if sid not in s_index:
            raise UnknownId(f"row {row_num}: unknown supply id {sid!r}") from None
        if d_index[did] * m + s_index[sid] in pairs:
            raise DuplicatePair(f"row {row_num}: pair ({did!r}, {sid!r}) repeated") from None
        _parse_float(raw, row_num, "cost")  # raises MalformedRow
        raise
    except AccessKitError:  # the reader's, from a row after those read
        _cost_matrix(path, pairs, costs, shape)
        raise
    cost = _cost_matrix(path, pairs, costs, shape)
    del pairs, costs  # before TravelMatrix takes its copy
    return TravelMatrix(cost=cost, unit=unit)


def _cost_matrix(path, pairs, costs, shape) -> np.ndarray:
    """The cost matrix of the rows read so far, each a flat pair index and a
    cost; raises for the first row that repeats a pair or has a NaN or
    negative cost."""
    flat = np.frombuffer(pairs, dtype=np.int64)
    cost = np.frombuffer(costs, dtype=float)
    filled = np.zeros(shape[0] * shape[1], dtype=bool)
    filled[flat] = True
    if np.count_nonzero(filled) < len(flat) or not (cost >= 0).all():
        order = np.argsort(flat, kind="stable")
        repeat = np.zeros(len(flat), dtype=bool)
        repeat[order[1:][flat[order[1:]] == flat[order[:-1]]]] = True
        first = np.flatnonzero(repeat | ~(cost >= 0))[0]
        # the message quotes the row's cells, so read up to that row again
        row_num, (did, sid, raw) = next(
            row for k, row in enumerate(_read_table(path, _OD_COLUMNS)) if k == first)
        if repeat[first]:
            raise DuplicatePair(f"row {row_num}: pair ({did!r}, {sid!r}) repeated") from None
        raise NegativeCost(f"row {row_num}: cost {raw!r} must be >= 0") from None
    matrix = np.full(shape, np.inf)
    matrix.reshape(-1)[flat] = cost
    return matrix
