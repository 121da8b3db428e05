"""Travel-cost matrices between demand and supply sites.

Costs are kilometers (great-circle or planar) or minutes (km divided by a
speed). Unreachable pairs are +inf; every decay function maps +inf to
weight 0, so infinity cleanly encodes "outside any catchment".
"""

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .data_model import (
    Dataset, DemandTable, SupplyTable, _parse_float, _read_plain, _read_table,
)
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

# Output entries per block of distance rows: a block's few temporaries take
# a bounded amount of memory whatever the size of the whole matrix.
BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class TravelMatrix:
    """Dense demand x supply cost matrix, immutable once built.

    A read-only float array that owns its data, such as a matrix built here
    and then locked, is taken over as it is; any other cost array is copied,
    so a change to the caller's array does not reach the matrix.
    """

    cost: np.ndarray
    unit: str = "km"

    def __post_init__(self):
        arr = np.asarray(self.cost, dtype=float)
        if arr.ndim != 2:
            raise ValueError("cost must be a 2-d matrix")
        _check_costs(arr)
        if self.unit not in COST_UNITS:
            raise ValueError(f"unit must be one of {COST_UNITS}")
        if arr.flags.writeable or not arr.flags.owndata:
            arr = arr.copy()
            arr.flags.writeable = False
        object.__setattr__(self, "cost", arr)

    @property
    def n_demand(self) -> int:
        return self.cost.shape[0]

    @property
    def n_supply(self) -> int:
        return self.cost.shape[1]

    def rows(self):
        """Yield ``(lo, rows)``: read-only views of the cost rows
        ``lo:lo + len(rows)``, in blocks of about ``BLOCK`` entries, as
        ``cost_rows`` yields computed costs."""
        step = _block_rows(self.n_supply)
        for lo in range(0, self.n_demand, step):
            yield lo, self.cost[lo:lo + step]


def _check_costs(cost: np.ndarray) -> None:
    """ValueError unless every cost is nonnegative, finite or +inf."""
    if not (cost >= 0).all():  # NaN fails this test too
        if np.isnan(cost).any():
            raise ValueError("cost entries must be finite or +inf, not NaN")
        raise ValueError("cost entries must be nonnegative")


def _block_rows(width: int) -> int:
    """Rows per block of a matrix ``width`` entries wide: about ``BLOCK``
    entries, at least one row."""
    return max(1, BLOCK // max(1, width))


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
    return _distance_matrix(a, b, "haversine")


def euclidean_matrix(a, b) -> np.ndarray:
    """Pairwise planar distance in km between (n, 2) arrays of (x, y) meters."""
    return _distance_matrix(a, b, "euclidean")


def _distance_matrix(a, b, metric: str) -> np.ndarray:
    return _stacked(_distance_rows(a, b, metric), (len(a), len(b)))


def _stacked(blocks, shape) -> np.ndarray:
    """The matrix of ``shape`` whose rows ``blocks`` yields as ``(lo, rows)``."""
    out = np.empty(shape)
    for lo, rows in blocks:
        out[lo:lo + len(rows)] = rows
    return out


def _distance_rows(a, b, metric: str):
    """Yield ``(lo, rows)``: the distances in km from a block of points
    ``a[lo:lo + len(rows)]`` to every point of ``b``, block after block.

    ``metric`` is "haversine" for (lon, lat) degrees or "euclidean" for
    (x, y) meters. A block holds about ``BLOCK`` entries, at least one
    row. Each entry is computed by the same expression, in the same order,
    as a whole-matrix evaluation would use, so the distances do not depend
    on the block size.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    step = _block_rows(len(b))
    if metric == "haversine":
        b = np.radians(b)
        lon2, lat2 = b[:, 0], b[:, 1]
        cos_lat2 = np.cos(lat2)
    else:
        x2, y2 = b[:, 0], b[:, 1]
    for lo in range(0, len(a), step):
        block = a[lo:lo + step]
        if metric == "haversine":
            block = np.radians(block)
            lon1, lat1 = block[:, 0:1], block[:, 1:2]
            # sin((lat2 - lat1) / 2) ** 2 + cos(lat1) cos(lat2) sin((lon2 - lon1) / 2) ** 2
            s = np.subtract(lat2, lat1)
            s /= 2
            np.sin(s, out=s)
            np.square(s, out=s)
            t = np.subtract(lon2, lon1)
            t /= 2
            np.sin(t, out=t)
            np.square(t, out=t)
            t *= np.cos(lat1) * cos_lat2
            s += t
            np.sqrt(s, out=s)
            np.arcsin(s, out=s)
            s *= EARTH_RADIUS_KM * 2
        else:
            # sqrt(dx * dx + dy * dy) / 1000
            s = np.subtract(block[:, 0:1], x2)
            np.square(s, out=s)
            t = np.subtract(block[:, 1:2], y2)
            np.square(t, out=t)
            s += t
            np.sqrt(s, out=s)
            s /= 1000.0
        yield lo, s


def cost_rows(dataset: Dataset, metric: str = "haversine", speed: float | None = None):
    """An iterator of ``(lo, rows)``: the travel costs from the demand
    sites ``lo:lo + len(rows)`` to every supply site, block after block.

    The blocks hold about ``BLOCK`` entries each and cover the demand sites
    in order, so a consumer such as ``fca.Catchment`` holds one block of
    costs at a time instead of the whole matrix. The metric and the speed
    are checked when this is called, before any block is computed.

    Parameters
    ----------
    dataset : Dataset
        Source of demand and supply coordinates.
    metric : {"haversine", "euclidean"}
        Must match the dataset's coordinate kind: haversine for geographic
        (degrees), euclidean for planar (meters).
    speed : float, optional
        Km per minute, positive and finite. When given, costs are travel
        minutes (km / speed); otherwise they stay in km.
    """
    if metric == "haversine":
        if dataset.coord_kind != "geographic":
            raise MetricMismatch("haversine requires geographic coordinates")
    elif metric == "euclidean":
        if dataset.coord_kind != "planar":
            raise MetricMismatch("euclidean requires planar coordinates")
    else:
        raise ValueError(f"unknown metric {metric!r}")
    if speed is not None and not 0 < speed < math.inf:  # NaN fails this test too
        raise NonPositiveSpeed(f"speed must be positive and finite km per minute, got {speed!r}")
    blocks = _distance_rows(dataset.demand.xy, dataset.supply.xy, metric)
    if speed is None:
        return blocks
    # in place; under a tiny speed a cost overflows to +inf, which is unreachable
    minutes = np.errstate(over="ignore")(lambda km: np.divide(km, speed, out=km))
    return ((lo, minutes(km)) for lo, km in blocks)


def build_travel_matrix(dataset: Dataset, metric: str = "haversine",
                        speed: float | None = None) -> TravelMatrix:
    """The demand x supply cost matrix of ``cost_rows``, whose parameters it
    takes; its unit is "minutes" when a speed is given, else "km"."""
    cost = _stacked(cost_rows(dataset, metric, speed), (len(dataset.demand), len(dataset.supply)))
    cost.flags.writeable = False  # TravelMatrix takes it over without a copy
    return TravelMatrix(cost=cost, unit="km" if speed is None else "minutes")


_OD_COLUMNS = ("demand_id", "supply_id", "cost")


def load_od_matrix(path, demand, supply, unit: str = "minutes") -> TravelMatrix:
    """Load a precomputed origin-destination cost table.

    Columns ``demand_id,supply_id,cost`` (CSV, or properties of GeoJSON
    features); each pair appears at most once.
    Pairs absent from the file are unreachable (+inf).

    Rows are read into flat indices ``i * len(supply) + j`` and costs;
    repeated pairs and NaN or negative costs are found with array checks
    once the rows are in. A plain CSV table is read in bulk, any other row
    by row. The error names the first defective row of the file, whatever
    its defect.
    """
    d_index = {sid: i for i, sid in enumerate(DemandTable.of(demand).ids)}
    s_index = {sid: j for j, sid in enumerate(SupplyTable.of(supply).ids)}
    shape = (len(d_index), len(s_index))
    pairs, costs = array("q"), array("d")

    def parse(d_ids, s_ids, cells):
        flat = _indices(d_index, d_ids) * shape[1] + _indices(s_index, s_ids)
        pairs.frombytes(flat.tobytes())
        costs.extend(map(float, cells))

    if not _read_plain(path, _OD_COLUMNS, parse):
        pairs, costs = _read_rows(path, d_index, s_index, shape)
    cost = _cost_matrix(path, pairs, costs, shape)
    cost.flags.writeable = False  # TravelMatrix takes it over without a copy
    return TravelMatrix(cost=cost, unit=unit)


def _indices(index, ids) -> np.ndarray:
    """The position of each of ``ids`` in ``index``; KeyError for an unknown one."""
    return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))


def _read_rows(path, d_index, s_index, shape):
    """The flat pair indices and the costs of an OD table read row by row,
    as arrays; the first defective row raises its error."""
    m = shape[1]
    pairs, costs = array("q"), array("d")
    add_pair, add_cost = pairs.append, costs.append
    try:
        for row_num, (did, sid, raw) in _read_table(path, _OD_COLUMNS):
            add_pair(d_index[did] * m + s_index[sid])
            add_cost(float(raw))
    except (KeyError, TypeError, ValueError, OverflowError):
        del pairs[len(costs):]
        _cost_matrix(path, pairs, costs, shape)
        if not _known(did, d_index):
            raise UnknownId(f"row {row_num}: unknown demand id {did!r}") from None
        if not _known(sid, s_index):
            raise UnknownId(f"row {row_num}: unknown supply id {sid!r}") from None
        if d_index[did] * m + s_index[sid] in pairs:
            raise DuplicatePair(f"row {row_num}: pair ({did!r}, {sid!r}) repeated") from None
        _parse_float(raw, row_num, "cost")  # raises MalformedRow
        raise
    except AccessKitError:  # the reader's, from a row after those read
        _cost_matrix(path, pairs, costs, shape)
        raise
    return pairs, costs


def _known(site_id, index) -> bool:
    """Whether an id is a key of ``index``; a GeoJSON list or object is not."""
    try:
        return site_id in index
    except TypeError:  # unhashable
        return False


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
