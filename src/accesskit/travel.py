"""Travel-cost matrices between demand and supply sites.

Costs are kilometers (great-circle or planar) or minutes (km divided by a
speed). Unreachable pairs are +inf; every decay function maps +inf to
weight 0, so infinity cleanly encodes "outside any catchment".
"""

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .data_model import COORD_KINDS, Dataset, DemandTable, SupplyTable, _load_table, _parse_float
from .errors import DuplicatePair, NegativeCost, NonPositiveSpeed, UnknownId, _real

EARTH_RADIUS_KM = 6371.0

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

    def __post_init__(self):
        arr = np.asarray(self.cost, dtype=float)
        if arr.ndim != 2:
            raise ValueError("cost must be a 2-d matrix")
        _check_costs(arr)
        if arr.flags.writeable or not arr.flags.owndata:
            arr = arr.copy()
            arr.flags.writeable = False
        object.__setattr__(self, "cost", arr)

    def __iter__(self):
        """Yield ``(lo, rows)``: read-only views of the cost rows
        ``lo:lo + len(rows)``, in blocks of about ``BLOCK`` entries, as
        ``cost_rows`` yields computed costs."""
        step = _block_rows(self.cost.shape[1])
        for lo in range(0, len(self.cost), step):
            yield lo, self.cost[lo:lo + step]


def _check_costs(cost: np.ndarray) -> None:
    """NegativeCost unless every cost is nonnegative, finite or +inf."""
    if not (cost >= 0).all():  # NaN fails this test too
        if np.isnan(cost).any():
            raise NegativeCost("cost entries must be finite or +inf, not NaN")
        raise NegativeCost("cost entries must be nonnegative")


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


def cost_rows(dataset: Dataset, speed: float | None = None):
    """An iterator of ``(lo, rows)``: the travel costs from the demand
    sites ``lo:lo + len(rows)`` to every supply site, block after block.

    The distances are those of the metric ``data_model.COORD_KINDS`` gives
    the dataset's coordinate kind. The blocks hold about ``BLOCK`` entries
    each and cover the demand sites in order, so a consumer such as
    ``fca.Catchment`` holds one block of costs at a time instead of the
    whole matrix. The speed is checked when this is called, before any
    block is computed.

    Parameters
    ----------
    dataset : Dataset
        Source of demand and supply coordinates.
    speed : float, optional
        Km per minute, positive and finite. When given, costs are travel
        minutes (km / speed); otherwise they stay in km.
    """
    if speed is not None:
        speed = _real(NonPositiveSpeed, speed,
                      f"speed must be positive and finite km per minute, got {speed!r}")
    blocks = _distance_rows(dataset.demand.xy, dataset.supply.xy,
                            COORD_KINDS[dataset.coord_kind].metric)
    if speed is None:
        return blocks
    # in place; under a tiny speed a cost overflows to +inf, which is unreachable
    minutes = np.errstate(over="ignore")(lambda km: np.divide(km, speed, out=km))
    return ((lo, minutes(km)) for lo, km in blocks)


def build_travel_matrix(dataset: Dataset, speed: float | None = None) -> TravelMatrix:
    """The demand x supply cost matrix of ``cost_rows``, whose parameters it takes."""
    cost = _stacked(cost_rows(dataset, speed), (len(dataset.demand), len(dataset.supply)))
    cost.flags.writeable = False  # TravelMatrix takes it over without a copy
    return TravelMatrix(cost=cost)


_OD_COLUMNS = ("demand_id", "supply_id", "cost")


def load_od_matrix(path, demand, supply) -> TravelMatrix:
    """Load a precomputed origin-destination cost table.

    Columns ``demand_id,supply_id,cost`` (CSV, or properties of GeoJSON
    features); each pair appears at most once.
    Pairs absent from the file are unreachable (+inf).

    The table goes through ``data_model``'s one loading path: its rows are
    parsed into flat indices ``i * len(supply) + j`` and costs a block at a
    time, and repeated pairs and NaN or negative costs are found with array
    checks once the rows are in. On any defect the table is read again row
    by row, and the error names its first defective row.
    """
    d_index = {sid: i for i, sid in enumerate(DemandTable.of(demand).ids)}
    s_index = {sid: j for j, sid in enumerate(SupplyTable.of(supply).ids)}
    n, m = len(d_index), len(s_index)

    def parse(d_ids, s_ids, cells):
        flat = _indices(d_index, d_ids) * m + _indices(s_index, s_ids)
        return array("q", flat.tobytes()), map(float, cells)

    def build(flat, cost):  # TravelMatrix checks the costs
        filled = np.zeros(n * m, dtype=bool)
        filled[flat] = True
        if np.count_nonzero(filled) < len(flat):
            raise DuplicatePair("a pair repeats")
        del filled  # before the matrix is made
        matrix = np.full((n, m), np.inf)
        matrix.reshape(-1)[flat] = cost
        matrix.flags.writeable = False  # TravelMatrix takes it over without a copy
        return TravelMatrix(cost=matrix)

    pairs = None  # a byte per pair, set once a row holds it; made on the replay's first row

    def check_row(row_num, cells, seen):
        """A row, as a row-by-row reading checks it: its demand id is known,
        then its supply id, then its pair is new, then its cost parses and
        is >= 0."""
        nonlocal pairs
        did, sid, raw = cells
        at = []
        for site_id, index, label in ((did, d_index, "demand"), (sid, s_index, "supply")):
            try:
                at.append(index[site_id])
            except (KeyError, TypeError):  # TypeError: a GeoJSON list or object
                raise UnknownId(f"row {row_num}: unknown {label} id {site_id!r}") from None
        if pairs is None:
            pairs = bytearray(n * m)
        flat = at[0] * m + at[1]
        if pairs[flat]:
            raise DuplicatePair(f"row {row_num}: pair ({did!r}, {sid!r}) repeated")
        pairs[flat] = 1
        if not _parse_float(raw, row_num, "cost") >= 0:
            raise NegativeCost(f"row {row_num}: cost {raw!r} must be >= 0")

    return _load_table(path, _OD_COLUMNS, (array("q"), array("d")), parse, build, check_row)


def _indices(index, ids) -> np.ndarray:
    """The position of each of ``ids`` in ``index``; KeyError for an unknown one."""
    return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))
