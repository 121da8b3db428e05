"""Independent NumPy re-computations that the output check compares against.

Nothing here imports ``accesskit``: a defect in the program must not be
able to reproduce itself in its own reference. Where the program's results
depend on seeded random draws, the draw protocol (one stream per
``(seed, index)``, as the README and ``spatial_stats`` promise) is part of
the program's contract and is re-implemented here, so permutation p-values
can be checked at any seed.
"""

import csv
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0


def haversine_km(a, b):
    """Pairwise great-circle km between (n, 2) and (m, 2) lon/lat arrays."""
    a = np.radians(np.asarray(a, dtype=float))
    b = np.radians(np.asarray(b, dtype=float))
    lon1, lat1 = a[:, :1], a[:, 1:]
    lon2, lat2 = b[:, 0][None, :], b[:, 1][None, :]
    s = (np.sin((lat2 - lat1) / 2) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2)
    return EARTH_RADIUS_KM * 2 * np.arcsin(np.sqrt(s))


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Inputs:
    """The generated files, parsed without the program's loaders."""

    config: dict
    demand_ids: list
    demand_xy: np.ndarray
    population: np.ndarray
    supply_ids: list
    capacity: np.ndarray
    regions: list
    cost: np.ndarray


def load_inputs(config: dict, directory) -> Inputs:
    demand = read_table(directory / config["demand"])
    supply = read_table(directory / config["supply"])
    d_xy = np.array([(float(r["lon"]), float(r["lat"])) for r in demand])
    s_xy = np.array([(float(r["lon"]), float(r["lat"])) for r in supply])
    d_ids = [r["id"] for r in demand]
    s_ids = [r["id"] for r in supply]
    if config.get("od_matrix"):
        d_index = {d: i for i, d in enumerate(d_ids)}
        s_index = {s: j for j, s in enumerate(s_ids)}
        cost = np.full((len(d_ids), len(s_ids)), np.inf)
        for r in read_table(directory / config["od_matrix"]):
            cost[d_index[r["demand_id"]], s_index[r["supply_id"]]] = float(r["cost"])
    else:
        cost = haversine_km(d_xy, s_xy) / config["speed_km_per_min"]
    return Inputs(
        config=config, demand_ids=d_ids, demand_xy=d_xy,
        population=np.array([float(r["population"]) for r in demand]),
        supply_ids=s_ids,
        capacity=np.array([float(r["capacity"]) for r in supply]),
        regions=read_table(directory / config["regions"]), cost=cost,
    )


# --- accessibility ----------------------------------------------------------

def gaussian_weights(cost, decay: dict) -> np.ndarray:
    w = np.zeros_like(cost)
    within = cost <= decay["d0"]
    w[within] = np.exp(-cost[within] ** 2 / decay["beta"])
    return w


@dataclass
class Access:
    assign: np.ndarray    # step-2 weights: f(d_ij), or f^2 for m2sfca
    captured: np.ndarray  # step-1 denominators
    scores: np.ndarray


def accessibility(inp: Inputs) -> Access:
    w = gaussian_weights(inp.cost, inp.config["decay"])
    captured = inp.population @ w
    ratios = np.where(captured > 0, inp.capacity / np.where(captured > 0, captured, 1), 0)
    assign = w * w if inp.config["method"] == "m2sfca" else w
    return Access(assign, captured, assign @ ratios)


# --- spatial weights and permutation statistics -----------------------------

def neighbours(xy, weights_cfg: dict) -> list:
    """Neighbour index arrays per unit: kNN with ties to the smaller index,
    or every other unit within the band (km)."""
    dist = haversine_km(xy, xy)
    np.fill_diagonal(dist, np.inf)
    if weights_cfg["scheme"] == "knn":
        order = np.argsort(dist, axis=1, kind="stable")[:, :weights_cfg["k"]]
        return list(order)
    return [np.flatnonzero(row <= weights_cfg["band"]) for row in dist]


def _padded(rows, n):
    """Rows padded to equal length with index n (a zero slot), plus the
    row-standardized weights with 0 in the padding."""
    width = max(1, max(len(r) for r in rows))
    idx = np.full((len(rows), width), n)
    wts = np.zeros((len(rows), width))
    for i, r in enumerate(rows):
        idx[i, :len(r)] = r
        if len(r):
            wts[i, :len(r)] = 1.0 / len(r)
    return idx, wts


def spatial_lag(z, rows):
    idx, wts = _padded(rows, len(z))
    return (np.append(z, 0.0)[idx] * wts).sum(axis=1)


def _count_range(dev, threshold):
    """Counts of dev >= threshold, widened by a relative float tolerance so
    that last-digit drift at the boundary cannot flip the verdict."""
    eps = 1e-9 * max(abs(threshold), 1e-300)
    return int(np.count_nonzero(dev >= threshold + eps)), int(np.count_nonzero(dev >= threshold - eps))


@dataclass
class Moran:
    i: float
    expected: float
    z_score: float
    count_range: tuple  # admissible permutation counts behind the p-value


def moran(values, rows, n_perm: int, seed: int, chunk: int = 32) -> Moran:
    z = values - values.mean()
    n = len(z)
    denom = float(z @ z)
    observed = float(z @ spatial_lag(z, rows)) / denom
    expected = -1.0 / (n - 1)
    idx, wts = _padded(rows, n)
    sim = np.empty(n_perm)
    for start in range(0, n_perm, chunk):
        ps = range(start, min(start + chunk, n_perm))
        zp = np.stack([z[np.random.default_rng([seed, p]).permutation(n)] for p in ps])
        zp_ext = np.concatenate([zp, np.zeros((len(ps), 1))], axis=1)
        lag = (zp_ext[:, idx] * wts).sum(axis=2)
        sim[start:start + len(ps)] = (zp * lag).sum(axis=1) / denom
    spread = sim.std(ddof=1)
    return Moran(observed, expected, float((observed - sim.mean()) / spread),
                 _count_range(np.abs(sim - expected), abs(observed - expected)))


def distinct_indices(rng, m: int, k: int, rows: int) -> np.ndarray:
    """(rows, k) distinct ints in [0, m) per row, by Floyd's method, in the
    draw order the program's contract fixes."""
    out = np.empty((rows, k), dtype=np.int64)
    for j, t in enumerate(range(m - k, m)):
        r = rng.integers(0, t + 1, size=rows)
        if j:
            r[(out[:, :j] == r[:, None]).any(axis=1)] = t
        out[:, j] = r
    return out


@dataclass
class Lisa:
    local_i: np.ndarray
    quadrant: list
    count_ranges: dict  # unit -> admissible permutation counts


def lisa(values, rows, n_perm: int, seed: int, units) -> Lisa:
    """Local Moran; p-value counts are recomputed for ``units`` only."""
    z = values - values.mean()
    n = len(z)
    m2 = float(z @ z) / n
    lag = spatial_lag(z, rows)
    local = z / m2 * lag
    quadrant = [("H" if a > 0 else "L") + ("H" if b > 0 else "L") for a, b in zip(z, lag)]
    counts = {}
    for i in units:
        k = len(rows[i])
        if not k:
            counts[i] = (n_perm, n_perm)  # p = 1 for an empty row
            continue
        rng = np.random.default_rng([seed, i])
        sample = rng.permuted(distinct_indices(rng, n - 1, k, n_perm), axis=1)
        sim = z[i] / m2 * (np.delete(z, i)[sample] @ np.full(k, 1.0 / k))
        center = sim.mean()
        counts[i] = _count_range(np.abs(sim - center), abs(local[i] - center))
    return Lisa(local, quadrant, counts)


# --- equity and allocation ---------------------------------------------------

def hrad(regions, epsilon: float = 0.05):
    """Agglomeration degree and class per region."""
    resource = np.array([float(r["resource"]) for r in regions])
    area = np.array([float(r["area_km2"]) for r in regions])
    degree = resource / area / (resource.sum() / area.sum())
    classes = ["equal" if abs(h - 1) <= epsilon else "relatively_fair" if h > 1 else "unfair"
               for h in degree]
    return degree, classes


def weighted_gini(values, weights) -> np.ndarray:
    """Population-weighted Gini of each column of ``values`` (Lorenz curve,
    trapezoid rule)."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        return weighted_gini(values[:, None], weights)[0]
    order = np.argsort(values, axis=0, kind="stable")
    v = np.take_along_axis(values, order, axis=0)
    w = weights[order]
    cum_pop = np.cumsum(w, axis=0) / weights.sum()
    cum_val = np.cumsum(w * v, axis=0)
    cum_val = cum_val / cum_val[-1]
    prev_pop = np.vstack([np.zeros((1, v.shape[1])), cum_pop[:-1]])
    prev_val = np.vstack([np.zeros((1, v.shape[1])), cum_val[:-1]])
    return 1.0 - ((cum_pop - prev_pop) * (cum_val + prev_val)).sum(axis=0)


class Objective:
    """Objective values of an allocation, and of every single-unit move."""

    def __init__(self, inp: Inputs, access: Access):
        cfg = inp.config
        self.kind = cfg["objective"]
        self.unit = float(cfg["unit_size"])
        self.assign = access.assign
        reached = access.captured > 0
        # score change per added unit at each facility; 0 where unreached
        self.per_unit = np.where(reached, self.unit / np.where(reached, access.captured, 1), 0)
        self.capacity = inp.capacity
        self.captured = access.captured
        self.mask = inp.population > 0
        self.pop = inp.population[self.mask]

    def scores(self, units):
        cap = self.capacity + np.asarray(units) * self.unit
        ratios = np.where(self.captured > 0, cap / np.where(self.captured > 0, self.captured, 1), 0)
        return self.assign @ ratios

    def value(self, scores):
        if self.kind == "max_min_access":
            return scores.min(axis=0)
        if self.kind == "min_weighted_gini":
            return weighted_gini(scores[self.mask], self.pop)
        return scores.var(axis=0)

    def better(self, a, b):
        return a > b if self.kind == "max_min_access" else a < b

    def best_move(self, units):
        """Best objective over all moves of one unit from a funded facility
        to any other facility."""
        base = self.scores(units)
        cols = self.assign * self.per_unit
        best = None
        for donor in np.flatnonzero(np.asarray(units) > 0):
            moved = (base - cols[:, donor])[:, None] + cols
            moved = np.delete(moved, donor, axis=1)
            values = self.value(moved)
            pick = values.max() if self.kind == "max_min_access" else values.min()
            if best is None or self.better(pick, best):
                best = pick
        return best
