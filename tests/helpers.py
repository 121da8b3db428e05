"""Shared builders and independent oracles for the test suite.

The oracles here are deliberately plain-Python double loops with their own
scalar decay evaluation, so they share no code path with the vectorized
production implementations they check.
"""

import math
import os
import tracemalloc

import numpy as np
import pytest

from accesskit import travel
from accesskit.data_model import Dataset, DemandSite, SupplySite
from accesskit.decay import DecaySpec
from accesskit.travel import TravelMatrix

# worker processes are forked on Linux only; elsewhere ``threads`` runs in one process
needs_fork = pytest.mark.skipif(not hasattr(os, "fork") or os.uname().sysname != "Linux",
                                reason="worker processes run on Linux only")


def planar_dataset(demand_xy, populations, supply_xy, capacities):
    """Build a planar dataset from coordinate/value lists (meters)."""
    demand = tuple(
        DemandSite(f"d{i}", float(x), float(y), float(p))
        for i, ((x, y), p) in enumerate(zip(demand_xy, populations))
    )
    supply = tuple(
        SupplySite(f"h{j}", float(x), float(y), float(c))
        for j, ((x, y), c) in enumerate(zip(supply_xy, capacities))
    )
    return Dataset(demand=demand, supply=supply, coord_kind="planar")


def dataset_with_matrix(demand_pop, supply_cap, cost):
    """Dataset plus an explicit cost matrix; coordinates are placeholders."""
    demand = tuple(
        DemandSite(f"d{i}", float(i), 0.0, float(p)) for i, p in enumerate(demand_pop)
    )
    supply = tuple(
        SupplySite(f"h{j}", float(j), 1.0, float(c)) for j, c in enumerate(supply_cap)
    )
    ds = Dataset(demand=demand, supply=supply, coord_kind="planar")
    return ds, TravelMatrix(cost=np.asarray(cost, dtype=float))


def distance_matrix(a, b, metric):
    """Pairwise km between two (n, 2) arrays: (lon, lat) degrees under
    "haversine", (x, y) meters under "euclidean"; travel's blocks of distance
    rows stacked into one matrix."""
    return travel._stacked(travel._distance_rows(a, b, metric), (len(a), len(b)))


def dense(weights):
    """The n x n matrix of CSR spatial ``weights``, 0 where none is stored."""
    matrix = np.zeros((weights.n, weights.n))
    rows = np.repeat(np.arange(weights.n), np.diff(weights.indptr))
    matrix[rows, weights.indices] = weights.data
    return matrix


def random_decay(rng, d_max, kinds=("binary", "gaussian", "zonal")):
    """A valid random decay spec with cutoff at or beyond d_max."""
    kind = kinds[rng.integers(0, len(kinds))]
    d0 = float(d_max * rng.uniform(1.0, 1.5) + 1e-9)
    if kind == "binary":
        return DecaySpec("binary", d0)
    if kind == "gaussian":
        return DecaySpec("gaussian", d0, beta=float(rng.uniform(0.2, 4.0) * d0 * d0))
    if kind == "exponential":
        return DecaySpec("exponential", d0, beta=float(rng.uniform(0.2, 2.0) * d0))
    n_zones = int(rng.integers(1, 4))
    breaks = np.sort(rng.uniform(0.1 * d0, d0, size=n_zones - 1)) if n_zones > 1 else []
    zones = tuple(list(breaks) + [d0])
    weights = tuple(sorted(rng.uniform(0.05, 1.0, size=n_zones), reverse=True))
    if len(set(weights)) < len(weights):  # ties would violate strict decrease
        weights = tuple(1.0 / (i + 1) for i in range(n_zones))
    w = list(weights)
    w[0] = 1.0
    if len(w) > 1 and w[1] >= 1.0:
        w[1] = 0.5
    return DecaySpec("zonal", zones=zones, weights=tuple(w))


def random_instance(rng, max_demand=20, max_supply=6, all_reachable=True,
                    kinds=("binary", "gaussian", "zonal"), allow_zero_pop=True):
    """Random planar dataset, euclidean matrix, and decay spec."""
    n_d = int(rng.integers(1, max_demand + 1))
    n_s = int(rng.integers(1, max_supply + 1))
    side = 20_000.0  # meters
    demand_xy = rng.uniform(0, side, size=(n_d, 2))
    supply_xy = rng.uniform(0, side, size=(n_s, 2))
    populations = rng.uniform(0, 2000, size=n_d)
    if allow_zero_pop and n_d > 2:
        populations[rng.integers(0, n_d)] = 0.0
    populations[rng.integers(0, n_d)] += 1.0  # at least one positive
    capacities = rng.uniform(1, 500, size=n_s)
    ds = planar_dataset(demand_xy, populations, supply_xy, capacities)
    diff = demand_xy[:, None, :] - supply_xy[None, :, :]
    km = np.sqrt((diff * diff).sum(axis=2)) / 1000.0
    matrix = TravelMatrix(cost=km)
    d_max = float(km.max())
    if all_reachable:
        decay = random_decay(rng, d_max, kinds=kinds)
    else:
        decay = random_decay(rng, d_max * rng.uniform(0.2, 0.8), kinds=kinds)
    return ds, matrix, decay


# --- independent oracles ----------------------------------------------------

def oracle_decay(spec: DecaySpec, d: float) -> float:
    """Scalar decay evaluation sharing no code with the production path."""
    if d > spec.d0:
        return 0.0
    if spec.kind == "binary":
        return 1.0
    if spec.kind == "gaussian":
        return math.exp(-(d * d) / spec.beta)
    if spec.kind == "exponential":
        return math.exp(-d / spec.beta)
    if spec.kind == "power":
        return 1.0 if d == 0 else min(1.0, d ** (-spec.beta))
    for b, w in zip(spec.zones, spec.weights):
        if d <= b:
            return w
    return 0.0


def oracle_g2sfca(populations, capacities, cost, spec, squared=False):
    """Direct double-loop evaluation of the two-step accessibility sum."""
    n, m = len(populations), len(capacities)
    ratios = []
    for j in range(m):
        denom = sum(populations[k] * oracle_decay(spec, cost[k][j]) for k in range(n))
        ratios.append(capacities[j] / denom if denom > 0 else 0.0)
    scores = []
    for i in range(n):
        total = 0.0
        for j in range(m):
            w = oracle_decay(spec, cost[i][j])
            if squared:
                w = w * w
            total += w * ratios[j]
        scores.append(total)
    return scores, ratios


def oracle_moran(values, dense_w):
    """Textbook Moran's I with row-standardized weights (n/S0 = 1 form)."""
    x = np.asarray(values, dtype=float)
    z = x - x.mean()
    num = 0.0
    for i in range(len(x)):
        for j in range(len(x)):
            num += dense_w[i][j] * z[i] * z[j]
    return num / float(z @ z)


def traced_peak(fn):
    """Peak bytes tracemalloc sees while ``fn()`` runs, its result still held."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_instance(n=1000, m=300, seed=0):
    """An n x m instance with unit populations and capacities, costs drawn in
    [0, 50) and a Gaussian decay with d0 = 32, so about 64 % of the pairs
    fall within the cutoff."""
    cost = np.random.default_rng(seed).uniform(0, 50, (n, m))
    return (*dataset_with_matrix(np.ones(n), np.ones(m), cost),
            DecaySpec("gaussian", 32.0, 180.0))
