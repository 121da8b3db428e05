"""Global Moran's I and local (LISA) spatial autocorrelation statistics.

Significance is permutation-based: analytic normality is a poor fit at the
small unit counts these analyses run on, while permutation inference is
exact under a fixed seed. Every random draw comes from a stream derived
from (seed, index), so a run is reproducible from its seed alone. LISA's
neighbour samples are the draws of k ``Generator.integers`` calls per
unit, taken from one raw PCG64 block when NumPy would serve those calls
from it without a redraw (``_distinct_indices``), from the calls otherwise.

Both statistics require, and check, row-standardized weights. That
convention pins the global statistic to I = z'Wz / z'z and makes the
decomposition sum_i I_i = n * I exact.

``threads`` is the number of worker processes the permutations may use:
``_workers.split`` cuts LISA's units or Moran's permutations into contiguous
runs, computes the first here and each other in a ``_workers.run`` worker
that returns its run's array (Linux only, capped at the CPUs this process
may run on). Each unit's and permutation's stream is fixed by its index, so
the results are identical at any ``threads``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _workers
from .data_model import COORD_KINDS, _csv_text
from .errors import (
    InvalidStatArgument, KTooLarge, NonFiniteValue, NotRowStandardized, ZeroVariance, _finite,
    _integer, _real,
)
from .travel import _distance_rows

# The most permutations a statistic takes: p-values resolve to 1e-6 at most.
MAX_PERMUTATIONS = 10**6


@dataclass(frozen=True, eq=False)
class SpatialWeights:
    """Row-standardized neighbor structure in compressed sparse row (CSR) form.

    Row i's neighbors are ``indices[indptr[i]:indptr[i+1]]`` with weights
    ``data[indptr[i]:indptr[i+1]]``; every nonempty row's weights sum to 1,
    which the statistics check. A unit with an empty row (possible under a
    distance band) is ``isolated``; its spatial lag is zero. The arrays are
    checked to be well-formed CSR when the weights are made.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        indptr, indices = self.indptr, self.indices
        for name, array in (("indptr", indptr), ("indices", indices)):
            if not isinstance(array, np.ndarray) or array.ndim != 1 or array.dtype.kind not in "iu":
                raise InvalidStatArgument(f"weights {name} must be a 1-D integer array")
        if (len(indptr) == 0 or indptr[0] != 0 or (indptr[1:] < indptr[:-1]).any()
                or indptr[-1] != len(indices)):
            raise InvalidStatArgument("weights indptr must start at 0, never decrease and "
                                      f"end at the {len(indices)} indices")
        if len(indices) and not 0 <= indices.min() <= indices.max() < self.n:
            raise InvalidStatArgument(f"weights indices must lie in [0, {self.n})")
        if np.shape(self.data) != indices.shape:
            raise InvalidStatArgument(f"weights data must hold one weight per index: "
                                      f"{len(indices)}, got shape {np.shape(self.data)}")

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def isolated(self) -> tuple[int, ...]:
        """The units whose row is empty."""
        return tuple(np.flatnonzero(np.diff(self.indptr) == 0).tolist())

    @cached_property
    def _rows(self) -> np.ndarray:
        """The row of every stored weight, computed on first use."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def lag(self, v) -> np.ndarray:
        """Spatial lag sum_j w_ij v_j of every unit (0 for an empty row)."""
        return np.bincount(self._rows, weights=self.data * np.asarray(v)[self.indices],
                           minlength=self.n)


@dataclass(frozen=True, eq=False)
class MoranResult:
    """Global Moran's I with permutation inference.

    ``sim`` holds the permuted statistics; ``z_score`` is measured against
    their mean and standard deviation, and ``p_value`` is the two-sided
    pseudo p (count of permuted |I* - E| >= observed |I - E|, plus-one
    corrected).
    """

    i: float
    expected_i: float
    z_score: float
    p_value: float
    n_permutations: int
    seed: int
    sim: np.ndarray


@dataclass(frozen=True, eq=False)
class LisaResult:
    """Local Moran statistics: per-unit value, quadrant, and pseudo p."""

    local_i: np.ndarray
    quadrant: tuple[str, ...]
    p_value: np.ndarray
    n_permutations: int
    seed: int


def build_weights(locations, *, k: int | None = None, band: float | None = None,
                  coord_kind: str = "planar") -> SpatialWeights:
    """Construct row-standardized k-nearest-neighbor or distance-band weights.

    Parameters
    ----------
    locations : (n, 2) array-like
        Finite (lon, lat) degrees when ``coord_kind`` is geographic, (x, y)
        meters when planar.
    k : int, optional
        Neighbor count, 1 <= k < n. Distance ties break toward the smaller
        index so construction is deterministic.
    band : float, optional
        Radius in km; all units within it (self excluded) are neighbors.
        Units with an empty row are reported in ``isolated``.
    coord_kind : str
        ``"geographic"`` or ``"planar"``; anything else is an error.
    """
    pts = np.asarray(locations, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidStatArgument("locations must be an (n, 2) array")
    _finite(InvalidStatArgument, lambda: pts, "locations must be finite; found NaN or infinity")
    n = pts.shape[0]
    if n < 2:
        raise InvalidStatArgument("need at least 2 locations")
    if (k is None) == (band is None):
        raise InvalidStatArgument("give exactly one of k or band")
    if coord_kind not in (kinds := tuple(COORD_KINDS)):
        raise InvalidStatArgument(f"coord_kind must be one of {kinds}, got {coord_kind!r}")
    if k is not None and not 1 <= _integer(InvalidStatArgument, k, "k") < n:
        raise KTooLarge(f"knn needs 1 <= k < n, got k={k} with n={n}")
    # an infinite band would count each unit, whose own distance is set to inf, as a neighbor
    if band is not None:
        band = _real(InvalidStatArgument, band,
                     f"band radius must be positive and finite, got {band}")

    metric = COORD_KINDS[coord_kind].metric
    counts, neighbors = np.zeros(n, dtype=np.intp), []
    for lo, d in _distance_rows(pts, pts, metric):
        rows = np.arange(len(d))
        d[rows, lo + rows] = np.inf
        if k is None:
            r, c = np.nonzero(d <= band)
        else:
            # the k nearest, distance ties broken toward the smaller index: the
            # entries at or below the k-th distance, stably sorted, first k kept
            kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
            r, c = np.nonzero(d <= kth)
            order = np.lexsort((d[r, c], r))
            r, c = r[order], c[order]
            start = np.searchsorted(r, rows)
            keep = np.arange(len(r)) - start[r] < k
            r, c = r[keep], c[keep]
        counts[lo:lo + len(d)] = np.bincount(r, minlength=len(d))
        neighbors.append(c)
    return SpatialWeights(indptr=np.concatenate(([0], np.cumsum(counts))),
                          indices=np.concatenate(neighbors), data=1.0 / np.repeat(counts, counts))


def _validate_stat_inputs(values, weights: SpatialWeights, n_permutations: int, seed: int,
                          threads: int):
    """``(z, z @ z, n_permutations, seed)``: the centered values, their sum of
    squares and the two counts as ints, once every input is checked."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape[0] != weights.n:
        raise InvalidStatArgument(f"values must be a length-{weights.n} vector")
    _finite(NonFiniteValue, lambda: x, "values must be finite; found NaN or infinity")
    sums = weights.lag(np.ones(weights.n))  # a 1/k row misses 1 by at most k * 2**-53
    if not ((np.abs(sums - 1.0) <= 1e-9) | (np.diff(weights.indptr) == 0)).all():
        raise NotRowStandardized("statistics require every nonempty weights row to sum to 1")
    n_permutations = _integer(InvalidStatArgument, n_permutations, "n_permutations",
                              1, MAX_PERMUTATIONS)
    seed = _integer(InvalidStatArgument, seed, "seed", 0)
    _integer(InvalidStatArgument, threads, "threads", 1)
    too_large = "the values are too large: their mean or squared deviations overflow"
    z = _finite(NonFiniteValue, lambda: x - x.mean(), too_large)
    denom = float(_finite(NonFiniteValue, lambda: z @ z, too_large))
    if denom == 0.0:
        raise ZeroVariance("attribute is constant; autocorrelation undefined")
    return z, denom, n_permutations, seed


def morans_i(values, weights: SpatialWeights, n_permutations: int = 999,
             seed: int = 0, threads: int = 1) -> MoranResult:
    """Global Moran's I under row-standardized weights.

    I = sum_ij w_ij z_i z_j / sum_i z_i^2 with z the mean-centered attribute,
    computed as z . lag(z). Positive values indicate spatial clustering of
    similar values; the no-autocorrelation expectation is -1/(n-1). The
    p-value comes from ``n_permutations`` random relabelings of the
    attribute, each drawn from an RNG stream derived from (seed, permutation
    index). The permutations are split over up to ``threads`` worker
    processes; the result does not depend on how many.
    """
    z, denom, n_permutations, seed = _validate_stat_inputs(values, weights, n_permutations,
                                                           seed, threads)
    n = weights.n
    # NumPy imports numpy.random on first use: here, before the workers fork, not in each
    default_rng = np.random.default_rng

    def moran(zp):
        return zp @ weights.lag(zp) / denom

    def permuted(perms):
        return np.fromiter((moran(z[default_rng([seed, p]).permutation(n)])
                            for p in perms), float, len(perms))

    # the observed I, then the I of each permutation
    stats = _finite(NonFiniteValue, lambda: np.concatenate(
        ([moran(z)], *_workers.split(permuted, range(n_permutations), threads))),
        "Moran's I overflows for these values; they are too large")
    observed, sim = float(stats[0]), stats[1:]
    expected = -1.0 / (n - 1)
    count = int(np.count_nonzero(np.abs(sim - expected) >= abs(observed - expected)))
    p_value = (count + 1) / (n_permutations + 1)
    spread = sim.std(ddof=1) if n_permutations > 1 else 0.0
    z_score = (observed - sim.mean()) / spread if spread > 0 else float("nan")
    return MoranResult(
        i=observed, expected_i=expected, z_score=float(z_score), p_value=p_value,
        n_permutations=n_permutations, seed=seed, sim=sim,
    )


def _lemire_draws(bit_generator, low: int, high: int, rows: int) -> np.ndarray | None:
    """``rng.integers(0, h, size=rows)`` for each bound h = low .. high in
    turn, as rows of one array drawn from one raw block, or None with the
    generator untouched.

    For a bound 2 <= h < 2**32 NumPy takes a 32-bit half-word x of PCG64's
    output, low half first, and returns the high 32 bits of x * h (Lemire's
    method), redrawing x when the product's low 32 bits are below
    (2**32 - h) % h. The block gives the same draws whenever no half-word
    is redrawn. It gives None, having restored the generator's state, when
    one would be, and leaves the generator alone for any other bit
    generator, a carried half-word, or a bound NumPy serves otherwise (1
    draws nothing, >= 2**32 draws 64 bits or a bare half-word).
    """
    if type(bit_generator) is not np.random.PCG64 or not 2 <= low <= high < 2**32:
        return None
    state = bit_generator.state
    if state["has_uint32"]:
        return None
    bounds = np.arange(low, high + 1, dtype=np.uint64)
    size = len(bounds) * rows
    raw = bit_generator.random_raw(-(-size // 2)).astype("<u8", copy=False)
    out = raw.view("<u4")[:size].reshape(-1, rows).astype("<u8")
    out *= bounds[:, None]
    # each product's low 32 bits, without a copy
    if (out.view("<u4")[:, ::2].min(axis=1) < (2**32 - bounds) % bounds).any():
        bit_generator.state = state
        return None
    # as the calls leave it: the last word's high half kept, and the next
    # 32-bit draw if k * rows is odd
    bit_generator.state = {**bit_generator.state, "has_uint32": size % 2,
                           "uinteger": int(raw[-1] >> 32)}
    out >>= 32
    return out.view("<i8")


def _distinct_indices(rng, m: int, k: int, rows: int) -> np.ndarray:
    """(rows, k) matrix of distinct ints in [0, m) per row (Floyd sampling).

    Column j is ``rng.integers(0, m - k + j + 1, size=rows)``, taken for
    j = 0 .. k-1 in turn, with each draw already in an earlier column of its
    row replaced by m - k + j. A PCG64 generator serves the k calls from
    one ``random_raw`` block (``_lemire_draws``) and is left where the calls
    leave it; the code falls back to the k calls, with the same draws and
    state, for any other bit generator, a half-word carried over from an
    earlier draw, a bound of 1 or >= 2**32, or a half-word that NumPy
    would reject and redraw.
    """
    out = _lemire_draws(rng.bit_generator, m - k + 1, m, rows)
    if out is None:
        out = np.empty((k, rows), dtype=np.int64)
        for j in range(k):  # a scalar bound per call draws faster than one broadcast call
            out[j] = rng.integers(0, m - k + j + 1, size=rows)
    for j in range(1, k):
        out[j][(out[:j] == out[j]).any(axis=0)] = m - k + j
    # C order: a transposed view would make permuted, the gather and @ sum in another order
    return np.ascontiguousarray(out.T)


def lisa(values, weights: SpatialWeights, n_permutations: int = 999,
         seed: int = 0, threads: int = 1) -> LisaResult:
    """Local Moran statistics with conditional permutation inference.

    I_i = (z_i / m2) * lag(z)_i with m2 = sum z^2 / n. Each unit is
    classified HH/LL/HL/LH from the sign of its own centered value and of
    its spatial lag (first letter: own value; zero counts as low). For unit
    i's p-value, the remaining n-1 values are permuted onto its neighbor
    slots, weighted by row i of ``weights.data``; each unit draws from its
    own (seed, unit index) RNG stream, and the p-value is the
    plus-one-corrected two-sided count around the permuted sample mean,
    mirroring the global convention. The units are split over up to
    ``threads`` worker processes; the result does not depend on how many.
    """
    z, denom, n_permutations, seed = _validate_stat_inputs(values, weights, n_permutations,
                                                           seed, threads)
    n = weights.n
    m2 = denom / n
    lag = weights.lag(z)
    local = z / m2 * lag
    quadrant = tuple(
        ("H" if zi > 0 else "L") + ("H" if li > 0 else "L")
        for zi, li in zip(z, lag)
    )

    def p_values_of(units):
        out = np.empty(len(units))
        for slot, i in enumerate(units):
            lo, hi = int(weights.indptr[i]), int(weights.indptr[i + 1])
            rng = np.random.default_rng([seed, i])
            sample = _distinct_indices(rng, n - 1, hi - lo, n_permutations)
            rng.permuted(sample, axis=1, out=sample)
            # draws index the n-1 units other than i
            sim = z[i] / m2 * (np.delete(z, i)[sample] @ weights.data[lo:hi])
            center = sim.mean()
            count = np.count_nonzero(np.abs(sim - center) >= abs(local[i] - center))
            out[slot] = (count + 1) / (n_permutations + 1)
        return out

    # an isolated unit keeps p = 1
    p_values = np.ones(n)
    units = np.flatnonzero(np.diff(weights.indptr)).tolist()
    p_values[units] = _finite(
        NonFiniteValue, lambda: np.concatenate(_workers.split(p_values_of, units, threads)),
        "LISA overflows for these values; they are too large")
    return LisaResult(
        local_i=local, quadrant=quadrant, p_value=p_values,
        n_permutations=n_permutations, seed=seed,
    )


def moran_json_dict(result: MoranResult) -> dict:
    """Summary mapping with keys i, expected_i, z, p, permutations, seed."""
    z = result.z_score
    return {
        "i": result.i,
        "expected_i": result.expected_i,
        "z": z if np.isfinite(z) else None,
        "p": result.p_value,
        "permutations": result.n_permutations,
        "seed": result.seed,
    }


def lisa_csv_text(unit_ids, result: LisaResult) -> str:
    """LISA table as CSV ``unit_id,local_i,quadrant,p_value``."""
    return _csv_text(("unit_id", "local_i", "quadrant", "p_value"),
                     zip(unit_ids, result.local_i.tolist(), result.quadrant,
                         result.p_value.tolist()))
