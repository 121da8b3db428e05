"""Resource-agglomeration equity evaluation and inequality indices.

A region's agglomeration degree compares its resource density to the
whole study area's:

    agglomeration_i = (HR_i / A_i) / (HR_n / A_n)

where HR_n and A_n are totals over all regions. A value of 1 means the
region holds resources exactly in proportion to its land area; above 1 is
relatively resource-rich, below 1 under-served. The same ratio computed on
population (the population agglomeration degree) serves as a demographic
comparator: agglomeration/pad >= 1 reads as resources keeping pace with
where people actually concentrate.
"""

from dataclasses import dataclass

import numpy as np

from .data_model import _csv_text
from .errors import (
    AllZeroValues,
    EmptyInput,
    InvalidEpsilon,
    MissingPopulation,
    NonFiniteTotal,
    ZeroTotalPopulation,
    ZeroTotalResource,
)

CLASSIFICATIONS = ("equal", "relatively_fair", "unfair", "undefined")


@dataclass(frozen=True, slots=True)
class RegionEquity:
    region_id: str
    hrad: float
    classification: str
    pad: float | None = None
    hrad_over_pad: float | None = None


@dataclass(frozen=True)
class HradResult:
    records: tuple[RegionEquity, ...]
    epsilon: float

    def by_class(self) -> dict:
        counts = {c: 0 for c in CLASSIFICATIONS}
        for rec in self.records:
            counts[rec.classification] += 1
        return counts


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon < float("inf"):  # NaN fails this test too
        raise InvalidEpsilon(f"epsilon must be finite and >= 0, got {epsilon!r}")


def classify(value: float, epsilon: float = 0.05) -> str:
    """Equity class for one agglomeration value.

    Exact parity never occurs on real-valued data, so a tolerance band
    around 1 stands in for "equal": within epsilon is equal, above it
    relatively fair (resource-rich), below it unfair. Raises InvalidEpsilon
    for a negative, infinite or NaN epsilon.
    """
    _check_epsilon(epsilon)
    if abs(value - 1.0) <= epsilon:
        return "equal"
    return "relatively_fair" if value > 1.0 else "unfair"


def hrad(regions, epsilon: float = 0.05) -> HradResult:
    """Resource agglomeration degree for each region.

    A region with zero resource gets degree 0 (maximally unfair). Raises
    ZeroTotalResource when no region holds any resource, InvalidEpsilon for
    an epsilon ``classify`` rejects.
    """
    _check_epsilon(epsilon)
    regions = list(regions)
    if not regions:
        raise EmptyInput("need at least one region")
    resource = np.array([r.resource for r in regions], dtype=float)
    area = np.array([r.area_km2 for r in regions], dtype=float)
    total_resource = resource.sum()
    if total_resource <= 0:
        raise ZeroTotalResource("all regions have zero resource")
    overall_density = total_resource / area.sum()
    degrees = resource / area / overall_density
    records = tuple(
        RegionEquity(region_id=r.id, hrad=float(h), classification=classify(float(h), epsilon))
        for r, h in zip(regions, degrees)
    )
    return HradResult(records=records, epsilon=epsilon)


def hrad_vs_population(regions, epsilon: float = 0.05) -> HradResult:
    """Agglomeration degrees with the population comparator attached.

    pad_i = (Pop_i/Pop_n)/(A_i/A_n); the ratio hrad_i/pad_i is None for an
    uninhabited region (pad 0), where the comparison is undefined.
    """
    regions = list(regions)
    base = hrad(regions, epsilon)
    missing = [r.id for r in regions if r.population is None]
    if missing:
        raise MissingPopulation(f"regions lack population: {missing}")
    population = np.array([r.population for r in regions], dtype=float)
    area = np.array([r.area_km2 for r in regions], dtype=float)
    total_pop = population.sum()
    if total_pop <= 0:
        raise ZeroTotalPopulation("total population is zero")
    pad = population / area / (total_pop / area.sum())
    records = tuple(
        RegionEquity(
            region_id=rec.region_id,
            hrad=rec.hrad,
            classification=rec.classification,
            pad=float(p),
            hrad_over_pad=float(rec.hrad / p) if p > 0 else None,
        )
        for rec, p in zip(base.records, pad)
    )
    return HradResult(records=records, epsilon=epsilon)


def gini(values, weights=None):
    """Weighted Gini coefficient of a nonnegative value distribution.

    Sorts by value and integrates the Lorenz curve with the trapezoid rule;
    ``weights`` default to equal. 0 is perfect equality; the supremum 1 is
    never attained on finite data. A vector gives a float. An n x k matrix
    gives the array of its k column coefficients under the same n weights,
    each taken down its column as for a vector; this is the only Gini
    implementation, for reported values and the optimizer's ranking alike.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2):
        raise ValueError("values must be a vector or a matrix")
    if v.size == 0:
        raise EmptyInput("values must be nonempty")
    w = np.ones(len(v)) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != v.shape[:1]:
        raise ValueError("weights must match values in length")
    if (v < 0).any() or (w <= 0).any():
        raise ValueError("values must be nonnegative and weights positive")
    # tied values may take any order in a matrix column: that changes only
    # the rounding of the Lorenz area, and the default sort is the faster
    order = np.argsort(v, axis=0, kind="stable" if v.ndim == 1 else None)
    v, w = np.take_along_axis(v, order, axis=0), w[order]
    with np.errstate(over="ignore"):
        w_total = w.sum(axis=0)
        # the sorted dot product; a matrix takes it column by column
        total = w @ v if v.ndim == 1 else (w * v).sum(axis=0)
    if not (np.isfinite(v).all() and np.isfinite(w_total).all() and np.isfinite(total).all()):
        raise NonFiniteTotal("values, their weight total and weighted total must be finite")
    if (total <= 0).any():
        raise AllZeroValues("every weighted value is zero")
    zero = np.zeros_like(v[:1])
    cum_pop = np.concatenate([zero, np.cumsum(w, axis=0)]) / w_total
    cum_val = np.concatenate([zero, np.cumsum(w * v, axis=0)]) / total
    # area under the Lorenz curve, trapezoid rule
    under = np.sum(np.diff(cum_pop, axis=0) * (cum_val[1:] + cum_val[:-1]), axis=0) / 2.0
    g = 1.0 - 2.0 * under
    return float(g) if v.ndim == 1 else g


def hrad_csv_text(result: HradResult) -> str:
    """Equity table as CSV; pad columns appear when the comparator was run."""
    header = ("region_id", "hrad", "classification", "pad", "hrad_over_pad")
    if all(rec.pad is None for rec in result.records):
        header = header[:3]
    return _csv_text(header, ((rec.region_id, rec.hrad, rec.classification, rec.pad,
                               rec.hrad_over_pad)[:len(header)] for rec in result.records))
