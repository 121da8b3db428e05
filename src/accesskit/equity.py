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

from dataclasses import dataclass, replace

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
    _finite,
    _real,
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


def classify(value: float, epsilon: float = 0.05) -> str:
    """Equity class for one agglomeration value.

    Exact parity never occurs on real-valued data, so a tolerance band
    around 1 stands in for "equal": within epsilon is equal, above it
    relatively fair (resource-rich), below it unfair. Raises InvalidEpsilon
    for an epsilon that is negative, infinite, NaN or not a real number.
    """
    epsilon = _real(InvalidEpsilon, epsilon, f"epsilon must be finite and >= 0, got {epsilon!r}",
                    closed=True)
    if abs(value - 1.0) <= epsilon:
        return "equal"
    return "relatively_fair" if value > 1.0 else "unfair"


def hrad(regions, epsilon: float = 0.05) -> HradResult:
    """Resource agglomeration degree for each region.

    A region with zero resource gets degree 0 (maximally unfair). Raises
    ZeroTotalResource when no region holds any resource, InvalidEpsilon for
    an epsilon ``classify`` rejects, NonFiniteTotal when a total or a degree
    (naming its region) is not finite.
    """
    epsilon = _real(InvalidEpsilon, epsilon, f"epsilon must be finite and >= 0, got {epsilon!r}",
                    closed=True)
    regions = list(regions)
    if not regions:
        raise EmptyInput("need at least one region")
    resource = np.array([r.resource for r in regions], dtype=float)
    area = np.array([r.area_km2 for r in regions], dtype=float)
    total_resource = _finite(NonFiniteTotal, resource.sum, "the resource total overflows")
    if total_resource <= 0:
        raise ZeroTotalResource("all regions have zero resource")
    total_area = _finite(NonFiniteTotal, area.sum, "the area total overflows")
    degrees = _finite(NonFiniteTotal, lambda: resource / area / (total_resource / total_area),
                      "region {!r}: its resource agglomeration degree is not finite",
                      [r.id for r in regions])
    records = tuple(
        RegionEquity(region_id=r.id, hrad=float(h), classification=classify(float(h), epsilon))
        for r, h in zip(regions, degrees)
    )
    return HradResult(records=records, epsilon=epsilon)


def hrad_vs_population(regions, epsilon: float = 0.05) -> HradResult:
    """Agglomeration degrees with the population comparator attached.

    pad_i = (Pop_i/Pop_n)/(A_i/A_n); the ratio hrad_i/pad_i is None for an
    uninhabited region (population 0), where the comparison is undefined. A
    pad or ratio that is not finite is NonFiniteTotal, as in ``hrad``; so is
    the ratio of an inhabited region whose pad underflows to 0.
    """
    regions = list(regions)
    base = hrad(regions, epsilon)
    missing = [r.id for r in regions if r.population is None]
    if missing:
        raise MissingPopulation(f"regions lack population: {missing}")
    population = np.array([r.population for r in regions], dtype=float)
    area = np.array([r.area_km2 for r in regions], dtype=float)
    total_pop = _finite(NonFiniteTotal, population.sum, "the population total overflows")
    if total_pop <= 0:
        raise ZeroTotalPopulation("total population is zero")
    ids = [r.id for r in regions]
    pad = _finite(NonFiniteTotal, lambda: population / area / (total_pop / area.sum()),
                  "region {!r}: its population agglomeration degree is not finite", ids)
    # an inhabited region's pad may underflow to 0; its ratio is then not finite
    inhabited = population > 0
    ratios = _finite(NonFiniteTotal, lambda: np.divide(
        [rec.hrad for rec in base.records], pad, out=np.zeros_like(pad), where=inhabited),
        "region {!r}: its hrad/pad ratio is not finite", ids)
    return replace(base, records=tuple(
        replace(rec, pad=float(p), hrad_over_pad=float(ratio) if lived_in else None)
        for rec, p, ratio, lived_in in zip(base.records, pad, ratios, inhabited)))


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
    # a matrix's columns are taken as the rows of its transpose, so sorts,
    # sums and cumulative sums run along contiguous memory; tied values may
    # take any order in a column: that changes only the rounding of the
    # Lorenz area, and the default sort is the faster
    if v.ndim == 2:
        v = np.ascontiguousarray(v.T)
    order = np.argsort(v, axis=-1, kind="stable" if v.ndim == 1 else None)
    w = w[order]
    if v.ndim == 2:  # flat indices into the transpose
        order += np.arange(0, v.size, v.shape[1])[:, None]
    v = v.take(order)
    # the weight total and the sorted dot product, a matrix's column by
    # column; positive weights carry a NaN or infinite value into the latter
    w_total, total = _finite(NonFiniteTotal, lambda: (
        w.sum(axis=-1), w @ v if v.ndim == 1 else (w * v).sum(axis=-1)),
        "values, their weight total and weighted total must be finite")
    if (total <= 0).any():
        raise AllZeroValues("every weighted value is zero")
    # the Lorenz curve from (0, 0), built in place: a large temporary costs
    # more in fresh pages than in arithmetic
    cum_pop, cum_val = np.zeros((2, *v.shape[:-1], v.shape[-1] + 1))
    np.cumsum(w, axis=-1, out=cum_pop[..., 1:])
    np.multiply(w, v, out=cum_val[..., 1:])
    np.cumsum(cum_val[..., 1:], axis=-1, out=cum_val[..., 1:])
    cum_pop /= w_total[..., None]
    cum_val /= total[..., None]
    # area under the Lorenz curve, trapezoid rule
    heights = cum_val[..., 1:] + cum_val[..., :-1]
    heights *= np.diff(cum_pop, axis=-1)
    under = heights.sum(axis=-1) / 2.0
    g = 1.0 - 2.0 * under
    return float(g) if v.ndim == 1 else g


def hrad_csv_text(result: HradResult) -> str:
    """Equity table as CSV; pad columns appear when the comparator was run."""
    header = ("region_id", "hrad", "classification", "pad", "hrad_over_pad")
    if all(rec.pad is None for rec in result.records):
        header = header[:3]
    return _csv_text(header, ((rec.region_id, rec.hrad, rec.classification, rec.pad,
                               rec.hrad_over_pad)[:len(header)] for rec in result.records))
