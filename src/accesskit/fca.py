"""Floating-catchment-area accessibility scores.

All variants share one two-step scheme. Step 1 gives each facility j a
supply-to-demand ratio

    R_j = S_j / sum_k D_k f(d_kj)

over the demand it can reach under the decay f. Step 2 sums the reachable
ratios at each demand site i:

    A_i = sum_j f(d_ij) R_j

Scores are resource units per person; multiply by 1000 for a
per-thousand-people reading. The variants differ only in f and in whether
the step-2 weight is applied once (g2sfca and its specializations) or
twice (m2sfca, which discounts for suboptimal facility configuration and
therefore captures at most the total supply).
"""

from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, _csv_text
from .decay import DecaySpec, evaluate_decay
from .errors import DimensionMismatch, NonFiniteCapture, NonFiniteScore, WrongDecayKind, _finite
from .travel import TravelMatrix, _check_costs


def _binary_at_d0(decay: DecaySpec) -> DecaySpec:
    return DecaySpec("binary", d0=decay.d0)


def _zonal_only(decay: DecaySpec) -> DecaySpec:
    if decay.kind != "zonal":
        raise WrongDecayKind(f"e2sfca requires zonal decay, got {decay.kind!r}")
    return decay


def _as_given(decay: DecaySpec) -> DecaySpec:
    return decay


# The only place a method name turns into computation: the rule that picks
# f from the configured decay, and how many times step 2 applies f.
_METHODS = {
    "two_sfca": (_binary_at_d0, 1),
    "e2sfca": (_zonal_only, 1),
    "g2sfca": (_as_given, 1),
    "m2sfca": (_as_given, 2),
}
FCA_METHODS = tuple(_METHODS)


@dataclass(frozen=True, eq=False)
class AccessibilityResult:
    """Per-demand scores A_i and per-supply ratios R_j for one method run."""

    method: str
    decay: DecaySpec
    scores: np.ndarray
    supply_ratios: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("scores", "supply_ratios"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


class Catchment:
    """The part of one method's run on one dataset that capacity does not change.

    The decay is evaluated once. What is kept is the method, the dataset and
    the decay it applies, the demand each facility captures,
    sum_k D_k f(d_kj), and the step-2 assignment weights (f, or f*f for
    m2sfca), but not the travel costs. ``costs`` is a ``TravelMatrix`` or the
    ``(lo, rows)`` cost blocks of ``travel.cost_rows``; either way each block
    is turned into weights as it comes, so the weights are the only N x M
    array built here. ``solve`` maps any capacity vector, the dataset's own
    ``capacity`` or a reallocated one, to ratios and scores, so the library
    and the optimizer share one step 1 and one step 2.
    """

    def __init__(self, method: str, dataset: Dataset, costs, decay: DecaySpec):
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {FCA_METHODS}")
        rule, power = _METHODS[method]
        self.method, self.dataset, self.decay = method, dataset, rule(decay)
        n, m = len(dataset.demand), len(dataset.supply)
        weights = np.empty((n, m))
        covered = 0
        for lo, rows in costs.rows() if isinstance(costs, TravelMatrix) else costs:
            rows = np.asarray(rows, dtype=float)
            if rows.ndim != 2 or rows.shape[1] != m or lo != covered or lo + len(rows) > n:
                raise DimensionMismatch(f"cost rows of shape {rows.shape} from row {lo} do not "
                                        f"continue rows 0..{covered} of a {n} x {m} dataset")
            _check_costs(rows)
            weights[lo:lo + len(rows)] = evaluate_decay(self.decay, rows)
            covered += len(rows)
        if covered != n:
            raise DimensionMismatch(f"cost rows cover {covered} demand sites, dataset has {n}")
        self.population = dataset.demand.population
        self.capacity = dataset.supply.capacity
        self.captured = _finite(NonFiniteCapture, lambda: self.population @ weights,
                                "supply {!r}: captured demand overflowed; populations "
                                "are too large", dataset.supply.ids)
        # a facility no demand reaches gets ratio 0 instead of a division by 0
        self.reached = self.captured > 0
        if power == 2:  # captured is computed; f becomes f*f in place
            np.multiply(weights, weights, out=weights)
        self.assign = weights

    def solve(self, capacity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Step-1 ratios R_j and step-2 scores A_i for capacities S_j.

        NonFiniteScore names the first facility whose ratio overflows, or
        else the first demand site whose score does.
        """
        ratios = _finite(NonFiniteScore, lambda: np.divide(
            capacity, self.captured, out=np.zeros_like(capacity), where=self.reached),
            "supply {!r}: supply-to-demand ratio overflowed; capacity is too large for "
            "its captured demand", self.dataset.supply.ids)
        scores = _finite(NonFiniteScore, lambda: self.assign @ ratios,
                         "demand {!r}: accessibility score overflowed; capacities are too "
                         "large for the demand they serve", self.dataset.demand.ids)
        return ratios, scores

    def accessibility(self) -> AccessibilityResult:
        """Ratios and scores at the dataset's own capacities.

        A facility whose decay-weighted demand is zero sits outside everyone's
        catchment; it gets ratio 0 and its id is reported as a warning.
        """
        ratios, scores = self.solve(self.capacity)
        zero_capture = tuple(self.dataset.supply.ids[j] for j in np.flatnonzero(~self.reached))
        return AccessibilityResult(
            method=self.method, decay=self.decay, scores=scores,
            supply_ratios=ratios, warnings=zero_capture,
        )


def compute_accessibility(method: str, dataset: Dataset, matrix: TravelMatrix,
                          decay: DecaySpec) -> AccessibilityResult:
    """Run one method, named as in ``FCA_METHODS`` and the config's ``method``.
    ``matrix`` may also be the ``(lo, rows)`` cost blocks of ``travel.cost_rows``,
    as ``Catchment`` takes them. See ``Catchment.accessibility``.

    g2sfca    A_i = sum_j f(d_ij) S_j / sum_k D_k f(d_kj) for any decay f; the
              binary, zonal and continuous variants are this with another f
    two_sfca  g2sfca with the binary decay at the given decay's d0, whatever
              its kind: weight 1 within d0, 0 beyond
    e2sfca    g2sfca with a zonal decay (zone weights conventionally from a
              Gaussian, see ``DecaySpec``); another kind is WrongDecayKind
    m2sfca    A_i = sum_j f(d_ij)^2 S_j / sum_k D_k f(d_kj): the weight applies
              again on assignment, so the captured total sum_i D_i A_i falls
              short of the total supply unless every active weight is 1; the
              gap measures how far the layout is from an ideal configuration
    """
    return Catchment(method, dataset, matrix, decay).accessibility()


def scores_csv_text(result: AccessibilityResult, dataset: Dataset,
                    per_thousand: bool = False) -> str:
    """Scores as CSV ``demand_id,score``, optionally inflated 1000x."""
    scores = (result.scores * (1000.0 if per_thousand else 1.0)).tolist()
    return _csv_text(("demand_id", "score"), zip(dataset.demand.ids, scores))
