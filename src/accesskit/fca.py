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

from functools import cached_property

import numpy as np

from .data_model import Dataset, _csv_text
from .decay import DecaySpec, evaluate_decay
from .errors import DimensionMismatch, NonFiniteCapture, NonFiniteScore, WrongDecayKind, _finite
from .travel import _check_costs


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


class Catchment:
    """One method's run on one dataset: the one step 1 and step 2 that the
    library and the optimizer share.

    ``method`` is named as in ``FCA_METHODS`` and the config's ``method``:

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

    The decay is evaluated once. What is kept is the method, the dataset and
    the decay it applies, the demand each facility captures,
    sum_k D_k f(d_kj), and the step-2 assignment weights (f, or f*f for
    m2sfca), but not the travel costs. ``costs`` is any ``(lo, rows)``
    stream of cost blocks, ``travel.cost_rows`` or a travel matrix; each
    block is turned into weights as it comes, so the weights are the only
    N x M array built here. ``solve`` maps any capacity vector, the
    dataset's own ``capacity`` or a reallocated one, to ratios and scores.

    ``scores`` (A_i, resource units per person) and ``supply_ratios`` (R_j)
    are ``solve(dataset.supply.capacity)``, computed on first read and kept
    read-only, so NonFiniteScore is raised when they are first read, not
    here. A facility whose decay-weighted demand is zero sits outside
    everyone's catchment; it gets ratio 0 and its id is in ``warnings``.
    """

    def __init__(self, method: str, dataset: Dataset, costs, decay: DecaySpec):
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {FCA_METHODS}")
        rule, power = _METHODS[method]
        self.method, self.dataset, self.decay = method, dataset, rule(decay)
        n, m = len(dataset.demand), len(dataset.supply)
        weights = np.empty((n, m))
        covered = 0
        for lo, rows in costs:
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

    @cached_property
    def _at_capacity(self) -> tuple[np.ndarray, np.ndarray]:
        ratios, scores = self.solve(self.capacity)
        ratios.flags.writeable = scores.flags.writeable = False
        return ratios, scores

    @property
    def supply_ratios(self) -> np.ndarray:
        return self._at_capacity[0]

    @property
    def scores(self) -> np.ndarray:
        return self._at_capacity[1]

    @property
    def warnings(self) -> tuple[str, ...]:
        return tuple(self.dataset.supply.ids[j] for j in np.flatnonzero(~self.reached))


def scores_csv_text(catchment: Catchment, per_thousand: bool = False) -> str:
    """Scores as CSV ``demand_id,score``, optionally inflated 1000x."""
    scores = (catchment.scores * (1000.0 if per_thousand else 1.0)).tolist()
    return _csv_text(("demand_id", "score"), zip(catchment.dataset.demand.ids, scores))
