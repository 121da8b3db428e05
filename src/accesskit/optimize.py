"""Capacity-reallocation planning over candidate supply sites.

A budget of whole capacity units (each ``unit_size`` resource units) is
distributed across candidate facilities to improve an equity objective
evaluated on the resulting accessibility surface. Candidates may include
prospective sites added with zero capacity. All allocation is in discrete
units: real reallocation is lumpy (wards, staffed posts), and discreteness
admits an exact enumeration oracle.

Objectives:
  max_min_access      raise the worst-off demand site's score (maximize)
  min_weighted_gini   population-weighted Gini of scores (minimize)
  min_variance        plain variance of scores (minimize)

A problem is posed on an ``fca.Catchment`` its caller built and may share.
Step 2 is linear in capacity, so one unit added at candidate c shifts every
score by a fixed column, the catchment's ``assign[:, c]`` times
``AllocationProblem.per_unit[c]``. Greedy and local search share one step,
``AllocationProblem._best_step``: it ranks every option from those columns
with one array operation per chunk of candidates, then re-scores the options
that come within rounding of the best with the full kernel and decides on
those exact values, in the same order and under the same strict comparison
as a one-by-one search would.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data_model import Dataset, SupplySite
from .equity import gini
from .errors import (
    InfeasibleAllocation, InstanceTooLarge, InvalidProblem, NonFiniteObjective,
    NonPositiveUnitSize, _finite, _integer, _real,
)
from .fca import Catchment

OBJECTIVES = ("max_min_access", "min_weighted_gini", "min_variance")

BRUTE_FORCE_CAP = 100_000

# Candidate columns per array operation: bounds the N x chunk score block.
CHUNK = 32
# Relative rounding allowance of the block scores against the full kernel;
# options within it of the best are re-scored with the kernel.
NEAR_TIE = 1e-9


@dataclass(frozen=True, eq=False)
class AllocationProblem:
    catchment: Catchment
    budget: int
    candidates: tuple[int, ...]
    unit_size: float = 1.0
    objective: str = "max_min_access"

    def __post_init__(self):
        # stored sorted so "smaller candidate index" tie-breaking is positional
        object.__setattr__(self, "candidates", tuple(sorted(
            _integer(InvalidProblem, c, "a candidate") for c in self.candidates)))
        object.__setattr__(self, "budget", _integer(InvalidProblem, self.budget, "budget", 0))
        if self.objective not in OBJECTIVES:
            raise InvalidProblem(f"objective must be one of {OBJECTIVES}")
        object.__setattr__(self, "unit_size", _real(
            NonPositiveUnitSize, self.unit_size,
            f"unit_size must be positive and finite, got {self.unit_size!r}"))
        n_supply = len(self.catchment.capacity)
        if not self.candidates:
            raise InvalidProblem("candidates must be nonempty")
        if len(set(self.candidates)) != len(self.candidates):
            raise InvalidProblem("candidate indices must be unique")
        if any(not 0 <= c < n_supply for c in self.candidates):
            raise InvalidProblem("candidate indices out of range")

    @property
    def maximize(self) -> bool:
        return self.objective == "max_min_access"

    def better(self, a: float, b: float) -> bool:
        """True when objective value a strictly improves on b."""
        return a > b if self.maximize else a < b

    def _check(self, units) -> np.ndarray:
        """``units`` as a new int array; InfeasibleAllocation unless it holds
        one whole, nonnegative count per candidate and fits the budget."""
        units = np.asarray(units)
        if units.shape != (len(self.candidates),):
            raise InfeasibleAllocation("allocation length must match candidates")
        kind = units.dtype.kind
        whole = kind in "iu" or (kind == "f" and np.isfinite(units).all()
                                 and (units == np.trunc(units)).all())
        if not whole:  # NaN, infinities, fractions, text and bools are not counts
            raise InfeasibleAllocation("unit counts must be whole numbers")
        if (units < 0).any():
            raise InfeasibleAllocation("unit counts must be nonnegative")
        if units.sum() > self.budget:
            raise InfeasibleAllocation("allocation exceeds the budget")
        return units.astype(int)

    @cached_property
    def _columns(self) -> np.ndarray:
        """The candidates' supply indices, as an array."""
        return np.asarray(self.candidates)

    @cached_property
    def per_unit(self) -> np.ndarray:
        """Score change per unit added at each candidate, per unit of weight.

        Step 2 is linear in the capacities, so one unit at candidate c
        shifts score i by assign[i, c] * per_unit[c], where per_unit[c] is
        unit_size / captured[c], and 0 where no demand reaches c. Weights
        lie in [0, 1], so every shift is finite and >= 0 once each per-unit
        ratio is finite; NonFiniteObjective names a candidate whose ratio
        overflows.
        """
        catchment, cand = self.catchment, self._columns
        return _finite(NonFiniteObjective, lambda: np.divide(
            self.unit_size, catchment.captured[cand], out=np.zeros(len(cand)),
            where=catchment.reached[cand]), "candidate {!r}: one unit's score shift is not "
            "finite; unit_size is too large for its captured demand",
            [catchment.dataset.supply.ids[c] for c in self.candidates])

    @cached_property
    def _max_shift(self) -> float:
        """The largest score shift of one unit: each candidate's largest
        weight times its per-unit ratio. Rounding a product by a factor
        >= 0 is monotone, so that is the largest of the products, exactly."""
        largest = self.catchment.assign.max(axis=0, initial=0.0)[self._columns]
        return float((largest * self.per_unit).max(initial=0.0))

    def _scores(self, units) -> np.ndarray:
        """Scores with ``units`` added per candidate, by the full kernel: the
        units' capacity is scattered onto the candidates' columns.
        NonFiniteObjective names a candidate whose capacity overflows."""
        catchment = self.catchment
        capacity = _finite(NonFiniteObjective, lambda: catchment.capacity + np.bincount(
            self._columns, np.asarray(units) * self.unit_size, len(catchment.capacity)),
            "candidate {!r}: its capacity overflows; unit_size is too large",
            catchment.dataset.supply.ids)
        return catchment.solve(capacity)[1]

    def _objective(self, scores: np.ndarray):
        """Objective of a score vector, or of each column of an N x k block."""
        pop = self.catchment.population
        values = {"max_min_access": lambda: scores.min(axis=0),
                  "min_weighted_gini": lambda: gini(scores[pop > 0], pop[pop > 0]),
                  "min_variance": lambda: scores.var(axis=0)}[self.objective]
        return _finite(NonFiniteObjective, values,
                       f"{self.objective} is not finite: scores overflow")

    def _value(self, units) -> float:
        """Objective value with ``units`` added per candidate."""
        return float(self._objective(self._scores(units)))

    def _unit_values(self, start: np.ndarray) -> np.ndarray:
        """Objective of ``start`` plus one unit at each candidate, in one
        array operation per chunk of candidates. These values rank options;
        decisions and reported values come from the kernel.

        Under max_min_access only the demand sites that can hold a column's
        minimum are summed. Shifts are >= 0 and rounding is monotone, so
        every column's minimum is at most U = start[low] + max_c assign[low,
        c] * per_unit[c] at the lowest start, and a site whose start exceeds
        U exceeds it in every column. The minima are the same bits as over
        all sites; a NaN start is kept, so it still makes the objective
        non-finite. The shifts of the kept rows are built one chunk of
        columns at a time, never as one N x C block.
        """
        assign, cand, per_unit = self.catchment.assign, self._columns, self.per_unit
        out = np.empty(len(cand))
        rows = slice(None)
        if self.objective == "max_min_access":
            low = start.argmin()
            top = start[low] + (assign[low, cand] * per_unit).max()
            rows = np.flatnonzero(~(start > top))[:, None]
        kept = start[rows].reshape(-1, 1)
        for lo in range(0, len(out), CHUNK):
            block = assign[rows, cand[lo:lo + CHUNK]]  # a copy, shifted in place
            block *= per_unit[lo:lo + CHUNK]
            block += kept
            out[lo:lo + CHUNK] = self._objective(block)
        return out

    def _best_step(self, units: np.ndarray, donors, current: float | None = None,
                   scores: np.ndarray | None = None):
        """The best move of one unit from a donor to a candidate.

        A donor is a candidate position, or None for the unspent budget.
        Every (donor, to) option is ranked from the unit shifts on the
        kernel's scores without the donor's unit; for the unspent budget
        those are ``scores``, the kernel's scores at ``units``, which the
        caller passes in. Block and kernel scores
        are sums of the same nonnegative terms, so they agree to a relative
        error e far below NEAR_TIE. That moves a minimum by e of itself, a
        variance by less than e times the variance plus the squared largest
        block score, and a weighted Gini by at most e times (1 + Gini). The
        block's Gini takes each column through the kernel's steps, but may
        order tied scores unlike the kernel's and sums the weighted total
        where the kernel takes a dot product. That moves only the rounding
        of the total and the Lorenz area, and a column's block Gini stays
        within 2n * 2**-53 of the kernel's for n demand sites, far below
        NEAR_TIE for any n under a million. The
        options within that allowance, taken at e = NEAR_TIE, of the best
        ranked value and of ``current`` are re-scored with the kernel in
        (donor, to) order; the first that strictly beats ``current`` and
        every option before it wins. Returns (donor, to, value, scores),
        with the kernel's scores after that move, or None when no option
        beats ``current``.
        """
        n_cand = len(self.candidates)
        sign = 1.0 if self.maximize else -1.0  # signed values: larger is better
        signed = np.empty((len(donors), n_cand))
        top = 0.0
        for row, frm in enumerate(donors):
            start = scores if frm is None else self._scores(_moved(units, frm, None))
            signed[row] = sign * self._unit_values(start)
            top = max(top, float(start.max()))
            if frm is not None:  # a unit stays put
                signed[row, frm] = -np.inf
        best = float(signed.max(initial=-np.inf))
        if current is not None:
            best = max(best, sign * current)
        if self.objective == "max_min_access":
            scale = 0.0
        elif self.objective == "min_weighted_gini":
            scale = 1.0
        else:  # a float product overflows to inf where ** would raise
            peak = top + self._max_shift
            scale = peak * peak
        allowance = _finite(NonFiniteObjective, lambda: NEAR_TIE * (abs(best) + scale),
                            f"the rounding allowance of {self.objective} is not finite")
        step, best_val = None, current
        for pos in np.flatnonzero(signed.ravel() >= best - allowance):
            frm, to = donors[pos // n_cand], int(pos % n_cand)
            after = self._scores(_moved(units, frm, to))
            val = float(self._objective(after))
            if best_val is None or self.better(val, best_val):
                step, best_val = (frm, to, val, after), val
        return step


def _moved(units: np.ndarray, frm, to) -> np.ndarray:
    """``units`` with one unit taken from ``frm`` and given to ``to``; None
    stands for the unspent budget."""
    moved = units.copy()
    if frm is not None:
        moved[frm] -= 1
    if to is not None:
        moved[to] += 1
    return moved


@dataclass(frozen=True)
class ReallocationPlan:
    """Units added per candidate, with the objective before and after.

    ``trace`` records the objective after each constructive or improving
    step, starting from the baseline.
    """

    units: tuple[int, ...]
    objective_before: float
    objective_after: float
    trace: tuple[float, ...] = ()


def evaluate_objective(problem: AllocationProblem, allocation) -> float:
    """Objective value after adding ``allocation`` units per candidate.

    Accessibility is recomputed with each candidate's capacity raised by
    units * unit_size; the allocation may spend at most the budget.
    """
    return problem._value(problem._check(allocation))


def greedy_allocate(problem: AllocationProblem) -> ReallocationPlan:
    """Assign budget units one at a time, each to the candidate whose
    single-unit addition yields the best objective; ties go to the smaller
    candidate index. Deterministic by construction. It always spends the
    whole budget, so under ``min_variance`` or ``min_weighted_gini`` the
    plan's ``objective_after`` can be worse than its ``objective_before``.

    The kernel solves once for the baseline and once per re-scored option:
    each step ranks from the scores of the option the previous step took.
    """
    units = np.zeros(len(problem.candidates), dtype=int)
    scores = problem._scores(units)
    before = float(problem._objective(scores))
    trace = [before]
    for _ in range(problem.budget):
        _, to, val, scores = problem._best_step(units, [None], scores=scores)
        units[to] += 1
        trace.append(val)
    return ReallocationPlan(
        units=tuple(int(u) for u in units),
        objective_before=before,
        objective_after=trace[-1],
        trace=tuple(trace),
    )


def local_search_improve(problem: AllocationProblem, plan: ReallocationPlan,
                         max_iters: int = 100) -> ReallocationPlan:
    """Refine a plan by single-unit moves between candidates.

    Each iteration evaluates every (donor, receiver) unit move and applies
    the best one if it strictly improves the objective; stops at a local
    optimum or after ``max_iters``, which must be an integer >= 0
    (InvalidProblem otherwise). The result is never worse than the input plan.
    """
    max_iters = _integer(InvalidProblem, max_iters, "max_iters", 0)
    units = problem._check(plan.units)
    current = problem._value(units)
    trace = list(plan.trace) or [current]
    for _ in range(max_iters):
        step = problem._best_step(units, np.flatnonzero(units > 0).tolist(), current)
        if step is None:
            break
        frm, to, current, _ = step
        units[frm] -= 1
        units[to] += 1
        trace.append(current)
    return ReallocationPlan(
        units=tuple(int(u) for u in units),
        objective_before=plan.objective_before,
        objective_after=current,
        trace=tuple(trace),
    )


def _compositions(total: int, parts: int):
    """Yield all nonnegative integer vectors of length ``parts`` summing to
    ``total``, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def brute_force_allocate(problem: AllocationProblem) -> ReallocationPlan:
    """Exhaustive search over every way to spend the budget (testing oracle).

    Guarded by a feasibility cap on the allocation count; ties resolve to
    the lexicographically smallest allocation vector.
    """
    n_cand = len(problem.candidates)
    n_allocations = math.comb(problem.budget + n_cand - 1, problem.budget)
    if n_allocations > BRUTE_FORCE_CAP:
        raise InstanceTooLarge(
            f"{n_allocations} allocations exceed the cap of {BRUTE_FORCE_CAP}"
        )
    before = problem._value(np.zeros(n_cand, dtype=int))
    best_units, best_val = None, None
    for units in _compositions(problem.budget, n_cand):
        val = problem._value(np.asarray(units, dtype=int))
        if best_val is None or problem.better(val, best_val):
            best_units, best_val = units, val
    return ReallocationPlan(
        units=best_units,
        objective_before=before,
        objective_after=best_val,
        trace=(before, best_val),
    )


def add_candidate_sites(dataset: Dataset, sites) -> tuple[Dataset, tuple[int, ...]]:
    """Append prospective zero-capacity facilities and return their indices.

    ``sites`` is an iterable of (id, x, y). The returned dataset is the
    original plus candidate-flagged supply rows; build a ``Catchment`` on a
    rebuilt travel matrix before optimizing.
    """
    added = [SupplySite(str(sid), x, y, 0.0, candidate=True) for sid, x, y in sites]
    first = len(dataset.supply)
    return (replace(dataset, supply=(*dataset.supply, *added)),
            tuple(range(first, first + len(added))))


def plan_json_dict(problem: AllocationProblem, plan: ReallocationPlan) -> dict:
    """Plan summary: objective name, before/after values, per-site additions."""
    return {
        "objective": problem.objective,
        "before": plan.objective_before,
        "after": plan.objective_after,
        "allocations": [
            {
                "supply_id": problem.catchment.dataset.supply.ids[c],
                "units_added": int(u),
                "capacity_added": u * problem.unit_size,
            }
            for c, u in zip(problem.candidates, plan.units)
        ],
    }
