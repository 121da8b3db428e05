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

Step 2 is linear in capacity, so one unit added at candidate c shifts every
score by a fixed column of ``AllocationProblem.shifts``. Greedy and local
search rank all their options from that block with one array operation per
chunk of candidates, then re-score the options that come within rounding of
the best with the full kernel and decide on those exact values, in the same
order and under the same strict comparison as a one-by-one search would.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data_model import Dataset, SupplySite
from .decay import DecaySpec
from .equity import gini
from .errors import (
    AllZeroValues, InfeasibleAllocation, InstanceTooLarge, InvalidProblem, NonPositiveUnitSize,
)
from .fca import FCA_METHODS, Catchment
from .travel import TravelMatrix

OBJECTIVES = ("max_min_access", "min_weighted_gini", "min_variance")

BRUTE_FORCE_CAP = 100_000

# Candidate columns per array operation: bounds the N x chunk score block.
CHUNK = 32
# Relative rounding allowance of the block scores against the full kernel;
# options within it of the best are re-scored with the kernel.
NEAR_TIE = 1e-9


@dataclass(frozen=True, eq=False)
class AllocationProblem:
    dataset: Dataset
    matrix: TravelMatrix
    decay: DecaySpec
    budget: int
    candidates: tuple[int, ...]
    method: str = "g2sfca"
    unit_size: float = 1.0
    objective: str = "max_min_access"

    def __post_init__(self):
        # stored sorted so "smaller candidate index" tie-breaking is positional
        object.__setattr__(self, "candidates", tuple(sorted(int(c) for c in self.candidates)))
        if self.method not in FCA_METHODS:
            raise InvalidProblem(f"method must be one of {FCA_METHODS}")
        if self.objective not in OBJECTIVES:
            raise InvalidProblem(f"objective must be one of {OBJECTIVES}")
        if self.budget < 0:
            raise InvalidProblem("budget must be >= 0")
        if not self.unit_size > 0:
            raise NonPositiveUnitSize(f"unit_size must be positive, got {self.unit_size!r}")
        n_supply = len(self.dataset.supply)
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

    @cached_property
    def catchment(self) -> Catchment:
        """Decay weights and captured demand depend only on travel costs and
        demand, never on capacities, so every evaluation shares one."""
        return Catchment(self.method, self.dataset, self.matrix, self.decay)

    def _check(self, units) -> np.ndarray:
        units = np.asarray(units, dtype=int)
        if units.shape != (len(self.candidates),):
            raise InfeasibleAllocation("allocation length must match candidates")
        if (units < 0).any():
            raise InfeasibleAllocation("unit counts must be nonnegative")
        if units.sum() > self.budget:
            raise InfeasibleAllocation("allocation exceeds the budget")
        return units

    @cached_property
    def shifts(self) -> np.ndarray:
        """N x C score change per unit added at each candidate.

        Column c is assign[:, c] * unit_size / captured[c], and 0 where no
        demand reaches c, since step 2 is linear in the capacities.
        """
        catchment = self.catchment
        cand = np.asarray(self.candidates)
        per_unit = np.zeros(len(cand))
        reached = catchment.reached[cand]
        per_unit[reached] = self.unit_size / catchment.captured[cand][reached]
        return catchment.assign[:, cand] * per_unit

    def _scores(self, units) -> np.ndarray:
        """Scores with ``units`` added per candidate, by the full kernel."""
        catchment = self.catchment
        capacity = catchment.capacity.copy()
        for c, u in zip(self.candidates, units):
            capacity[c] += u * self.unit_size
        return catchment.solve(capacity)[1]

    def _value(self, units) -> float:
        """Objective value with ``units`` added per candidate."""
        scores = self._scores(units)
        if self.objective == "max_min_access":
            return float(scores.min())
        if self.objective == "min_weighted_gini":
            pop = self.catchment.population
            mask = pop > 0
            return float(gini(scores[mask], pop[mask]))
        return float(np.var(scores))

    def _unit_values(self, start: np.ndarray) -> np.ndarray:
        """Objective of ``start`` plus one unit at each candidate, in one
        array operation per chunk of candidates. These values rank options;
        decisions and reported values come from ``_value``."""
        shifts = self.shifts
        pop = self.catchment.population
        rows = pop > 0
        out = np.empty(shifts.shape[1])
        for lo in range(0, len(out), CHUNK):
            block = start[:, None] + shifts[:, lo:lo + CHUNK]
            if self.objective == "max_min_access":
                out[lo:lo + CHUNK] = block.min(axis=0)
            elif self.objective == "min_weighted_gini":
                out[lo:lo + CHUNK] = _column_gini(block[rows], pop[rows])
            else:
                out[lo:lo + CHUNK] = block.var(axis=0)
        return out

    def _near_best(self, values: np.ndarray, scores: np.ndarray,
                   current: float | None = None) -> list:
        """Positions of ``values`` that could be the best option, ascending.

        ``values`` come from ``_unit_values`` on kernel scores no larger
        than ``scores``. Block and kernel scores are sums of the same
        nonnegative terms, so they agree to a relative error e far below
        NEAR_TIE. That moves a minimum by e of itself, a variance by less
        than e times the variance plus the squared largest score, and a
        weighted Gini by at most e times (1 + Gini). Options within that
        allowance, taken at e = NEAR_TIE, of the best value and of
        ``current`` when given are kept.
        """
        signed = values if self.maximize else -values
        best = float(signed.max())
        if current is not None:
            best = max(best, current if self.maximize else -current)
        if self.objective == "max_min_access":
            scale = 0.0
        elif self.objective == "min_weighted_gini":
            scale = 1.0
        else:
            scale = (float(scores.max()) + float(self.shifts.max(initial=0.0))) ** 2
        return np.flatnonzero(signed >= best - NEAR_TIE * (abs(best) + scale)).tolist()


def _column_gini(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted Gini of each column: the Lorenz-curve trapezoid sum of
    ``equity.gini`` taken down the columns after one stable sort."""
    order = np.argsort(values, axis=0, kind="stable")
    v = np.take_along_axis(values, order, axis=0)
    w = weights[order]
    cum_val = np.cumsum(w * v, axis=0)
    if not (cum_val[-1] > 0).all():
        raise AllZeroValues("every weighted value is zero")
    cum_val /= cum_val[-1]
    share = w / weights.sum()
    under = (share[0] * cum_val[0] + (share[1:] * (cum_val[1:] + cum_val[:-1])).sum(axis=0)) / 2.0
    return 1.0 - 2.0 * under


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

    def total_units(self) -> int:
        return sum(self.units)


def evaluate_objective(problem: AllocationProblem, allocation) -> float:
    """Objective value after adding ``allocation`` units per candidate.

    Accessibility is recomputed with each candidate's capacity raised by
    units * unit_size; the allocation may spend at most the budget.
    """
    return problem._value(problem._check(allocation))


def greedy_allocate(problem: AllocationProblem) -> ReallocationPlan:
    """Assign budget units one at a time, each to the candidate whose
    single-unit addition yields the best objective; ties go to the smaller
    candidate index. Deterministic by construction.
    """
    units = np.zeros(len(problem.candidates), dtype=int)
    before = problem._value(units)
    trace = [before]
    for _ in range(problem.budget):
        scores = problem._scores(units)
        near = problem._near_best(problem._unit_values(scores), scores)
        best_c, best_val = None, None
        for c in near:
            units[c] += 1
            val = problem._value(units)
            units[c] -= 1
            if best_val is None or problem.better(val, best_val):
                best_c, best_val = c, val
        units[best_c] += 1
        trace.append(best_val)
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
    optimum or after ``max_iters``. The result is never worse than the
    input plan.
    """
    units = problem._check(plan.units).copy()
    current = problem._value(units)
    trace = list(plan.trace) or [current]
    n_cand = len(problem.candidates)
    worst = -np.inf if problem.maximize else np.inf
    for _ in range(max_iters):
        donors = np.flatnonzero(units > 0)
        if not donors.size:
            break
        # row r holds every move of one unit away from donor r, in (frm, to)
        # order; the block starts from the kernel's scores without that unit
        values = np.empty((donors.size, n_cand))
        for row, frm in enumerate(donors):
            units[frm] -= 1
            values[row] = problem._unit_values(problem._scores(units))
            units[frm] += 1
            values[row, frm] = worst
        near = problem._near_best(values.ravel(), problem._scores(units), current)
        best_move, best_val = None, current
        for pos in near:
            frm, to = int(donors[pos // n_cand]), pos % n_cand
            units[frm] -= 1
            units[to] += 1
            val = problem._value(units)
            units[frm] += 1
            units[to] -= 1
            if problem.better(val, best_val):
                best_move, best_val = (frm, to), val
        if best_move is None:
            break
        frm, to = best_move
        units[frm] -= 1
        units[to] += 1
        current = best_val
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
    original plus candidate-flagged supply rows; pair it with a rebuilt
    travel matrix before optimizing.
    """
    new_supply = list(dataset.supply)
    first = len(new_supply)
    for sid, x, y in sites:
        new_supply.append(SupplySite(str(sid), float(x), float(y), 0.0, candidate=True))
    return (
        replace(dataset, supply=tuple(new_supply)),
        tuple(range(first, len(new_supply))),
    )


def plan_json_dict(problem: AllocationProblem, plan: ReallocationPlan) -> dict:
    """Plan summary: objective name, before/after values, per-site additions."""
    return {
        "objective": problem.objective,
        "before": plan.objective_before,
        "after": plan.objective_after,
        "allocations": [
            {
                "supply_id": problem.dataset.supply[c].id,
                "units_added": int(u),
                "capacity_added": u * problem.unit_size,
            }
            for c, u in zip(problem.candidates, plan.units)
        ],
    }
