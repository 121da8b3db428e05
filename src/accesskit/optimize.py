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
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data_model import Dataset, SupplySite
from .decay import DecaySpec
from .equity import gini
from .errors import InfeasibleAllocation, InstanceTooLarge, InvalidProblem, NonPositiveUnitSize
from .fca import FCA_METHODS, Catchment
from .travel import TravelMatrix

OBJECTIVES = ("max_min_access", "min_weighted_gini", "min_variance")

BRUTE_FORCE_CAP = 100_000


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

    def _value(self, units) -> float:
        """Objective value with ``units`` added per candidate."""
        catchment = self.catchment
        capacity = catchment.capacity.copy()
        for c, u in zip(self.candidates, units):
            capacity[c] += u * self.unit_size
        scores = catchment.solve(capacity)[1]
        if self.objective == "max_min_access":
            return float(scores.min())
        if self.objective == "min_weighted_gini":
            pop = catchment.population
            mask = pop > 0
            return float(gini(scores[mask], pop[mask]))
        return float(np.var(scores))


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
    n_cand = len(problem.candidates)
    units = np.zeros(n_cand, dtype=int)
    before = problem._value(units)
    trace = [before]
    for _ in range(problem.budget):
        best_c, best_val = None, None
        for c in range(n_cand):
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
    for _ in range(max_iters):
        best_move, best_val = None, current
        for frm in range(n_cand):
            if units[frm] == 0:
                continue
            for to in range(n_cand):
                if to == frm:
                    continue
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
