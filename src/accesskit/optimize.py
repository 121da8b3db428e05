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
search share one step, ``AllocationProblem._best_step``: it ranks every
option from that block with one array operation per chunk of candidates,
then re-scores the options that come within rounding of the best with the
full kernel and decides on those exact values, in the same order and under
the same strict comparison as a one-by-one search would.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data_model import Dataset, SupplySite
from .decay import DecaySpec
from .equity import gini
from .errors import (
    InfeasibleAllocation, InstanceTooLarge, InvalidProblem, NonPositiveUnitSize,
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
        if not 0 < self.unit_size < math.inf:  # NaN fails this test too
            raise NonPositiveUnitSize(
                f"unit_size must be positive and finite, got {self.unit_size!r}")
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

    def _objective(self, scores: np.ndarray):
        """Objective of a score vector, or of each column of an N x k block."""
        if self.objective == "max_min_access":
            return scores.min(axis=0)
        if self.objective == "min_weighted_gini":
            pop = self.catchment.population
            rows = pop > 0
            return gini(scores[rows], pop[rows])
        return scores.var(axis=0)

    def _value(self, units) -> float:
        """Objective value with ``units`` added per candidate."""
        return float(self._objective(self._scores(units)))

    def _unit_values(self, start: np.ndarray) -> np.ndarray:
        """Objective of ``start`` plus one unit at each candidate, in one
        array operation per chunk of candidates. These values rank options;
        decisions and reported values come from ``_value``."""
        shifts = self.shifts
        out = np.empty(shifts.shape[1])
        for lo in range(0, len(out), CHUNK):
            out[lo:lo + CHUNK] = self._objective(start[:, None] + shifts[:, lo:lo + CHUNK])
        return out

    def _best_step(self, units: np.ndarray, donors, current: float | None = None):
        """The best move of one unit from a donor to a candidate.

        A donor is a candidate position, or None for the unspent budget.
        Every (donor, to) option is ranked from the block of shifts on the
        kernel's scores without the donor's unit. Block and kernel scores
        are sums of the same nonnegative terms, so they agree to a relative
        error e far below NEAR_TIE. That moves a minimum by e of itself, a
        variance by less than e times the variance plus the squared largest
        block score, and a weighted Gini by at most e times (1 + Gini). The
        options within that allowance, taken at e = NEAR_TIE, of the best
        ranked value and of ``current`` are re-scored with the kernel in
        (donor, to) order; the first that strictly beats ``current`` and
        every option before it wins. Returns (donor, to, value), or None
        when no option beats ``current``.
        """
        n_cand = len(self.candidates)
        sign = 1.0 if self.maximize else -1.0  # signed values: larger is better
        signed = np.empty((len(donors), n_cand))
        top = 0.0
        for row, frm in enumerate(donors):
            start = self._scores(_moved(units, frm, None))
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
        else:
            scale = (top + float(self.shifts.max(initial=0.0))) ** 2
        step, best_val = None, current
        for pos in np.flatnonzero(signed.ravel() >= best - NEAR_TIE * (abs(best) + scale)):
            frm, to = donors[pos // n_cand], int(pos % n_cand)
            val = self._value(_moved(units, frm, to))
            if best_val is None or self.better(val, best_val):
                step, best_val = (frm, to, val), val
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
        _, to, val = problem._best_step(units, [None])
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
    optimum or after ``max_iters``. The result is never worse than the
    input plan.
    """
    units = problem._check(plan.units).copy()
    current = problem._value(units)
    trace = list(plan.trace) or [current]
    for _ in range(max_iters):
        step = problem._best_step(units, np.flatnonzero(units > 0).tolist(), current)
        if step is None:
            break
        frm, to, current = step
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
