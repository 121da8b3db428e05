import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accesskit.decay import DecaySpec
from accesskit.equity import gini
from accesskit.errors import (
    DimensionMismatch, InfeasibleAllocation, InstanceTooLarge, InvalidProblem,
    NonFiniteCoordinate, NonFiniteObjective, NonPositiveUnitSize,
)
from accesskit.fca import FCA_METHODS, Catchment, compute_accessibility
from accesskit.optimize import (
    CHUNK,
    OBJECTIVES,
    AllocationProblem,
    ReallocationPlan,
    add_candidate_sites,
    brute_force_allocate,
    evaluate_objective,
    greedy_allocate,
    local_search_improve,
    plan_json_dict,
)
from accesskit.travel import build_travel_matrix

from helpers import dataset_with_matrix, random_instance, traced_peak

BINARY30 = DecaySpec("binary", 30.0)


def problem_on(dataset, matrix, decay, method="g2sfca", **fields):
    """An AllocationProblem on ``Catchment(method, dataset, matrix, decay)``."""
    return AllocationProblem(catchment=Catchment(method, dataset, matrix, decay), **fields)


def make_problem(demand_pop, supply_cap, cost, budget, *, objective="max_min_access",
                 candidates=None, unit_size=1.0, method="g2sfca", decay=BINARY30):
    ds, matrix = dataset_with_matrix(demand_pop, supply_cap, cost)
    if candidates is None:
        candidates = tuple(range(len(supply_cap)))
    return problem_on(ds, matrix, decay, method, budget=budget, candidates=candidates,
                      unit_size=unit_size, objective=objective)


def random_problem(rng, max_candidates=3, max_budget=3, max_demand=5,
                   objective=None):
    ds, matrix, decay = random_instance(
        rng, max_demand=max_demand, max_supply=max_candidates,
        all_reachable=True, allow_zero_pop=False)
    if objective is None:
        objective = ("max_min_access", "min_weighted_gini", "min_variance")[
            rng.integers(0, 3)]
    return problem_on(
        ds, matrix, decay,
        budget=int(rng.integers(1, max_budget + 1)),
        candidates=tuple(range(len(ds.supply))),
        unit_size=float(rng.uniform(0.5, 20)),
        objective=objective,
    )


class TestEvaluateObjective:
    def test_empty_allocation_is_baseline(self):
        # the optimizer and the library share one kernel: bit-identical
        rng = np.random.default_rng(81)
        for method in FCA_METHODS:
            kinds = ("zonal",) if method == "e2sfca" else ("binary", "gaussian", "zonal")
            ds, matrix, decay = random_instance(rng, kinds=kinds)
            scores = compute_accessibility(method, ds, matrix, decay).scores
            pop = np.array([s.population for s in ds.demand])
            expected = {
                "max_min_access": float(scores.min()),
                "min_weighted_gini": float(gini(scores[pop > 0], pop[pop > 0])),
                "min_variance": float(np.var(scores)),
            }
            for objective in OBJECTIVES:
                problem = problem_on(ds, matrix, decay, method, budget=1,
                                     candidates=tuple(range(len(ds.supply))),
                                     objective=objective)
                zero = [0] * len(problem.candidates)
                assert evaluate_objective(problem, zero) == expected[objective]

    def test_hand_example(self):
        problem = make_problem([100], [10], [[0.0]], budget=1, unit_size=10.0)
        assert evaluate_objective(problem, [0]) == pytest.approx(0.1, rel=1e-12)
        assert evaluate_objective(problem, [1]) == pytest.approx(0.2, rel=1e-12)

    def test_added_capacity_never_lowers_any_score(self):
        rng = np.random.default_rng(82)
        for _ in range(20):
            ds, matrix, decay = random_instance(rng, all_reachable=False)
            before = compute_accessibility("g2sfca", ds, matrix, decay).scores
            boosted, _ = dataset_with_matrix(
                [s.population for s in ds.demand],
                [s.capacity + (37.0 if j == 0 else 0.0)
                 for j, s in enumerate(ds.supply)],
                matrix.cost,
            )
            after = compute_accessibility("g2sfca", boosted, matrix, decay).scores
            assert (after >= before).all()

    def test_over_budget_rejected(self):
        problem = make_problem([100], [10], [[0.0]], budget=1)
        with pytest.raises(InfeasibleAllocation):
            evaluate_objective(problem, [2])

    def test_wrong_length_rejected(self):
        problem = make_problem([100], [10, 5], [[0.0, 1.0]], budget=1)
        with pytest.raises(InfeasibleAllocation):
            evaluate_objective(problem, [1, 0, 0])

    @pytest.mark.parametrize("units", [
        [0.9, 1.5], [0.5, 0.0], [float("nan"), 0], [float("inf"), 0], ["a", 0], ["1", 0],
        [None, 0], [True, False],
    ])
    def test_counts_that_are_not_whole_numbers_rejected(self, units):
        problem = make_problem([100], [10, 5], [[0.0, 1.0]], budget=3)
        with pytest.raises(InfeasibleAllocation, match="whole"):
            evaluate_objective(problem, units)
        with pytest.raises(InfeasibleAllocation, match="whole"):
            local_search_improve(problem, ReallocationPlan(tuple(units), 0.0, 0.0))

    def test_whole_float_counts_are_counts(self):
        problem = make_problem([100], [10, 5], [[0.0, 1.0]], budget=3)
        assert evaluate_objective(problem, [1.0, 2.0]) == evaluate_objective(problem, [1, 2])

    def test_matrix_shape_mismatch_is_a_dimension_error(self):
        ds, _ = dataset_with_matrix([100, 50], [10], [[0.0], [1.0]])
        _, wrong = dataset_with_matrix([100], [10], [[0.0]])
        # a problem needs a catchment, which a mismatched matrix cannot build
        with pytest.raises(DimensionMismatch):
            problem_on(ds, wrong, BINARY30, budget=1, candidates=(0,))
        with pytest.raises(DimensionMismatch):
            compute_accessibility("g2sfca", ds, wrong, BINARY30)


class TestGreedy:
    def test_single_unit_goes_to_the_strictly_better_candidate(self):
        # supply 1 reaches both demands, supply 0 only the well-served one
        problem = make_problem(
            [100, 100], [10, 10],
            [[0.0, 0.0], [99.0, 0.0]],
            budget=1, unit_size=10.0,
        )
        plan = greedy_allocate(problem)
        assert plan.units == (0, 1)

    def test_tie_breaks_toward_smaller_candidate_index(self):
        # both candidates affect the single demand identically
        problem = make_problem([100], [10, 10], [[0.0, 0.0]], budget=1)
        plan = greedy_allocate(problem)
        assert plan.units == (1, 0)

    def test_budget_fully_spent(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            problem = random_problem(rng)
            plan = greedy_allocate(problem)
            assert sum(plan.units) == problem.budget

    def test_trace_monotone_for_max_min_access(self):
        rng = np.random.default_rng(84)
        for _ in range(20):
            problem = random_problem(rng, objective="max_min_access")
            plan = greedy_allocate(problem)
            assert all(b >= a for a, b in zip(plan.trace, plan.trace[1:]))
            assert plan.objective_after >= plan.objective_before

    def test_deterministic(self):
        rng = np.random.default_rng(85)
        problem = random_problem(rng)
        assert greedy_allocate(problem) == greedy_allocate(problem)


class TestLocalSearch:
    def two_pool_problem(self):
        # supply 0 serves demand 0 only; supply 1 serves demand 1 only
        return make_problem(
            [100, 100], [10, 1],
            [[0.0, 99.0], [99.0, 0.0]],
            budget=3, unit_size=10.0,
        )

    def test_improves_bad_seed_to_brute_force_optimum(self):
        problem = self.two_pool_problem()
        bad = greedy_allocate(problem)  # greedy itself is fine; build worse seed
        from accesskit.optimize import ReallocationPlan

        seed_plan = ReallocationPlan(
            units=(3, 0),
            objective_before=bad.objective_before,
            objective_after=evaluate_objective(problem, (3, 0)),
        )
        improved = local_search_improve(problem, seed_plan, max_iters=50)
        oracle = brute_force_allocate(problem)
        assert improved.units == oracle.units == (1, 2)
        assert improved.objective_after == oracle.objective_after

    def test_fixed_point_returned_unchanged(self):
        problem = self.two_pool_problem()
        optimum = brute_force_allocate(problem)
        again = local_search_improve(problem, optimum, max_iters=50)
        assert again.units == optimum.units
        assert again.objective_after == optimum.objective_after

    def test_max_iters_zero_returns_input(self):
        problem = self.two_pool_problem()
        plan = greedy_allocate(problem)
        assert local_search_improve(problem, plan, max_iters=0).units == plan.units

    def test_never_worse_and_trace_monotone(self):
        rng = np.random.default_rng(86)
        for _ in range(20):
            problem = random_problem(rng)
            plan = greedy_allocate(problem)
            better = local_search_improve(problem, plan, max_iters=20)
            assert not problem.better(plan.objective_after, better.objective_after)
            tail = better.trace[len(plan.trace):]
            steps = list(plan.trace[-1:]) + list(tail)
            for a, b in zip(steps, steps[1:]):
                assert problem.better(b, a)  # strict improvements only


class TestBruteForce:
    def test_budget_zero_is_noop(self):
        problem = make_problem([100], [10], [[0.0]], budget=0)
        plan = brute_force_allocate(problem)
        assert plan.units == (0,)
        assert plan.objective_after == plan.objective_before

    def test_enumeration_of_stars_and_bars(self):
        problem = make_problem([100], [10, 10], [[0.0, 99.0]], budget=2)
        # supply 1 unreachable: optimum puts everything on supply 0;
        # 3 candidate allocations exist: (2,0),(1,1),(0,2)
        plan = brute_force_allocate(problem)
        assert plan.units == (2, 0)

    def test_lexicographic_tie_rule(self):
        # both candidates identical: all allocations tie; smallest vector wins
        problem = make_problem([100], [10, 10], [[0.0, 0.0]], budget=2)
        plan = brute_force_allocate(problem)
        assert plan.units == (0, 2)  # lexicographically smallest is (0, 2)

    def test_instance_too_large(self):
        problem = make_problem([10], [1] * 12, [[0.0] * 12], budget=12)
        with pytest.raises(InstanceTooLarge):
            brute_force_allocate(problem)

    def test_dominates_greedy_plus_local_search(self):
        rng = np.random.default_rng(87)
        agree = 0
        total = 40
        for _ in range(total):
            problem = random_problem(rng)
            refined = local_search_improve(problem, greedy_allocate(problem))
            oracle = brute_force_allocate(problem)
            assert not problem.better(refined.objective_after, oracle.objective_after)
            if refined.objective_after == oracle.objective_after:
                agree += 1
        assert agree > 0  # heuristics reach the optimum on a decent share


class TestCandidateSites:
    def test_zero_capacity_candidates_can_receive_units(self):
        rng = np.random.default_rng(88)
        ds, _, decay = random_instance(rng, max_demand=4, max_supply=2,
                                       all_reachable=True, allow_zero_pop=False)
        grown, new_idx = add_candidate_sites(
            ds, [("new1", ds.demand[0].x, ds.demand[0].y)])
        assert grown.supply[new_idx[0]].capacity == 0.0
        matrix = build_travel_matrix(grown)
        d0 = float(matrix.cost.max()) * 1.5 + 1.0
        problem = problem_on(
            grown, matrix, DecaySpec("binary", d0),
            budget=2, candidates=new_idx, unit_size=5.0,
        )
        plan = greedy_allocate(problem)
        assert plan.units == (2,)
        assert problem.better(plan.objective_after, plan.objective_before) or \
            plan.objective_after == plan.objective_before

    @pytest.mark.parametrize("x", [True, "1.5"])
    def test_coordinates_are_taken_as_given(self, x):
        # a bool or text is no coordinate, though float() takes it for 1.0 or 1.5
        ds, _ = dataset_with_matrix([1], [1], [[0.0]])
        with pytest.raises(NonFiniteCoordinate, match="supply 'c': coordinates not finite"):
            add_candidate_sites(ds, [("c", x, 0.0)])

    def test_candidates_sorted_and_validated(self):
        problem = make_problem([1], [1, 1, 1], [[0.0, 0.0, 0.0]], budget=1,
                               candidates=(2, 0))
        assert problem.candidates == (0, 2)
        with pytest.raises(ValueError):
            make_problem([1], [1], [[0.0]], budget=1, candidates=(5,))

    @pytest.mark.parametrize("candidates", [(), (0, 0), (5,), (1.5, 2), ("1",),
                                            (np.float64(2.9),), (True,)])
    def test_bad_candidates_are_invalid_problems(self, candidates):
        # three supply sites, so a non-integer candidate would round into range
        with pytest.raises(InvalidProblem) as info:
            make_problem([1], [1, 1, 1], [[0.0, 0.0, 0.0]], budget=1, candidates=candidates)
        assert isinstance(info.value, ValueError)
        assert info.value.code == "optimize.InvalidProblem"

    @pytest.mark.parametrize("budget", [True, 2.5, 2.0, "2"])
    def test_budget_must_be_an_integer(self, budget):
        with pytest.raises(InvalidProblem, match="budget must be an integer"):
            make_problem([1], [1, 1], [[0.0, 0.0]], budget=budget)

    @pytest.mark.parametrize("max_iters", [2.5, "3", None, True])
    def test_max_iters_must_be_an_integer(self, max_iters):
        problem = make_problem([1], [1, 1], [[0.0, 0.0]], budget=2)
        with pytest.raises(InvalidProblem) as raised:
            local_search_improve(problem, greedy_allocate(problem), max_iters)
        assert str(raised.value) == f"max_iters must be an integer, got {max_iters!r}"

    def test_numpy_integers_are_taken_as_ints(self):
        problem = make_problem([1], [1, 1, 1], [[0.0, 0.0, 0.0]], budget=np.int64(2),
                               candidates=np.array([2, 0]))
        assert problem.candidates == (0, 2) and problem.budget == 2
        assert all(type(v) is int for v in (problem.budget, *problem.candidates))

    @pytest.mark.parametrize("unit_size", [0.0, -1.0, float("nan"), float("inf")])
    def test_unit_size_must_be_positive_and_finite(self, unit_size):
        # an infinite unit would turn the block of score shifts into inf and NaN
        with pytest.raises(NonPositiveUnitSize):
            make_problem([100, 50], [10, 10], [[0.0, 5.0], [5.0, 0.0]], budget=3,
                         unit_size=unit_size)

    def test_overflowing_variance_raises(self):
        # finite scores near 1e198 whose variance overflows
        problem = make_problem([100, 50], [10, 10], [[0.0, 50.0], [50.0, 0.0]], budget=2,
                               unit_size=1e200, objective="min_variance")
        with pytest.raises(NonFiniteObjective):
            evaluate_objective(problem, [2, 0])
        with pytest.raises(NonFiniteObjective):
            greedy_allocate(problem)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_overflowing_unit_shift_raises(self, objective):
        # the baseline is finite, but one unit over a captured demand of 1e-200
        # would shift a score by 1e400
        problem = make_problem([1e-200, 1e-200], [10, 10], [[0.0, 50.0], [50.0, 0.0]],
                               budget=2, unit_size=1e200, objective=objective)
        assert np.isfinite(evaluate_objective(problem, [0, 0]))
        with pytest.raises(NonFiniteObjective, match="candidate 'h0'"):
            greedy_allocate(problem)

    def test_overflowing_allowance_raises(self):
        # one unit shifts both scores by 5e157: the variance stays finite, the
        # squared largest score in the rounding allowance does not
        problem = make_problem([100, 100], [10, 10], [[0.0, 50.0], [0.0, 0.0]], budget=1,
                               unit_size=1e160, objective="min_variance", candidates=(0,))
        assert np.isfinite(evaluate_objective(problem, [1]))
        with pytest.raises(NonFiniteObjective, match="allowance"):
            greedy_allocate(problem)


class TestPlanJson:
    def test_shape(self):
        problem = make_problem([100], [10, 20], [[0.0, 5.0]], budget=2, unit_size=3.0)
        plan = greedy_allocate(problem)
        d = plan_json_dict(problem, plan)
        assert set(d) == {"objective", "before", "after", "allocations"}
        assert [a["supply_id"] for a in d["allocations"]] == ["h0", "h1"]
        assert sum(a["units_added"] for a in d["allocations"]) == 2
        for a in d["allocations"]:
            assert a["capacity_added"] == a["units_added"] * 3.0


# --- the array search against the one-by-one search ---------------------

def reference_greedy(problem):
    """Greedy as a loop over evaluate_objective: every candidate, every unit."""
    units = [0] * len(problem.candidates)
    trace = [evaluate_objective(problem, units)]
    for _ in range(problem.budget):
        best_c, best_val = None, None
        for c in range(len(units)):
            units[c] += 1
            val = evaluate_objective(problem, units)
            units[c] -= 1
            if best_val is None or problem.better(val, best_val):
                best_c, best_val = c, val
        units[best_c] += 1
        trace.append(best_val)
    return ReallocationPlan(tuple(units), trace[0], trace[-1], tuple(trace))


def reference_local_search(problem, plan, max_iters=100):
    """Local search as a loop over evaluate_objective: every (frm, to) move."""
    units, current = list(plan.units), evaluate_objective(problem, plan.units)
    trace = list(plan.trace) or [current]
    for _ in range(max_iters):
        best_move, best_val = None, current
        for frm, to in itertools.permutations(range(len(units)), 2):
            if units[frm]:
                moved = list(units)
                moved[frm], moved[to] = moved[frm] - 1, moved[to] + 1
                val = evaluate_objective(problem, moved)
                if problem.better(val, best_val):
                    best_move, best_val = (frm, to), val
        if best_move is None:
            break
        units[best_move[0]] -= 1
        units[best_move[1]] += 1
        current = best_val
        trace.append(current)
    return ReallocationPlan(tuple(units), plan.objective_before, current, tuple(trace))


def sweep_problem(rng):
    """A small problem over every method and objective, with random
    candidate subsets, candidates no demand reaches, single candidates and
    binary decay's exact ties."""
    method = FCA_METHODS[rng.integers(0, len(FCA_METHODS))]
    kinds = ("zonal",) if method == "e2sfca" else ("binary", "binary", "gaussian", "zonal")
    ds, matrix, decay = random_instance(rng, max_demand=8, max_supply=5,
                                        all_reachable=bool(rng.integers(0, 2)), kinds=kinds)
    n_supply = len(ds.supply)
    if rng.integers(0, 3) == 0:
        far = float(matrix.cost.max()) * 1000.0 + 1e6  # beyond every cutoff, in meters
        near = (ds.demand[0].x, ds.demand[0].y)
        ds, _ = add_candidate_sites(ds, [("far", far, far), ("near", *near)])
        matrix = build_travel_matrix(ds)
        n_supply = len(ds.supply)
    size = int(rng.integers(1, n_supply + 1))
    candidates = tuple(rng.choice(n_supply, size=size, replace=False).tolist())
    return problem_on(
        ds, matrix, decay, method, budget=int(rng.integers(0, 5)),
        candidates=candidates,
        unit_size=float(rng.choice([1.0, 10.0, rng.uniform(0.5, 50)])),
        objective=OBJECTIVES[rng.integers(0, len(OBJECTIVES))],
    )


def outcome(fn, *args):
    """The plan, or the class of the error raised (a Gini over all-zero scores)."""
    try:
        return fn(*args)
    except Exception as err:
        return type(err)


def test_array_search_equals_one_by_one_search():
    rng = np.random.default_rng(2026)
    seen = set()
    for _ in range(300):
        problem = sweep_problem(rng)
        greedy = outcome(greedy_allocate, problem)
        assert greedy == outcome(reference_greedy, problem)
        if isinstance(greedy, ReallocationPlan):
            for max_iters in (100, 1):
                refined = outcome(local_search_improve, problem, greedy, max_iters)
                assert refined == outcome(reference_local_search, problem, greedy, max_iters)
            worse = ReallocationPlan((problem.budget,) + (0,) * (len(problem.candidates) - 1),
                                     greedy.objective_before, greedy.objective_before)
            assert outcome(local_search_improve, problem, worse) == \
                outcome(reference_local_search, problem, worse)
        seen.add((problem.catchment.method, problem.objective,
                  isinstance(greedy, ReallocationPlan)))
    for method in FCA_METHODS:
        for objective in OBJECTIVES:
            assert (method, objective, True) in seen


def test_exact_ties_resolve_as_the_one_by_one_search():
    # every candidate ties exactly: one demand site no facility reaches pins the minimum at 0
    problem = make_problem([100, 50], [10, 10, 10], [[0.0, 0.0, 0.0], [99.0, 99.0, 99.0]],
                           budget=3)
    plan = greedy_allocate(problem)
    assert plan == reference_greedy(problem)
    assert plan.units == (3, 0, 0)
    assert local_search_improve(problem, plan) == reference_local_search(problem, plan)


def test_single_candidate_local_search_stops():
    problem = make_problem([100, 50], [10, 10], [[0.0, 5.0], [5.0, 0.0]], budget=2,
                           candidates=(1,), objective="min_variance")
    plan = greedy_allocate(problem)
    assert plan.units == (2,)
    assert local_search_improve(problem, plan) == plan == reference_greedy(problem)


@pytest.mark.parametrize("demand_pop, cost, units, solves", [
    # no near-ties: one re-scored option per step
    pytest.param([100, 30], [[0.0, 99.0], [99.0, 0.0]], (3, 0), 1 + 3, id="distinct"),
    # a site no facility reaches ties every option at 0: three re-scored per step
    pytest.param([100, 50], [[0.0, 0.0, 0.0], [99.0, 99.0, 99.0]], (3, 0, 0), 1 + 3 * 3,
                 id="all-tied"),
])
def test_greedy_solves_once_for_the_baseline_and_once_per_rescored_option(
        monkeypatch, demand_pop, cost, units, solves):
    problem = make_problem(demand_pop, [10] * len(cost[0]), cost, budget=3, unit_size=10.0)
    calls = []
    solve = Catchment.solve
    monkeypatch.setattr(Catchment, "solve",
                        lambda self, capacity: calls.append(1) or solve(self, capacity))
    plan = greedy_allocate(problem)
    assert len(calls) == solves
    monkeypatch.undo()
    assert plan == reference_greedy(problem)
    assert plan.units == units


def full_shifts(problem):
    """The N x C block of every candidate's one-unit score shifts at once."""
    return problem.catchment.assign[:, list(problem.candidates)] * problem.per_unit


@pytest.mark.parametrize("lowest, bound_blocks", [
    pytest.param(1.0, 3, id="all-tied"), pytest.param(0.0, 0.25, id="one-low-site")])
def test_ranking_memory_is_a_few_chunk_blocks(lowest, bound_blocks):
    # every site ties, so no row can be pruned: the ranking holds a few
    # N x CHUNK blocks, never all ten chunks of columns at once; one site
    # below every other by more than any shift leaves one row to rank
    n, n_cand = 2000, 10 * CHUNK
    problem = make_problem([1.0] * n, [1.0] * n_cand, np.zeros((n, n_cand)), budget=1)
    start = np.ones(n)
    start[0] = lowest
    problem.per_unit  # built once per problem, before any ranking
    expected = problem._objective(start[:, None] + full_shifts(problem))
    peak = traced_peak(lambda: problem._unit_values(start))
    assert peak <= bound_blocks * n * CHUNK * 8
    assert problem._unit_values(start).tobytes() == expected.tobytes()


# --- properties ------------------------------------------------------------

@st.composite
def problems(draw, max_candidates=4, max_budget=4):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problem = random_problem(rng, max_candidates=max_candidates, max_budget=max_budget,
                             objective=draw(st.sampled_from(OBJECTIVES)))
    units = np.zeros(len(problem.candidates), dtype=int)
    for _ in range(draw(st.integers(0, problem.budget - 1))):
        units[draw(st.integers(0, len(units) - 1))] += 1
    return problem, units


@settings(max_examples=80, deadline=None)
@given(problems())
def test_block_objective_equals_kernel_for_every_single_unit_change(case):
    problem, units = case
    scores = problem._scores(units)
    added = problem._unit_values(scores)
    for c in range(len(units)):
        units[c] += 1
        assert added[c] == pytest.approx(problem._value(units), rel=1e-9, abs=1e-15)
        units[c] -= 1
    for frm in np.flatnonzero(units):  # local search's blocks: one unit taken from frm
        units[frm] -= 1
        moved = problem._unit_values(problem._scores(units))
        for to in range(len(units)):
            units[to] += 1
            assert moved[to] == pytest.approx(problem._value(units), rel=1e-9, abs=1e-15)
            units[to] -= 1
        units[frm] += 1


@settings(max_examples=60, deadline=None)
@given(problems())
def test_greedy_plus_local_search_never_worse_than_baseline(case):
    # greedy spends the whole budget, and for variance and Gini an added
    # unit can widen the spread; added capacity never lowers the minimum
    problem, _ = case
    greedy = greedy_allocate(problem)
    refined = local_search_improve(problem, greedy)
    if problem.objective == "max_min_access":
        assert not problem.better(refined.objective_before, refined.objective_after)
    assert not problem.better(greedy.objective_after, refined.objective_after)
    assert refined.objective_after == evaluate_objective(problem, refined.units)


@settings(max_examples=40, deadline=None)
@given(problems(max_candidates=3, max_budget=3))
def test_brute_force_at_least_as_good_on_tiny_instances(case):
    problem, _ = case
    refined = local_search_improve(problem, greedy_allocate(problem))
    assert not problem.better(refined.objective_after,
                              brute_force_allocate(problem).objective_after)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["kernel", "tied", "nan", "inf"]))
def test_max_min_ranking_equals_the_full_block_bit_for_bit(seed, kind):
    # sites no facility reaches, binary decay's exact ties, one NaN or +inf start
    rng = np.random.default_rng(seed)
    ds, matrix, decay = random_instance(rng, max_demand=12, max_supply=5,
                                        all_reachable=bool(rng.integers(0, 2)),
                                        kinds=("binary", "binary", "gaussian"))
    n_supply = len(ds.supply)
    size = int(rng.integers(1, n_supply + 1))
    problem = problem_on(ds, matrix, decay, budget=1,
                         candidates=tuple(rng.choice(n_supply, size=size, replace=False).tolist()),
                         unit_size=float(rng.choice([1.0, 10.0, rng.uniform(0.5, 50)])))
    start = problem._scores(rng.integers(0, 3, size=size))
    at = rng.integers(0, len(start))
    if kind == "tied":
        start[:] = start[at]
    elif kind != "kernel":
        start[at] = float(kind)
    full = outcome(problem._objective, start[:, None] + full_shifts(problem))
    ranked = outcome(problem._unit_values, start)
    if isinstance(full, np.ndarray):
        assert ranked.tobytes() == full.tobytes()
    else:
        assert ranked is full is NonFiniteObjective
