import numpy as np
import pytest

from accesskit.decay import DecaySpec
from accesskit.equity import gini
from accesskit.errors import (
    DimensionMismatch, InfeasibleAllocation, InstanceTooLarge, InvalidProblem,
)
from accesskit.fca import FCA_METHODS, compute_accessibility, g2sfca
from accesskit.optimize import (
    OBJECTIVES,
    AllocationProblem,
    add_candidate_sites,
    brute_force_allocate,
    evaluate_objective,
    greedy_allocate,
    local_search_improve,
    plan_json_dict,
)
from accesskit.travel import build_travel_matrix

from helpers import dataset_with_matrix, random_instance

BINARY30 = DecaySpec.binary(30.0)


def make_problem(demand_pop, supply_cap, cost, budget, *, objective="max_min_access",
                 candidates=None, unit_size=1.0, method="g2sfca", decay=BINARY30):
    ds, matrix = dataset_with_matrix(demand_pop, supply_cap, cost)
    if candidates is None:
        candidates = tuple(range(len(supply_cap)))
    return AllocationProblem(
        dataset=ds, matrix=matrix, decay=decay, budget=budget,
        candidates=candidates, method=method, unit_size=unit_size,
        objective=objective,
    )


def random_problem(rng, max_candidates=3, max_budget=3, max_demand=5,
                   objective=None):
    ds, matrix, decay = random_instance(
        rng, max_demand=max_demand, max_supply=max_candidates,
        all_reachable=True, allow_zero_pop=False)
    if objective is None:
        objective = ("max_min_access", "min_weighted_gini", "min_variance")[
            rng.integers(0, 3)]
    return AllocationProblem(
        dataset=ds, matrix=matrix, decay=decay,
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
                problem = AllocationProblem(
                    dataset=ds, matrix=matrix, decay=decay, budget=1,
                    candidates=tuple(range(len(ds.supply))), method=method,
                    objective=objective,
                )
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
            before = g2sfca(ds, matrix, decay).scores
            boosted, _ = dataset_with_matrix(
                [s.population for s in ds.demand],
                [s.capacity + (37.0 if j == 0 else 0.0)
                 for j, s in enumerate(ds.supply)],
                matrix.cost,
            )
            after = g2sfca(boosted, matrix, decay).scores
            assert (after >= before).all()

    def test_over_budget_rejected(self):
        problem = make_problem([100], [10], [[0.0]], budget=1)
        with pytest.raises(InfeasibleAllocation):
            evaluate_objective(problem, [2])

    def test_wrong_length_rejected(self):
        problem = make_problem([100], [10, 5], [[0.0, 1.0]], budget=1)
        with pytest.raises(InfeasibleAllocation):
            evaluate_objective(problem, [1, 0, 0])

    def test_matrix_shape_mismatch_is_a_dimension_error(self):
        ds, _ = dataset_with_matrix([100, 50], [10], [[0.0], [1.0]])
        _, wrong = dataset_with_matrix([100], [10], [[0.0]])
        problem = AllocationProblem(dataset=ds, matrix=wrong, decay=BINARY30,
                                    budget=1, candidates=(0,))
        with pytest.raises(DimensionMismatch):
            evaluate_objective(problem, [0])
        with pytest.raises(DimensionMismatch):
            greedy_allocate(problem)
        with pytest.raises(DimensionMismatch):
            g2sfca(ds, wrong, BINARY30)


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
            assert plan.total_units() == problem.budget

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
        matrix = build_travel_matrix(grown, metric="euclidean")
        d0 = float(matrix.cost.max()) * 1.5 + 1.0
        problem = AllocationProblem(
            dataset=grown, matrix=matrix, decay=DecaySpec.binary(d0),
            budget=2, candidates=new_idx, unit_size=5.0,
        )
        plan = greedy_allocate(problem)
        assert plan.units == (2,)
        assert problem.better(plan.objective_after, plan.objective_before) or \
            plan.objective_after == plan.objective_before

    def test_candidates_sorted_and_validated(self):
        problem = make_problem([1], [1, 1, 1], [[0.0, 0.0, 0.0]], budget=1,
                               candidates=(2, 0))
        assert problem.candidates == (0, 2)
        with pytest.raises(ValueError):
            make_problem([1], [1], [[0.0]], budget=1, candidates=(5,))

    @pytest.mark.parametrize("candidates", [(), (0, 0), (5,)])
    def test_bad_candidates_are_invalid_problems(self, candidates):
        with pytest.raises(InvalidProblem) as info:
            make_problem([1], [1], [[0.0]], budget=1, candidates=candidates)
        assert isinstance(info.value, ValueError)
        assert info.value.code == "optimize.InvalidProblem"


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
