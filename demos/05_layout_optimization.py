"""Where should new capacity go?

A before/after exercise: the town from the first demo gets a budget of
expansion units. Greedy placement refined by local search is checked
against exhaustive enumeration, and a prospective new site competes with
expanding the existing clinics.
"""

from accesskit import (
    AllocationProblem,
    Catchment,
    Dataset,
    DecaySpec,
    DemandSite,
    SupplySite,
    add_candidate_sites,
    brute_force_allocate,
    build_travel_matrix,
    greedy_allocate,
    local_search_improve,
)

town = Dataset(
    demand=(
        DemandSite("westside", 0.0, 0.0, population=4000),
        DemandSite("center", 6000.0, 0.0, population=9000),
        DemandSite("eastside", 14000.0, 0.0, population=2500),
    ),
    supply=(
        SupplySite("clinic_a", 5000.0, 0.0, capacity=30),
        SupplySite("clinic_b", 13000.0, 0.0, capacity=12),
    ),
    coord_kind="planar",
)

# a prospective west-end site starts with zero capacity
town, new_sites = add_candidate_sites(town, [("clinic_west", 1000.0, 0.0)])
matrix = build_travel_matrix(town, speed=0.5)
decay = DecaySpec("gaussian", d0=30.0, beta=180.0)

# one catchment gives the baseline scores and poses the plan
catchment = Catchment("g2sfca", town, matrix, decay)
problem = AllocationProblem(
    catchment=catchment,
    budget=6, unit_size=5.0,                  # six expansions of 5 beds
    candidates=tuple(range(len(town.supply))),  # every site may grow
    objective="max_min_access",
)

print("baseline access per 1000 people:")
for site, score in zip(town.demand, catchment.scores):
    print(f"  {site.id:<10} {1000 * score:8.3f}")

plan = local_search_improve(problem, greedy_allocate(problem))
oracle = brute_force_allocate(problem)

print(f"\nworst-off access, to be maximized:")
print(f"  before          {1000 * plan.objective_before:8.3f}")
print(f"  greedy + search {1000 * plan.objective_after:8.3f}")
print(f"  exhaustive      {1000 * oracle.objective_after:8.3f}")

print("\nunits placed (5 beds each):")
for c, units in zip(problem.candidates, plan.units):
    if units:
        print(f"  {town.supply[c].id:<12} +{units} units")
print("objective trace:",
      " -> ".join(f"{1000 * v:.3f}" for v in plan.trace))
