"""Compare the floating-catchment accessibility variants on a toy town.

Three neighborhoods sit along a road; two clinics serve them. The script
walks through the two computation steps, then contrasts the binary,
zoned, Gaussian, and configuration-discounting variants on the same data.
"""

import numpy as np

from accesskit import (
    Dataset,
    DecaySpec,
    DemandSite,
    SupplySite,
    build_travel_matrix,
    g2sfca,
    m2sfca,
    step1_supply_ratios,
    two_sfca,
    e2sfca,
)

# --- a three-neighborhood town (planar coordinates, meters) ---------------

town = Dataset(
    demand=(
        DemandSite("westside", 0.0, 0.0, population=4000),
        DemandSite("center", 6000.0, 0.0, population=9000),
        DemandSite("eastside", 14000.0, 0.0, population=2500),
    ),
    supply=(
        SupplySite("clinic_a", 5000.0, 0.0, capacity=30),   # near the center
        SupplySite("clinic_b", 13000.0, 0.0, capacity=12),  # out east
    ),
    coord_kind="planar",
)

# travel time at 30 km/h: 0.5 km per minute
matrix = build_travel_matrix(town, metric="euclidean", speed=0.5)
print("travel minutes (demand x supply):")
print(np.round(matrix.cost, 1))

# --- step 1: how crowded is each clinic? -----------------------------------

gaussian = DecaySpec.gaussian(d0=30.0, beta=180.0)
ratios = step1_supply_ratios(town, matrix, gaussian)
print("\nper-clinic capacity over decay-weighted demand (step 1):")
for site, r in zip(town.supply, ratios):
    print(f"  {site.id}: {r:.6f} units/person")

# --- step 2 + variants ------------------------------------------------------

results = {
    "two_sfca (binary, 30 min)": two_sfca(town, matrix, d0=30.0),
    "e2sfca (zones 10/20/30)": e2sfca(
        town, matrix, DecaySpec.zonal([10, 20, 30], [1.0, 0.68, 0.22])),
    "g2sfca (gaussian)": g2sfca(town, matrix, gaussian),
    "m2sfca (gaussian)": m2sfca(town, matrix, gaussian),
}

print("\naccessibility per 1000 people:")
header = f"{'neighborhood':<12}" + "".join(f"{name:>28}" for name in results)
print(header)
for i, site in enumerate(town.demand):
    row = f"{site.id:<12}"
    for result in results.values():
        row += f"{1000 * result.scores[i]:>28.3f}"
    print(row)

# The generalized form conserves supply: decay-weighted demand times scores
# adds back up to total capacity. The discounting variant keeps less, and
# the shortfall measures how awkwardly the clinics sit relative to people.
pop = town.demand.population  # a dataset keeps its sites as columns
total = town.supply.capacity.sum()
for name in ("g2sfca (gaussian)", "m2sfca (gaussian)"):
    captured = float(pop @ results[name].scores)
    print(f"\n{name}: captured {captured:.3f} of {total} capacity units "
          f"({captured / total:.1%})")
