"""accesskit: facility accessibility, spatial equity, and reallocation planning.

The toolkit covers four stages of a service-equity study:

1. accessibility scores for every population site via the floating
   catchment area method family (fca, decay, travel, data_model);
2. spatial pattern: is access clustered, and where (spatial_stats);
3. equity of the underlying resource layout (equity);
4. where added capacity would improve equity the most (optimize).

See the demos/ directory of the source tree for narrative walkthroughs,
or run the ``accesskit`` command-line interface.
"""

from . import errors
from .data_model import (
    Dataset,
    DemandSite,
    DemandTable,
    Region,
    SupplySite,
    SupplyTable,
    load_dataset,
    load_demand,
    load_regions,
    load_supply,
    write_dataset,
)
from .decay import DecaySpec, evaluate_decay
from .equity import HradResult, RegionEquity, gini, hrad, hrad_vs_population
from .fca import Catchment
from .optimize import (
    AllocationProblem,
    ReallocationPlan,
    add_candidate_sites,
    brute_force_allocate,
    evaluate_objective,
    greedy_allocate,
    local_search_improve,
)
from .spatial_stats import (
    LisaResult,
    MoranResult,
    SpatialWeights,
    build_weights,
    lisa,
    morans_i,
)
from .synth import synthetic_city, write_city
from .travel import (
    TravelMatrix,
    build_travel_matrix,
    cost_rows,
    haversine_distance,
    load_od_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationProblem",
    "Catchment",
    "Dataset",
    "DecaySpec",
    "DemandSite",
    "DemandTable",
    "HradResult",
    "LisaResult",
    "MoranResult",
    "ReallocationPlan",
    "Region",
    "RegionEquity",
    "SpatialWeights",
    "SupplySite",
    "SupplyTable",
    "TravelMatrix",
    "add_candidate_sites",
    "brute_force_allocate",
    "build_travel_matrix",
    "build_weights",
    "cost_rows",
    "errors",
    "evaluate_decay",
    "evaluate_objective",
    "gini",
    "greedy_allocate",
    "haversine_distance",
    "hrad",
    "hrad_vs_population",
    "lisa",
    "load_dataset",
    "load_demand",
    "load_od_matrix",
    "load_regions",
    "load_supply",
    "local_search_improve",
    "morans_i",
    "synthetic_city",
    "write_city",
    "write_dataset",
]
