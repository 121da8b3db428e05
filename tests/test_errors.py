"""Each library function names a malformed argument with its own error
class and message, before any work is done on it."""

import json
import math

import numpy as np
import pytest

from accesskit import spatial_stats
from accesskit.cli import RunConfig
from accesskit.data_model import Dataset, DemandSite, Region, SupplySite, load_values
from accesskit.decay import DecaySpec
from accesskit.equity import classify, gini, hrad, hrad_vs_population
from accesskit.errors import (
    ConfigError, DuplicateId, InfeasibleAllocation, InvalidDecaySpec, InvalidEpsilon,
    InvalidProblem, InvalidStatArgument, MalformedRow, NonPositiveSpeed,
    NonPositiveUnitSize, OutOfRangeCoordinate,
)
from accesskit.fca import Catchment
from accesskit.optimize import (
    AllocationProblem, evaluate_objective, greedy_allocate, local_search_improve, plan_json_dict,
)
from accesskit.spatial_stats import MAX_PERMUTATIONS, build_weights, lisa, morans_i
from accesskit.travel import TravelMatrix, build_travel_matrix, cost_rows

from helpers import dataset_with_matrix

SQUARE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


def catchment():
    """Two demand sites and two supply sites, every pair 1 km apart."""
    dataset, matrix = dataset_with_matrix([10, 20], [5, 5], [[1.0, 1.0], [1.0, 1.0]])
    return Catchment("g2sfca", dataset, matrix, DecaySpec("binary", 30.0))


def problem(**fields):
    return AllocationProblem(**{"catchment": catchment(), "budget": 2, "candidates": (0, 1),
                                **fields})


def sites(demand=(("a", 0.0, 0.0),), supply=(("h", 0.0, 0.0),), regions=None,
          coord_kind="geographic"):
    """A dataset of these (id, x, y) demand and supply sites, each of 1.0."""
    return Dataset(demand=[DemandSite(*site, 1.0) for site in demand],
                   supply=[SupplySite(*site, 1.0) for site in supply],
                   regions=regions, coord_kind=coord_kind)


def validated(**fields):
    config = RunConfig(**fields)
    config.validate()
    return config


def line_string_values(tmp_path):
    path = tmp_path / "values.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 1]]},
         "properties": {"id": "u0", "score": 1.0}}]}), encoding="utf-8")
    return load_values(path, "score")


@pytest.mark.parametrize("call, error, start", [
    pytest.param(lambda t: build_weights([1.0, 2.0, 3.0], k=1), InvalidStatArgument,
                 "locations must be an (n, 2) array", id="weights-locations-not-n-by-2"),
    pytest.param(lambda t: build_weights([(0.0, 0.0)], band=1.0), InvalidStatArgument,
                 "need at least 2 locations", id="weights-one-location"),
    pytest.param(lambda t: build_weights(SQUARE, k=2, band=1.0), InvalidStatArgument,
                 "give exactly one of k or band", id="weights-k-and-band"),
    pytest.param(lambda t: build_weights(SQUARE), InvalidStatArgument,
                 "give exactly one of k or band", id="weights-neither-k-nor-band"),
    pytest.param(lambda t: morans_i([1.0, 2.0, 3.0], build_weights(SQUARE, k=2)),
                 InvalidStatArgument, "values must be a length-4 vector", id="moran-values-short"),
    pytest.param(lambda t: problem(objective="max_access"), InvalidProblem,
                 "objective must be one of", id="problem-objective-unknown"),
    pytest.param(lambda t: problem(budget=-1), InvalidProblem, "budget must be >= 0, got -1",
                 id="problem-budget-negative"),
    pytest.param(lambda t: evaluate_objective(problem(), [2, -1]), InfeasibleAllocation,
                 "unit counts must be nonnegative", id="objective-negative-units"),
    pytest.param(lambda t: TravelMatrix(cost=np.ones(3)), ValueError,
                 "cost must be a 2-d matrix", id="travel-cost-1d"),
    pytest.param(lambda t: Catchment("4sfca", *dataset_with_matrix([1], [1], [[1.0]]),
                                     DecaySpec("binary", 30.0)), ValueError,
                 "unknown method '4sfca'", id="catchment-method-unknown"),
    pytest.param(lambda t: DecaySpec(kind="logistic", d0=30.0), InvalidDecaySpec,
                 "unknown decay kind 'logistic'", id="decay-kind-unknown"),
    pytest.param(lambda t: DecaySpec(kind="zonal", zones=(10.0, 20.0)), InvalidDecaySpec,
                 "zonal decay requires weights or a positive finite beta",
                 id="decay-zonal-without-weights-or-beta"),
    pytest.param(lambda t: DecaySpec("zonal", zones=(10.0, 20.0), weights=(1.0, 0.5, 0.2)),
                 InvalidDecaySpec, "need exactly one weight per zone",
                 id="decay-zonal-lengths-differ"),
    pytest.param(lambda t: gini([1.0, 2.0, 3.0], weights=[1.0, 1.0]), ValueError,
                 "weights must match values in length", id="gini-weights-length"),
    pytest.param(lambda t: Dataset(demand=catchment().dataset.demand,
                                   supply=catchment().dataset.supply, coord_kind="polar"),
                 ValueError, "coord_kind must be one of", id="dataset-coord-kind-unknown"),
    pytest.param(line_string_values, MalformedRow, "row 1: geometry must be a Point",
                 id="geojson-feature-not-a-point"),
    pytest.param(lambda t: sites(demand=(("a", 0.0, 0.0), ("a", 1.0, 1.0))), DuplicateId,
                 "duplicate demand id 'a'", id="dataset-duplicate-demand-id"),
    pytest.param(lambda t: sites(supply=(("h", 0.0, 0.0), ("h", 1.0, 1.0))), DuplicateId,
                 "duplicate supply id 'h'", id="dataset-duplicate-supply-id"),
    pytest.param(lambda t: sites(regions=[Region("r", 1.0, 1.0), Region("r", 2.0, 2.0)]),
                 DuplicateId, "duplicate region id 'r'", id="dataset-duplicate-region-id"),
    pytest.param(lambda t: sites(demand=(("a", 0.0, 0.0), ("b", -180.5, 0.0))),
                 OutOfRangeCoordinate, "demand 'b': lon -180.5 outside [-180, 180]",
                 id="dataset-lon-out-of-range"),
    pytest.param(lambda t: sites(supply=(("h", 0.0, 95.0),)), OutOfRangeCoordinate,
                 "supply 'h': lat 95.0 outside [-90, 90]", id="dataset-lat-out-of-range"),
    pytest.param(lambda t: build_weights(SQUARE, k=1, coord_kind="polar"), InvalidStatArgument,
                 "coord_kind must be one of ('geographic', 'planar'), got 'polar'",
                 id="weights-coord-kind-unknown"),
    pytest.param(lambda t: validated(metric="manhattan"), ConfigError,
                 "metric must be 'haversine' for geographic coordinates, got 'manhattan'",
                 id="cli-metric-unknown"),
    pytest.param(lambda t: validated(coord_kind="planar", metric="haversine"), ConfigError,
                 "metric must be 'euclidean' for planar coordinates, got 'haversine'",
                 id="cli-metric-not-the-coordinate-kinds"),
    pytest.param(lambda t: validated(coord_kind="cartesian"), ConfigError,
                 "coord_kind must be one of ('geographic', 'planar'), got 'cartesian'",
                 id="cli-coord-kind-unknown"),
])
def test_a_malformed_argument_raises_its_class(tmp_path, call, error, start):
    with pytest.raises(error) as raised:
        call(tmp_path)
    assert type(raised.value) is error
    assert str(raised.value).startswith(start)


def on_square(statistic, **count):
    """``statistic`` on four values of the square's 2-nearest-neighbour weights."""
    return statistic([1.0, 2.0, 3.0, 4.0], build_weights(SQUARE, k=2), **count)


def local_search(max_iters):
    allocation = problem()
    return local_search_improve(allocation, greedy_allocate(allocation), max_iters)


# Each count argument: how to pass it a value, its error class, and each value
# out of its range with the start of its message. Only the permutation count
# has an upper end.
ABOVE_THE_CAP = f"n_permutations must be <= {MAX_PERMUTATIONS}, got "
COUNT_ARGUMENTS = [
    *((f"{statistic.__name__}-{name}", call, InvalidStatArgument, bad)
      for statistic in (morans_i, lisa)
      for name, call, bad in (
          ("n-permutations", lambda v, s=statistic: on_square(s, n_permutations=v),
           ((0, "n_permutations must be >= 1, got 0"),
            (MAX_PERMUTATIONS + 1, ABOVE_THE_CAP + str(MAX_PERMUTATIONS + 1)),
            (2**63, ABOVE_THE_CAP + str(2**63)), (10**30, ABOVE_THE_CAP + str(10**30)))),
          ("seed", lambda v, s=statistic: on_square(s, seed=v),
           ((-1, "seed must be >= 0, got -1"),)),
          ("threads", lambda v, s=statistic: on_square(s, threads=v),
           ((0, "threads must be >= 1, got 0"),)))),
    ("max-iters", local_search, InvalidProblem, ((-1, "max_iters must be >= 0, got -1"),)),
    ("cli-threads", lambda v: validated(threads=v), ConfigError,
     ((0, "threads must be >= 1, got 0"),)),
]


@pytest.mark.parametrize("call, value, error, start", [
    pytest.param(call, value, error, start, id=f"{name}-{value}")
    for name, call, error, bad in COUNT_ARGUMENTS for value, start in bad])
def test_a_count_out_of_its_range_raises_its_class(call, value, error, start):
    with pytest.raises(error) as raised:
        call(value)
    assert type(raised.value) is error
    assert str(raised.value).startswith(start)


def test_the_permutation_cap_is_taken_and_one_more_is_refused(monkeypatch):
    monkeypatch.setattr(spatial_stats, "MAX_PERMUTATIONS", 9)
    for statistic in (morans_i, lisa):
        assert on_square(statistic, n_permutations=9).n_permutations == 9
        with pytest.raises(InvalidStatArgument) as raised:
            on_square(statistic, n_permutations=10)
        assert str(raised.value) == "n_permutations must be <= 9, got 10"


REGIONS = [Region("r0", 10.0, 20.0, 5.0), Region("r1", 90.0, 80.0, 5.0)]

# Each real-number argument: how to pass it a value, its error class, the start
# of its message, and the values of True, "1", None, nan, inf, 0 and -1 that
# are invalid for it. None leaves band and speed unset, and 0 is a valid
# epsilon; a zone or weight entry of 0 or below is a number that later checks
# reject with their own messages.
EVERY_BAD = (True, "1", None, math.nan, math.inf, 0, -1.0)
REAL_ARGUMENTS = [
    ("band", lambda v: build_weights(SQUARE, band=v), InvalidStatArgument,
     "band radius must be positive and finite, got ", (True, "1", math.nan, math.inf, 0, -1.0)),
    ("speed", lambda v: cost_rows(catchment().dataset, v), NonPositiveSpeed,
     "speed must be positive and finite km per minute, got ",
     (True, "1", math.nan, math.inf, 0, -1.0)),
    ("unit-size", lambda v: problem(unit_size=v), NonPositiveUnitSize,
     "unit_size must be positive and finite, got ", EVERY_BAD),
    ("hrad-epsilon", lambda v: hrad(REGIONS, v), InvalidEpsilon,
     "epsilon must be finite and >= 0, got ", (True, "1", None, math.nan, math.inf, -1.0)),
    ("hrad-vs-population-epsilon", lambda v: hrad_vs_population(REGIONS, v), InvalidEpsilon,
     "epsilon must be finite and >= 0, got ", (True, "1", None, math.nan, math.inf, -1.0)),
    ("classify-epsilon", lambda v: classify(1.0, v), InvalidEpsilon,
     "epsilon must be finite and >= 0, got ", (True, "1", None, math.nan, math.inf, -1.0)),
    ("d0", lambda v: DecaySpec("gaussian", v, 180.0), InvalidDecaySpec,
     "d0 must be a positive finite cutoff, got ", EVERY_BAD),
    ("beta", lambda v: DecaySpec("gaussian", 30.0, v), InvalidDecaySpec,
     "gaussian decay requires a positive finite beta, got ", EVERY_BAD),
    ("zonal-beta", lambda v: DecaySpec(kind="zonal", zones=(10.0, 20.0), beta=v),
     InvalidDecaySpec, "zonal decay requires weights or a positive finite beta, got ", EVERY_BAD),
    # the last zone is 1.0, so a d0 of True equals it
    ("zonal-d0", lambda v: DecaySpec(kind="zonal", d0=v, zones=(0.5, 1.0), weights=(1.0, 0.5)),
     InvalidDecaySpec, "last zone breakpoint must equal d0", (True, "1", math.nan, math.inf, 0,
                                                               -1.0)),
    ("zones-entry", lambda v: DecaySpec("zonal", zones=(v, 20.0), weights=(1.0, 0.5)),
     InvalidDecaySpec, "zones must be a nonempty list of finite numbers, got ",
     (True, "1", None, math.nan, math.inf)),
    ("weights-entry", lambda v: DecaySpec("zonal", zones=(10.0, 20.0), weights=(1.0, v)),
     InvalidDecaySpec, "weights must be a nonempty list of finite numbers, got ",
     (True, "1", None, math.nan, math.inf)),
]


@pytest.mark.parametrize("call, value, error, start", [
    pytest.param(call, value, error, start, id=f"{name}-{value!r}")
    for name, call, error, start, bad in REAL_ARGUMENTS for value in bad])
def test_a_bad_real_argument_raises_its_class(call, value, error, start):
    with pytest.raises(error) as raised:
        call(value)
    assert type(raised.value) is error
    assert str(raised.value).startswith(start)


def band_weights(band):
    weights = build_weights(SQUARE, band=band)
    return [a.tolist() for a in (weights.indptr, weights.indices, weights.data)]


def greedy_plan(unit_size):
    allocation = problem(unit_size=unit_size)
    return json.dumps(plan_json_dict(allocation, greedy_allocate(allocation)))


@pytest.mark.parametrize("result, value", [
    pytest.param(band_weights, 1, id="band"),
    pytest.param(lambda v: build_travel_matrix(catchment().dataset, v).cost.tolist(),
                 2, id="speed"),
    pytest.param(greedy_plan, 2, id="unit-size"),
    pytest.param(lambda v: repr(hrad(REGIONS, v)), 0, id="hrad-epsilon"),
    pytest.param(lambda v: repr(hrad_vs_population(REGIONS, v)), 1,
                 id="hrad-vs-population-epsilon"),
    pytest.param(lambda v: classify(1.5, v), 1, id="classify-epsilon"),
    pytest.param(lambda v: repr(DecaySpec("gaussian", v, 180.0)), 30, id="d0"),
    pytest.param(lambda v: repr(DecaySpec("gaussian", 30.0, v)), 180, id="beta"),
    pytest.param(lambda v: repr(DecaySpec(kind="zonal", zones=(10.0, 20.0), beta=v)), 180,
                 id="zonal-beta"),
    pytest.param(lambda v: repr(DecaySpec(kind="zonal", d0=v, zones=(10.0, 20.0),
                                          weights=(1.0, 0.5))), 20, id="zonal-d0"),
    pytest.param(lambda v: repr(DecaySpec("zonal", zones=(10.0, v), weights=(1.0, 0.5))), 20,
                 id="zones-entry"),
    pytest.param(lambda v: repr(DecaySpec("zonal", zones=(10.0, 20.0), weights=(v, 0.5))), 1,
                 id="weights-entry"),
])
def test_a_real_argument_takes_an_int_or_numpy_float_as_the_equal_float(result, value):
    want = result(float(value))
    assert result(value) == want
    assert result(np.float64(value)) == want
