"""Each library function names a malformed argument with its own error
class and message, before any work is done on it."""

import json

import numpy as np
import pytest

from accesskit.data_model import Dataset, load_values
from accesskit.decay import DecaySpec
from accesskit.equity import gini
from accesskit.errors import (
    InfeasibleAllocation, InvalidDecaySpec, InvalidProblem, InvalidStatArgument, MalformedRow,
)
from accesskit.fca import Catchment
from accesskit.optimize import AllocationProblem, evaluate_objective
from accesskit.spatial_stats import build_weights, morans_i
from accesskit.travel import TravelMatrix, cost_rows

from helpers import dataset_with_matrix

SQUARE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


def catchment():
    """Two demand sites and two supply sites, every pair 1 km apart."""
    dataset, matrix = dataset_with_matrix([10, 20], [5, 5], [[1.0, 1.0], [1.0, 1.0]])
    return Catchment("g2sfca", dataset, matrix, DecaySpec.binary(30.0))


def problem(**fields):
    return AllocationProblem(**{"catchment": catchment(), "budget": 2, "candidates": (0, 1),
                                **fields})


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
    pytest.param(lambda t: problem(budget=-1), InvalidProblem, "budget must be >= 0",
                 id="problem-budget-negative"),
    pytest.param(lambda t: evaluate_objective(problem(), [2, -1]), InfeasibleAllocation,
                 "unit counts must be nonnegative", id="objective-negative-units"),
    pytest.param(lambda t: TravelMatrix(cost=np.ones(3)), ValueError,
                 "cost must be a 2-d matrix", id="travel-cost-1d"),
    pytest.param(lambda t: TravelMatrix(cost=np.ones((2, 2)), unit="hours"), ValueError,
                 "unit must be one of", id="travel-unit-unknown"),
    pytest.param(lambda t: cost_rows(catchment().dataset, metric="manhattan"), ValueError,
                 "unknown metric 'manhattan'", id="cost-rows-metric-unknown"),
    pytest.param(lambda t: Catchment("4sfca", *dataset_with_matrix([1], [1], [[1.0]]),
                                     DecaySpec.binary(30.0)), ValueError,
                 "unknown method '4sfca'", id="catchment-method-unknown"),
    pytest.param(lambda t: DecaySpec(kind="logistic", d0=30.0), InvalidDecaySpec,
                 "unknown decay kind 'logistic'", id="decay-kind-unknown"),
    pytest.param(lambda t: DecaySpec(kind="zonal", zones=(10.0, 20.0)), InvalidDecaySpec,
                 "zonal decay requires weights or a positive finite beta",
                 id="decay-zonal-without-weights-or-beta"),
    pytest.param(lambda t: DecaySpec.zonal((10.0, 20.0), (1.0, 0.5, 0.2)), InvalidDecaySpec,
                 "need exactly one weight per zone", id="decay-zonal-lengths-differ"),
    pytest.param(lambda t: gini([1.0, 2.0, 3.0], weights=[1.0, 1.0]), ValueError,
                 "weights must match values in length", id="gini-weights-length"),
    pytest.param(lambda t: Dataset(demand=catchment().dataset.demand,
                                   supply=catchment().dataset.supply, coord_kind="polar"),
                 ValueError, "coord_kind must be one of", id="dataset-coord-kind-unknown"),
    pytest.param(line_string_values, MalformedRow, "row 1: geometry must be a Point",
                 id="geojson-feature-not-a-point"),
])
def test_a_malformed_argument_raises_its_class(tmp_path, call, error, start):
    with pytest.raises(error) as raised:
        call(tmp_path)
    assert type(raised.value) is error
    assert str(raised.value).startswith(start)
