"""Property tests for the CSR spatial weights and the statistics built on them.

Random planar point sets get either kNN or distance-band weights; small
bands leave some units without neighbors.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from accesskit.spatial_stats import build_weights, lisa, morans_i


@st.composite
def weights_and_values(draw):
    n = draw(st.integers(2, 25))
    coords = st.floats(0.0, 1000.0, allow_nan=False)  # meters
    pts = np.array(draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n)))
    if draw(st.booleans()):
        w = build_weights(pts, k=draw(st.integers(1, n - 1)), coord_kind="planar")
    else:
        w = build_weights(pts, band=draw(st.floats(0.01, 1.5)), coord_kind="planar")  # km
    values = np.array(draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)), float)
    return w, values


@settings(max_examples=60, deadline=None)
@given(weights_and_values())
def test_lag_matches_dense_product(case):
    w, values = case
    assert np.allclose(w.lag(values), w.to_dense() @ values, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(weights_and_values())
def test_rows_sum_to_one_and_isolated_rows_are_empty(case):
    w, _ = case
    assert w.row_standardized
    counts = np.diff(w.indptr)
    assert w.isolated == tuple(np.flatnonzero(counts == 0).tolist())
    sums = w.to_dense().sum(axis=1)
    assert np.allclose(sums[counts > 0], 1.0, rtol=0, atol=1e-12)
    assert (sums[counts == 0] == 0.0).all()
    assert (w.indices != np.repeat(np.arange(w.n), counts)).all()  # no self-neighbors


@settings(max_examples=40, deadline=None)
@given(weights_and_values())
def test_local_values_sum_to_n_times_global(case):
    w, values = case
    assume(values.min() < values.max())
    local = lisa(values, w, n_permutations=9, seed=1).local_i
    global_i = morans_i(values, w, n_permutations=9, seed=1).i
    assert local.sum() == pytest.approx(w.n * global_i, rel=1e-9, abs=1e-9)
