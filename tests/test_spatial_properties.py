"""Property tests for the CSR spatial weights and the statistics built on them.

Random planar point sets get either kNN or distance-band weights; small
bands leave some units without neighbors. Points drawn on a coarse grid,
planar or geographic, repeat and tie in distance, and the weights built
one row at a time must equal those of the full distance matrix.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from accesskit.spatial_stats import build_weights, lisa, morans_i
from accesskit.travel import euclidean_matrix, haversine_matrix


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


@st.composite
def grid_weights_case(draw):
    n = draw(st.integers(2, 20))
    cells = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=n, max_size=n))
    coord_kind = draw(st.sampled_from(["planar", "geographic"]))
    if coord_kind == "planar":
        pts = np.array(cells, dtype=float) * 250.0  # meters, so 0.25 km steps
    else:
        pts = np.array([117.0, 36.6]) + np.array(cells, dtype=float) * 0.005  # degrees
    if draw(st.booleans()):
        return pts, coord_kind, {"k": draw(st.integers(1, n - 1))}
    return pts, coord_kind, {"band": draw(st.sampled_from([0.25, 0.5, 0.6, 1.0, 1.5]))}


def dense_weights(pts, coord_kind, k=None, band=None):
    """CSR arrays from the full n x n distance matrix with an infinite diagonal."""
    dist = (haversine_matrix if coord_kind == "geographic" else euclidean_matrix)(pts, pts)
    np.fill_diagonal(dist, np.inf)
    n = len(pts)
    if k is not None:
        cols = np.argsort(dist, axis=1, kind="stable")[:, :k].ravel()
        rows = np.repeat(np.arange(n), k)
    else:
        rows, cols = np.nonzero(dist <= band)
    counts = np.bincount(rows, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return indptr, cols, 1.0 / counts[rows], tuple(np.flatnonzero(counts == 0).tolist())


@settings(max_examples=150, deadline=None)
@given(grid_weights_case())
def test_row_by_row_build_matches_the_dense_matrix(case):
    pts, coord_kind, scheme = case
    w = build_weights(pts, coord_kind=coord_kind, **scheme)
    indptr, indices, data, isolated = dense_weights(pts, coord_kind, **scheme)
    assert np.array_equal(w.indptr, indptr)
    assert np.array_equal(w.indices, indices)
    assert np.array_equal(w.data, data)
    assert w.isolated == isolated
