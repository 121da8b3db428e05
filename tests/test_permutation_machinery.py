"""Deep checks of the permutation inference against exact enumeration.

Small instances allow enumerating every relabeling (global) or every
ordered neighbor sample (local), giving exact null moments and exact
pseudo p-values to compare the sampled machinery against.
"""

import itertools
import math

import numpy as np
import pytest

from accesskit.spatial_stats import (
    SpatialWeights,
    _distinct_indices,
    build_weights,
    lisa,
    morans_i,
)


class TestGlobalAgainstFullEnumeration:
    def exact_null(self, values, dense):
        """Moments of I over every permutation of the values."""
        z = np.asarray(values) - np.mean(values)
        denom = z @ z
        stats = []
        for perm in itertools.permutations(range(len(z))):
            zp = z[list(perm)]
            stats.append(zp @ (dense @ zp) / denom)
        return np.array(stats)

    def test_sampled_moments_match_enumeration(self):
        rng = np.random.default_rng(201)
        pts = rng.uniform(0, 10, size=(7, 2))
        values = rng.normal(size=7)
        w = build_weights(pts, k=3, coord_kind="planar")
        exact = self.exact_null(values, w.to_dense())

        result = morans_i(values, w, n_permutations=4999, seed=17)
        # expectation under relabeling is exactly -1/(n-1)
        assert exact.mean() == pytest.approx(-1 / 6, abs=1e-12)
        se_mean = exact.std() / math.sqrt(result.sim.size)
        assert result.sim.mean() == pytest.approx(exact.mean(), abs=4 * se_mean)
        # variance of the sample variance ~ 2 sigma^4 / (P-1) for near-normal
        # nulls; allow a generous band
        assert result.sim.var() == pytest.approx(exact.var(), rel=0.2)

    def test_sampled_p_matches_exact_p(self):
        rng = np.random.default_rng(202)
        pts = rng.uniform(0, 10, size=(7, 2))
        values = rng.normal(size=7)
        w = build_weights(pts, k=2, coord_kind="planar")
        exact = self.exact_null(values, w.to_dense())

        n_perm = 19999
        result = morans_i(values, w, n_permutations=n_perm, seed=23)
        expected = -1 / 6
        dev = np.abs(exact - expected)
        dev_obs = abs(result.i - expected)
        # bracket the exact fraction to stay robust against boundary atoms
        q_ge = float(np.mean(dev >= dev_obs))
        q_gt = float(np.mean(dev > dev_obs))
        tol = 4 * math.sqrt(max(q_ge * (1 - q_ge), 1e-4) / n_perm) + 2 / (n_perm + 1)
        assert q_gt - tol <= result.p_value <= q_ge + tol


class TestLocalAgainstFullEnumeration:
    def test_sampled_p_matches_exact_p_with_unequal_weights(self):
        # custom weights exercise order-dependence of the neighbor sample
        rng = np.random.default_rng(203)
        values = rng.normal(size=6)
        weights = SpatialWeights(
            # rows: (1, 2), (0, 3), (4, 5), (1,), (2, 0), (3, 1)
            indptr=np.array([0, 2, 4, 6, 7, 9, 11]),
            indices=np.array([1, 2, 0, 3, 4, 5, 1, 2, 0, 3, 1]),
            data=np.array([0.7, 0.3, 0.2, 0.8, 0.5, 0.5, 1.0, 0.9, 0.1, 0.4, 0.6]),
        )
        n_perm = 9999
        result = lisa(values, weights, n_permutations=n_perm, seed=31)

        z = values - values.mean()
        m2 = float(z @ z) / 6
        for i in range(6):
            row = slice(weights.indptr[i], weights.indptr[i + 1])
            idx, wts = weights.indices[row], weights.data[row]
            others = np.delete(z, i)
            sims = np.array([
                z[i] / m2 * float(wts @ np.array(tup))
                for tup in itertools.permutations(others, len(idx))
            ])
            observed = z[i] / m2 * float(wts @ z[list(idx)])
            center = sims.mean()
            dev = np.abs(sims - center)
            dev_obs = abs(observed - center)
            # the sampled run centers on its own permutation mean, so bracket
            # between strict and non-strict counts plus sampling noise
            q_ge = float(np.mean(dev >= dev_obs * (1 - 1e-9)))
            q_gt = float(np.mean(dev > dev_obs * (1 + 1e-9)))
            tol = 4 * math.sqrt(max(q_ge * (1 - q_ge), 1e-3) / n_perm) + 3 / (n_perm + 1)
            assert q_gt - tol <= result.p_value[i] <= q_ge + tol, f"unit {i}"

    def test_null_p_values_are_roughly_uniform(self):
        # iid values: no spatial structure, so p-values should not pile up
        rng = np.random.default_rng(204)
        pts = rng.uniform(0, 100, size=(80, 2))
        values = rng.normal(size=80)
        w = build_weights(pts, k=6, coord_kind="planar")
        result = lisa(values, w, n_permutations=499, seed=7)
        assert 0.3 < result.p_value.mean() < 0.8
        assert (result.p_value <= 0.05).mean() < 0.2


class TestDistinctIndexSampler:
    def test_rows_are_distinct_and_in_range(self):
        rng = np.random.default_rng(205)
        for m, k in ((10, 3), (5, 5), (40, 1), (6, 4)):
            out = _distinct_indices(rng, m, k, rows=500)
            assert out.shape == (500, k)
            assert out.min() >= 0 and out.max() < m
            for row in out:
                assert len(set(row.tolist())) == k

    def test_full_draw_is_a_permutation(self):
        rng = np.random.default_rng(206)
        out = _distinct_indices(rng, 6, 6, rows=200)
        for row in out:
            assert sorted(row.tolist()) == list(range(6))

    def test_marginal_frequencies_are_uniform(self):
        # every index should appear in a k-subset with probability k/m
        rng = np.random.default_rng(207)
        m, k, rows = 12, 4, 30_000
        out = _distinct_indices(rng, m, k, rows)
        counts = np.bincount(out.ravel(), minlength=m)
        expected = rows * k / m
        sd = math.sqrt(rows * (k / m) * (1 - k / m))
        assert np.all(np.abs(counts - expected) < 5 * sd)

    def test_one_draw_matches_one_call_per_column(self):
        # the stream of k sequential integers calls with Floyd's collision fix-up
        for m, k, rows in ((1999, 9, 999), (6, 6, 50), (2**33, 3, 20), (1, 1, 5)):
            rng, ref_rng = np.random.default_rng([208, m]), np.random.default_rng([208, m])
            ref = np.empty((rows, k), dtype=np.int64)
            for j, t in enumerate(range(m - k, m)):
                r = ref_rng.integers(0, t + 1, size=rows)
                r[(ref[:, :j] == r[:, None]).any(axis=1)] = t
                ref[:, j] = r
            out = _distinct_indices(rng, m, k, rows)
            assert out.dtype == ref.dtype and np.array_equal(out, ref)
            assert out.flags.c_contiguous
            assert rng.integers(2**62) == ref_rng.integers(2**62)
