"""Deep checks of the permutation inference against exact enumeration.

Small instances allow enumerating every relabeling (global) or every
ordered neighbor sample (local), giving exact null moments and exact
pseudo p-values to compare the sampled machinery against.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accesskit.spatial_stats import (
    SpatialWeights,
    _distinct_indices,
    _lemire_draws,
    build_weights,
    lisa,
    morans_i,
)

from helpers import dense


class TestGlobalAgainstFullEnumeration:
    def exact_null(self, values, matrix):
        """Moments of I over every permutation of the values."""
        z = np.asarray(values) - np.mean(values)
        denom = z @ z
        stats = []
        for perm in itertools.permutations(range(len(z))):
            zp = z[list(perm)]
            stats.append(zp @ (matrix @ zp) / denom)
        return np.array(stats)

    def test_sampled_moments_match_enumeration(self):
        rng = np.random.default_rng(201)
        pts = rng.uniform(0, 10, size=(7, 2))
        values = rng.normal(size=7)
        w = build_weights(pts, k=3, coord_kind="planar")
        exact = self.exact_null(values, dense(w))

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
        exact = self.exact_null(values, dense(w))

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
        # the stream of k sequential integers calls with Floyd's collision fix-up,
        # and the draws that follow it: permuted, then a 32-bit draw that
        # takes a carried half-word
        cases = (
            (1999, 9, 999),            # odd k * rows: a half-word is carried over
            (1999, 10, 999),           # even k * rows
            (6, 6, 50),                # m == k: the first bound is 1
            (2**31, 5, 41),            # bounds up to 2**31, rejections rare
            (2**31 + 2, 3, 41),        # bounds 2**31 + 1 and 2**31 + 2: half the draws rejected
            (2**32 - 1, 4, 25),        # the largest bound of Lemire's 32-bit method
            (3 * 2**30, 2, 30),        # a third of the draws rejected
            (2**32, 2, 7),             # a bare 32-bit half-word
            (2**33, 3, 20),            # 64-bit draws
            (1, 1, 5),
        )
        makers = (np.random.default_rng, lambda seed: np.random.Generator(np.random.MT19937(seed)))
        for (m, k, rows), make in itertools.product(cases, makers):
            rng, ref_rng = make([208, m, k]), make([208, m, k])
            ref = _k_integers_calls(ref_rng, m, k, rows)
            out = _distinct_indices(rng, m, k, rows)
            assert out.dtype == ref.dtype and np.array_equal(out, ref)
            assert out.flags.c_contiguous
            assert np.array_equal(rng.permuted(out, axis=1), ref_rng.permuted(ref, axis=1))
            assert (rng.integers(2**32, dtype=np.uint32)
                    == ref_rng.integers(2**32, dtype=np.uint32))
            assert rng.integers(2**62) == ref_rng.integers(2**62)

    def test_raw_block_serves_what_it_can_and_restores_the_rest(self):
        rng = np.random.default_rng(209)
        assert _lemire_draws(rng.bit_generator, 1991, 1999, 999) is not None
        assert rng.bit_generator.state["has_uint32"] == 1  # 8991 halves: one is left over
        assert _lemire_draws(rng.bit_generator, 1990, 1999, 999) is None  # it is carried
        # a rejected draw, a bound of 1, a bound of 2**32
        for low, high in ((2**31 + 1, 2**31 + 2), (1, 5), (2**32 - 1, 2**32)):
            rng = np.random.default_rng(209)
            state = rng.bit_generator.state
            assert _lemire_draws(rng.bit_generator, low, high, 41) is None
            assert rng.bit_generator.state == state
        assert _lemire_draws(np.random.MT19937(209), 10, 20, 5) is None

    @settings(max_examples=150, deadline=None)
    @given(m=st.one_of(st.integers(1, 3000), st.integers(2**31 - 40, 2**31 + 40),
                       st.integers(2**32 - 40, 2**32 + 40)),
           k=st.integers(1, 12), rows=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
           carried=st.booleans())
    def test_draws_equal_k_integers_calls(self, m, k, rows, seed, carried):
        k = min(k, m)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if carried:  # a half-word left over by an earlier 32-bit draw
            rng.integers(7, dtype=np.uint32), ref_rng.integers(7, dtype=np.uint32)
        ref = _k_integers_calls(ref_rng, m, k, rows)
        assert np.array_equal(_distinct_indices(rng, m, k, rows), ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _k_integers_calls(rng, m, k, rows):
    """Floyd's sample as k ``integers`` calls, one bound per call."""
    ref = np.empty((rows, k), dtype=np.int64)
    for j, t in enumerate(range(m - k, m)):
        r = rng.integers(0, t + 1, size=rows)
        r[(ref[:, :j] == r[:, None]).any(axis=1)] = t
        ref[:, j] = r
    return ref
