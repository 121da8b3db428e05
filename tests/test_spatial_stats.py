import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from accesskit import _workers
from accesskit.errors import (
    InvalidStatArgument, KTooLarge, NonFiniteValue, NotRowStandardized, ZeroVariance,
)
from accesskit.spatial_stats import (
    SpatialWeights,
    build_weights,
    lisa,
    lisa_csv_text,
    moran_json_dict,
    morans_i,
)

from helpers import dense, needs_fork, oracle_moran

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
CHECKERBOARD = [1.0, 0.0, 0.0, 1.0]  # diagonal pairs equal


def neighbors(w, i):
    """Row i's neighbor indices, in stored order."""
    return tuple(w.indices[w.indptr[i]:w.indptr[i + 1]].tolist())


def rook_weights():
    # knn k=2 on the unit square corners is exactly rook contiguity
    return build_weights(UNIT_SQUARE, k=2, coord_kind="planar")


def random_case():
    """Values and k=5 weights on 30 random planar points."""
    rng = np.random.default_rng(62)
    pts = rng.uniform(0, 100, size=(30, 2))
    return rng.normal(size=30), build_weights(pts, k=5, coord_kind="planar")


class TestBuildWeights:
    def test_knn_on_collinear_points(self):
        w = build_weights([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)], k=1, coord_kind="planar")
        assert tuple(neighbors(w, i) for i in range(w.n)) == ((1,), (0,), (1,))

    def test_knn_tie_breaks_toward_smaller_index(self):
        # unit 2 is equidistant from 0 and 1
        w = build_weights([(0.0, 0.0), (2.0, 0.0), (1.0, 0.0)], k=1, coord_kind="planar")
        assert neighbors(w, 2) == (0,)

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            build_weights(UNIT_SQUARE, k=4, coord_kind="planar")
        with pytest.raises(KTooLarge):
            build_weights(UNIT_SQUARE, k=0, coord_kind="planar")

    def test_row_standardized_rows_sum_to_one(self):
        rng = np.random.default_rng(51)
        pts = rng.uniform(0, 100, size=(20, 2))
        w = build_weights(pts, k=5, coord_kind="planar")
        for i in range(w.n):
            assert w.data[w.indptr[i]:w.indptr[i + 1]].sum() == pytest.approx(1.0, abs=1e-12)

    def test_distance_band_and_isolated_units(self):
        # meters apart; band given in km. third point is isolated
        pts = [(0.0, 0.0), (500.0, 0.0), (10_000.0, 0.0)]
        w = build_weights(pts, band=1.0, coord_kind="planar")
        assert neighbors(w, 0) == (1,)
        assert neighbors(w, 2) == ()
        assert w.isolated == (2,)

    def test_no_self_neighbors(self):
        rng = np.random.default_rng(52)
        pts = rng.uniform(0, 10, size=(15, 2))
        w = build_weights(pts, k=4, coord_kind="planar")
        for i in range(w.n):
            assert i not in neighbors(w, i)

    def test_geographic_metric(self):
        pts = [(0.0, 0.0), (0.0, 0.5), (0.0, 80.0)]
        w = build_weights(pts, band=100.0, coord_kind="geographic")
        assert neighbors(w, 0) == (1,)

    def test_memory_is_linear_in_n(self):
        # at n=1500 an n x n float matrix alone is 18 MB; the CSR result is well under 4 MB
        pts = np.random.default_rng(54).uniform(0, 5000, size=(1500, 2))
        for scheme in ({"k": 8}, {"band": 0.25}):
            tracemalloc.start()
            try:
                build_weights(pts, coord_kind="planar", **scheme)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4e6, scheme

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_location(self, bad):
        # a NaN point would otherwise be its own nearest neighbour
        pts = [(0, 0), (bad, 0), (1, 1), (2, 2)]
        for scheme in ({"k": 2}, {"band": 5.0}):
            for kind in ("planar", "geographic"):
                with pytest.raises(InvalidStatArgument, match="finite"):
                    build_weights(pts, coord_kind=kind, **scheme)

    def test_infinite_band(self):
        # each unit's distance to itself is set to inf, and inf <= inf
        with pytest.raises(InvalidStatArgument, match="finite"):
            build_weights(UNIT_SQUARE, band=np.inf, coord_kind="planar")

    def test_unknown_coord_kind(self):
        # lon/lat about 1-2 km apart; a misspelt kind must not fall back to planar distance
        pts = [(117.0, 36.65), (117.01, 36.65), (117.0, 36.67)]
        assert build_weights(pts, band=1.5, coord_kind="geographic").indices.size == 2
        for kind in ("geograhpic", "Planar", None):
            with pytest.raises(InvalidStatArgument):
                build_weights(pts, band=1.5, coord_kind=kind)

    def test_coord_kind_has_no_default(self):
        # lon/lat read as planar meters would make every unit a neighbour of every other
        pts = [(117.0, 36.65), (117.01, 36.65), (117.0, 36.67)]
        for scheme in ({"k": 1}, {"band": 1.5}):
            with pytest.raises(TypeError, match="coord_kind"):
                build_weights(pts, **scheme)

    def test_to_dense_matches_lists(self):
        matrix = dense(rook_weights())
        assert matrix.shape == (4, 4)
        assert matrix[0, 1] == 0.5 and matrix[0, 2] == 0.5 and matrix[0, 3] == 0.0


    def test_isolated_follows_empty_rows(self):
        w = SpatialWeights(indptr=np.array([0, 0, 1, 1, 2, 2]), indices=np.array([3, 1]),
                           data=np.array([1.0, 1.0]))
        assert w.n == 5
        assert w.isolated == (0, 2, 4)


class TestMalformedWeights:
    """``SpatialWeights`` checks its CSR arrays when it is made, so a bad
    index never reaches a gather or ``np.bincount`` in the statistics."""

    @staticmethod
    def make(indptr, indices, data=None):
        indices = np.asarray(indices)
        return SpatialWeights(indptr=np.asarray(indptr), indices=indices,
                              data=np.full(len(indices), 1.0) if data is None else data)

    def test_built_weights_pass_unchanged(self):
        built = build_weights(UNIT_SQUARE, band=1.2, coord_kind="planar")
        again = self.make(built.indptr, built.indices, built.data)
        assert again.indptr is built.indptr and again.indices is built.indices

    def test_index_at_n(self):
        with pytest.raises(InvalidStatArgument, match=r"indices must lie in \[0, 3\)"):
            self.make([0, 1, 2, 3], [1, 3, 0])

    def test_negative_index(self):
        # numpy would wrap -1 to the last unit
        with pytest.raises(InvalidStatArgument, match=r"indices must lie in \[0, 3\)"):
            self.make([0, 1, 2, 3], [1, -1, 0])

    def test_indptr_ending_past_the_indices(self):
        with pytest.raises(InvalidStatArgument, match="end at the 3 indices"):
            self.make([0, 1, 2, 4], [1, 2, 0])

    def test_float_indices(self):
        with pytest.raises(InvalidStatArgument, match="indices must be a 1-D integer array"):
            self.make([0, 1, 2, 3], [1.0, 2.0, 0.0])

    @pytest.mark.parametrize("indptr", [[1, 1, 2, 3], [0, 2, 1, 3], []],
                             ids=["not-starting-at-0", "decreasing", "empty"])
    def test_indptr_must_start_at_0_and_never_decrease(self, indptr):
        with pytest.raises(InvalidStatArgument, match="indptr must start at 0, never decrease"):
            self.make(np.array(indptr, dtype=int), [1, 2, 0])

    @pytest.mark.parametrize("indptr, indices", [
        ([0.0, 1.0, 2.0, 3.0], [1, 2, 0]), ([[0, 1, 2, 3]], [1, 2, 0]),
        ([0, 1, 2, 3], [True, False, True]), ([0, 1, 2, 3], [[1, 2, 0]]),
    ], ids=["float-indptr", "2d-indptr", "bool-indices", "2d-indices"])
    def test_arrays_must_be_1d_integer(self, indptr, indices):
        with pytest.raises(InvalidStatArgument, match="must be a 1-D integer array"):
            self.make(indptr, indices, np.ones(3))

    @pytest.mark.parametrize("data", [np.ones(2), np.ones(4), np.ones((3, 1))],
                             ids=["short", "long", "2d"])
    def test_data_holds_one_weight_per_index(self, data):
        with pytest.raises(InvalidStatArgument, match="one weight per index"):
            self.make([0, 1, 2, 3], [1, 2, 0], data)


class TestIntegerArguments:
    """``k``, ``n_permutations``, ``seed`` and ``threads`` are Python or NumPy
    integers; a bool, float or string is refused, not rounded or taken as 0 or 1."""

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", np.float64(2.0)],
                             ids=["fraction", "whole-float", "bool", "text", "numpy-float"])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(InvalidStatArgument, match="k must be an integer"):
            build_weights(UNIT_SQUARE, k=k, coord_kind="planar")

    @pytest.mark.parametrize("name, value", [
        ("n_permutations", 9.5), ("n_permutations", 9.0), ("n_permutations", True),
        ("seed", 1.5), ("seed", True), ("seed", "1"),
    ], ids=["perms-fraction", "perms-whole-float", "perms-bool", "seed-fraction", "seed-bool",
            "seed-text"])
    def test_permutations_and_seed_must_be_integers(self, name, value):
        for statistic in (morans_i, lisa):
            with pytest.raises(InvalidStatArgument, match=f"{name} must be an integer"):
                statistic(CHECKERBOARD, rook_weights(), **{"n_permutations": 9, "seed": 1,
                                                           name: value})

    @pytest.mark.parametrize("threads", [2.5, "2", None, True])
    def test_threads_must_be_an_integer(self, monkeypatch, threads):
        # four CPUs, so that a threads above 1 would reach the worker split
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        for statistic in (morans_i, lisa):
            with pytest.raises(InvalidStatArgument) as raised:
                statistic(CHECKERBOARD, rook_weights(), 9, 1, threads)
            assert str(raised.value) == f"threads must be an integer, got {threads!r}"

    def test_numpy_integers_are_taken(self):
        w = build_weights(UNIT_SQUARE, k=np.int64(2), coord_kind="planar")
        assert w.indices.tobytes() == rook_weights().indices.tobytes()
        for statistic in (morans_i, lisa):
            plain = statistic(CHECKERBOARD, w, n_permutations=19, seed=3)
            numpy = statistic(CHECKERBOARD, w, n_permutations=np.int32(19), seed=np.uint8(3))
            assert np.asarray(numpy.p_value).tobytes() == np.asarray(plain.p_value).tobytes()
            # kept as ints, so the JSON summary can be written
            assert type(numpy.n_permutations) is int and type(numpy.seed) is int
        summary = moran_json_dict(morans_i(CHECKERBOARD, w, n_permutations=np.int64(9),
                                           seed=np.int64(3)))
        assert json.loads(json.dumps(summary))["seed"] == 3


class TestMoran:
    def test_checkerboard_is_exactly_minus_one(self):
        result = morans_i(CHECKERBOARD, rook_weights(), n_permutations=99, seed=1)
        assert result.i == -1.0

    def test_expected_value_closed_form(self):
        result = morans_i(CHECKERBOARD, rook_weights(), n_permutations=99, seed=1)
        assert result.expected_i == -1.0 / 3.0

    def test_constant_values_raise(self):
        with pytest.raises(ZeroVariance):
            morans_i([2.0, 2.0, 2.0, 2.0], rook_weights(), n_permutations=9, seed=1)

    @pytest.mark.parametrize("values", [
        [1e300, -1e300, 1e300, -1e300],  # the centred squares overflow
        [1e308, 1e308, -1e308, 1.0],  # so does the mean
    ])
    def test_overflowing_values_raise(self, values):
        for statistic in (morans_i, lisa):
            with pytest.raises(NonFiniteValue, match="too large"):
                statistic(values, rook_weights(), n_permutations=9, seed=1)

    def test_overflowing_statistic_raises(self):
        # a hub that k leaves point to lifts z'Wz about sqrt(k) / 2 times above z'z,
        # so z'z stays finite while the statistic overflows
        k = m = 400
        n = 1 + k + m
        hub = SpatialWeights(indptr=np.arange(n + 1), data=np.ones(n), indices=np.array(
            [1] + [0] * k + [1 + k + (j ^ 1) for j in range(m)]))
        x = np.concatenate(([1.0], np.full(k, k ** -0.5), np.full(m, -(1 + k ** 0.5) / m)))
        z = x - x.mean()
        assert z @ hub.lag(z) / (z @ z) > 6
        with pytest.raises(NonFiniteValue, match="too large"):
            morans_i(x * np.sqrt(1.5e308 / (z @ z)), hub, n_permutations=9, seed=1)

    @needs_fork
    def test_overflowing_permutations_raise_with_workers(self, workers):
        # on a star, the observed I is 1/18 and permutations 2 and 7 of seed 1
        # give -10/9: scaled to z'z = 1.65e308, only those two overflow, one in
        # this process's part and one in the child's
        star = SpatialWeights(indptr=np.arange(5), indices=np.array([1, 0, 0, 0]),
                              data=np.ones(4))
        values = np.array([1.0, 3.0, 1.0, -5.0]) * np.sqrt(1.65e308 / 36)
        for threads in (1, 2):
            with pytest.raises(NonFiniteValue, match="too large"):
                morans_i(values, star, n_permutations=9, seed=1, threads=threads)
        # a child's RuntimeWarning, an error under the test configuration, would
        # end it with status 1
        assert workers.forks == 1 and workers.statuses == [0]

    def test_requires_row_standardized(self):
        rook = rook_weights()
        raw = SpatialWeights(indptr=rook.indptr, indices=rook.indices,
                             data=np.ones(rook.indices.size))
        with pytest.raises(NotRowStandardized):
            morans_i(CHECKERBOARD, raw, n_permutations=9, seed=1)

    def test_doubled_weights_are_rejected(self):
        # a hand-built record cannot claim row standardization it lacks
        rook = rook_weights()
        doubled = SpatialWeights(indptr=rook.indptr, indices=rook.indices, data=2 * rook.data)
        for statistic in (morans_i, lisa):
            with pytest.raises(NotRowStandardized):
                statistic(CHECKERBOARD, doubled, n_permutations=9, seed=1)

    def test_matches_textbook_double_loop(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = int(rng.integers(5, 25))
            pts = rng.uniform(0, 100, size=(n, 2))
            values = rng.normal(size=n)
            w = build_weights(pts, k=min(4, n - 1), coord_kind="planar")
            result = morans_i(values, w, n_permutations=9, seed=0)
            assert result.i == pytest.approx(oracle_moran(values, dense(w)), rel=1e-12)

    def test_permutation_mean_near_expectation(self):
        rng = np.random.default_rng(54)
        pts = rng.uniform(0, 100, size=(30, 2))
        values = rng.normal(size=30)
        w = build_weights(pts, k=4, coord_kind="planar")
        result = morans_i(values, w, n_permutations=999, seed=7)
        se = result.sim.std(ddof=1) / np.sqrt(result.sim.size)
        assert abs(result.sim.mean() - result.expected_i) < 3 * se

    def test_p_value_definition_and_range(self):
        rng = np.random.default_rng(55)
        pts = rng.uniform(0, 100, size=(12, 2))
        values = rng.normal(size=12)
        w = build_weights(pts, k=3, coord_kind="planar")
        result = morans_i(values, w, n_permutations=99, seed=3)
        count = np.count_nonzero(
            np.abs(result.sim - result.expected_i) >= abs(result.i - result.expected_i))
        assert result.p_value == (count + 1) / 100
        assert 1 / 100 <= result.p_value <= 1.0

    def test_same_seed_reproduces(self):
        rng = np.random.default_rng(56)
        pts = rng.uniform(0, 100, size=(10, 2))
        values = rng.normal(size=10)
        w = build_weights(pts, k=3, coord_kind="planar")
        a = morans_i(values, w, n_permutations=199, seed=9)
        b = morans_i(values, w, n_permutations=199, seed=9)
        assert a.p_value == b.p_value and (a.sim == b.sim).all()

    def test_thread_count_does_not_change_results(self):
        rng = np.random.default_rng(57)
        pts = rng.uniform(0, 100, size=(25, 2))
        values = rng.normal(size=25)
        w = build_weights(pts, k=4, coord_kind="planar")
        base = morans_i(values, w, n_permutations=199, seed=42, threads=1)
        for threads in (2, 8):
            other = morans_i(values, w, n_permutations=199, seed=42, threads=threads)
            assert other.p_value == base.p_value
            assert (other.sim == base.sim).all()

    def test_affine_invariance(self):
        rng = np.random.default_rng(58)
        pts = rng.uniform(0, 100, size=(15, 2))
        values = rng.normal(size=15)
        w = build_weights(pts, k=4, coord_kind="planar")
        base = morans_i(values, w, n_permutations=9, seed=1)
        shifted = morans_i(3.5 * values + 11.0, w, n_permutations=9, seed=1)
        flipped = morans_i(-2.0 * values + 4.0, w, n_permutations=9, seed=1)
        assert shifted.i == pytest.approx(base.i, rel=1e-9)
        assert flipped.i == pytest.approx(base.i, rel=1e-9)


class TestLisa:
    def test_checkerboard_locals_and_quadrants(self):
        result = lisa(CHECKERBOARD, rook_weights(), n_permutations=99, seed=1)
        assert np.allclose(result.local_i, -1.0, rtol=0, atol=0)
        assert result.quadrant == ("HL", "LH", "LH", "HL")

    def test_sum_identity(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            n = int(rng.integers(5, 30))
            pts = rng.uniform(0, 100, size=(n, 2))
            values = rng.normal(size=n)
            w = build_weights(pts, k=min(4, n - 1), coord_kind="planar")
            local = lisa(values, w, n_permutations=9, seed=0).local_i
            global_i = morans_i(values, w, n_permutations=9, seed=0).i
            assert local.sum() == pytest.approx(n * global_i, rel=1e-9)

    def test_affine_invariance_and_quadrant_flip(self):
        rng = np.random.default_rng(60)
        pts = rng.uniform(0, 100, size=(12, 2))
        values = rng.normal(size=12)
        w = build_weights(pts, k=3, coord_kind="planar")
        base = lisa(values, w, n_permutations=9, seed=1)
        scaled = lisa(2.0 * values + 5.0, w, n_permutations=9, seed=1)
        assert np.allclose(scaled.local_i, base.local_i, rtol=1e-9)
        assert scaled.quadrant == base.quadrant
        flipped = lisa(-1.0 * values, w, n_permutations=9, seed=1)
        swap = {"H": "L", "L": "H"}
        assert flipped.quadrant == tuple(
            swap[q[0]] + swap[q[1]] for q in base.quadrant)
        assert np.allclose(flipped.local_i, base.local_i, rtol=1e-9)

    def test_isolated_unit_rule(self):
        # unit 2 has an empty row: local value 0, lag 0 classified as low
        weights = SpatialWeights(
            indptr=np.array([0, 1, 2, 2]),
            indices=np.array([1, 0]),
            data=np.array([1.0, 1.0]),
        )
        result = lisa([5.0, 1.0, 9.0], weights, n_permutations=99, seed=2)
        assert result.local_i[2] == 0.0
        assert result.quadrant[2] == "HL"
        assert result.p_value[2] == 1.0

    def test_p_values_within_bounds(self):
        rng = np.random.default_rng(61)
        pts = rng.uniform(0, 100, size=(20, 2))
        values = rng.normal(size=20)
        w = build_weights(pts, k=4, coord_kind="planar")
        result = lisa(values, w, n_permutations=99, seed=5)
        assert (result.p_value >= 1 / 100).all()
        assert (result.p_value <= 1.0).all()

    def test_thread_count_does_not_change_results(self):
        values, w = random_case()
        base = lisa(values, w, n_permutations=199, seed=42, threads=1)
        for threads in (2, 8):
            other = lisa(values, w, n_permutations=199, seed=42, threads=threads)
            assert (other.p_value == base.p_value).all()

    def test_full_neighbor_set_sampling(self):
        # k = n-1 exercises the degenerate corner of the without-replacement
        # sampler where every other unit is drawn
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        pts = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
        w = build_weights(pts, k=4, coord_kind="planar")
        result = lisa(values, w, n_permutations=49, seed=8)
        assert np.isfinite(result.local_i).all()
        # with all others as neighbors every permutation gives the same lag,
        # so the p-value hits its ceiling
        assert (result.p_value == 1.0).all()


@needs_fork
class TestWorkers:
    """``threads`` worker processes split LISA's units and Moran's permutations."""

    def test_two_workers_fork_and_give_the_bits_of_one(self, workers):
        values, w = random_case()
        for statistic in (morans_i, lisa):
            one = statistic(values, w, n_permutations=199, seed=42, threads=1)
            forks = workers.forks
            two = statistic(values, w, n_permutations=199, seed=42, threads=2)
            assert workers.forks == forks + 1
            for name in ("sim", "p_value", "local_i"):
                if hasattr(one, name):
                    assert np.asarray(getattr(two, name)).tobytes() == \
                        np.asarray(getattr(one, name)).tobytes()
        assert workers.statuses == [0, 0]

    def test_a_failed_child_has_its_part_recomputed_here(self, workers, monkeypatch):
        values, w = random_case()
        ones = [f(values, w, n_permutations=99, seed=3, threads=1) for f in (morans_i, lisa)]
        parent, rng = os.getpid(), np.random.default_rng
        # each unit and each permutation starts by making its generator
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: os._exit(1) if os.getpid() != parent else rng(seed))
        twos = [f(values, w, n_permutations=99, seed=3, threads=2) for f in (morans_i, lisa)]
        assert workers.forks == 2
        assert [os.waitstatus_to_exitcode(s) for s in workers.statuses] == [1, 1]
        assert twos[0].sim.tobytes() == ones[0].sim.tobytes()
        assert twos[0].p_value == ones[0].p_value
        assert twos[1].p_value.tobytes() == ones[1].p_value.tobytes()

    def test_a_raise_here_kills_and_reaps_every_child(self, workers, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        parent = os.getpid()

        def compute(part):
            if os.getpid() == parent:
                raise LookupError("the caller's part failed")
            time.sleep(60)
            return np.zeros(len(part))

        start = time.monotonic()
        with pytest.raises(LookupError, match="the caller's part failed"):
            _workers.split(compute, range(8), threads=4)
        assert time.monotonic() - start < 30
        assert workers.forks == 3
        assert [os.WIFSIGNALED(s) for s in workers.statuses] == [True] * 3


class TestOutputs:
    def test_moran_json_keys(self):
        result = morans_i(CHECKERBOARD, rook_weights(), n_permutations=99, seed=1)
        d = moran_json_dict(result)
        assert set(d) == {"i", "expected_i", "z", "p", "permutations", "seed"}

    def test_lisa_csv_shape(self):
        result = lisa(CHECKERBOARD, rook_weights(), n_permutations=9, seed=1)
        text = lisa_csv_text(["a", "b", "c", "d"], result)
        lines = text.splitlines()
        assert lines[0] == "unit_id,local_i,quadrant,p_value"
        assert len(lines) == 5
        assert lines[1].startswith("a,-1.0,HL,")
