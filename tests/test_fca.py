import numpy as np
import pytest

from accesskit.decay import DecaySpec
from accesskit.errors import DimensionMismatch, FcaError, NonFiniteCapture, WrongDecayKind
from accesskit.fca import (
    Catchment,
    e2sfca,
    g2sfca,
    m2sfca,
    scores_csv_text,
    step1_supply_ratios,
    two_sfca,
)
from accesskit.travel import TravelMatrix

from helpers import dataset_with_matrix, dense_instance, oracle_g2sfca, random_instance, traced_peak

# decay with f=1 in [0,10], f=0.5 in (10,20], 0 beyond: makes the worked
# instances below exact
HALVING = DecaySpec.zonal([10, 20], [1.0, 0.5])


def halving_instance():
    # one facility S=10; demand 100 at weight 1 and 300 at weight 0.5
    return dataset_with_matrix([100, 300], [10], [[5.0], [15.0]])


class TestStep1:
    def test_hand_ratio(self):
        ds, m = halving_instance()
        ratios = step1_supply_ratios(ds, m, HALVING)
        assert ratios[0] == pytest.approx(0.04, rel=1e-12)

    def test_unreachable_supply_gets_zero_and_warning(self):
        ds, m = dataset_with_matrix([100], [10], [[50.0]])
        ratios = step1_supply_ratios(ds, m, HALVING)
        assert ratios[0] == 0.0
        result = g2sfca(ds, m, HALVING)
        assert result.warnings == ("h0",)
        assert (result.scores == 0).all()

    def test_single_pair(self):
        ds, m = dataset_with_matrix([1], [5], [[0.0]])
        assert step1_supply_ratios(ds, m, HALVING)[0] == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        ds, _ = halving_instance()
        bad = TravelMatrix(cost=np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            step1_supply_ratios(ds, bad, HALVING)

    def test_overflowing_captured_demand_raises(self):
        # each population is finite; h1's captured demand is not, h0's is
        ds, m = dataset_with_matrix([1e308, 1e308, 1.0], [5, 5],
                                    [[50.0, 5.0], [50.0, 5.0], [5.0, 5.0]])
        for method in (g2sfca, m2sfca):
            with pytest.raises(NonFiniteCapture, match="supply 'h1'"):
                method(ds, m, HALVING)
        assert issubclass(NonFiniteCapture, FcaError)
        assert issubclass(NonFiniteCapture, ValueError)


class TestG2sfca:
    def test_hand_scores_and_conservation(self):
        ds, m = halving_instance()
        result = g2sfca(ds, m, HALVING)
        assert result.scores[0] == pytest.approx(0.04, rel=1e-12)
        assert result.scores[1] == pytest.approx(0.02, rel=1e-12)
        captured = 100 * result.scores[0] + 300 * result.scores[1]
        assert captured == pytest.approx(10.0, rel=1e-12)

    def test_unreachable_only_supply_zeroes_scores(self):
        ds, m = dataset_with_matrix([10, 20], [5], [[99.0], [99.0]])
        result = g2sfca(ds, m, HALVING)
        assert (result.scores == 0).all()
        assert result.warnings == ("h0",)

    def test_doubling_supply_doubles_scores(self):
        rng = np.random.default_rng(31)
        ds, m, decay = random_instance(rng)
        base = g2sfca(ds, m, decay).scores
        doubled_ds, _ = dataset_with_matrix(
            [s.population for s in ds.demand],
            [2 * s.capacity for s in ds.supply],
            m.cost,
        )
        assert np.allclose(g2sfca(doubled_ds, m, decay).scores, 2 * base,
                           rtol=1e-12, atol=0)

    def test_conservation_on_random_instances(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            ds, m, decay = random_instance(rng, all_reachable=True)
            result = g2sfca(ds, m, decay)
            demand_pop = np.array([s.population for s in ds.demand])
            total_supply = sum(s.capacity for s in ds.supply)
            assert demand_pop @ result.scores == pytest.approx(total_supply, rel=1e-9)

    def test_scale_equivariance_in_demand(self):
        rng = np.random.default_rng(33)
        ds, m, decay = random_instance(rng, allow_zero_pop=False)
        base = g2sfca(ds, m, decay).scores
        c = 3.7
        scaled, _ = dataset_with_matrix(
            [c * s.population for s in ds.demand],
            [s.capacity for s in ds.supply],
            m.cost,
        )
        assert np.allclose(g2sfca(scaled, m, decay).scores, base / c, rtol=1e-12, atol=0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(34)
        ds, m, decay = random_instance(rng, max_demand=12)
        n = len(ds.demand)
        perm = rng.permutation(n)
        base = g2sfca(ds, m, decay).scores
        permuted, pm = dataset_with_matrix(
            [ds.demand[i].population for i in perm],
            [s.capacity for s in ds.supply],
            m.cost[perm, :],
        )
        assert np.allclose(g2sfca(permuted, pm, decay).scores, base[perm],
                           rtol=1e-12, atol=0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            ds, m, decay = random_instance(rng, max_demand=6, max_supply=4,
                                           all_reachable=False)
            got = g2sfca(ds, m, decay).scores
            want, _ = oracle_g2sfca(
                [s.population for s in ds.demand],
                [s.capacity for s in ds.supply],
                m.cost.tolist(), decay,
            )
            assert np.allclose(got, want, rtol=1e-12, atol=1e-300)


class TestTwoSfca:
    def test_hand_example(self):
        ds, m = dataset_with_matrix([100, 50], [10], [[10.0], [40.0]])
        result = two_sfca(ds, m, d0=30)
        assert result.scores[0] == pytest.approx(0.1, rel=1e-12)
        assert result.scores[1] == 0.0

    def test_equals_g2sfca_with_binary_decay(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            ds, m, decay = random_instance(rng)
            d0 = decay.d0
            a = two_sfca(ds, m, d0)
            b = g2sfca(ds, m, DecaySpec.binary(d0))
            assert np.array_equal(a.scores, b.scores)
            assert np.array_equal(a.supply_ratios, b.supply_ratios)

    def test_all_demand_beyond_cutoff(self):
        ds, m = dataset_with_matrix([10], [5], [[100.0]])
        result = two_sfca(ds, m, d0=30)
        assert (result.scores == 0).all()
        assert result.warnings == ("h0",)


class TestE2sfca:
    def test_requires_zonal(self):
        ds, m = halving_instance()
        with pytest.raises(WrongDecayKind):
            e2sfca(ds, m, DecaySpec.gaussian(30, 180))

    def test_single_full_weight_zone_reduces_to_two_sfca(self):
        rng = np.random.default_rng(37)
        ds, m, _ = random_instance(rng)
        d0 = float(m.cost.max() * 0.7 + 0.001)
        one_zone = DecaySpec.zonal([d0], [1.0])
        assert np.array_equal(e2sfca(ds, m, one_zone).scores,
                              two_sfca(ds, m, d0).scores)

    def test_hand_example(self):
        ds, m = dataset_with_matrix([100, 100], [10], [[5.0], [15.0]])
        result = e2sfca(ds, m, HALVING)
        assert result.scores[0] == pytest.approx(10 / 150, rel=1e-12)
        assert result.scores[1] == pytest.approx(5 / 150, rel=1e-12)

    def test_invariant_to_demand_ordering(self):
        ds, m = dataset_with_matrix([100, 100], [10], [[5.0], [15.0]])
        flipped, fm = dataset_with_matrix([100, 100], [10], [[15.0], [5.0]])
        a = e2sfca(ds, m, HALVING).scores
        b = e2sfca(flipped, fm, HALVING).scores
        assert a[0] == b[1] and a[1] == b[0]


class TestM2sfca:
    def test_hand_example_and_sub_unity_capture(self):
        ds, m = halving_instance()
        result = m2sfca(ds, m, HALVING)
        assert result.scores[0] == pytest.approx(0.04, rel=1e-12)
        assert result.scores[1] == pytest.approx(0.01, rel=1e-12)
        captured = 100 * result.scores[0] + 300 * result.scores[1]
        assert captured == pytest.approx(7.0, rel=1e-12)
        assert captured <= 10.0

    def test_binary_decay_collapses_to_two_sfca(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            ds, m, decay = random_instance(rng)
            d0 = decay.d0
            a = m2sfca(ds, m, DecaySpec.binary(d0))
            b = two_sfca(ds, m, d0)
            assert np.array_equal(a.scores, b.scores)

    def test_never_exceeds_g2sfca(self):
        rng = np.random.default_rng(39)
        for _ in range(30):
            ds, m, decay = random_instance(rng, kinds=("gaussian", "zonal", "binary"))
            a = m2sfca(ds, m, decay).scores
            b = g2sfca(ds, m, decay).scores
            assert (a <= b + 1e-15).all()

    def test_matches_squared_weight_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            ds, m, decay = random_instance(rng, max_demand=6, max_supply=4)
            got = m2sfca(ds, m, decay).scores
            want, _ = oracle_g2sfca(
                [s.population for s in ds.demand],
                [s.capacity for s in ds.supply],
                m.cost.tolist(), decay, squared=True,
            )
            assert np.allclose(got, want, rtol=1e-12, atol=1e-300)

    def test_squares_the_weights_in_place(self):
        # the decay's peak, about 1.76x the weights' bytes; squaring adds no array
        ds, matrix, spec = dense_instance()
        peak = traced_peak(lambda: Catchment("m2sfca", ds, matrix, spec))
        assert peak <= 2.0 * matrix.cost.nbytes


class TestScoresCsv:
    def test_header_and_per_thousand(self):
        ds, m = dataset_with_matrix([100], [10], [[0.0]])
        result = two_sfca(ds, m, d0=30)
        text = scores_csv_text(result, ds)
        assert text.splitlines()[0] == "demand_id,score"
        assert text.splitlines()[1] == "d0,0.1"
        scaled = scores_csv_text(result, ds, per_thousand=True)
        assert scaled.splitlines()[1] == "d0,100.0"
