import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accesskit import travel
from accesskit.data_model import Dataset, DemandSite, SupplySite
from accesskit.decay import DECAY_KINDS, DecaySpec, evaluate_decay
from accesskit.errors import (
    DimensionMismatch, FcaError, NegativeCost, NonFiniteCapture, NonFiniteScore, WrongDecayKind,
)
from accesskit.fca import (
    FCA_METHODS, Catchment, compute_accessibility, scores_csv_text,
)
from accesskit.travel import TravelMatrix, build_travel_matrix, cost_rows

from helpers import (
    dataset_with_matrix, dense_instance, oracle_g2sfca, random_decay, random_instance, traced_peak,
)

# decay with f=1 in [0,10], f=0.5 in (10,20], 0 beyond: makes the worked
# instances below exact
HALVING = DecaySpec("zonal", zones=[10, 20], weights=[1.0, 0.5])


def halving_instance():
    # one facility S=10; demand 100 at weight 1 and 300 at weight 0.5
    return dataset_with_matrix([100, 300], [10], [[5.0], [15.0]])


class TestStep1:
    def test_hand_ratio(self):
        ds, m = halving_instance()
        ratios = compute_accessibility("g2sfca", ds, m, HALVING).supply_ratios
        assert ratios[0] == pytest.approx(0.04, rel=1e-12)

    def test_unreachable_supply_gets_zero_and_warning(self):
        ds, m = dataset_with_matrix([100], [10], [[50.0]])
        ratios = compute_accessibility("g2sfca", ds, m, HALVING).supply_ratios
        assert ratios[0] == 0.0
        result = compute_accessibility("g2sfca", ds, m, HALVING)
        assert result.warnings == ("h0",)
        assert (result.scores == 0).all()

    def test_single_pair(self):
        ds, m = dataset_with_matrix([1], [5], [[0.0]])
        ratios = compute_accessibility("g2sfca", ds, m, HALVING).supply_ratios
        assert ratios[0] == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        ds, _ = halving_instance()
        bad = TravelMatrix(cost=np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            compute_accessibility("g2sfca", ds, bad, HALVING)

    def test_overflowing_captured_demand_raises(self):
        # each population is finite; h1's captured demand is not, h0's is
        ds, m = dataset_with_matrix([1e308, 1e308, 1.0], [5, 5],
                                    [[50.0, 5.0], [50.0, 5.0], [5.0, 5.0]])
        for method in ("g2sfca", "m2sfca"):
            with pytest.raises(NonFiniteCapture, match="supply 'h1'"):
                compute_accessibility(method, ds, m, HALVING)
        assert issubclass(NonFiniteCapture, FcaError)
        assert issubclass(NonFiniteCapture, ValueError)

    def test_overflowing_ratio_raises(self):
        # a capacity of 1e200 over a captured demand of 1e-200; h0's ratio is finite
        ds, m = dataset_with_matrix([1e-200, 1e-200], [5, 1e200], [[5.0, 5.0], [5.0, 50.0]])
        with pytest.raises(NonFiniteScore, match="supply 'h1'"):
            compute_accessibility("g2sfca", ds, m, HALVING)
        assert issubclass(NonFiniteScore, FcaError)
        assert issubclass(NonFiniteScore, ValueError)

    def test_overflowing_score_raises(self):
        # each ratio is 1.5e308; d1 reaches both facilities and its score overflows
        ds, m = dataset_with_matrix([0.5, 0.5, 0.5], [1.5e308, 1.5e308],
                                    [[5.0, 50.0], [5.0, 5.0], [50.0, 5.0]])
        with pytest.raises(NonFiniteScore, match="demand 'd1'"):
            compute_accessibility("g2sfca", ds, m, HALVING)


# one spec of each decay kind, built by the constructor and by its config
SPECS_AND_CONFIGS = {
    "binary": (DecaySpec("binary", d0=30.0), {"kind": "binary", "d0": 30}),
    "gaussian": (DecaySpec("gaussian", d0=30.0, beta=180.0),
                 {"kind": "gaussian", "d0": 30, "beta": 180}),
    "exponential": (DecaySpec("exponential", d0=30.0, beta=10.0),
                    {"kind": "exponential", "beta": 10.0, "d0": 30.0}),
    "power": (DecaySpec("power", d0=30.0, beta=1.5), {"kind": "power", "d0": 30.0, "beta": 1.5}),
    "zonal": (DecaySpec("zonal", zones=[10, 20, 30], beta=180.0),
              {"kind": "zonal", "zones": [10.0, 20.0, 30.0], "beta": 180}),
}


@pytest.mark.parametrize("kind", DECAY_KINDS)
@pytest.mark.parametrize("method", FCA_METHODS)
def test_methods_and_decay_kinds_are_named_by_their_config_strings(method, kind):
    # the constructor and the config give one spec for every kind
    assert set(SPECS_AND_CONFIGS) == set(DECAY_KINDS)
    spec, config = SPECS_AND_CONFIGS[kind]
    assert spec == DecaySpec.from_config(config)
    # compute_accessibility is the catchment's own result, bit for bit; h2 is
    # out of everyone's reach, so the result carries a warning
    ds, m = dataset_with_matrix([100, 300, 50], [10, 20, 5],
                                [[5.0, 15.0, 99.0], [12.0, 4.0, 99.0], [25.0, 8.0, 99.0]])
    if method == "e2sfca" and kind != "zonal":
        for run in (lambda: compute_accessibility(method, ds, m, spec),
                    lambda: Catchment(method, ds, m, spec).accessibility()):
            with pytest.raises(WrongDecayKind):
                run()
        return
    got = compute_accessibility(method, ds, m, spec)
    want = Catchment(method, ds, m, spec).accessibility()
    assert (got.method, got.decay, got.warnings) == (want.method, want.decay, ("h2",))
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.supply_ratios.tobytes() == want.supply_ratios.tobytes()
    # two_sfca takes the d0 of any spec and applies the binary decay there
    assert got.decay == (DecaySpec("binary", d0=30.0) if method == "two_sfca" else spec)


def blocks_of(cost, bounds):
    """The ``(lo, rows)`` blocks of ``cost`` split at ``bounds``."""
    edges = [0, *bounds, len(cost)]
    return [(lo, cost[lo:hi]) for lo, hi in zip(edges, edges[1:])]


class TestCostRows:
    @pytest.mark.parametrize("blocks", [
        pytest.param(lambda c: blocks_of(c[:, :0], [1]), id="too-narrow"),
        pytest.param(lambda c: blocks_of(np.hstack([c, c]), [1]), id="too-wide"),
        pytest.param(lambda c: blocks_of(c, [1])[:1], id="too-few-rows"),
        pytest.param(lambda c: blocks_of(c, [1]) + [(2, c[:1])], id="too-many-rows"),
        pytest.param(lambda c: [(0, c[:1]), (0, c[1:])], id="overlapping"),
        pytest.param(lambda c: [(1, c[1:]), (0, c[:1])], id="out-of-order"),
        pytest.param(lambda c: [(0, c[0])], id="one-dimensional"),
    ])
    def test_blocks_must_cover_the_dataset_in_order(self, blocks):
        ds, m = halving_instance()
        with pytest.raises(DimensionMismatch):
            Catchment("g2sfca", ds, blocks(m.cost), HALVING)

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_blocks_keep_the_matrix_guarantees(self, bad):
        ds, m = halving_instance()
        cost = m.cost.copy()
        cost[1, 0] = bad
        with pytest.raises(ValueError, match="NaN" if np.isnan(bad) else "nonnegative") as raised:
            Catchment("g2sfca", ds, blocks_of(cost, [1]), HALVING)
        assert type(raised.value) is NegativeCost


@st.composite
def streamed_case(draw):
    """A random geographic or planar dataset, speed, method and decay."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    geographic = draw(st.booleans())
    n_d, n_s = int(rng.integers(1, 13)), int(rng.integers(1, 7))
    if geographic:
        low, high = (116.9, 36.5), (117.3, 36.8)
    else:
        low, high = (0.0, 0.0), (30_000.0, 30_000.0)
    demand = tuple(DemandSite(f"d{i}", *map(float, rng.uniform(low, high)),
                              float(rng.choice([0.0, rng.uniform(1, 2000)])))
                   for i in range(n_d))
    supply = tuple(SupplySite(f"h{j}", *map(float, rng.uniform(low, high)),
                              float(rng.uniform(1, 500))) for j in range(n_s))
    ds = Dataset(demand=demand, supply=supply,
                 coord_kind="geographic" if geographic else "planar")
    speed = draw(st.none() | st.floats(0.05, 5.0))
    method = draw(st.sampled_from(FCA_METHODS))
    kind = "zonal" if method == "e2sfca" else draw(st.sampled_from(DECAY_KINDS))
    d_max = float(build_travel_matrix(ds, speed).cost.max()) * rng.uniform(0.3, 1.2)
    if kind == "power":
        decay = DecaySpec("power", d_max + 1e-9, beta=float(rng.uniform(0.5, 3.0)))
    else:
        decay = random_decay(rng, d_max, kinds=(kind,))
    return ds, speed, method, decay


@settings(max_examples=150, deadline=None)
@given(streamed_case(), st.sampled_from([1, 7, travel.BLOCK]))
def test_streamed_costs_give_the_matrix_catchment_bit_for_bit(case, block):
    # blocks of one row, of a prime number of entries (short last blocks),
    # and of the default size; all equal the whole-matrix decay
    ds, speed, method, decay = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(travel, "BLOCK", block)
        streamed = Catchment(method, ds, cost_rows(ds, speed), decay)
        matrix = build_travel_matrix(ds, speed)
        stored = Catchment(method, ds, matrix, decay)
    assert streamed.assign.tobytes() == stored.assign.tobytes()
    assert streamed.captured.tobytes() == stored.captured.tobytes()
    weights = evaluate_decay(stored.decay, matrix.cost)
    assert stored.captured.tobytes() == (stored.population @ weights).tobytes()
    if method == "m2sfca":
        weights *= weights
    assert stored.assign.tobytes() == weights.tobytes()


class TestG2sfca:
    def test_hand_scores_and_conservation(self):
        ds, m = halving_instance()
        result = compute_accessibility("g2sfca", ds, m, HALVING)
        assert result.scores[0] == pytest.approx(0.04, rel=1e-12)
        assert result.scores[1] == pytest.approx(0.02, rel=1e-12)
        captured = 100 * result.scores[0] + 300 * result.scores[1]
        assert captured == pytest.approx(10.0, rel=1e-12)

    def test_unreachable_only_supply_zeroes_scores(self):
        ds, m = dataset_with_matrix([10, 20], [5], [[99.0], [99.0]])
        result = compute_accessibility("g2sfca", ds, m, HALVING)
        assert (result.scores == 0).all()
        assert result.warnings == ("h0",)

    def test_doubling_supply_doubles_scores(self):
        rng = np.random.default_rng(31)
        ds, m, decay = random_instance(rng)
        base = compute_accessibility("g2sfca", ds, m, decay).scores
        doubled_ds, _ = dataset_with_matrix(
            [s.population for s in ds.demand],
            [2 * s.capacity for s in ds.supply],
            m.cost,
        )
        doubled = compute_accessibility("g2sfca", doubled_ds, m, decay).scores
        assert np.allclose(doubled, 2 * base, rtol=1e-12, atol=0)

    def test_conservation_on_random_instances(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            ds, m, decay = random_instance(rng, all_reachable=True)
            result = compute_accessibility("g2sfca", ds, m, decay)
            demand_pop = np.array([s.population for s in ds.demand])
            total_supply = sum(s.capacity for s in ds.supply)
            assert demand_pop @ result.scores == pytest.approx(total_supply, rel=1e-9)

    def test_scale_equivariance_in_demand(self):
        rng = np.random.default_rng(33)
        ds, m, decay = random_instance(rng, allow_zero_pop=False)
        base = compute_accessibility("g2sfca", ds, m, decay).scores
        c = 3.7
        scaled, _ = dataset_with_matrix(
            [c * s.population for s in ds.demand],
            [s.capacity for s in ds.supply],
            m.cost,
        )
        assert np.allclose(compute_accessibility("g2sfca", scaled, m, decay).scores, base / c,
                           rtol=1e-12, atol=0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(34)
        ds, m, decay = random_instance(rng, max_demand=12)
        n = len(ds.demand)
        perm = rng.permutation(n)
        base = compute_accessibility("g2sfca", ds, m, decay).scores
        permuted, pm = dataset_with_matrix(
            [ds.demand[i].population for i in perm],
            [s.capacity for s in ds.supply],
            m.cost[perm, :],
        )
        assert np.allclose(compute_accessibility("g2sfca", permuted, pm, decay).scores,
                           base[perm], rtol=1e-12, atol=0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            ds, m, decay = random_instance(rng, max_demand=6, max_supply=4,
                                           all_reachable=False)
            got = compute_accessibility("g2sfca", ds, m, decay).scores
            want, _ = oracle_g2sfca(
                [s.population for s in ds.demand],
                [s.capacity for s in ds.supply],
                m.cost.tolist(), decay,
            )
            assert np.allclose(got, want, rtol=1e-12, atol=1e-300)


class TestTwoSfca:
    def test_hand_example(self):
        ds, m = dataset_with_matrix([100, 50], [10], [[10.0], [40.0]])
        result = compute_accessibility("two_sfca", ds, m, DecaySpec("binary", 30))
        assert result.scores[0] == pytest.approx(0.1, rel=1e-12)
        assert result.scores[1] == 0.0

    def test_equals_g2sfca_with_binary_decay(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            ds, m, decay = random_instance(rng)
            # two_sfca takes only the d0 of whatever decay it is given
            a = compute_accessibility("two_sfca", ds, m, decay)
            b = compute_accessibility("g2sfca", ds, m, DecaySpec("binary", decay.d0))
            assert np.array_equal(a.scores, b.scores)
            assert np.array_equal(a.supply_ratios, b.supply_ratios)

    def test_all_demand_beyond_cutoff(self):
        ds, m = dataset_with_matrix([10], [5], [[100.0]])
        result = compute_accessibility("two_sfca", ds, m, DecaySpec("binary", 30))
        assert (result.scores == 0).all()
        assert result.warnings == ("h0",)


class TestE2sfca:
    def test_requires_zonal(self):
        ds, m = halving_instance()
        with pytest.raises(WrongDecayKind):
            compute_accessibility("e2sfca", ds, m, DecaySpec("gaussian", 30, 180))

    def test_single_full_weight_zone_reduces_to_two_sfca(self):
        rng = np.random.default_rng(37)
        ds, m, _ = random_instance(rng)
        d0 = float(m.cost.max() * 0.7 + 0.001)
        one_zone = DecaySpec("zonal", zones=[d0], weights=[1.0])
        assert np.array_equal(compute_accessibility("e2sfca", ds, m, one_zone).scores,
                              compute_accessibility("two_sfca", ds, m, one_zone).scores)

    def test_hand_example(self):
        ds, m = dataset_with_matrix([100, 100], [10], [[5.0], [15.0]])
        result = compute_accessibility("e2sfca", ds, m, HALVING)
        assert result.scores[0] == pytest.approx(10 / 150, rel=1e-12)
        assert result.scores[1] == pytest.approx(5 / 150, rel=1e-12)

    def test_invariant_to_demand_ordering(self):
        ds, m = dataset_with_matrix([100, 100], [10], [[5.0], [15.0]])
        flipped, fm = dataset_with_matrix([100, 100], [10], [[15.0], [5.0]])
        a = compute_accessibility("e2sfca", ds, m, HALVING).scores
        b = compute_accessibility("e2sfca", flipped, fm, HALVING).scores
        assert a[0] == b[1] and a[1] == b[0]


class TestM2sfca:
    def test_hand_example_and_sub_unity_capture(self):
        ds, m = halving_instance()
        result = compute_accessibility("m2sfca", ds, m, HALVING)
        assert result.scores[0] == pytest.approx(0.04, rel=1e-12)
        assert result.scores[1] == pytest.approx(0.01, rel=1e-12)
        captured = 100 * result.scores[0] + 300 * result.scores[1]
        assert captured == pytest.approx(7.0, rel=1e-12)
        assert captured <= 10.0

    def test_binary_decay_collapses_to_two_sfca(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            ds, m, decay = random_instance(rng)
            a = compute_accessibility("m2sfca", ds, m, DecaySpec("binary", decay.d0))
            b = compute_accessibility("two_sfca", ds, m, decay)
            assert np.array_equal(a.scores, b.scores)

    def test_never_exceeds_g2sfca(self):
        rng = np.random.default_rng(39)
        for _ in range(30):
            ds, m, decay = random_instance(rng, kinds=("gaussian", "zonal", "binary"))
            a = compute_accessibility("m2sfca", ds, m, decay).scores
            b = compute_accessibility("g2sfca", ds, m, decay).scores
            assert (a <= b + 1e-15).all()

    def test_matches_squared_weight_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            ds, m, decay = random_instance(rng, max_demand=6, max_supply=4)
            got = compute_accessibility("m2sfca", ds, m, decay).scores
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
        result = compute_accessibility("two_sfca", ds, m, DecaySpec("binary", 30))
        text = scores_csv_text(result, ds)
        assert text.splitlines()[0] == "demand_id,score"
        assert text.splitlines()[1] == "d0,0.1"
        scaled = scores_csv_text(result, ds, per_thousand=True)
        assert scaled.splitlines()[1] == "d0,100.0"
