import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accesskit.data_model import Region
from accesskit.equity import (
    classify,
    gini,
    hrad,
    hrad_csv_text,
    hrad_vs_population,
)
from accesskit.errors import (
    AllZeroValues,
    InvalidEpsilon,
    MissingPopulation,
    NonFiniteTotal,
    ZeroTotalPopulation,
    ZeroTotalResource,
)


def regions(*rows):
    return [Region(f"r{i}", area, res, pop)
            for i, (area, res, *rest) in enumerate(rows)
            for pop in [rest[0] if rest else None]]


class TestHrad:
    def test_twenty_percent_resources_on_ten_percent_area(self):
        result = hrad(regions((10.0, 20.0), (90.0, 80.0)))
        assert result.records[0].hrad == pytest.approx(2.0, rel=1e-12)
        assert result.records[0].classification == "relatively_fair"

    def test_single_region_is_exactly_equal(self):
        result = hrad(regions((123.0, 456.0)))
        assert result.records[0].hrad == 1.0
        assert result.records[0].classification == "equal"

    def test_symmetric_pair(self):
        result = hrad(regions((50.0, 50.0), (50.0, 50.0)))
        assert all(rec.hrad == 1.0 for rec in result.records)

    def test_zero_resource_region_is_unfair(self):
        result = hrad(regions((10.0, 0.0), (10.0, 5.0)))
        assert result.records[0].hrad == 0.0
        assert result.records[0].classification == "unfair"

    def test_zero_total_resource(self):
        with pytest.raises(ZeroTotalResource):
            hrad(regions((10.0, 0.0), (20.0, 0.0)))

    def test_area_weighted_mean_is_one(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            n = int(rng.integers(1, 20))
            rows = [(float(rng.uniform(0.5, 300)), float(rng.uniform(0, 100)))
                    for _ in range(n)]
            if sum(r[1] for r in rows) == 0:
                rows[0] = (rows[0][0], 5.0)
            result = hrad(regions(*rows))
            areas = np.array([r[0] for r in rows])
            degrees = np.array([rec.hrad for rec in result.records])
            assert (areas / areas.sum()) @ degrees == pytest.approx(1.0, abs=1e-12)

    def test_invariant_to_common_rescaling(self):
        rows = [(10.0, 4.0), (30.0, 9.0), (5.0, 1.0)]
        base = [rec.hrad for rec in hrad(regions(*rows)).records]
        res_scaled = [rec.hrad for rec in hrad(
            regions(*[(a, 7.0 * r) for a, r in rows])).records]
        area_scaled = [rec.hrad for rec in hrad(
            regions(*[(3.0 * a, r) for a, r in rows])).records]
        assert np.allclose(res_scaled, base, rtol=1e-12)
        assert np.allclose(area_scaled, base, rtol=1e-12)

    def test_classification_boundary_flips(self):
        # binary-exact epsilon puts the knife edge exactly on a float
        eps = 0.25
        assert classify(1.0, eps) == "equal"
        assert classify(1.0 + eps, eps) == "equal"
        assert classify(1.0 - eps, eps) == "equal"
        assert classify(np.nextafter(1.0 + eps, 2.0), eps) == "relatively_fair"
        assert classify(np.nextafter(1.0 - eps, 0.0), eps) == "unfair"
        # default epsilon: probes just inside and outside the band
        assert classify(1.0 + 0.9 * 0.05) == "equal"
        assert classify(1.0 - 0.9 * 0.05) == "equal"
        assert classify(1.0 + 1.1 * 0.05) == "relatively_fair"
        assert classify(1.0 - 1.1 * 0.05) == "unfair"

    def test_epsilon_configurable(self):
        assert classify(1.2, 0.25) == "equal"
        assert classify(1.2, 0.1) == "relatively_fair"

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1.0, -1e-300])
    def test_bad_epsilon_rejected(self, epsilon):
        rows = regions((10.0, 20.0, 5.0), (90.0, 80.0, 5.0))
        for measure in (lambda: classify(1.0, epsilon), lambda: hrad(rows, epsilon),
                        lambda: hrad_vs_population(rows, epsilon)):
            with pytest.raises(InvalidEpsilon) as info:
                measure()
            assert isinstance(info.value, ValueError)
            assert info.value.code == "equity.InvalidEpsilon"

    def test_zero_epsilon_is_exact_parity(self):
        assert classify(1.0, 0.0) == "equal"
        assert classify(np.nextafter(1.0, 2.0), 0.0) == "relatively_fair"
        assert hrad(regions((10.0, 10.0), (10.0, 10.0)), 0.0).records[0].classification == "equal"


class TestHradVsPopulation:
    def test_balanced_region(self):
        # 20% resources, 20% population, 10% area
        result = hrad_vs_population(regions((10.0, 20.0, 200.0), (90.0, 80.0, 800.0)))
        rec = result.records[0]
        assert rec.hrad == pytest.approx(2.0, rel=1e-12)
        assert rec.pad == pytest.approx(2.0, rel=1e-12)
        assert rec.hrad_over_pad == pytest.approx(1.0, rel=1e-12)

    def test_uniform_everything(self):
        result = hrad_vs_population(
            regions((25.0, 10.0, 100.0), (25.0, 10.0, 100.0), (25.0, 10.0, 100.0)))
        for rec in result.records:
            assert rec.hrad == pytest.approx(1.0)
            assert rec.pad == pytest.approx(1.0)
            assert rec.hrad_over_pad == pytest.approx(1.0)

    def test_uninhabited_region_has_undefined_ratio(self):
        result = hrad_vs_population(regions((10.0, 5.0, 0.0), (10.0, 5.0, 100.0)))
        assert result.records[0].hrad_over_pad is None
        assert result.records[1].hrad_over_pad is not None

    def test_inhabited_region_whose_pad_underflows_is_not_finite(self):
        # pad r0 = (1e-320 / 1e300) / (10 / 100) underflows to 0, though r0 is inhabited
        with pytest.raises(NonFiniteTotal, match="region 'r0': its hrad/pad ratio"):
            hrad_vs_population(regions((10.0, 20.0, 1e-320), (90.0, 80.0, 1e300)))

    def test_missing_population(self):
        with pytest.raises(MissingPopulation):
            hrad_vs_population(regions((10.0, 5.0), (10.0, 5.0, 100.0)))

    def test_zero_total_population(self):
        with pytest.raises(ZeroTotalPopulation):
            hrad_vs_population(regions((10.0, 5.0, 0.0), (10.0, 5.0, 0.0)))


class TestGini:
    def test_equal_values_give_zero(self):
        assert gini([3.0, 3.0, 3.0]) == pytest.approx(0.0, abs=1e-15)

    def test_zero_one_split(self):
        assert gini([0.0, 1.0]) == pytest.approx(0.5, rel=1e-12)

    def test_weighted_hand_value(self):
        # pairwise formula: 2*w0*w1*|x0-x1| / (2 * W^2 * mean) = 0.25
        assert gini([0.0, 1.0], [1.0, 3.0]) == pytest.approx(0.25, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(72)
        v = rng.uniform(0, 50, size=40)
        w = rng.uniform(0.5, 5, size=40)
        assert gini(7.3 * v, w) == pytest.approx(gini(v, w), rel=1e-9)

    def test_range(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            v = rng.uniform(0, 100, size=n)
            if v.sum() == 0:
                v[0] = 1.0
            g = gini(v)
            assert 0.0 <= g < 1.0

    def test_transfer_from_rich_to_poor_never_increases(self):
        rng = np.random.default_rng(74)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            v = rng.uniform(1, 100, size=n)
            hi, lo = int(np.argmax(v)), int(np.argmin(v))
            if hi == lo:
                continue
            amount = rng.uniform(0, (v[hi] - v[lo]) / 2)
            v2 = v.copy()
            v2[hi] -= amount
            v2[lo] += amount
            assert gini(v2) <= gini(v) + 1e-12

    def test_all_zero_values(self):
        with pytest.raises(AllZeroValues):
            gini([0.0, 0.0, 0.0])
        with pytest.raises(AllZeroValues):  # one all-zero column in a block
            gini([[1.0, 0.0], [2.0, 0.0]])

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            gini([1.0, 2.0], [1.0, -1.0])
        with pytest.raises(ValueError):
            gini([1.0, -2.0])
        with pytest.raises(ValueError):
            gini(np.ones((2, 2, 2)))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                gini([bad, 1.0])
            with pytest.raises(ValueError):
                gini(np.array([[1.0, bad], [2.0, 1.0]]))

    def test_overflowing_totals_raise(self):
        # each input is finite; a total is not, and the result would be NaN
        for values, weights in (([1.0, 2.0], [1e308, 1e308]),  # weight total
                                ([1e308, 1e308], None),  # weighted value total
                                ([[1.0, 1e308], [2.0, 1e308]], None),  # one block column
                                ([1.0, 2.0], [np.nan, 1.0])):
            with pytest.raises(NonFiniteTotal):
                gini(values, weights)
        assert issubclass(NonFiniteTotal, ValueError)

    def test_block_columns_match_vectors(self):
        rng = np.random.default_rng(75)
        for _ in range(50):
            n, k = int(rng.integers(2, 60)), int(rng.integers(1, 40))
            block = rng.uniform(0, 100, size=(n, k)) * (rng.uniform(size=(n, k)) < 0.8)
            block[0] += 1.0  # no all-zero column
            w = rng.uniform(0.5, 5, size=n)
            by_column = gini(block, w)
            assert isinstance(by_column, np.ndarray) and by_column.shape == (k,)
            for j in range(k):
                one = gini(block[:, j], w)
                assert type(one) is float
                assert by_column[j] == pytest.approx(one, rel=1e-12, abs=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_block_columns_with_ties_stay_within_rounding(self, data):
        # few distinct values and weights, so columns hold many ties that the
        # block may order unlike the stable sort of a single column
        n, k = data.draw(st.integers(2, 80)), data.draw(st.integers(1, 8))
        levels = data.draw(st.lists(st.floats(0, 1e3), min_size=1, max_size=4))
        block = np.array(data.draw(st.lists(st.sampled_from(levels), min_size=n * k,
                                            max_size=n * k))).reshape(n, k)
        block[0] += 1.0  # no all-zero column
        w = np.array(data.draw(st.lists(st.sampled_from((0.5, 1.0, 3.0, 40.0)),
                                        min_size=n, max_size=n)))
        by_column = gini(block, w)
        for j in range(k):
            # two roundings of the Lorenz area, each within n * 2**-53
            assert abs(by_column[j] - gini(block[:, j], w)) <= 2 * n * 2.0**-53


class TestCsv:
    def test_plain_table(self):
        text = hrad_csv_text(hrad(regions((10.0, 20.0), (90.0, 80.0))))
        lines = text.splitlines()
        assert lines[0] == "region_id,hrad,classification"
        assert lines[1].startswith("r0,2.0,relatively_fair")

    def test_population_table_blank_for_undefined(self):
        result = hrad_vs_population(regions((10.0, 5.0, 0.0), (10.0, 5.0, 100.0)))
        lines = hrad_csv_text(result).splitlines()
        assert lines[0] == "region_id,hrad,classification,pad,hrad_over_pad"
        assert lines[1].endswith(",0.0,")  # pad 0, ratio blank
