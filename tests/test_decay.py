import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from accesskit.decay import DECAY_KINDS, DecaySpec, evaluate_decay
from accesskit.errors import InvalidDecaySpec, NonAscendingBreakpoints

from helpers import random_decay, traced_peak


class TestEvaluateDecay:
    def test_gaussian_at_zero(self):
        spec = DecaySpec("gaussian", d0=30, beta=180)
        assert evaluate_decay(spec, 0.0) == 1.0

    def test_gaussian_at_sqrt_beta(self):
        # d^2 = beta gives exactly one e-folding
        spec = DecaySpec("gaussian", d0=30, beta=180)
        assert evaluate_decay(spec, math.sqrt(180)) == pytest.approx(
            0.36787944117144233, abs=1e-6)

    def test_binary_beyond_cutoff(self):
        spec = DecaySpec("binary", d0=30)
        assert evaluate_decay(spec, 40.0) == 0.0

    def test_binary_is_exactly_one_inside(self):
        spec = DecaySpec("binary", d0=30)
        grid = np.linspace(0, 30, 1000)
        assert (evaluate_decay(spec, grid) == 1.0).all()

    def test_zonal_zone_lookup(self):
        spec = DecaySpec("zonal", zones=[10, 20, 30], weights=[1.0, 0.68, 0.22])
        assert evaluate_decay(spec, 15.0) == 0.68
        # zone 1 is [0, b1]; later zones are half-open (b_{z-1}, b_z]
        assert evaluate_decay(spec, 0.0) == 1.0
        assert evaluate_decay(spec, 10.0) == 1.0
        assert evaluate_decay(spec, 20.0) == 0.68
        assert evaluate_decay(spec, 30.0) == 0.22
        assert evaluate_decay(spec, 30.000001) == 0.0

    def test_power_clamps_at_origin(self):
        spec = DecaySpec("power", d0=10, beta=1.5)
        assert evaluate_decay(spec, 0.0) == 1.0
        assert evaluate_decay(spec, 0.5) == 1.0  # d < 1 would exceed 1
        assert evaluate_decay(spec, 4.0) == pytest.approx(4.0 ** -1.5, rel=1e-12)

    def test_infinity_maps_to_zero_for_every_kind(self):
        specs = [
            DecaySpec("binary", 10),
            DecaySpec("gaussian", 10, 50),
            DecaySpec("exponential", 10, 5),
            DecaySpec("power", 10, 2),
            DecaySpec("zonal", zones=[5, 10], weights=[1.0, 0.4]),
        ]
        for spec in specs:
            assert evaluate_decay(spec, np.inf) == 0.0

    def test_array_shape_preserved(self):
        spec = DecaySpec("gaussian", d0=30, beta=180)
        d = np.array([[0.0, 10.0], [40.0, np.inf]])
        out = evaluate_decay(spec, d)
        assert out.shape == (2, 2)
        assert out[1, 0] == 0.0 and out[1, 1] == 0.0

    def test_grid_properties_for_random_specs(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            spec = random_decay(rng, d_max=rng.uniform(1, 100),
                                kinds=("binary", "gaussian", "exponential", "power", "zonal"))
            grid = np.linspace(0, 1.2 * spec.d0, 1000)
            w = evaluate_decay(spec, grid)
            assert (w >= 0).all() and (w <= 1).all()
            assert (np.diff(w) <= 1e-15).all(), f"not nonincreasing for {spec}"
            assert (w[grid > spec.d0] == 0).all()
            assert evaluate_decay(spec, np.inf) == 0.0

    @pytest.mark.parametrize("spec", [
        DecaySpec("gaussian", 30.0, 180.0), DecaySpec("exponential", 30.0, 10.0),
        DecaySpec("power", 30.0, 1.5), DecaySpec("power", 30.0, 2.0),
    ], ids=["gaussian", "exponential", "power", "power-integer-beta"])
    def test_bits_match_negating_then_zeroing_past_d0(self, spec):
        # the expression evaluate_decay used before it divided by -beta and
        # multiplied by the mask
        def reference(a):
            out, mask = np.zeros(a.shape), a <= spec.d0
            with np.errstate(over="ignore", divide="ignore"):
                if spec.kind == "gaussian":
                    out = np.exp(np.negative(a * a) / spec.beta)
                elif spec.kind == "exponential":
                    out = np.exp(np.negative(a) / spec.beta)
                else:
                    out = np.minimum(a ** -spec.beta, 1.0)
            out[~mask] = 0.0
            return out

        edges = [0.0, -0.0, spec.d0, np.nextafter(spec.d0, np.inf), np.inf, -np.inf, np.nan,
                 1e300, -1e300, 5e-324, -5e-324]
        cost = np.concatenate([np.random.default_rng(22).uniform(-100, 100, 200_000), edges])
        with np.errstate(invalid="ignore"):  # a negative cost to a fractional power is NaN
            assert evaluate_decay(spec, cost).tobytes() == reference(cost).tobytes()

    @pytest.mark.parametrize("spec", [
        DecaySpec("binary", 30.0), DecaySpec("gaussian", 30.0, 180.0),
        DecaySpec("exponential", 30.0, 10.0), DecaySpec("power", 30.0, 1.5),
        DecaySpec("zonal", zones=[10, 20, 30], weights=[1.0, 0.5, 0.2]),
    ], ids=DECAY_KINDS)
    def test_memory_is_one_output_and_one_mask(self, spec):
        # half the costs lie within d0; a copy of those would add 4 bytes a cost
        cost = np.random.default_rng(0).uniform(0, 60, (500, 400))
        peak = traced_peak(lambda: evaluate_decay(spec, cost))
        assert peak <= cost.nbytes + cost.size + 64 * 1024


class TestZonalFromGaussian:
    """A zonal spec given beta in place of weights derives them by the midpoint rule."""

    def test_single_zone_self_normalizes(self):
        spec = DecaySpec("zonal", zones=[30], beta=123.0)
        assert spec.weights == (1.0,)

    def test_three_zone_weights_match_closed_form(self):
        # midpoints 5, 15, 25; ratios exp(-200/180) and exp(-600/180),
        # evaluated independently with math.exp
        spec = DecaySpec("zonal", zones=[10, 20, 30], beta=180.0)
        assert spec.zones == (10.0, 20.0, 30.0)
        assert spec.weights[0] == 1.0
        assert spec.weights[1] == pytest.approx(math.exp(-200.0 / 180.0), rel=1e-12)
        assert spec.weights[2] == pytest.approx(math.exp(-600.0 / 180.0), rel=1e-12)
        assert spec.weights[1] == pytest.approx(0.32919298780790557, rel=1e-12)
        assert spec.weights[2] == pytest.approx(0.035673993347252395, rel=1e-12)

    def test_weights_strictly_decreasing_for_random_inputs(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            breaks = np.sort(rng.uniform(0.5, 100, size=n))
            breaks = np.unique(breaks)
            spec = DecaySpec("zonal", zones=breaks, beta=float(rng.uniform(1, 500)))
            assert all(a > b for a, b in zip(spec.weights, spec.weights[1:]))

    def test_non_ascending_breakpoints(self):
        with pytest.raises(NonAscendingBreakpoints):
            DecaySpec("zonal", zones=[10, 10, 30], beta=100)
        with pytest.raises(NonAscendingBreakpoints):
            DecaySpec("zonal", zones=[-5, 10], beta=100)


class TestSpecValidation:
    def test_beta_required_for_continuous_kinds(self):
        for kind in ("gaussian", "exponential", "power"):
            with pytest.raises(InvalidDecaySpec, match="beta"):
                DecaySpec(kind=kind, d0=30)

    def test_zonal_weight_rules(self):
        with pytest.raises(InvalidDecaySpec):
            DecaySpec("zonal", zones=[10, 20], weights=[0.5, 0.9])  # increasing
        with pytest.raises(InvalidDecaySpec):
            DecaySpec("zonal", zones=[10, 20], weights=[1.2, 0.5])  # above 1
        with pytest.raises(InvalidDecaySpec):
            DecaySpec("zonal", zones=[10, 20], weights=[1.0, 0.0])  # zero weight

    @pytest.mark.parametrize("zones, weights", [
        (["a", 20, 30], [1.0, 0.5, 0.2]),
        (5, [1.0]),
        ([10, 20, 30], ["x", 0.5, 0.2]),
        ([10, True], [1.0, 0.5]),
        ([10, float("nan"), 30], [1.0, 0.5, 0.2]),
    ])
    def test_zonal_entries_must_be_numbers(self, zones, weights):
        with pytest.raises(InvalidDecaySpec, match="list of finite numbers"):
            DecaySpec("zonal", zones=zones, weights=weights)
        with pytest.raises(InvalidDecaySpec, match="list of finite numbers"):
            DecaySpec.from_config({"kind": "zonal", "zones": zones, "weights": weights})
        if not all(isinstance(w, float) for w in weights):
            return  # with beta in place of the weights, only the zones are read
        with pytest.raises(InvalidDecaySpec, match="list of finite numbers"):
            DecaySpec("zonal", zones=zones, beta=100)

    def test_zonal_d0_tied_to_last_breakpoint(self):
        with pytest.raises(InvalidDecaySpec):
            DecaySpec(kind="zonal", d0=25, zones=(10, 20), weights=(1.0, 0.5))
        spec = DecaySpec("zonal", zones=[10, 20], weights=[1.0, 0.5])
        assert spec.d0 == 20.0

    def test_from_config_gaussian(self):
        spec = DecaySpec.from_config({"kind": "gaussian", "beta": 180.0, "d0": 30.0})
        assert (spec.kind, spec.beta, spec.d0) == ("gaussian", 180.0, 30.0)

    def test_from_config_missing_beta(self):
        with pytest.raises(InvalidDecaySpec, match="beta"):
            DecaySpec.from_config({"kind": "gaussian", "d0": 30.0})

    def test_from_config_zonal_explicit_weights(self):
        spec = DecaySpec.from_config(
            {"kind": "zonal", "zones": [10, 20, 30], "weights": [1.0, 0.68, 0.22]})
        assert spec.weights == (1.0, 0.68, 0.22)

    def test_from_config_zonal_beta_derives_weights(self):
        spec = DecaySpec.from_config({"kind": "zonal", "zones": [10, 20, 30], "beta": 180.0})
        assert spec.weights[1] == pytest.approx(math.exp(-200.0 / 180.0), rel=1e-12)

    def test_config_round_trip(self):
        spec = DecaySpec("zonal", zones=[10, 20], weights=[1.0, 0.5])
        assert DecaySpec.from_config(spec.to_config()) == spec


positive = st.floats(1e-3, 1e3)
zone_lists = st.lists(st.integers(1, 100), min_size=1, max_size=5, unique=True).map(sorted)


@st.composite
def valid_specs(draw):
    """A valid spec of any kind, zonal ones with given or derived weights."""
    kind = draw(st.sampled_from(DECAY_KINDS))
    if kind != "zonal":
        beta = draw(positive) if kind != "binary" else None
        return DecaySpec(kind=kind, d0=draw(positive), beta=beta)
    zones = draw(zone_lists)
    if draw(st.booleans()):  # m^2 / beta <= 5 keeps every weight far from 0
        return DecaySpec("zonal", zones=zones, beta=draw(st.floats(0.2, 4.0)) * zones[-1] ** 2)
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(zones), max_size=len(zones),
                            unique=True))
    return DecaySpec("zonal", zones=zones, weights=sorted(weights, reverse=True))


@settings(max_examples=200, deadline=None)
@given(valid_specs(), st.text(min_size=1), st.none() | positive | st.text())
def test_config_round_trip_and_unknown_keys(spec, key, value):
    assert DecaySpec.from_config(spec.to_config()) == spec
    assume(key not in {f.name for f in fields(DecaySpec)})
    with pytest.raises(InvalidDecaySpec, match="takes only"):
        DecaySpec.from_config({**spec.to_config(), key: value})


@settings(max_examples=100, deadline=None)
@given(zone_lists, st.floats(0.2, 4.0))
def test_zonal_spec_from_beta_is_the_same_on_every_path(zones, scale):
    beta = scale * zones[-1] ** 2
    spec = DecaySpec("zonal", zones=zones, beta=beta)
    assert spec == DecaySpec(kind="zonal", d0=zones[-1], zones=zones, beta=beta)
    assert spec == DecaySpec.from_config({"kind": "zonal", "zones": zones, "beta": beta})
    assert spec == DecaySpec("zonal", zones=zones, weights=spec.weights)
    assert spec.d0 == zones[-1] and spec.beta is None


def decay_the_old_way(spec, a):
    """The weights as a compressed copy of the costs within d0, scattered back."""
    out = np.zeros(a.shape)
    within = a <= spec.d0
    dv = a[within]
    if spec.kind == "binary":
        dv = np.ones_like(dv)
    elif spec.kind == "gaussian":
        dv = np.exp(-(dv * dv) / spec.beta)
    elif spec.kind == "exponential":
        dv = np.exp(-dv / spec.beta)
    elif spec.kind == "power":
        with np.errstate(divide="ignore", over="ignore"):  # d^-beta is huge near 0
            dv = np.minimum(dv ** -spec.beta, 1.0)
    else:
        dv = np.asarray(spec.weights)[np.searchsorted(spec.zones, dv, side="left")]
    out[within] = dv
    return out


@st.composite
def specs_and_costs(draw):
    """A spec of any kind and costs around its d0, with +inf, 0, d0 itself
    and huge finite costs beyond it among them."""
    spec = draw(valid_specs())
    cost = st.one_of(st.floats(0, 2 * spec.d0), st.floats(1e150, 1e308),
                     st.sampled_from([0.0, spec.d0, math.inf]))
    return spec, np.array(draw(st.lists(cost, min_size=1, max_size=40)))


@settings(max_examples=300, deadline=None)
@given(specs_and_costs())
def test_weights_are_bit_identical_to_the_compressed_evaluation(case):
    spec, cost = case
    expected = decay_the_old_way(spec, cost)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert evaluate_decay(spec, cost).tobytes() == expected.tobytes()
        assert evaluate_decay(spec, cost.reshape(-1, 1)).tobytes() == expected.tobytes()
        scalars = np.array([evaluate_decay(spec, d) for d in cost.tolist()])
    assert scalars.tobytes() == expected.tobytes()
