"""Property tests for the paper's identities on random cities.

Each example seeds ``helpers.random_instance``: a planar city whose decay
cutoff may leave some demand sites and some facilities out of reach.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accesskit.data_model import Region
from accesskit.decay import DecaySpec
from accesskit.equity import hrad
from accesskit.fca import g2sfca, m2sfca, two_sfca

from helpers import random_instance


@st.composite
def instances(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_instance(rng, all_reachable=draw(st.booleans())) + (rng,)


def reached_supply(ds, result) -> float:
    """Total capacity of the facilities that capture some demand."""
    unreached = set(result.warnings)
    return sum(s.capacity for s in ds.supply if s.id not in unreached)


@settings(max_examples=80, deadline=None)
@given(instances())
def test_g2sfca_conserves_the_supply_of_reached_facilities(case):
    ds, matrix, decay, _ = case
    result = g2sfca(ds, matrix, decay)
    pop = np.array([s.population for s in ds.demand])
    assert pop @ result.scores == pytest.approx(reached_supply(ds, result), rel=1e-9)


@settings(max_examples=80, deadline=None)
@given(instances())
def test_m2sfca_never_exceeds_the_reached_supply(case):
    ds, matrix, decay, _ = case
    result = m2sfca(ds, matrix, decay)
    pop = np.array([s.population for s in ds.demand])
    assert pop @ result.scores <= reached_supply(ds, result) * (1 + 1e-9)


@settings(max_examples=80, deadline=None)
@given(instances())
def test_two_sfca_is_g2sfca_with_binary_decay(case):
    ds, matrix, decay, _ = case
    a = two_sfca(ds, matrix, decay.d0)
    b = g2sfca(ds, matrix, DecaySpec.binary(decay.d0))
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.supply_ratios, b.supply_ratios)


@settings(max_examples=80, deadline=None)
@given(instances(), st.integers(1, 6))
def test_hrad_area_weighted_mean_is_one(case, n_strips):
    # regions are vertical strips of the city; each holds the capacity of
    # the facilities inside it
    ds, _, _, rng = case
    widths = rng.uniform(0.1, 1.0, size=n_strips)
    edges = np.cumsum(widths) / widths.sum() * 20_000.0  # meters
    strip = np.minimum(np.searchsorted(edges, [s.x for s in ds.supply]), n_strips - 1)
    resource = np.bincount(strip, weights=[s.capacity for s in ds.supply], minlength=n_strips)
    area = np.diff(edges, prepend=0.0) * 20_000.0 / 1e6  # km²
    regions = [Region(f"r{i}", float(a), float(r)) for i, (a, r) in enumerate(zip(area, resource))]
    degrees = np.array([rec.hrad for rec in hrad(regions).records])
    assert area @ degrees / area.sum() == pytest.approx(1.0, rel=1e-12)
