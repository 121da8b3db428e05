"""Property tests for the paper's identities on random cities.

Each example seeds ``helpers.random_instance``: a planar city whose decay
cutoff may leave some demand sites and some facilities out of reach.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from accesskit.data_model import Region
from accesskit.decay import DecaySpec
from accesskit.equity import gini, hrad
from accesskit.fca import FCA_METHODS, Catchment
from accesskit.optimize import (
    OBJECTIVES, AllocationProblem, greedy_allocate, local_search_improve,
)

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
    result = Catchment("g2sfca", ds, matrix, decay)
    pop = np.array([s.population for s in ds.demand])
    assert pop @ result.scores == pytest.approx(reached_supply(ds, result), rel=1e-9)


@settings(max_examples=80, deadline=None)
@given(instances())
def test_m2sfca_never_exceeds_the_reached_supply(case):
    ds, matrix, decay, _ = case
    result = Catchment("m2sfca", ds, matrix, decay)
    pop = np.array([s.population for s in ds.demand])
    assert pop @ result.scores <= reached_supply(ds, result) * (1 + 1e-9)


@settings(max_examples=80, deadline=None)
@given(instances())
def test_two_sfca_is_g2sfca_with_binary_decay(case):
    ds, matrix, decay, _ = case
    a = Catchment("two_sfca", ds, matrix, decay)
    b = Catchment("g2sfca", ds, matrix, DecaySpec("binary", decay.d0))
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


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("method", FCA_METHODS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), all_reachable=st.booleans())
def test_a_power_of_two_population_scale_changes_the_numbers_never_the_plan(
        method, objective, seed, all_reachable):
    # the premise of the benchmark's seeds, which scale every population by
    # 2**k: every score scales by 2**-k exactly, and the Gini and the plan stay
    rng = np.random.default_rng(seed)
    ds, matrix, decay = random_instance(
        rng, all_reachable=all_reachable,
        kinds=("zonal",) if method == "e2sfca" else ("binary", "gaussian", "zonal"))
    candidates = tuple(np.flatnonzero(rng.random(len(ds.supply)) < 0.7).tolist()) or (0,)
    budget, unit_size = int(rng.integers(1, 6)), float(rng.uniform(1.0, 500.0))
    pop = ds.demand.population
    assume((Catchment(method, ds, matrix, decay).scores[pop > 0] > 0).any())

    def run(k):
        scaled = replace(ds, demand=[replace(s, population=s.population * 2.0**k)
                                     for s in ds.demand])
        catchment = Catchment(method, scaled, matrix, decay)
        problem = AllocationProblem(catchment, budget, candidates, unit_size, objective)
        scores = catchment.scores
        plan = local_search_improve(problem, greedy_allocate(problem))
        return scores, gini(scores[pop > 0], pop[pop > 0] * 2.0**k), plan.units

    scores, g, units = run(0)
    for k in range(-3, 4):
        scaled_scores, scaled_g, scaled_units = run(k)
        assert np.array_equal(scaled_scores * 2.0**k, scores)
        assert scaled_g == g
        assert scaled_units == units
