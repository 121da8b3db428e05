"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

Random checks use fixed seeds so the suite is reproducible; independent
oracles live in helpers.py.
"""

import json
import time

import numpy as np
import pytest

from accesskit.cli import main
from accesskit.data_model import Region
from accesskit.decay import DecaySpec
from accesskit.equity import classify, hrad
from accesskit.fca import Catchment
from accesskit.optimize import (
    brute_force_allocate,
    greedy_allocate,
    local_search_improve,
)
from accesskit.spatial_stats import build_weights, lisa, morans_i
from accesskit.synth import write_city

from helpers import dataset_with_matrix, oracle_g2sfca, random_instance
from test_optimize import random_problem


def test_c1_conservation_sweep():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(200):
        ds, matrix, decay = random_instance(
            rng, max_demand=200, max_supply=20, all_reachable=True,
            kinds=("binary", "gaussian", "zonal"))
        result = Catchment("g2sfca", ds, matrix, decay)
        assert not result.warnings
        demand_pop = np.array([s.population for s in ds.demand])
        total_supply = sum(s.capacity for s in ds.supply)
        captured = float(demand_pop @ result.scores)
        assert captured == pytest.approx(total_supply, rel=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE C1 conservation (200 instances, {elapsed:.2f}s): PASS")


def test_c2_method_collapse_identities():
    rng = np.random.default_rng(1002)
    for _ in range(100):
        ds, matrix, _ = random_instance(rng)
        d0 = float(matrix.cost.max() * rng.uniform(0.3, 1.2) + 1e-9)
        base = Catchment("two_sfca", ds, matrix, DecaySpec("binary", d0))
        via_g = Catchment("g2sfca", ds, matrix, DecaySpec("binary", d0))
        via_e = Catchment("e2sfca", ds, matrix, DecaySpec("zonal", zones=[d0], weights=[1.0]))
        via_m = Catchment("m2sfca", ds, matrix, DecaySpec("binary", d0))
        for other in (via_g, via_e, via_m):
            assert np.array_equal(base.scores, other.scores)
            assert np.array_equal(base.supply_ratios, other.supply_ratios)
    print("\nACCEPTANCE C2 method-collapse identities (100 instances x 3): PASS")


def test_c3_m2sfca_dominance_and_configuration_gap():
    rng = np.random.default_rng(1003)
    for _ in range(100):
        ds, matrix, decay = random_instance(rng, kinds=("gaussian", "zonal", "binary"))
        a = Catchment("m2sfca", ds, matrix, decay).scores
        b = Catchment("g2sfca", ds, matrix, decay).scores
        assert (a <= b + 1e-15).all()

    # well-configured: every active weight is essentially 1
    rng2 = np.random.default_rng(1004)
    xy = rng2.uniform(0, 20_000, size=(30, 2))
    sxy = rng2.uniform(0, 20_000, size=(5, 2))
    ds, matrix, _ = random_instance(rng2)  # shape only; rebuild below
    pops = rng2.uniform(10, 1000, size=30)
    caps = rng2.uniform(10, 300, size=5)
    diff = xy[:, None, :] - sxy[None, :, :]
    km = np.sqrt((diff * diff).sum(axis=2)) / 1000.0
    ds, matrix = dataset_with_matrix(pops, caps, km)
    near_one = DecaySpec("gaussian", d0=float(km.max()) + 1.0, beta=1e10)
    res = Catchment("m2sfca", ds, matrix, near_one)
    captured = float(pops @ res.scores)
    assert captured == pytest.approx(caps.sum(), rel=1e-6)

    # poorly configured: every active weight is exactly 0.1
    beta = 500.0
    d_star = float(np.sqrt(beta * np.log(10.0)))
    n_d, n_s = 8, 3
    cost = np.full((n_d, n_s), d_star)
    ds2, matrix2 = dataset_with_matrix(
        rng2.uniform(10, 500, size=n_d), rng2.uniform(5, 50, size=n_s), cost)
    poor = DecaySpec("gaussian", d0=d_star + 1.0, beta=beta)
    res2 = Catchment("m2sfca", ds2, matrix2, poor)
    pops2 = np.array([s.population for s in ds2.demand])
    total2 = sum(s.capacity for s in ds2.supply)
    deficit = 1.0 - float(pops2 @ res2.scores) / total2
    assert deficit > 0.5
    print(f"\nACCEPTANCE C3 m2sfca dominance + configuration gap "
          f"(deficit {deficit:.1%}): PASS")


def test_c4_moran_exactness_and_lisa_identity():
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    w = build_weights(corners, k=2, coord_kind="planar")
    result = morans_i([1.0, 0.0, 0.0, 1.0], w, n_permutations=99, seed=0)
    assert result.i == pytest.approx(-1.0, abs=1e-12)
    assert result.expected_i == -1.0 / 3.0

    rng = np.random.default_rng(1005)
    for _ in range(50):
        n = int(rng.integers(5, 40))
        pts = rng.uniform(0, 100, size=(n, 2))
        values = rng.normal(size=n)
        weights = build_weights(pts, k=int(rng.integers(1, min(6, n))),
                                coord_kind="planar")
        local = lisa(values, weights, n_permutations=9, seed=1).local_i
        global_i = morans_i(values, weights, n_permutations=9, seed=1).i
        assert float(local.sum()) == pytest.approx(n * global_i, rel=1e-9, abs=1e-9)
    print("\nACCEPTANCE C4 Moran exactness + LISA identity (50 instances): PASS")


def test_c5_permutation_determinism_across_threads():
    rng = np.random.default_rng(1006)
    pts = rng.uniform(0, 100, size=(60, 2))
    values = rng.normal(size=60)
    weights = build_weights(pts, k=6, coord_kind="planar")
    moran_runs = [morans_i(values, weights, n_permutations=999, seed=42, threads=t)
                  for t in (1, 2, 8)]
    lisa_runs = [lisa(values, weights, n_permutations=999, seed=42, threads=t)
                 for t in (1, 2, 8)]
    for other in moran_runs[1:]:
        assert other.p_value == moran_runs[0].p_value
        assert (other.sim == moran_runs[0].sim).all()
    for other in lisa_runs[1:]:
        assert (other.p_value == lisa_runs[0].p_value).all()
        assert (other.local_i == lisa_runs[0].local_i).all()
    print("\nACCEPTANCE C5 permutation determinism at 1/2/8 threads: PASS")


def test_c6_hrad_identities_and_thresholds():
    rng = np.random.default_rng(1007)
    for _ in range(100):
        n = int(rng.integers(1, 25))
        regions = [Region(f"r{i}", float(rng.uniform(0.5, 400)),
                          float(rng.uniform(0.0, 200)))
                   for i in range(n)]
        if sum(r.resource for r in regions) == 0:
            regions[0] = Region("r0", regions[0].area_km2, 3.0)
        result = hrad(regions)
        areas = np.array([r.area_km2 for r in regions])
        degrees = np.array([rec.hrad for rec in result.records])
        assert float((areas / areas.sum()) @ degrees) == pytest.approx(1.0, abs=1e-12)

    single = hrad([Region("only", 42.0, 17.0)])
    assert single.records[0].hrad == 1.0
    assert single.records[0].classification == "equal"

    # knife edge at a binary-exact epsilon: 1 +/- eps is equal, one ulp
    # beyond flips the class
    eps = 0.25
    pair = hrad([Region("hi", 1.0, 1.25), Region("lo", 1.0, 0.75)], epsilon=eps)
    assert [rec.classification for rec in pair.records] == ["equal", "equal"]
    assert classify(np.nextafter(1.0 + eps, 2.0), eps) == "relatively_fair"
    assert classify(np.nextafter(1.0 - eps, 0.0), eps) == "unfair"
    print("\nACCEPTANCE C6 agglomeration identities + thresholds: PASS")


def test_c7_optimizer_oracle_sweep():
    rng = np.random.default_rng(1008)
    start = time.perf_counter()
    agree = 0
    total = 300
    for i in range(total):
        objective = ("max_min_access", "min_weighted_gini", "min_variance")[i % 3]
        problem = random_problem(rng, max_candidates=3, max_budget=3,
                                 max_demand=5, objective=objective)
        greedy = greedy_allocate(problem)
        refined = local_search_improve(problem, greedy, max_iters=30)
        oracle = brute_force_allocate(problem)
        # sanity: the heuristic never beats exhaustive search
        assert not problem.better(refined.objective_after, oracle.objective_after)
        assert sum(greedy.units) == problem.budget
        assert sum(refined.units) == problem.budget
        assert sum(oracle.units) == problem.budget
        if objective == "max_min_access":
            assert all(b >= a for a, b in zip(greedy.trace, greedy.trace[1:]))
        # local-search steps improve strictly, for every objective
        tail = refined.trace[len(greedy.trace):]
        steps = [greedy.trace[-1], *tail]
        assert all(problem.better(b, a) for a, b in zip(steps, steps[1:]))
        if refined.objective_after == oracle.objective_after:
            agree += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE C7 optimizer oracle (300 instances, {elapsed:.2f}s, "
          f"heuristic matches oracle on {agree}/{total}): PASS")


def test_c8_fca_double_loop_oracle():
    rng = np.random.default_rng(1009)
    for _ in range(100):
        ds, matrix, decay = random_instance(
            rng, max_demand=6, max_supply=4, all_reachable=False,
            kinds=("binary", "gaussian", "exponential", "power", "zonal"))
        got = Catchment("g2sfca", ds, matrix, decay).scores
        want, ratios = oracle_g2sfca(
            [s.population for s in ds.demand],
            [s.capacity for s in ds.supply],
            matrix.cost.tolist(), decay)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-300)
    print("\nACCEPTANCE C8 double-loop oracle (100 instances): PASS")


def test_c9_end_to_end_determinism(tmp_path):
    config = write_city(tmp_path)  # 500 demand, 25 supply, 12 regions
    out = tmp_path / "report"
    argv = ["report", "--config", str(config), "--out", str(out)]

    start = time.perf_counter()
    assert main(argv) == 0
    first_run = time.perf_counter() - start
    names = ["scores.csv", "moran.json", "lisa.csv", "hrad.csv", "plan.json",
             "summary.json", "config.json"]
    for name in names[:5]:
        assert (out / name).is_file(), f"missing {name}"
    snapshot = {name: (out / name).read_bytes() for name in names}

    start = time.perf_counter()
    assert main(argv) == 0
    second_run = time.perf_counter() - start
    for name in names:
        assert (out / name).read_bytes() == snapshot[name], f"{name} differs"
    assert first_run < 30.0 and second_run < 30.0

    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_demand"] == 500 and summary["n_supply"] == 25
    assert summary["n_regions"] == 12
    print(f"\nACCEPTANCE C9 end-to-end determinism "
          f"({first_run:.1f}s + {second_run:.1f}s): PASS")
