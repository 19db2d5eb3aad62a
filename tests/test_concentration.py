import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import binom

from gracetree.concentration import (GRID, ScenarioError, TailEstimate,
                                     TailScenario, independent_coins,
                                     reinforcing_urn, tail_grid)
from gracetree.rng import Rng


def tail_at(spec, t, trials, rng, *, two_sided):
    """tail_grid's row for the single threshold t."""
    rows = tail_grid(spec, trials, rng, two_sided=two_sided,
                     multipliers=(t / spec.sigma,))
    assert rows[0].t == t
    return rows[0]


def test_coins_scenario_shape():
    spec = independent_coins(100)
    assert spec.mu == 50 and spec.nu == 0
    assert spec.range_square_sum == 100
    assert spec.sigma == 5
    sums, cond = spec.simulate(7, Rng(0).np)
    assert sums.shape == (7,) and np.all(cond == 50)


def test_coins_tail_matches_binomial():
    # exact tail P[X >= 60] for 100 fair flips; the analytic bound at
    # t = 10 is exp(-2) and must dominate it
    exact = float(binom.sf(59, 100, 0.5))
    est = tail_at(independent_coins(100), 10, 20000, Rng(11),
                  two_sided=False)
    assert est.bound == pytest.approx(math.exp(-2))
    assert exact < est.bound
    assert abs(est.empirical - exact) <= 4 * math.sqrt(
        exact * (1 - exact) / est.trials) + 1e-12
    assert est.passed


def test_zero_threshold_bound_is_one():
    est = tail_at(independent_coins(100), 0, 100, Rng(3), two_sided=False)
    assert est.bound == 1.0
    assert est.passed


def test_far_threshold_has_no_hits():
    est = tail_at(independent_coins(100), 30, 10000, Rng(5),
                  two_sided=False)
    assert est.bound == pytest.approx(math.exp(-18))
    assert est.empirical == 0.0


def test_sequential_iid_two_sided():
    # coins declare nu = 0, so the sequential tail is the plain
    # two-sided one: P[X >= 60] + P[X <= 40], bound 2 exp(-2)
    exact = float(binom.sf(59, 100, 0.5) + binom.cdf(40, 100, 0.5))
    est = tail_at(independent_coins(100), 10, 20000, Rng(17),
                  two_sided=True)
    assert est.bound == pytest.approx(2 * math.exp(-2))
    assert abs(est.empirical - exact) <= 4 * math.sqrt(
        exact * (1 - exact) / est.trials) + 1e-12
    assert est.passed


def test_urn_envelope_holds():
    spec = reinforcing_urn(50, pull=0.3)
    assert spec.mu == 25 and spec.nu == pytest.approx(15)
    sums, cond = spec.simulate(500, Rng(23).np)
    assert np.all(np.abs(cond - spec.mu) <= spec.nu + 1e-9)
    assert np.all((sums >= 0) & (sums <= 50))


def test_urn_rejects_bad_pull():
    with pytest.raises(ValueError):
        reinforcing_urn(10, pull=0.7)


def test_lying_scenario_raises():
    # constant-1 steps but a declared envelope of zero width
    def simulate(trials, g):
        return np.full(trials, 10.0), np.full(trials, 10.0)

    liar = TailScenario("liar", (1.0,) * 10, 0.0, 0.0, simulate)
    with pytest.raises(ScenarioError):
        tail_grid(liar, 50, Rng(1), two_sided=True)


def test_full_range_envelope_trivial():
    spec = dataclasses.replace(independent_coins(100), nu=100.0)
    est = tail_at(spec, 1.0, 2000, Rng(9), two_sided=True)
    assert est.empirical == 0.0
    assert est.passed


def test_grid_invariant_coins():
    rows = tail_grid(independent_coins(100), 20000, Rng(31), two_sided=True)
    assert len(rows) == len(GRID)
    assert [r.t for r in rows] == [m * 5 for m in GRID]
    assert all(r.passed for r in rows)


def test_grid_invariant_urn():
    rows = tail_grid(reinforcing_urn(50), 5000, Rng(37), two_sided=True)
    assert all(r.passed for r in rows)
    # a seed fixes the rows, each named after its scenario
    assert tail_grid(reinforcing_urn(50), 5000, Rng(37), two_sided=True) == rows
    assert {r.scenario for r in rows} == {"urn-50-pull0.3"}


def test_rejects_empty_batch():
    with pytest.raises(ValueError):
        tail_grid(independent_coins(10), 0, Rng(2), two_sided=False)


def test_estimate_passed_margin():
    good = TailEstimate("s", 1.0, 0.05, 0.06, 0.001, 100)
    bad = TailEstimate("s", 1.0, 0.08, 0.06, 0.001, 100)
    assert good.passed and not bad.passed
