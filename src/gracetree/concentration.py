"""Empirical checks of the tail bounds behind the run analysis.

Two inequalities are exercised: the independent bounded-variable bound
P[X - mu >= t] <= exp(-2 t^2 / sum a_i^2), and its sequential variant
for adapted sequences whose summed conditional means are pinned to
mu +- nu, where the two-sided tail at nu + t costs an extra factor 2.
Scenarios simulate many trials at once, vectorized, and declare their
mu, nu, and per-step ranges; the two-sided grid re-derives each
trial's conditional-mean sum and refuses scenarios that break their
own declaration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .rng import Rng


class ScenarioError(ValueError):
    """A scenario violated its declared conditional-mean envelope."""


@dataclass(frozen=True)
class TailScenario:
    """A batch simulator with declared envelope.

    simulate(trials, g) returns (sums, cond_sums): per-trial totals of
    the Y_i and of the conditional means E[Y_i | history].
    """

    name: str
    a: Tuple[float, ...]
    mu: float
    nu: float
    simulate: Callable[[int, np.random.Generator],
                       Tuple[np.ndarray, np.ndarray]]

    @property
    def range_square_sum(self) -> float:
        return float(sum(x * x for x in self.a))

    @property
    def sigma(self) -> float:
        return math.sqrt(self.range_square_sum) / 2


@dataclass(frozen=True)
class TailEstimate:
    scenario: str
    t: float
    empirical: float
    bound: float
    se: float
    trials: int

    @property
    def passed(self) -> bool:
        return self.empirical <= self.bound + 3 * self.se


def independent_coins(n: int, p: float = 0.5) -> TailScenario:
    """n independent 0/1 flips; the sum is drawn directly."""

    def simulate(trials, g):
        sums = g.binomial(n, p, size=trials).astype(float)
        return sums, np.full(trials, n * p)

    return TailScenario(f"coins-{n}", (1.0,) * n, n * p, 0.0, simulate)


def reinforcing_urn(n: int, pull: float = 0.3) -> TailScenario:
    """Dependent 0/1 sequence pulled toward its own running mean.

    P(Y_i = 1 | history) = clamp(0.5 + pull*(2*mean(Y_1..Y_{i-1}) - 1))
    with the empty mean read as 1/2.  Each conditional mean stays in
    0.5 +- pull, so the declared envelope is mu = n/2, nu = pull*n.
    """
    if not 0 <= pull <= 0.5:
        raise ValueError("pull must lie in [0, 0.5]")

    def simulate(trials, g):
        sums = np.zeros(trials)
        cond = np.zeros(trials)
        for i in range(1, n + 1):
            if i == 1:
                p = np.full(trials, 0.5)
            else:
                p = np.clip(0.5 + pull * (2 * sums / (i - 1) - 1), 0.0, 1.0)
            cond += p
            sums += (g.random(trials) < p).astype(float)
        return sums, cond

    return TailScenario(f"urn-{n}-pull{pull}", (1.0,) * n,
                        n / 2, pull * n, simulate)


def _batch(spec: TailScenario, trials: int, rng: Rng):
    if trials < 1:
        raise ValueError("need at least one trial")
    return spec.simulate(trials, rng.np)


def _estimate(spec, t, hits, trials, factor) -> TailEstimate:
    empirical = float(np.count_nonzero(hits)) / trials
    bound = min(1.0, factor *
                math.exp(-2 * t * t / spec.range_square_sum))
    se = math.sqrt(empirical * (1 - empirical) / trials)
    return TailEstimate(spec.name, float(t), empirical, bound, se, trials)


def _check_envelope(spec: TailScenario, cond_sums: np.ndarray) -> None:
    slack = 1e-9 * max(1.0, abs(spec.mu))
    worst = float(np.max(np.abs(cond_sums - spec.mu)))
    if worst > spec.nu + slack:
        raise ScenarioError(
            f"{spec.name}: conditional-mean sum strays {worst:.6g} "
            f"from mu, declared nu = {spec.nu:.6g}")


GRID = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)


def tail_grid(spec: TailScenario, trials: int, rng: Rng, *,
              two_sided: bool,
              multipliers: Sequence[float] = GRID) -> Tuple[TailEstimate, ...]:
    """One simulation batch evaluated on a whole threshold grid.

    Thresholds are multiples of sigma = sqrt(sum a_i^2)/2, the scale at
    which the analytic bound is exp(-t^2 / (2 sigma^2)).
    """
    sums, cond_sums = _batch(spec, trials, rng)
    if two_sided:
        _check_envelope(spec, cond_sums)
    rows = []
    for mult in multipliers:
        t = mult * spec.sigma
        if two_sided:
            hits = np.abs(sums - spec.mu) >= spec.nu + t
            rows.append(_estimate(spec, t, hits, trials, 2.0))
        else:
            rows.append(_estimate(spec, t, sums - spec.mu >= t, trials, 1.0))
    return tuple(rows)
