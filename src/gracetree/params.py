"""Scalar parameters of the labelling pipeline.

The paper sets its scales from gamma alone (B = ceil(exp(10^8/gamma^4)),
delta0 = B^(-2B), ell = delta0^2 n, m = delta0^2 ell); no computer can
hold those values, so the pipeline takes user-chosen m and ell at desk
scale instead, and replaces the paper's delta_i tolerance schedule with
the linear one alpha(t) = ALPHA0 + ALPHA1 * t/n.

All arithmetic is exact (int / Fraction); no floats enter any decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

ALPHA0 = Fraction(1, 20)  # audit tolerance at step 0
ALPHA1 = Fraction(3, 20)  # its growth from step 0 to step n


class ParamError(ValueError):
    """Divisibility or ordering violation; the message names the failed
    requirement."""


def read_gamma(x) -> Fraction:
    """x as a Fraction, a float by its decimal text (0.2 is 1/5);
    ParamError when x names no fraction."""
    try:
        return Fraction(str(x) if isinstance(x, float) else x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParamError(f"bad gamma {x!r}: {exc}") from None


@dataclass(frozen=True)
class Params:
    gamma: Fraction
    n: int
    n_tilde: int
    m: int
    ell: int

    def alpha(self, t: int) -> Fraction:
        """Audit tolerance at step t: ALPHA0 + ALPHA1 * t/n."""
        return ALPHA0 + ALPHA1 * Fraction(t, self.n)


def derive_practical_params(n: int, gamma, m: int, ell: int) -> Params:
    """Desk-scale parameters with user-chosen m and ell.

    n_tilde = ceil((1+gamma) n) rounded up to a multiple of 2m; requires
    m >= 1, m | ell, m <= ell < n_tilde/2, ell/m even and
    n_tilde/m >= 4(ell/m - 1).  The edge correction law needs ell/m
    even (intervals.core_distribution says why), so an odd ratio is
    refused here, before any tree is built.  The last condition keeps
    the null outcome of both correction laws at a nonnegative mass: with
    N = n_tilde/m windows and N - 2(ell/m - 1) target intervals, that
    mass is (N - 4(ell/m - 1)) / (N - 2(ell/m - 1)).
    """
    gamma = read_gamma(gamma)
    n, m, ell = int(n), int(m), int(ell)
    if n < 2:
        raise ParamError("n must be at least 2")
    if gamma <= 0:
        raise ParamError("gamma must be positive")
    if m < 1:
        raise ParamError("m must be at least 1")
    if ell % m != 0:
        raise ParamError(f"m = {m} must divide ell = {ell}")
    if ell < m:
        raise ParamError(f"need ell >= m: ell = {ell}, m = {m}")
    if (ell // m) % 2 != 0:
        raise ParamError(
            f"edge-correction masses need ell/m even, got {ell}/{m}")
    nt0 = math.ceil((1 + gamma) * n)
    r = nt0 % (2 * m)
    n_tilde = nt0 if r == 0 else nt0 + (2 * m - r)
    if 2 * ell >= n_tilde:
        raise ParamError(f"need ell < n_tilde/2: ell = {ell}, n_tilde = {n_tilde}")
    if n_tilde // m < 4 * (ell // m - 1):
        raise ParamError(
            f"need n_tilde/m >= 4(ell/m - 1) for a nonnegative null mass "
            f"in the correction laws: n_tilde/m = {n_tilde // m}, "
            f"ell/m = {ell // m}")
    return Params(gamma=gamma, n=n, n_tilde=n_tilde, m=m, ell=ell)
