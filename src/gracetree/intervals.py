"""Interval families over the label range 1..n_tilde.

Three families: I_V, the m-intervals partitioning the vertex labels;
I_E, the m-intervals partitioning the difference range 0..n_tilde-1;
and J, the ell-intervals used as labelling targets, closed under a
complement involution.  A set J and its complement sit in opposite
halves of the range and their element sum is ell*(n_tilde+1), so edge
labels |a - a'| between them follow a triangular profile el(J, c).
The correction distributions built here remove extra labels so that
free label sets shrink uniformly in expectation.

All masses are exact rationals on a shared denominator; sampling
converts once to integer thresholds so that the sampled law equals the
stated law bit-exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .params import ParamError
from .rng import Rng

_MAX_MATERIALIZED = 10 ** 8


def _exact_int(f: Fraction) -> int:
    if f.denominator != 1:
        raise ParamError(f"expected an integer mass scale, got {f}")
    return f.numerator


class Interval(NamedTuple):
    lo: int
    hi: int

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


class IntervalSystem:
    """I_V, I_E, J and the J-complement map for one (n_tilde, m, ell)."""

    def __init__(self, n_tilde: int, m: int, ell: int):
        if n_tilde % (2 * m) != 0:
            raise ParamError(f"2m = {2*m} must divide n_tilde = {n_tilde}")
        if ell % m != 0:
            raise ParamError(f"m = {m} must divide ell = {ell}")
        if 2 * ell >= n_tilde:
            raise ParamError(f"need ell < n_tilde/2, got ell = {ell}")
        if n_tilde // m > _MAX_MATERIALIZED:
            raise ParamError("interval system too large to materialize")
        self.n_tilde = n_tilde
        self.m = m
        self.ell = ell
        half = n_tilde // 2
        self.iv_starts = tuple(range(1, n_tilde - m + 2, m))
        self.ie_starts = tuple(range(0, n_tilde - m + 1, m))
        self.j_starts = (tuple(range(1, half - ell + 2, m))
                         + tuple(range(half + 1, n_tilde - ell + 2, m)))
        self.iv_intervals = tuple(Interval(s, s + m - 1) for s in self.iv_starts)
        self.ie_intervals = tuple(Interval(s, s + m - 1) for s in self.ie_starts)
        self.j_intervals = tuple(Interval(s, s + ell - 1) for s in self.j_starts)
        self.iv_index = {iv: i for i, iv in enumerate(self.iv_intervals)}
        self.ie_index = {ie: i for i, ie in enumerate(self.ie_intervals)}
        self.j_index = {j: i for i, j in enumerate(self.j_intervals)}
        assert len(self.iv_starts) == n_tilde // m
        assert len(self.ie_starts) == n_tilde // m
        assert len(self.j_starts) == n_tilde // m - 2 * (ell // m - 1)

    def complement(self, J: Interval) -> Interval:
        """The partner of J: starts sum to n_tilde - ell + 2."""
        if J not in self.j_index:
            raise ParamError(f"{J} is not in the J family")
        s = self.n_tilde - self.ell + 2 - J.lo
        return Interval(s, s + self.ell - 1)

    def el_count(self, j_lo: int, c: int) -> int:
        """ell^2 * el(J, c): ordered pairs of J x complement at distance c."""
        d0 = abs(self.n_tilde - self.ell + 2 - 2 * j_lo)
        return max(0, self.ell - abs(c - d0))

    def el(self, J: Interval, c: int) -> Fraction:
        """Fraction of ordered pairs (a, a') in J x complement(J) with
        |a - a'| = c."""
        if J not in self.j_index:
            raise ParamError(f"{J} is not in the J family")
        if not 0 <= c <= self.n_tilde - 1:
            raise ParamError(f"difference {c} outside 0..{self.n_tilde - 1}")
        return Fraction(self.el_count(J.lo, c), self.ell ** 2)


class CorrectionDistribution:
    """Distribution over one interval family plus the null outcome (None).

    support lists every family interval with its exact mass; masses and
    star_probability share the denominator den and sum to exactly 1.

    A draw is a uniform u in 0..den - 1: the null outcome when u is
    below _star_cut, else _positive[bisect_right(_cuts, u)], the
    interval of positive mass whose cumulative cut first exceeds u.  The
    label loop (labeller.py) takes an attempt's draws from hits.
    """

    __slots__ = ("kind", "support", "star_probability", "den", "_star_cut",
                 "_cuts", "_positive")

    def __init__(self, kind: str, support, star_probability: Fraction, den: int):
        total = star_probability
        for iv, mass in support:
            if mass < 0:
                raise ParamError(
                    f"negative mass {mass} at {iv}: system construction bug")
            total += mass
        if total != 1:
            raise ParamError(f"masses sum to {total}, not 1")
        self.kind = kind
        self.support = tuple(support)
        self.star_probability = star_probability
        self.den = den
        cum = _exact_int(star_probability * den)
        self._star_cut = cum
        cuts, positive = [], []
        for iv, mass in support:
            if mass > 0:
                cum += _exact_int(mass * den)
                cuts.append(cum)
                positive.append(iv)
        assert cum == den
        self._cuts = cuts
        self._positive = positive

    def hits(self, rng: Rng, steps: int) -> tuple[list[int], list[int]]:
        """One draw per step 0..steps-1, step k's u being the k-th value
        of rng.batches(den): the steps whose draw is an interval, in
        order, and that interval's lo for each.

        The draws are made a batch at a time in numpy (a compare with
        the star cut, then searchsorted on the cuts), and only the hits
        are kept, so memory is O(batch + hits).

        A law whose star probability is negative (a system with
        n_tilde/m < 4(ell/m - 1)) is no probability law, so drawing from
        it raises ParamError; its masses can still be read.
        """
        if self.star_probability < 0:
            raise ParamError(
                f"the {self.kind} correction law has star probability "
                f"{self.star_probability} < 0: need n_tilde/m >= "
                f"4(ell/m - 1)")
        star = np.uint64(self._star_cut)
        cuts = np.array(self._cuts, np.uint64)
        los = np.array([iv.lo for iv in self._positive], np.int64)
        at, lo = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        batches = rng.batches(self.den)
        done = 0
        while done < steps:
            u = next(batches)[:steps - done]
            hit = np.flatnonzero(u >= star)
            at.append(hit + done)
            lo.append(los[np.searchsorted(cuts, u[hit], side="right")])
            done += len(u)
        return np.concatenate(at).tolist(), np.concatenate(lo).tolist()

    def mass_of(self, iv: Interval) -> Fraction:
        for jv, mass in self.support:
            if jv == iv:
                return mass
        raise ParamError(f"{iv} not in the {self.kind} family")


def corv_distribution(sys: IntervalSystem) -> CorrectionDistribution:
    """Removal law for vertex labels: interval I gets mass
    (1 - (m/ell) |{J containing I}|) / |J|.

    The J starting at label 1 + k*m covers exactly the I_V indices
    k .. k + ell/m - 1, so the containment counts are the prefix sums of
    one first-difference array over the I_V index: O(|I_V| + |J|)
    integer steps instead of |I_V| * |J| containment tests.
    """
    m, r = sys.m, sys.ell // sys.m
    nj = len(sys.j_intervals)
    den = sys.ell * nj
    diff = [0] * (len(sys.iv_intervals) + 1)
    for j_lo in sys.j_starts:
        k = (j_lo - 1) // m
        diff[k] += 1
        diff[k + r] -= 1
    support = [(I, Fraction(sys.ell - m * cnt, den))
               for I, cnt in zip(sys.iv_intervals, accumulate(diff))]
    star = Fraction(2 * nj - len(sys.iv_intervals), nj)
    return CorrectionDistribution("vertex", support, star, den)


def core_distribution(sys: IntervalSystem) -> CorrectionDistribution:
    """Removal law for edge labels: interval I_E gets mass
    (1 - m * sum_J el(J, min I_E)) / |J|.

    Needs ell/m even: the triangular profiles of complementary J-pairs sit
    on a step-2m center grid, and their summed coverage of an interior
    difference is exactly 1 only then; for odd ell/m it peaks at
    (r^2+1)/r^2 and the mass above would go negative.

    On the m-grid each profile is a triangle: with r = ell/m and the
    peak d0 = k0*m (a multiple of m because 2m | n_tilde and m | ell),
    el_count(J, i*m) = m * max(0, r - |i - k0|).  Their sum over J is
    the double prefix sum of a second-difference array holding +m at
    k0 - r + 1, -2m at k0 + 1 and +m at k0 + r + 1, so the law costs
    O(|I_E| + |J|) integer steps instead of |I_E| * |J| profile reads.
    """
    if (sys.ell // sys.m) % 2 != 0:
        raise ParamError(
            f"edge-correction masses need ell/m even, got {sys.ell}/{sys.m}")
    m, r = sys.m, sys.ell // sys.m
    nj = len(sys.j_intervals)
    ell2 = sys.ell ** 2
    den = ell2 * nj
    # index i of the difference array sits at slot i + r, so triangles
    # reaching below c = 0 stay inside it
    dd = [0] * (len(sys.ie_intervals) + 2 * r + 2)
    for j_lo in sys.j_starts:
        k0 = abs(sys.n_tilde - sys.ell + 2 - 2 * j_lo) // m
        dd[k0 + 1] += m
        dd[k0 + r + 1] -= 2 * m
        dd[k0 + 2 * r + 1] += m
    sums = list(accumulate(accumulate(dd)))[r:]
    support = [(I, Fraction(ell2 - m * s, den))
               for I, s in zip(sys.ie_intervals, sums)]
    star = Fraction(2 * nj - len(sys.ie_intervals), nj)
    return CorrectionDistribution("edge", support, star, den)
