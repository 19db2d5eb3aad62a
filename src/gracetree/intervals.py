"""Interval families over the label range 1..n_tilde.

Three families: I_V, the m-intervals partitioning the vertex labels;
I_E, the m-intervals partitioning the difference range 0..n_tilde-1;
and J, the ell-intervals used as labelling targets, closed under a
complement involution.  A set J and its complement sit in opposite
halves of the range and their element sum is ell*(n_tilde+1), so edge
labels |a - a'| between them follow a triangular profile el(J, c).
The correction distributions built here remove extra labels so that
free label sets shrink uniformly in expectation.

Each law's masses are integer numerators over one shared denominator,
and its draws compare a uniform integer with their running sums, so the
sampled law equals the stated law bit-exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .params import ParamError
from .rng import _BUF, Rng

# the most windows (n_tilde/m) a system may have: a system and its two
# correction laws hold about 736 bytes per window, so this keeps them
# under 1 GB
_MAX_MATERIALIZED = 2 ** 20


class Interval(NamedTuple):
    lo: int
    hi: int


class IntervalSystem:
    """I_V, I_E, J and the J-complement map for one (n_tilde, m, ell)."""

    def __init__(self, n_tilde: int, m: int, ell: int):
        # with m >= 1, the checks below also refuse n_tilde < 1, since
        # ell >= m makes 2 ell >= 2; any ell/m passes, and only the edge
        # law needs it even (core_distribution)
        if m < 1:
            raise ParamError(f"m must be at least 1, got m = {m}")
        if n_tilde % (2 * m) != 0:
            raise ParamError(f"2m = {2*m} must divide n_tilde = {n_tilde}")
        if ell % m != 0:
            raise ParamError(f"m = {m} must divide ell = {ell}")
        if ell < m:
            raise ParamError(f"need ell >= m: ell = {ell}, m = {m}")
        if 2 * ell >= n_tilde:
            raise ParamError(f"need ell < n_tilde/2, got ell = {ell}")
        if n_tilde // m > _MAX_MATERIALIZED:
            raise ParamError(
                f"interval system too large to materialize: n_tilde/m = "
                f"{n_tilde // m} windows, at most {_MAX_MATERIALIZED}")
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

    intervals[i] has mass nums[i]/den and the null outcome star_num/den;
    the numerators are integers and sum to den.  support (every interval
    with its mass) and star_probability give the masses as exact
    Fractions, made when they are read.

    A draw is a uniform u in 0..den - 1: the null outcome when u is
    below _star_cut (= star_num), else _positive[bisect_right(_cuts, u)],
    the interval of positive mass whose cumulative cut first exceeds u.
    The label loop (labeller.py) takes an attempt's draws from hits.
    """

    __slots__ = ("kind", "den", "_intervals", "_nums", "_star_cut", "_cuts",
                 "_positive")

    def __init__(self, kind: str, intervals, nums, star_num: int, den: int):
        intervals, nums = tuple(intervals), tuple(nums)
        for iv, num in zip(intervals, nums, strict=True):
            if num < 0:
                raise ParamError(f"negative mass {Fraction(num, den)} at "
                                 f"{iv}: system construction bug")
        total = star_num + sum(nums)
        if total != den:
            raise ParamError(f"masses sum to {Fraction(total, den)}, not 1")
        self.kind = kind
        self.den = den
        self._intervals = intervals
        self._nums = nums
        self._star_cut = star_num
        positive = [i for i, num in enumerate(nums) if num > 0]
        self._cuts = list(accumulate((nums[i] for i in positive),
                                     initial=star_num))[1:]
        self._positive = [intervals[i] for i in positive]

    @property
    def support(self) -> tuple:
        return tuple((iv, Fraction(num, self.den))
                     for iv, num in zip(self._intervals, self._nums))

    @property
    def star_probability(self) -> Fraction:
        return Fraction(self._star_cut, self.den)

    def hits(self, rng: Rng, steps: int) -> tuple[list[int], list[int]]:
        """One draw per step 0..steps-1, the u of steps k*_BUF.. being
        rng.draws(den, min(_BUF, steps - k*_BUF)): the steps whose draw
        is an interval, in order, and that interval's lo for each.

        Each block is drawn and read in numpy (a compare with the star
        cut, then searchsorted on the cuts), and only the hits are kept,
        so memory is O(_BUF + hits).

        A law whose star probability is negative (a system with
        n_tilde/m < 4(ell/m - 1)) is no probability law, so drawing from
        it raises ParamError; its masses can still be read.
        """
        if self._star_cut < 0:
            raise ParamError(
                f"the {self.kind} correction law has star probability "
                f"{self.star_probability} < 0: need n_tilde/m >= "
                f"4(ell/m - 1)")
        cuts = np.array(self._cuts, np.int64)
        los = np.array([iv.lo for iv in self._positive], np.int64)
        at, lo = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for done in range(0, steps, _BUF):
            u = rng.draws(self.den, min(_BUF, steps - done))
            hit = np.flatnonzero(u >= self._star_cut)
            at.append(hit + done)
            lo.append(los[np.searchsorted(cuts, u[hit], side="right")])
        return np.concatenate(at).tolist(), np.concatenate(lo).tolist()


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
    nums = [sys.ell - m * cnt for cnt in accumulate(diff[:-1])]
    star = (2 * nj - len(sys.iv_intervals)) * sys.ell
    return CorrectionDistribution("vertex", sys.iv_intervals, nums, star, den)


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
    nums = [ell2 - m * s for s in sums[:len(sys.ie_intervals)]]
    star = (2 * nj - len(sys.ie_intervals)) * ell2
    return CorrectionDistribution("edge", sys.ie_intervals, nums, star, den)
