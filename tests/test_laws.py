"""Closed-form correction laws against the pair-by-pair definitions.

The oracles below are the direct O(|I| * |J|) loops that define the two
laws; the library builds the same masses from difference arrays.
"""

from fractions import Fraction

import pytest

from gracetree.intervals import (CorrectionDistribution, Interval,
                                 IntervalSystem, core_distribution,
                                 corv_distribution)
from gracetree.params import ParamError, derive_practical_params
from oracles import contains


def corv_oracle(sys):
    nj = len(sys.j_intervals)
    den = sys.ell * nj
    nums = []
    for I in sys.iv_intervals:
        cnt = sum(1 for J in sys.j_intervals if contains(J, I))
        nums.append(sys.ell - sys.m * cnt)
    star = (2 * nj - len(sys.iv_intervals)) * sys.ell
    return CorrectionDistribution("vertex", sys.iv_intervals, nums, star, den)


def core_oracle(sys):
    if (sys.ell // sys.m) % 2 != 0:
        raise ParamError(
            f"edge-correction masses need ell/m even, got {sys.ell}/{sys.m}")
    nj = len(sys.j_intervals)
    ell2 = sys.ell ** 2
    den = ell2 * nj
    nums = []
    for I in sys.ie_intervals:
        s = sum(sys.el_count(j_lo, I.lo) for j_lo in sys.j_starts)
        nums.append(ell2 - sys.m * s)
    star = (2 * nj - len(sys.ie_intervals)) * ell2
    return CorrectionDistribution("edge", sys.ie_intervals, nums, star, den)


def item6_systems():
    # the 20 systems of acceptance item 6
    triples = []
    for m in (1, 2, 3, 4, 8):
        for width_ratio in (2, 4, 6):
            for slack in (1, 2):
                triples.append((2 * m * (width_ratio + slack), m,
                                width_ratio * m))
    return triples[:20]


def bench_systems():
    # label-random, audit-scaled, prepare-path and retry-tight: n_tilde
    # 150016, 30208, 45056 and 12032
    points = [(100_000, Fraction(1, 2), 128, 512),
              (20_000, Fraction(1, 2), 256, 1024),
              (30_000, Fraction(1, 2), 128, 512),
              (10_000, Fraction(1, 5), 32, 512)]
    out = []
    for n, gamma, m, ell in points:
        p = derive_practical_params(n, gamma, m, ell)
        out.append((p.n_tilde, p.m, p.ell))
    return out


def assert_same_law(got, want):
    assert got.kind == want.kind
    assert got.support == want.support
    assert got.star_probability == want.star_probability
    assert got.den == want.den
    assert got._star_cut == want._star_cut
    assert got._cuts == want._cuts
    assert got._positive == want._positive


@pytest.mark.parametrize("triple", item6_systems() + bench_systems())
def test_closed_forms_match_pair_loops(triple):
    sys = IntervalSystem(*triple)
    assert_same_law(corv_distribution(sys), corv_oracle(sys))
    assert_same_law(core_distribution(sys), core_oracle(sys))


@pytest.mark.parametrize("triple", [(8, 2, 2), (36, 2, 6), (60, 1, 3)])
def test_core_odd_ratio_still_rejected(triple):
    sys = IntervalSystem(*triple)
    with pytest.raises(ParamError, match="ell/m even"):
        core_distribution(sys)
    with pytest.raises(ParamError, match="ell/m even"):
        core_oracle(sys)
    # the vertex law has no parity condition
    assert_same_law(corv_distribution(sys), corv_oracle(sys))


def test_negative_window_mass_refused():
    # masses 3/4, -1/4 and a star of 1/2 sum to 1, but a window mass is
    # negative: the constructor refuses it (a negative star it builds,
    # and only hits refuses)
    ivs = (Interval(1, 2), Interval(3, 4))
    with pytest.raises(ParamError, match="negative mass -1/4"):
        CorrectionDistribution("vertex", ivs, [3, -1], 2, 4)
    with pytest.raises(ParamError, match="masses sum to 5/4"):
        CorrectionDistribution("vertex", ivs, [3, 0], 2, 4)
    law = CorrectionDistribution("vertex", ivs, [3, 3], -2, 4)
    assert law.star_probability == Fraction(-1, 2)
    assert law.support == ((ivs[0], Fraction(3, 4)), (ivs[1], Fraction(3, 4)))
