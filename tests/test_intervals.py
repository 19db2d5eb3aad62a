from fractions import Fraction

import pytest

from gracetree.intervals import (Interval, IntervalSystem,
                                 core_distribution, corv_distribution)
from gracetree.params import ParamError, derive_practical_params
from gracetree.rng import _BUF, Rng
from oracles import OldRng, _law_draw, law_values, sample

SMALL_SYSTEMS = [(10, 1, 2), (12, 1, 2), (12, 2, 4), (16, 2, 4), (20, 2, 4),
                 (24, 2, 4), (24, 3, 6), (24, 4, 8), (40, 4, 8)]


def sys24():
    return IntervalSystem(24, 2, 4)


def el_enum(sys, J, c):
    # pair-enumeration oracle for the closed-form el
    Jb = sys.complement(J)
    cnt = sum(1 for a in range(J.lo, J.hi + 1)
              for b in range(Jb.lo, Jb.hi + 1) if abs(a - b) == c)
    return Fraction(cnt, sys.ell ** 2)


def test_system_24_families():
    s = sys24()
    assert len(s.iv_intervals) == 12
    assert len(s.ie_intervals) == 12
    assert s.j_starts == (1, 3, 5, 7, 9, 13, 15, 17, 19, 21)
    assert s.iv_starts[:3] == (1, 3, 5) and s.iv_starts[-1] == 23
    assert s.ie_starts[:3] == (0, 2, 4) and s.ie_starts[-1] == 22


def test_complement_example():
    s = sys24()
    J1 = Interval(1, 4)
    assert s.complement(J1) == Interval(21, 24)
    assert sum(range(1, 5)) + sum(range(21, 25)) == 4 * 25


def test_complement_involution():
    for nt, m, ell in SMALL_SYSTEMS:
        s = IntervalSystem(nt, m, ell)
        half = nt // 2
        for J in s.j_intervals:
            Jb = s.complement(J)
            assert Jb in s.j_index
            assert Jb != J
            assert s.complement(Jb) == J
            lower, upper = sorted((J, Jb))
            assert lower.hi <= half < upper.lo
            total = sum(range(J.lo, J.hi + 1)) + sum(range(Jb.lo, Jb.hi + 1))
            assert total == ell * (nt + 1)


def test_el_examples():
    s = sys24()
    J = Interval(1, 4)
    assert s.el(J, 20) == Fraction(4, 16)
    assert s.el(J, 17) == Fraction(1, 16)
    assert s.el(J, 24 - 1) == el_enum(s, J, 23)
    with pytest.raises(ParamError):
        s.el(J, 24)
    for J in s.j_intervals:
        assert s.el(J, 0) == 0


def test_el_closed_form_vs_enumeration():
    for nt, m, ell in SMALL_SYSTEMS:
        s = IntervalSystem(nt, m, ell)
        for J in s.j_intervals:
            for c in range(nt):
                assert s.el(J, c) == el_enum(s, J, c), (nt, m, ell, J, c)


def test_el_rejects_foreign_interval():
    s = sys24()
    with pytest.raises(ParamError):
        s.el(Interval(2, 5), 3)


def test_el_profile_invariants():
    for nt, m, ell in SMALL_SYSTEMS:
        s = IntervalSystem(nt, m, ell)
        for J in s.j_intervals:
            assert sum(s.el_count(J.lo, c) for c in range(nt)) == ell * ell
            total = sum(s.el_count(J.lo, lo) for lo in s.ie_starts)
            assert m * total == ell * ell  # m * sum el = 1 per J
        for c in range(nt):
            covering = sum(1 for J in s.j_intervals if s.el(J, c) > 0)
            assert covering <= 2 * ell // m + 2
        bound = Fraction(2 * m, ell ** 2)
        for J in s.j_intervals:
            for c in range(nt):
                for cp in range(max(0, c - 2 * m), min(nt, c + 2 * m + 1)):
                    assert abs(s.el(J, c) - s.el(J, cp)) <= bound


def test_corv_example_masses():
    d = corv_distribution(sys24())
    assert dict(d.support)[Interval(1, 2)] == Fraction(1, 20)
    assert dict(d.support)[Interval(5, 6)] == 0
    assert d.star_probability == Fraction(8, 10)
    positive = [iv for iv, mass in d.support if mass > 0]
    assert positive == [Interval(1, 2), Interval(11, 12),
                        Interval(13, 14), Interval(23, 24)]
    assert all(mass == Fraction(1, 20) for iv, mass in d.support if mass > 0)


def test_core_example_masses():
    d = core_distribution(sys24())
    assert dict(d.support)[Interval(0, 1)] == Fraction(1, 10)
    assert dict(d.support)[Interval(20, 21)] == 0
    assert d.star_probability == Fraction(8, 10)


def test_distributions_sum_to_one_exactly():
    for nt, m, ell in SMALL_SYSTEMS:
        s = IntervalSystem(nt, m, ell)
        for d in (corv_distribution(s), core_distribution(s)):
            assert d.star_probability + sum(mass for _, mass in d.support) == 1
            assert all(mass >= 0 for _, mass in d.support)


def test_star_mass_formulas():
    for nt, m, ell in SMALL_SYSTEMS:
        s = IntervalSystem(nt, m, ell)
        nj = len(s.j_intervals)
        assert corv_distribution(s).star_probability == \
            Fraction(2 * nj - len(s.iv_intervals), nj)
        assert core_distribution(s).star_probability == \
            Fraction(2 * nj - len(s.ie_intervals), nj)


def test_sample_star_only():
    s = IntervalSystem(8, 2, 2)
    d = corv_distribution(s)
    assert d.star_probability == 1
    rng = OldRng(0)
    assert all(sample(d, rng) is None for _ in range(100))


def test_core_requires_even_ratio():
    # odd ell/m over-covers interior differences: (r^2+1)/r^2 > 1
    s = IntervalSystem(8, 2, 2)
    peak = max(s.m * sum(s.el(J, c) for J in s.j_intervals)
               for c in range(s.n_tilde))
    assert peak == Fraction(2, 1)  # r=1: (1+1)/1
    with pytest.raises(ParamError):
        core_distribution(s)
    s3 = IntervalSystem(36, 2, 6)
    peak3 = max(s3.m * sum(s3.el(J, c) for J in s3.j_intervals)
                for c in range(s3.n_tilde))
    assert peak3 == Fraction(10, 9)  # r=3: (9+1)/9
    with pytest.raises(ParamError):
        core_distribution(s3)


def test_sample_star_frequency():
    d = corv_distribution(sys24())
    rng = OldRng(99)
    stars = sum(1 for _ in range(10 ** 6) if sample(d, rng) is None)
    assert abs(stars / 10 ** 6 - 0.8) <= 0.002


def test_sample_reproducible():
    d = core_distribution(sys24())
    r1, r2 = OldRng(41), OldRng(41)
    seq1 = [sample(d, r1) for _ in range(200)]
    seq2 = [sample(d, r2) for _ in range(200)]
    assert seq1 == seq2
    assert any(iv is not None for iv in seq1)


@pytest.mark.parametrize("law", [corv_distribution, core_distribution])
def test_hits_are_blocked_draws(law):
    # one law value per step, read as draws(den, ...) blocks of up to
    # _BUF values: the hits are the steps whose value passes the star
    # cut, each with the lo of the interval it falls in
    p = derive_practical_params(2000, Fraction(1, 2), 32, 256)
    d = law(IntervalSystem(p.n_tilde, p.m, p.ell))
    steps = 3 * _BUF + 17
    at, lo = d.hits(Rng(3, key=(2,)), steps)
    want = [(k, _law_draw(d, u)) for k, u in
            enumerate(law_values(Rng(3, key=(2,)), d.den, steps))]
    assert len(want) == steps
    assert list(zip(at, lo)) == [(k, x) for k, x in want if x >= 0]
    assert 0 < len(at) < steps


def test_build_from_params():
    p = derive_practical_params(20, Fraction(1, 5), 2, 4)
    s = IntervalSystem(p.n_tilde, p.m, p.ell)
    assert s.n_tilde == 24 and s.m == 2 and s.ell == 4


def test_system_size_guard_refuses_before_building():
    # a system and its two correction laws hold about 736 bytes per
    # window, so 2^20 windows is the most admitted; the next size is
    # refused before any family is built
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ParamError, match="too large to materialize: "
                                             "n_tilde/m = 1048578 windows"):
            IntervalSystem(2 ** 20 + 2, 1, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_system_validation():
    with pytest.raises(ParamError):
        IntervalSystem(10, 2, 2)   # 2m does not divide
    with pytest.raises(ParamError):
        IntervalSystem(24, 2, 3)   # m does not divide ell
    with pytest.raises(ParamError):
        IntervalSystem(24, 2, 12)  # ell >= half
    for ell in (0, -2):  # m divides both, but ell < m
        with pytest.raises(ParamError, match="need ell >= m"):
            IntervalSystem(24, 2, ell)
    # m = 0 used to divide by zero, and m = -2 to trip a family-size
    # assert; both are refused before any other check
    for m in (0, -2):
        with pytest.raises(ParamError, match=f"m must be at least 1, "
                                             f"got m = {m}"):
            IntervalSystem(24, m, 4)
    # n_tilde < 1 with m >= 1: ell >= m makes 2 ell >= n_tilde
    for nt in (0, -4):
        with pytest.raises(ParamError):
            IntervalSystem(nt, 2, 2)


def test_negative_null_mass_law_is_built_but_not_drawn():
    # n_tilde/m = 38 < 4(ell/m - 1) = 60: the masses still satisfy the
    # identities acceptance item 6 checks, but the null mass is negative,
    # so the law cannot be sampled
    s = IntervalSystem(1216, 32, 512)
    for d in (corv_distribution(s), core_distribution(s)):
        assert d.star_probability == Fraction(-11, 4)
        assert d.star_probability + sum(mass for _, mass in d.support) == 1
        with pytest.raises(ParamError, match="star probability -11/4"):
            d.hits(Rng(0), 10)
