import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gracetree.params import ParamError, derive_practical_params


def test_practical_examples():
    p = derive_practical_params(20, Fraction(1, 5), 2, 4)
    assert p.n_tilde == 24
    q = derive_practical_params(10 ** 4, Fraction(1, 5), 32, 512)
    assert q.n_tilde == 12032
    assert q.n_tilde % (2 * q.m) == 0
    # n_tilde/m = 4(ell/m - 1) = 60 exactly: null mass 0, admitted
    assert derive_practical_params(1600, Fraction(1, 5), 32, 512).n_tilde \
        == 1920


def test_practical_errors():
    with pytest.raises(ParamError):
        derive_practical_params(20, Fraction(1, 5), 2, 12)  # ell >= nt/2
    with pytest.raises(ParamError):
        derive_practical_params(20, Fraction(1, 5), 3, 4)   # m does not divide ell
    with pytest.raises(ParamError):
        derive_practical_params(20, 0, 2, 4)
    with pytest.raises(ParamError):
        derive_practical_params(1, Fraction(1, 5), 1, 1)
    # n_tilde/m = 38 windows against 4(ell/m - 1) = 60: both correction
    # laws would give the null outcome mass -11/4
    with pytest.raises(ParamError, match=r"4\(ell/m - 1\)"):
        derive_practical_params(1000, Fraction(1, 5), 32, 512)
    # ell/m = 3 is odd: the edge correction law has no valid masses,
    # so the ratio is refused before any tree is built
    with pytest.raises(ParamError,
                       match="edge-correction masses need ell/m even, "
                             "got 12/4"):
        derive_practical_params(200, Fraction(1, 2), 4, 12)
    # m divides 0 and -m, but a target interval needs ell >= m
    for ell in (0, -4):
        with pytest.raises(ParamError, match="need ell >= m"):
            derive_practical_params(20, Fraction(1, 5), 4, ell)


def test_practical_alpha_schedule():
    p = derive_practical_params(100, Fraction(1, 5), 2, 4)
    assert p.alpha(0) == Fraction(1, 20)
    assert p.alpha(50) == Fraction(1, 20) + Fraction(3, 40)
    assert p.alpha(100) == Fraction(1, 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 500), st.fractions(Fraction(1, 10), Fraction(2, 1)),
       st.integers(1, 8), st.integers(1, 10))
def test_practical_invariants(n, gamma, m, k):
    if gamma <= 0:
        return
    ell = m * k
    try:
        p = derive_practical_params(n, gamma, m, ell)
    except ParamError:
        return
    assert p.ell % p.m == 0
    assert (p.ell // p.m) % 2 == 0
    assert p.n_tilde % (2 * p.m) == 0
    assert 2 * p.ell < p.n_tilde
    assert p.n_tilde // p.m >= 4 * (k - 1)
    assert p.n_tilde >= math.ceil((1 + gamma) * n)
