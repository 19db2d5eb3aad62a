import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gracetree.params import (DeltaSchedule, DeltaTailInconclusive,
                              Indeterminate, ParamError, Params, SymValue,
                              check_delta_tail, derive_paper_params,
                              derive_practical_params, pad_tree,
                              params_from_json, params_to_json)
from gracetree.rng import Rng
from gracetree.trees import Tree, path_tree, random_tree, star_tree


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
    assert p.n_tilde % (2 * p.m) == 0
    assert 2 * p.ell < p.n_tilde
    assert p.n_tilde // p.m >= 4 * (k - 1)
    assert p.n_tilde >= math.ceil((1 + gamma) * n)


def test_paper_lazy_gamma_one():
    p = derive_paper_params(1, n_blocks=1)
    assert p.mode == "paper" and p.mu_inv is None
    assert p.mu == SymValue.of(1, -1, 0)
    assert p.delta0 == SymValue.of(1, 0, -2)
    assert p.delta == SymValue.of(1, 0, -20)
    assert p.eps == SymValue.of(1, 0, -200)
    assert p.eta == SymValue.of(1, 0, -2000)
    assert p.n == SymValue.of(2, 0, 20)
    assert p.n_tilde == SymValue.of(4, 0, 20)
    assert p.ell == SymValue.of(2, 0, 16)
    assert p.m == SymValue.of(2, 0, 12)
    # delta0^-1 integral because mu^-1 is
    inv = SymValue.of(1) / p.delta0
    assert inv.is_integer() is True


def test_paper_lazy_refuses_concrete_n():
    with pytest.raises(ParamError):
        derive_paper_params(1, n=10 ** 6)


def test_paper_lazy_g2_indeterminate():
    with pytest.raises(Indeterminate):
        derive_paper_params(Fraction(1, 2), n_blocks=1)


def test_paper_gamma_must_be_unit_fraction():
    with pytest.raises(ParamError):
        derive_paper_params(Fraction(2, 3), n_blocks=1)


def test_paper_surrogate_base2():
    p = derive_paper_params(1, n_blocks=1, mu_inv=2)
    assert p.n == 2 * 2 ** 40
    assert p.mu == Fraction(1, 2)
    assert p.delta0 == Fraction(1, 16)
    assert (1 / p.delta0).denominator == 1
    assert p.delta == Fraction(1, 2 ** 40)
    assert p.eta == Fraction(1, 2 ** 4000)
    assert p.ell == 2 * 2 ** 32
    assert p.m == 2 * 2 ** 24
    assert p.n_tilde == 2 * p.n
    assert p.n_tilde % (2 * p.m) == 0
    assert p.ell % p.m == 0
    assert p.n0_log2 == 10 * 2 ** 8000


def test_paper_surrogate_divisibility_errors():
    with pytest.raises(ParamError) as ei:
        derive_paper_params(1, n=12345, mu_inv=2)
    assert ei.value.required_modulus == 2 * 2 ** 40
    # 2m | n_tilde genuinely fails for g=3 with base 2
    with pytest.raises(ParamError):
        derive_paper_params(Fraction(1, 3), n_blocks=1, mu_inv=2)


def test_delta_schedule_endpoints():
    p = derive_paper_params(1, n_blocks=1, mu_inv=2)
    d = DeltaSchedule(p)
    assert d.exponent(0) == -2 * 2            # delta_0 = B^(-2B)
    assert d.exponent(p.n) == -2              # delta_n = B^(-B) = mu^(1/mu)
    assert d.value(0) == p.delta0
    assert d.value(p.n) == Fraction(1, 4)
    assert d.exponent(1) > d.exponent(0)
    steps = [d.exponent(i) for i in range(0, p.n, p.n // 8)]
    assert all(a < b for a, b in zip(steps, steps[1:]))


def test_delta_schedule_lazy_fraction():
    p = derive_paper_params(1, n_blocks=1)
    d = DeltaSchedule(p)
    assert d.exponent_at_fraction(0) == SymValue.of(1, 0, -2)
    assert d.exponent_at_fraction(1) == SymValue.of(1, 0, -1)
    assert d.exponent_at_fraction(Fraction(1, 2)) == SymValue.of(1, 0, Fraction(-3, 2))


def test_delta_tail_certified():
    p = derive_paper_params(1, n_blocks=1, mu_inv=2)
    # block length delta*n = 2
    for t in (1, 2, 17, 1000, 10 ** 6):
        K = check_delta_tail(p, t)
        assert K == -(-t // 2)
    lazy = derive_paper_params(1, n_blocks=1)
    assert check_delta_tail(lazy, blocks=10 ** 9) == 10 ** 9


def test_delta_tail_inconclusive_not_false():
    p = derive_paper_params(1, n_blocks=1, mu_inv=2)
    with pytest.raises(DeltaTailInconclusive):
        check_delta_tail(p, blocks=2 ** 40)


def test_delta_tail_numeric_crosscheck():
    # float cross-check of the certified inequality at B=2, K=1000
    B, K = 2, 1000
    log2_term = lambda i: (1 - 20 * B) + (-2 * B + i * 2 ** -39) * 1.0
    mx = log2_term(K)
    s = sum(2.0 ** (log2_term(i) - mx) for i in range(1, K + 1))
    lhs_log2 = mx + math.log2(s)
    rhs_log2 = (-2 * B + K * 2 ** -39) - math.log2(100)
    assert lhs_log2 < rhs_log2


def test_pad_tree_examples():
    t = random_tree(10, Rng(3))
    padded = pad_tree(t, 12)
    assert padded.n == 12
    assert set(t.edges) <= set(padded.edges)
    t12 = random_tree(12, Rng(4))
    assert pad_tree(t12, 12) == t12
    p5 = pad_tree(path_tree(2), 5)
    assert p5.n == 5
    degs = sorted(p5.degree(v) for v in range(1, 6))
    assert degs == [1, 1, 2, 2, 2]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(1, 9), st.integers(0, 2 ** 16))
def test_pad_tree_invariants(n, modulus, seed):
    t = random_tree(n, Rng(seed, (11,)))
    padded = pad_tree(t, modulus)
    assert padded.n % modulus == 0
    assert padded.n >= t.n
    assert set(t.edges) <= set(padded.edges)


def test_pad_single_vertex():
    t = pad_tree(Tree(1, []), 4)
    assert t.n == 4
    assert pad_tree(star_tree(4), 2).n == 4


def test_json_roundtrip_all_modes():
    for p in (derive_practical_params(20, Fraction(1, 5), 2, 4),
              derive_paper_params(1, n_blocks=1),
              derive_paper_params(1, n_blocks=2, mu_inv=2)):
        q = params_from_json(params_to_json(p))
        assert q == p
    s = params_to_json(derive_practical_params(20, Fraction(1, 5), 2, 4))
    assert '"mode": "practical"' in s
    assert '"gamma": "1/5"' in s
