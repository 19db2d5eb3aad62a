import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gracetree.intervals import Interval, IntervalSystem
from gracetree.labeller import LabelState, run_labelling
from gracetree.params import ParamError, derive_practical_params
from gracetree.prepare import Plan, prepare_plan
from gracetree.quasirandom import (QuasiSampleSpec, check_quasi,
                                   count_structure, crude_estimates,
                                   lemma36_check, x1, x2, x3, x4)
from gracetree.rng import Rng
from gracetree.trees import random_tree
from oracles import (admissible_labels, full_check_quasi, full_count_structure,
                     full_ints, remove_diff, snapshot)


def brute_count(X, A, C):
    """Reference count by direct enumeration of the definitions."""
    A, C = set(A), set(C)
    I = X.slot
    in_slot = [b for b in A if I.lo <= b <= I.hi]
    if X.kind == "X1":
        return len(in_slot)
    if X.kind == "X3":
        return sum(1 for b in in_slot if abs(b - X.a) in C and b != X.a)
    if X.kind == "X4":
        return sum(1 for b in in_slot
                   if abs(b - X.a) in C and abs(b - X.a2) in C
                   and abs(b - X.a) != abs(b - X.a2)
                   and b not in (X.a, X.a2))
    I2 = X.slot2
    in_slot2 = [b for b in A if I2.lo <= b <= I2.hi]
    return sum(1 for b in in_slot for b2 in in_slot2
               if abs(b - b2) == X.c and abs(X.a - b) in C
               and abs(X.a - b) != X.c
               and len({X.a, b, b2}) == 3)


def test_count_x1_frozen():
    assert count_structure(x1(Interval(1, 2)), snapshot({2}, set())) == 1


def test_count_x3_frozen():
    assert count_structure(x3(5, Interval(1, 2)), snapshot({1, 2}, {3, 4})) == 2


def test_count_x4_frozen():
    # midpoint 3 of the anchors 1, 5 induces equal labels and is excluded
    n = count_structure(x4(1, 5, Interval(2, 4)),
                        snapshot({2, 3, 4, 9}, {1, 2, 3}))
    assert n == 2


def test_count_x2_anchored_pairs():
    # anchor 10, fixed edge 3: sources 8 and 12 (induced label 2), two
    # partners each
    A = {5, 8, 9, 11, 12, 15}
    X = x2(10, Interval(8, 12), 3, Interval(5, 15))
    assert count_structure(X, snapshot(A, {2})) == 4
    assert count_structure(X, snapshot(A, {2})) == brute_count(X, A, {2})
    # widening C to include 3 changes nothing: induced label 3 is banned
    assert count_structure(X, snapshot(A, {2, 3})) == 4


def test_structure_validation_errors():
    with pytest.raises(ValueError):
        x2(10, Interval(1, 4), 3, Interval(1, 4))
    with pytest.raises(ValueError):
        x4(5, 5, Interval(1, 4))
    with pytest.raises(ValueError):
        x2(10, Interval(1, 4), 0, Interval(5, 8))
    with pytest.raises(ValueError):
        x3(0, Interval(1, 4))
    with pytest.raises(ValueError):
        from gracetree.quasirandom import Structure
        Structure("X1", a=3, slot=Interval(1, 4))
    with pytest.raises(ValueError):
        from gracetree.quasirandom import Structure
        Structure("X9", slot=Interval(1, 4))


def test_free_counts_and_diffs():
    assert x1(Interval(1, 4)).free == 1
    assert x2(9, Interval(1, 4), 2, Interval(5, 8)).free == 3
    assert x3(9, Interval(1, 4)).free == 2
    assert x4(9, 12, Interval(1, 4)).free == 3
    assert x2(9, Interval(1, 4), 2, Interval(5, 8)).edge_diffs == (8,)
    assert x4(9, 12, Interval(1, 4)).edge_diffs == (8, 11)


@st.composite
def _counting_case(draw):
    nt = draw(st.integers(8, 48))
    A = draw(st.sets(st.integers(1, nt), max_size=nt))
    C = draw(st.sets(st.integers(1, nt - 1), max_size=nt))
    lo = draw(st.integers(1, nt - 1))
    hi = draw(st.integers(lo, nt))
    lo2 = draw(st.integers(1, nt - 1))
    hi2 = draw(st.integers(lo2, nt))
    a = draw(st.integers(1, nt))
    a2 = draw(st.integers(1, nt).filter(lambda v: v != a))
    c = draw(st.integers(1, nt - 1))
    return nt, A, C, Interval(lo, hi), Interval(lo2, hi2), a, a2, c


@settings(max_examples=300, deadline=None)
@given(_counting_case())
def test_count_matches_brute_force(case):
    nt, A, C, I, I2, a, a2, c = case
    state = snapshot(A, C, nt)
    for X in [x1(I), x3(a, I), x4(a, a2, I)]:
        assert count_structure(X, state) == brute_count(X, A, C)
    if I != I2:
        X = x2(a, I, c, I2)
        assert count_structure(X, state) == brute_count(X, A, C)


def test_x3_equals_admissible_minus_anchor():
    sys = IntervalSystem(24, 2, 4)
    rng = Rng(5, key=(0,))
    for trial in range(40):
        A = {v for v in range(1, 25) if rng.randbelow(3)}
        C = {d for d in range(1, 24) if rng.randbelow(3)}
        a = rng.randbelow(24) + 1
        for iv in sys.iv_intervals:
            want = admissible_labels(a, iv, frozenset(A), frozenset(C))
            want = want - {a}
            assert count_structure(x3(a, iv), snapshot(A, C, 24)) == len(want)


def test_ambient_counts_capped_by_m():
    sys = IntervalSystem(48, 4, 8)
    ambient = LabelState(sys)
    rng = Rng(7, key=(1,))
    ivs = sys.iv_intervals
    for _ in range(200):
        i = rng.randbelow(len(ivs))
        j = (i + 1 + rng.randbelow(len(ivs) - 1)) % len(ivs)
        if i == j:
            continue
        a = rng.randbelow(48) + 1
        a2 = a % 48 + 1
        c = rng.randbelow(47) + 1
        for X in [x1(ivs[i]), x3(a, ivs[i]), x4(a, a2, ivs[i]),
                  x2(a, ivs[i], c, ivs[j])]:
            assert count_structure(X, ambient) <= sys.m


@settings(max_examples=200, deadline=None)
@given(_counting_case(), st.data())
def test_single_label_multiplicity_single_slot(case, data):
    nt, A, C, I, I2, a, a2, c = case
    xv = data.draw(st.integers(1, nt), label="vertex toggle")
    xc = data.draw(st.integers(1, nt - 1), label="edge toggle")
    for X in [x3(a, I), x4(a, a2, I)]:
        base = count_structure(X, snapshot(A, C, nt))
        assert abs(count_structure(X, snapshot(A ^ {xv}, C, nt)) - base) <= 1
        cap = 4 if X.kind == "X4" else 2
        assert abs(count_structure(X, snapshot(A, C ^ {xc}, nt)) - base) <= cap


def test_single_label_multiplicity_pair_slots():
    # the one-per-toggle bounds for X2 need disjoint slots, which is
    # what the sampled families provide
    sys = IntervalSystem(48, 4, 8)
    ivs = sys.iv_intervals
    rng = Rng(23, key=(6,))
    for _ in range(150):
        A = {v for v in range(1, 49) if rng.randbelow(3)}
        C = {d for d in range(1, 48) if rng.randbelow(3)}
        i = rng.randbelow(len(ivs))
        j = (i + 1 + rng.randbelow(len(ivs) - 1)) % len(ivs)
        a = rng.randbelow(48) + 1
        c = rng.randbelow(47) + 1
        X = x2(a, ivs[i], c, ivs[j])
        base = count_structure(X, snapshot(A, C, 48))
        xv = rng.randbelow(48) + 1
        xc = rng.randbelow(47) + 1
        assert abs(count_structure(X, snapshot(A ^ {xv}, C, 48)) - base) <= 1
        assert abs(count_structure(X, snapshot(A, C ^ {xc}, 48)) - base) <= 2


def test_check_quasi_ambient_frozen():
    sys = IntervalSystem(24, 2, 4)
    rep = check_quasi(LabelState(sys), sys, 0.6,
                      QuasiSampleSpec(per_kind=16), Rng(3, key=(2,)))
    assert rep.quasi1_max_dev <= 1 / sys.m
    assert rep.quasi2_devs and max(rep.quasi2_devs) <= 4 / sys.m
    assert rep.ok


def test_check_quasi_emptied_window():
    sys = IntervalSystem(24, 2, 4)
    hollow = LabelState(sys)
    remove_diff(hollow, 2)
    remove_diff(hollow, 3)
    rep = check_quasi(hollow, sys, 0.1, QuasiSampleSpec(per_kind=0), None)
    assert rep.quasi1_max_dev >= hollow.size_a / sys.n_tilde
    assert not rep.ok


def test_check_quasi_deterministic_and_counts():
    sys = IntervalSystem(48, 4, 8)
    state = snapshot({v for v in range(1, 49) if v % 5},
                     {d for d in range(1, 48) if d % 7}, sys=sys)
    spec = QuasiSampleSpec(per_kind=4)
    r1 = check_quasi(state, sys, 0.5, spec, Rng(11, key=(3,)), t=7)
    r2 = check_quasi(state, sys, 0.5, spec, Rng(11, key=(3,)), t=7)
    assert r1 == r2
    assert r1.checkpoint == 7
    # 4 kinds x 4 samples
    assert len(r1.quasi2_devs) == 16
    assert all(d >= 0 for d in r1.quasi2_devs)


def test_check_quasi_needs_rng_when_sampling():
    sys = IntervalSystem(24, 2, 4)
    with pytest.raises(ValueError):
        check_quasi(LabelState(sys), sys, 0.5, QuasiSampleSpec(per_kind=1),
                    None)


def _plan_stub(sys, J):
    return Plan(order=(1, 2), parent_pos=(-1, 0), removed_edges=frozenset(),
                interval_of=(J, sys.complement(J)), color=(0, 0, 1))


def test_crude_edge_frozen():
    sys = IntervalSystem(24, 2, 4)
    plan = _plan_stub(sys, sys.j_intervals[0])
    p_edge, _ = crude_estimates(plan, sys, None, 1)
    assert p_edge[Interval(20, 21)] == Fraction(1, 2)
    got_zero = [ie for ie, p in p_edge.items()
                if sys.el_count(plan.interval_of[0].lo, ie.lo) == 0]
    assert all(p_edge[ie] == 0 for ie in got_zero)
    assert sum(p_edge.values()) <= 1


def test_crude_edge_sums_over_plan_steps():
    sys = IntervalSystem(40, 2, 4)
    for J in sys.j_intervals:
        plan = _plan_stub(sys, J)
        p_edge, _ = crude_estimates(plan, sys, None, 2)
        assert sum(p_edge.values()) <= 1


def test_crude_struct_frozen():
    sys = IntervalSystem(24, 2, 4)
    J = sys.j_intervals[0]
    plan = _plan_stub(sys, J)
    _, p_struct = crude_estimates(plan, sys, None, 1)
    # slot inside J contributes 1/ell; diff 4 misses the cross profile
    assert p_struct(x3(5, Interval(1, 2))) == Fraction(2 * 23, 24 * 4)
    # slot outside J and a diff at the profile peak (d0 = 20)
    peak = p_struct(x3(1, Interval(21, 22)))
    assert peak == 2 * Fraction(23, 24) * sys.el(J, 20)
    assert p_struct(x1(Interval(5, 6))) == 0


def test_crude_struct_bound_and_range():
    sys = IntervalSystem(48, 4, 8)
    plan = _plan_stub(sys, sys.j_intervals[1])
    _, p_struct = crude_estimates(plan, sys, None, 1)
    bound = Fraction(4 * sys.m, sys.ell)
    rng = Rng(13, key=(4,))
    ivs = sys.iv_intervals
    for _ in range(100):
        i = rng.randbelow(len(ivs))
        j = (i + 1 + rng.randbelow(len(ivs) - 1)) % len(ivs)
        a = rng.randbelow(48) + 1
        a2 = a % 48 + 1
        c = rng.randbelow(47) + 1
        vals = [p_struct(x1(ivs[i])), p_struct(x3(a, ivs[i])),
                p_struct(x4(a, a2, ivs[i]))]
        if i != j:
            vals.append(p_struct(x2(a, ivs[i], c, ivs[j])))
        assert all(0 <= v <= bound for v in vals)
    with pytest.raises(ParamError):
        crude_estimates(plan, sys, None, 0)
    with pytest.raises(ParamError):
        crude_estimates(plan, sys, None, 3)


def test_window_check_ambient():
    sys = IntervalSystem(240, 4, 16)
    ambient = LabelState(sys)
    J = sys.j_intervals[2]
    a = J.hi + 50
    assert not (J.lo <= a <= J.hi)
    rep = lemma36_check(ambient, sys, 0.25, a, a + 1, 3, J)
    by_kind = {r.kind: r for r in rep.rows}
    assert by_kind["X3"].count == sys.ell
    assert by_kind["X4"].count == sys.ell
    assert rep.all_ok
    # at the cross-pair profile peak the ambient X2 count is the full
    # pair count, since the anchor and its banned sources miss J
    c_peak = abs(sys.n_tilde - sys.ell + 2 - 2 * J.lo)
    assert sys.el_count(J.lo, c_peak) == sys.ell
    assert all(not (J.lo <= b <= J.hi) for b in (a - c_peak, a, a + c_peak))
    rep2 = lemma36_check(ambient, sys, 0.25, a, a + 1, c_peak, J)
    x2_row = {r.kind: r for r in rep2.rows}["X2"]
    assert x2_row.count == sys.ell
    assert rep2.all_ok


def test_window_check_anchor_inside_target():
    sys = IntervalSystem(240, 4, 16)
    ambient = LabelState(sys)
    J = sys.j_intervals[0]
    a = J.lo + 1
    rep = lemma36_check(ambient, sys, 0.25, a, a + 1, 3, J)
    by_kind = {r.kind: r for r in rep.rows}
    assert by_kind["X3"].count == sys.ell - 1
    assert rep.all_ok


def test_window_check_equals_tile_sums():
    sys = IntervalSystem(48, 4, 8)
    rng = Rng(17, key=(5,))
    A = {v for v in range(1, 49) if rng.randbelow(4)}
    C = {d for d in range(1, 48) if rng.randbelow(4)}
    J = sys.j_intervals[1]
    j_bar = sys.complement(J)
    a, a2, c = 30, 31, 5
    tiles = [iv for iv in sys.iv_intervals if J.contains(iv)]
    tiles_bar = [iv for iv in sys.iv_intervals if j_bar.contains(iv)]
    assert len(tiles) == sys.ell // sys.m and len(tiles_bar) == len(tiles)
    state = snapshot(A, C, sys=sys)
    x3_sum = sum(count_structure(x3(a, iv), state) for iv in tiles)
    assert x3_sum == count_structure(x3(a, J), state)
    x4_sum = sum(count_structure(x4(a, a2, iv), state) for iv in tiles)
    assert x4_sum == count_structure(x4(a, a2, J), state)
    x2_sum = sum(count_structure(x2(a, iv, c, iv2), state)
                 for iv, iv2 in itertools.product(tiles, tiles_bar))
    assert x2_sum == count_structure(x2(a, J, c, j_bar), state)


def test_window_check_requires_wide_alpha():
    sys = IntervalSystem(48, 4, 8)
    with pytest.raises(ParamError):
        lemma36_check(LabelState(sys), sys, 0.25, 1, 2, 3, sys.j_intervals[0])


@pytest.mark.parametrize("n,m,ell,seed", [(3000, 32, 256, 4),
                                          (4000, 64, 512, 9)])
def test_reports_match_full_width_oracle_on_run_snapshots(n, m, ell, seed):
    """Blocked-state audit against the full-width audit it replaced, on
    the snapshots of a labelling run whose n_tilde spans several
    blocks: equal reports and equal rng state afterwards."""
    params = derive_practical_params(n, Fraction(1, 2), m, ell)
    sys = IntervalSystem(params.n_tilde, m, ell)
    assert sys.n_tilde > 2 * 1024
    tree = random_tree(n, Rng(seed, key=(0,)))
    plan = prepare_plan(tree, sys, Rng(seed, key=(1,)), max_component=32)
    new_rng, old_rng = Rng(seed, key=(2,)), Rng(seed, key=(2,))
    spec = QuasiSampleSpec(per_kind=32)
    reports = []

    def on_checkpoint(state, t):
        alpha = float(params.alpha(t))
        got = check_quasi(state, sys, alpha, spec, new_rng, t=t)
        a_bits, c_bits = full_ints(state)
        want = full_check_quasi(a_bits, c_bits, sys, alpha, 32, old_rng, t=t)
        assert got == want, t
        # target-wide slots, as the window check counts them
        J = sys.j_intervals[t % len(sys.j_intervals)]
        a = 1 + t % sys.n_tilde
        for X in (x3(a, J), x4(a, a + 1, J), x2(a, J, 3 + t, sys.complement(J))):
            assert (count_structure(X, state)
                    == full_count_structure(X, a_bits, c_bits)), (t, X)
        reports.append(got)

    run_labelling(plan, sys, Rng(seed, key=(3,)), checkpoint_every=250,
                  on_checkpoint=on_checkpoint)
    assert len(reports) >= 8
    assert all(len(r.quasi2_devs) == 4 * 32 for r in reports)
    assert [new_rng.next64() for _ in range(3)] == [
        old_rng.next64() for _ in range(3)]


def test_reports_match_full_width_oracle_on_sparse_states():
    """Few free labels spread over blocks, some blocks empty: every
    rank lands in the right block, and X4's second anchor skips the
    first even when both draws hit the same rank."""
    sys = IntervalSystem(4096, 64, 256)
    for seed in range(12):
        rnd = Rng(seed, key=(8,))
        size = 2 + seed % 4
        A = {1 + rnd.randbelow(sys.n_tilde) for _ in range(size)}
        C = {1 + rnd.randbelow(sys.n_tilde - 1) for _ in range(40)}
        if len(A) < 2:
            continue
        state = snapshot(A, C, sys=sys)
        new_rng, old_rng = Rng(seed, key=(9,)), Rng(seed, key=(9,))
        got = check_quasi(state, sys, 0.5, QuasiSampleSpec(per_kind=32),
                          new_rng, t=seed)
        want = full_check_quasi(*full_ints(state), sys, 0.5, 32, old_rng,
                                t=seed)
        assert got == want, seed
        assert new_rng.next64() == old_rng.next64()
