import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from gracetree.intervals import Interval, IntervalSystem
from gracetree.labeller import LabelState, run_labelling
from gracetree.params import derive_practical_params
from gracetree.prepare import prepare_plan
from gracetree.quasirandom import (_ambients, _counts, _sample, _Words,
                                   check_quasi, select)
from gracetree.rng import Rng
from gracetree.trees import random_tree
from oracles import (OldRng, admissible_labels, contains, full_check_quasi,
                     full_count_structure, full_ints, interval_width,
                     pattern_ambient, pattern_count, remove_diff, snapshot,
                     to_int, x1, x2, x3, x4)
from oracles import select as full_select


def _as_arrays(X):
    """The slot width, the kind and _counts' fields of the pattern X, as
    one-element int64 arrays."""
    kind, a, a2, c, iv, iv2 = X
    fields = (iv.lo, a, a2, c, iv2 and iv2.lo)
    return interval_width(iv), kind, [
        None if v is None else np.array([v], np.int64) for v in fields]


def _shares_width(X):
    return X[5] is None or interval_width(X[5]) == interval_width(X[4])


def _count(state, *X):
    """The oracle's count of X, checked against quasirandom's array
    count whenever X's slots share a width, as the audit's do."""
    want = pattern_count(state, *X)
    if _shares_width(X):
        w, kind, fields = _as_arrays(X)
        assert _counts(state, w, kind, *fields).tolist() == [want], X
    return want


def _ambient(*X):
    """The oracle's closed form for X, checked against quasirandom's
    array form whenever X's slots share a width."""
    want = pattern_ambient(*X)
    if _shares_width(X):
        w, kind, fields = _as_arrays(X)
        assert _ambients(w, kind, *fields).tolist() == [want], X
    return want


def brute_count(X, A, C):
    """Reference count by direct enumeration of the definitions."""
    kind, a, a2, c, I, I2 = X
    A, C = set(A), set(C)
    in_slot = [b for b in A if I.lo <= b <= I.hi]
    if kind == "X1":
        return len(in_slot)
    if kind == "X3":
        return sum(1 for b in in_slot if abs(b - a) in C and b != a)
    if kind == "X4":
        return sum(1 for b in in_slot
                   if abs(b - a) in C and abs(b - a2) in C
                   and abs(b - a) != abs(b - a2)
                   and b not in (a, a2))
    in_slot2 = [b for b in A if I2.lo <= b <= I2.hi]
    return sum(1 for b in in_slot for b2 in in_slot2
               if abs(b - b2) == c and abs(a - b) in C
               and abs(a - b) != c
               and len({a, b, b2}) == 3)


def test_count_x1_frozen():
    assert _count(snapshot({2}, set()), *x1(Interval(1, 2))) == 1


def test_count_x3_frozen():
    assert _count(snapshot({1, 2}, {3, 4}), *x3(5, Interval(1, 2))) == 2


def test_count_x4_frozen():
    # midpoint 3 of the anchors 1, 5 induces equal labels and is excluded
    n = _count(snapshot({2, 3, 4, 9}, {1, 2, 3}),
               *x4(1, 5, Interval(2, 4)))
    assert n == 2


def test_count_x2_anchored_pairs():
    # anchor 10, fixed edge 3: sources 8 and 12 (induced label 2), two
    # partners each
    A = {5, 8, 9, 11, 12, 15}
    X = x2(10, Interval(8, 12), 3, Interval(5, 15))
    assert _count(snapshot(A, {2}), *X) == 4
    assert _count(snapshot(A, {2}), *X) == brute_count(X, A, {2})
    # widening C to include 3 changes nothing: induced label 3 is banned
    assert _count(snapshot(A, {2, 3}), *X) == 4


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
        assert _count(state, *X) == brute_count(X, A, C)
    if I != I2:
        X = x2(a, I, c, I2)
        assert _count(state, *X) == brute_count(X, A, C)


def test_x3_equals_admissible_minus_anchor():
    sys = IntervalSystem(24, 2, 4)
    rng = OldRng(5, key=(0,))
    for trial in range(40):
        A = {v for v in range(1, 25) if rng.randbelow(3)}
        C = {d for d in range(1, 24) if rng.randbelow(3)}
        a = rng.randbelow(24) + 1
        for iv in sys.iv_intervals:
            want = admissible_labels(a, iv, frozenset(A), frozenset(C))
            want = want - {a}
            assert _count(snapshot(A, C, 24), *x3(a, iv)) == len(want)


def test_ambient_counts_capped_by_m():
    sys = IntervalSystem(48, 4, 8)
    ambient = LabelState(sys)
    rng = OldRng(7, key=(1,))
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
            assert _count(ambient, *X) <= sys.m


def _ambient_of(X):
    return _ambient(*X)


def test_ambient_closed_form_exhaustive_small():
    # every slot, slot pair, anchor pair and fixed edge label of a
    # ten-label range (X2 on eight labels)
    for nt in (8, 10):
        full = LabelState(IntervalSystem(nt, 1, 1))
        ivs = [Interval(lo, hi) for lo in range(1, nt + 1)
               for hi in range(lo, nt + 1)]
        for iv in ivs:
            X = x1(iv)
            assert _ambient_of(X) == _count(full, *X)
            for a in range(1, nt + 1):
                X = x3(a, iv)
                assert _ambient_of(X) == _count(full, *X)
                for a2 in range(1, nt + 1):
                    if a2 != a:
                        X = x4(a, a2, iv)
                        assert _ambient_of(X) == _count(full, *X)
            if nt == 8:
                for iv2 in ivs:
                    if iv2 == iv:
                        continue
                    for a in range(1, nt + 1):
                        for c in range(1, nt):
                            X = x2(a, iv, c, iv2)
                            assert _ambient_of(X) == _count(full, *X)


@st.composite
def _ambient_case(draw):
    """A multi-block range with slots often at its ends, anchors often
    inside the first slot, X4 anchors often placed so their midpoint
    lies in it, and X2 shifts near the offset between the two slots, so
    the shifted slot often crosses slot2's edges."""
    nt = 2 * draw(st.integers(4, 1100))
    end = st.sampled_from([1, nt])

    def slot():
        lo = draw(st.one_of(end, st.integers(1, nt)))
        hi = draw(st.one_of(st.just(nt), st.integers(lo, min(nt, lo + 300)),
                            st.just(lo)))
        return Interval(lo, max(lo, hi))

    iv, iv2 = slot(), slot()
    inside = st.integers(iv.lo, iv.hi)
    a = draw(st.one_of(inside, end, st.integers(1, nt)))
    b = draw(inside)
    mirrored = 2 * b - a
    a2 = draw(st.one_of(
        st.just(mirrored) if 1 <= mirrored <= nt else inside, inside,
        st.integers(1, nt)).filter(lambda v: v != a))
    gap = abs(iv2.lo - iv.lo)
    c = draw(st.one_of(st.integers(max(1, gap - 3), max(1, gap + 3)),
                       st.integers(1, nt - 1)))
    return nt, iv, iv2, a, a2, min(c, nt - 1)


@settings(max_examples=300, deadline=None)
@given(_ambient_case())
def test_ambient_closed_form_matches_full_state_count(case):
    nt, iv, iv2, a, a2, c = case
    full = LabelState(IntervalSystem(nt, 1, 1))
    patterns = [x1(iv), x3(a, iv), x4(a, a2, iv)]
    if iv2 != iv:
        patterns.append(x2(a, iv, c, iv2))
    for X in patterns:
        assert _ambient_of(X) == _count(full, *X), X


def _window_loop(state, sys):
    """QUASI1 one m-window read at a time: the largest deviation and the
    lowest window lo attaining it."""
    m, nt = sys.m, sys.n_tilde
    size_a = state.labels.count(1)
    devs = [abs(state.diffs[lo:lo + m].count(1) * nt - m * size_a)
            for lo in sys.ie_starts]
    top = max(devs)
    return top / (m * nt), sys.ie_starts[devs.index(top)]


def _sweep(state, sys):
    rep = check_quasi(state, sys, 0.5, 0, None)
    assert rep.quasi2_devs == ()
    return rep.quasi1_max_dev, rep.quasi1_argmax_lo


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([1, 3, 8, 64, 100, 256]), st.integers(2, 14),
       st.data())
def test_sweep_matches_window_loop(m, k, data):
    # m = 3 and 100 put window edges inside the packed 64-bit words; wide
    # systems span many of them
    nt = 2 * m * k
    sys = IntervalSystem(nt, m, m)
    starts = sys.ie_starts
    emptied = data.draw(st.sets(st.sampled_from(starts)), label="emptied")
    full = data.draw(st.sets(st.sampled_from(starts)), label="full")
    keep = data.draw(st.integers(1, 4), label="keep one in")
    C = set()
    for lo in starts:
        for d in range(max(lo, 1), lo + m):
            if lo in full or (lo not in emptied and d % keep == 0):
                C.add(d)
    size_a = data.draw(st.integers(0, nt), label="|A|")
    state = snapshot(set(range(1, size_a + 1)), C, sys=sys)
    assert _sweep(state, sys) == _window_loop(state, sys)


def test_sweep_ties_take_the_lowest_window():
    # n_tilde = 8, m = 2, |A| = 4: windows holding 0 and 2 free
    # differences deviate equally (|8c - 8| = 8), so the first window at
    # either extreme wins
    sys = IntervalSystem(8, 2, 2)
    A = {1, 2, 3, 4}
    cases = [({2, 3, 4, 5, 6, 7}, 0),  # counts 0 2 2 2: a low extreme first
             ({1, 4, 5, 6, 7}, 2),     # counts 1 0 2 2
             ({1, 2, 3, 6, 7}, 2)]     # counts 1 2 0 2: a high extreme first
    for C, lo in cases:
        state = snapshot(A, C, sys=sys)
        assert _sweep(state, sys) == (1.0 / 2, lo) == _window_loop(state, sys)
    # the full state: window 0 lacks difference 0 and is the only one
    # below the rest
    state = LabelState(sys)
    assert _sweep(state, sys) == (abs(1 * 8 - 2 * 8) / 16, 0)


@settings(max_examples=200, deadline=None)
@given(_counting_case(), st.data())
def test_single_label_multiplicity_single_slot(case, data):
    nt, A, C, I, I2, a, a2, c = case
    xv = data.draw(st.integers(1, nt), label="vertex toggle")
    xc = data.draw(st.integers(1, nt - 1), label="edge toggle")
    for X in [x3(a, I), x4(a, a2, I)]:
        base = _count(snapshot(A, C, nt), *X)
        assert abs(_count(snapshot(A ^ {xv}, C, nt), *X) - base) <= 1
        cap = 4 if X[0] == "X4" else 2
        assert abs(_count(snapshot(A, C ^ {xc}, nt), *X) - base) <= cap


def test_single_label_multiplicity_pair_slots():
    # the one-per-toggle bounds for X2 need disjoint slots, which is
    # what the sampled families provide
    sys = IntervalSystem(48, 4, 8)
    ivs = sys.iv_intervals
    rng = OldRng(23, key=(6,))
    for _ in range(150):
        A = {v for v in range(1, 49) if rng.randbelow(3)}
        C = {d for d in range(1, 48) if rng.randbelow(3)}
        i = rng.randbelow(len(ivs))
        j = (i + 1 + rng.randbelow(len(ivs) - 1)) % len(ivs)
        a = rng.randbelow(48) + 1
        c = rng.randbelow(47) + 1
        X = x2(a, ivs[i], c, ivs[j])
        base = _count(snapshot(A, C, 48), *X)
        xv = rng.randbelow(48) + 1
        xc = rng.randbelow(47) + 1
        assert abs(_count(snapshot(A ^ {xv}, C, 48), *X) - base) <= 1
        assert abs(_count(snapshot(A, C ^ {xc}, 48), *X) - base) <= 2


def test_check_quasi_ambient_frozen():
    sys = IntervalSystem(24, 2, 4)
    rep = check_quasi(LabelState(sys), sys, 0.6, 16, Rng(3, key=(2,)))
    assert rep.quasi1_max_dev <= 1 / sys.m
    assert rep.quasi2_devs and max(rep.quasi2_devs) <= 4 / sys.m
    assert rep.ok


def test_counts_stay_exact_at_scale():
    # at n_tilde = 2^21, count * n_tilde^3 passes 2^63: a count that
    # came back as a numpy integer would overflow instead of growing
    sys = IntervalSystem(2 ** 21, 64, 256)
    full = LabelState(sys)
    rep = check_quasi(full, sys, 0.5, 4, Rng(3, key=(7,)))
    assert len(rep.quasi2_devs) == 16 and max(rep.quasi2_devs) == 0
    ivs = sys.iv_intervals
    for X in (x1(ivs[5]), x3(9, ivs[5]), x4(9, 11, ivs[5]),
              x2(9, ivs[5], 3, ivs[6])):
        got = _count(full, *X)
        assert type(got) is int and got == _ambient(*X)


def test_check_quasi_emptied_window():
    sys = IntervalSystem(24, 2, 4)
    hollow = LabelState(sys)
    remove_diff(hollow, 2)
    remove_diff(hollow, 3)
    rep = check_quasi(hollow, sys, 0.1, 0, None)
    assert rep.quasi1_max_dev >= hollow.labels.count(1) / sys.n_tilde
    assert not rep.ok


def test_audit_counts_the_bytes_it_audits():
    # bytes cleared directly on a fresh state, nothing else touched: the
    # audit takes |A| and |C| from the bytes, as the full-width audit
    # takes them from its ints
    sys = IntervalSystem(48, 4, 8)
    state = LabelState(sys)
    for b in range(3, 49, 3):
        state.labels[b] = 0
    for d in range(5, 48, 4):
        state.diffs[d] = 0
    bits = full_ints(state)
    got = check_quasi(state, sys, 0.5, 0, None)
    assert got == full_check_quasi(*bits, sys, 0.5, 0, None)
    # the sample's anchor and fixed-label ranks run over |A| and |C| too
    got = check_quasi(state, sys, 0.5, 4, Rng(6, key=(1,)), t=9)
    assert got == full_check_quasi(*bits, sys, 0.5, 4, Rng(6, key=(1,)), t=9)


def test_check_quasi_deterministic_and_counts():
    sys = IntervalSystem(48, 4, 8)
    state = snapshot({v for v in range(1, 49) if v % 5},
                     {d for d in range(1, 48) if d % 7}, sys=sys)
    r1 = check_quasi(state, sys, 0.5, 4, Rng(11, key=(3,)), t=7)
    r2 = check_quasi(state, sys, 0.5, 4, Rng(11, key=(3,)), t=7)
    assert r1 == r2
    assert r1.checkpoint == 7
    # 4 kinds x 4 samples
    assert len(r1.quasi2_devs) == 16
    assert all(d >= 0 for d in r1.quasi2_devs)


def test_check_quasi_needs_rng_when_sampling():
    sys = IntervalSystem(24, 2, 4)
    with pytest.raises(ValueError):
        check_quasi(LabelState(sys), sys, 0.5, 1, None)


def test_window_check_equals_tile_sums():
    # a count over a target interval (and its complement, for X2) is the
    # sum of the counts over the width-m slots that tile it
    sys = IntervalSystem(48, 4, 8)
    rng = OldRng(17, key=(5,))
    A = {v for v in range(1, 49) if rng.randbelow(4)}
    C = {d for d in range(1, 48) if rng.randbelow(4)}
    J = sys.j_intervals[1]
    j_bar = sys.complement(J)
    a, a2, c = 30, 31, 5
    tiles = [iv for iv in sys.iv_intervals if contains(J, iv)]
    tiles_bar = [iv for iv in sys.iv_intervals if contains(j_bar, iv)]
    assert len(tiles) == sys.ell // sys.m and len(tiles_bar) == len(tiles)
    state = snapshot(A, C, sys=sys)
    x3_sum = sum(_count(state, *x3(a, iv)) for iv in tiles)
    assert x3_sum == _count(state, *x3(a, J))
    x4_sum = sum(_count(state, *x4(a, a2, iv)) for iv in tiles)
    assert x4_sum == _count(state, *x4(a, a2, J))
    x2_sum = sum(_count(state, *x2(a, iv, c, iv2))
                 for iv, iv2 in itertools.product(tiles, tiles_bar))
    assert x2_sum == _count(state, *x2(a, J, c, j_bar))


@pytest.mark.parametrize("n,m,ell,seed", [(3000, 32, 256, 4),
                                          (4000, 64, 512, 9),
                                          (20_000, 256, 1024, 1),
                                          (20_000, 256, 1024, 2)])
def test_reports_match_full_width_oracle_on_run_snapshots(n, m, ell, seed):
    """The audit on the byte state against the full-width audit, on the
    snapshots of a labelling run whose n_tilde spans several 1024-value
    blocks (the last two at the audit-scaled bench point): equal whole
    reports and equal rng state afterwards."""
    params = derive_practical_params(n, Fraction(1, 2), m, ell)
    sys = IntervalSystem(params.n_tilde, m, ell)
    assert sys.n_tilde > 2 * 1024
    tree = random_tree(n, Rng(seed, key=(0,)))
    plan = prepare_plan(tree, sys, Rng(seed, key=(1,)), max_component=32)
    new_rng, old_rng = Rng(seed, key=(2,)), Rng(seed, key=(2,))
    reports = []

    def on_checkpoint(state, t):
        alpha = float(params.alpha(t))
        got = check_quasi(state, sys, alpha, 32, new_rng, t=t)
        a_bits, c_bits = full_ints(state)
        want = full_check_quasi(a_bits, c_bits, sys, alpha, 32, old_rng, t=t)
        assert got == want, t
        # target-wide slots, wider than the audit's width-m ones
        J = sys.j_intervals[t % len(sys.j_intervals)]
        a = 1 + t % sys.n_tilde
        for X in (x3(a, J), x4(a, a + 1, J), x2(a, J, 3 + t, sys.complement(J))):
            assert (_count(state, *X)
                    == full_count_structure(X, a_bits, c_bits)), (t, X)
        reports.append(got)

    run_labelling(plan, sys, Rng(seed, key=(3,)), checkpoint_every=250,
                  on_checkpoint=on_checkpoint)
    assert len(reports) >= 8
    assert all(len(r.quasi2_devs) == 4 * 32 for r in reports)
    assert new_rng.draws(1 << 63, 3).tolist() == old_rng.draws(1 << 63,
                                                               3).tolist()


def test_reports_match_full_width_oracle_on_sparse_states():
    """Few free labels spread over blocks, some blocks empty: every
    rank lands in the right block, and X4's second anchor skips the
    first even when both draws hit the same rank."""
    sys = IntervalSystem(4096, 64, 256)
    for seed in range(12):
        rnd = OldRng(seed, key=(8,))
        size = 2 + seed % 4
        A = {1 + rnd.randbelow(sys.n_tilde) for _ in range(size)}
        C = {1 + rnd.randbelow(sys.n_tilde - 1) for _ in range(40)}
        if len(A) < 2:
            continue
        state = snapshot(A, C, sys=sys)
        new_rng, old_rng = Rng(seed, key=(9,)), Rng(seed, key=(9,))
        got = check_quasi(state, sys, 0.5, 32, new_rng, t=seed)
        want = full_check_quasi(*full_ints(state), sys, 0.5, 32, old_rng,
                                t=seed)
        assert got == want, seed
        assert (new_rng.draws(1 << 63, 3).tolist()
                == old_rng.draws(1 << 63, 3).tolist())


def _kind_fields(rows):
    """_counts' fields per kind for pattern rows (lo, a, a2, c, lo2)."""
    lo, a, a2, c, lo2 = (np.array(col, np.int64) for col in zip(*rows))
    return {"X1": (lo,), "X2": (lo, a, None, c, lo2), "X3": (lo, a),
            "X4": (lo, a, a2)}


def _kind_patterns(rows, m):
    """The same patterns as the oracle's field tuples, per kind."""
    def iv(lo):
        return Interval(lo, lo + m - 1)
    return {"X1": [x1(iv(lo)) for lo, *_ in rows],
            "X2": [x2(a, iv(lo), c, iv(lo2)) for lo, a, _, c, lo2 in rows],
            "X3": [x3(a, iv(lo)) for lo, a, *_ in rows],
            "X4": [x4(a, a2, iv(lo)) for lo, a, a2, *_ in rows]}


def _check_kind_counts(state, m, rows):
    """Each kind's array counts and ambient counts of rows, in one call
    per kind, against the oracle one pattern at a time."""
    fields, patterns = _kind_fields(rows), _kind_patterns(rows, m)
    for kind, f in fields.items():
        want = [pattern_count(state, *X) for X in patterns[kind]]
        assert _counts(state, m, kind, *f).tolist() == want, kind
        want = [pattern_ambient(*X) for X in patterns[kind]]
        assert _ambients(m, kind, *f).tolist() == want, kind


@st.composite
def _kind_batch(draw):
    """A state and up to eight width-m patterns per kind, with anchors
    often at a slot's ends, one past each end, or the labels 1 and
    n_tilde, and fixed labels that often carry X2's partner window past
    0 or n_tilde."""
    m = draw(st.integers(1, 12))
    nt = 2 * m * draw(st.integers(2, 6))
    A = draw(st.sets(st.integers(1, nt)))
    C = draw(st.sets(st.integers(1, nt - 1)))
    top = nt - m + 1
    slot = st.one_of(st.sampled_from([1, top]), st.integers(1, top))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        lo = draw(slot)
        near = sorted({v for v in (lo - 1, lo, lo + m - 1, lo + m, 1, nt)
                       if 1 <= v <= nt})
        anchor = st.one_of(st.sampled_from(near), st.integers(1, nt))
        a = draw(anchor)
        a2 = draw(anchor.filter(lambda v: v != a))
        past = sorted({min(max(v, 1), nt - 1)
                       for v in (lo - 1, lo, nt - lo - m + 2, nt - lo)})
        c = draw(st.one_of(st.sampled_from(past), st.integers(1, nt - 1)))
        rows.append((lo, a, a2, c, draw(slot)))
    return nt, m, A, C, rows


@settings(max_examples=300, deadline=None)
@given(_kind_batch())
def test_kind_counts_match_the_pattern_oracle(case):
    nt, m, A, C, rows = case
    _check_kind_counts(snapshot(A, C, nt), m, rows)


def test_kind_counts_at_every_anchor_and_partner_shift():
    # every slot lo and every anchor 1..n_tilde (so anchors below,
    # inside, at both ends of and one past each end of each slot, and
    # the labels 1 and n_tilde); X2 with every fixed label and every
    # aligned second slot, so partner windows run past 0 and n_tilde
    sys = IntervalSystem(24, 4, 8)
    nt, m = sys.n_tilde, sys.m
    rnd = OldRng(31, key=(1,))
    state = snapshot({v for v in range(1, nt + 1) if rnd.randbelow(4)},
                     {d for d in range(1, nt) if rnd.randbelow(4)}, sys=sys)
    rows = [(lo, a, a % nt + 1, 1 + (lo + a) % (nt - 1), 1 + m * (a % 6))
            for lo in range(1, nt - m + 2) for a in range(1, nt + 1)]
    rows += [(lo, a, a2, 1, 1) for lo in (1, 9, nt - m + 1)
             for a in range(1, nt + 1) for a2 in range(1, nt + 1)
             if a2 != a]
    rows += [(lo, a, 2, c, lo2) for lo in range(1, nt - m + 2)
             for a in (1, lo - 1, lo, lo + m - 1, lo + m, nt)
             if 1 <= a <= nt
             for c in range(1, nt) for lo2 in sys.iv_starts]
    _check_kind_counts(state, m, rows)


def _select_cases():
    rnd = np.random.default_rng(5)
    n = 64 * 5 + 3
    yield np.ones(n, bool)  # all ones
    for bit in (0, 1, 63, 64, 127, 200, n - 1):  # one bit
        free = np.zeros(n, bool)
        free[bit] = True
        yield free
    free = np.zeros(n, bool)
    free[63::64] = True  # the top bit of every word
    yield free
    for density in (0.02, 0.3, 0.9):
        yield rnd.random(n) < density


def test_select_matches_the_full_width_select():
    for free in _select_cases():
        size = int(free.sum())
        ranks = np.arange(size)  # 0 and size - 1 among them
        got = select(_Words(free), ranks)
        assert got.tolist() == [full_select(to_int(free), int(k))
                                for k in ranks]
        edges = np.array([0, size - 1, 0], np.int64)
        assert select(_Words(free), edges).tolist() == got[edges].tolist()


def test_sample_laws():
    """Over many reads of one stream: slots uniform over the vertex
    windows, X2's second slot uniform over the others, anchors uniform
    over A, X4's second anchor uniform over A minus the first, fixed
    edge labels uniform over C."""
    sys = IntervalSystem(96, 4, 8)
    nslots = len(sys.iv_intervals)
    state = snapshot({v for v in range(1, 97) if v % 3 or v < 12},
                     {d for d in range(1, 96) if d % 4 and d < 70}, sys=sys)
    A = sorted(v for v in range(1, 97) if state.labels[v])
    C = sorted(d for d in range(1, 96) if state.diffs[d])
    rank = {v: i for i, v in enumerate(A)}
    rng = Rng(12, key=(4,))
    seen = {name: [] for name in ("slot", "shift2", "a", "shift4", "c")}
    for _ in range(400):
        (_, (l1,)), (_, (l2, a2, _, c, lo2)), (_, (l3, a3)), (
            _, (l4, a4, b4)) = _sample(sys, 16, rng, _Words(state.label_view),
                                       _Words(state.diff_view))
        seen["slot"] += ((np.concatenate((l1, l2, l3, l4)) - 1) // 4).tolist()
        seen["shift2"] += ((lo2 - l2) // 4 % nslots).tolist()
        seen["a"] += np.concatenate((a2, a3, a4)).tolist()
        seen["shift4"] += [(rank[y] - rank[x]) % len(A)
                           for x, y in zip(a4.tolist(), b4.tolist())]
        seen["c"] += c.tolist()
    # X2's second slot and X4's second anchor never repeat the first
    assert 0 not in seen["shift2"] and 0 not in seen["shift4"]
    for name, cells in (("slot", range(nslots)),
                        ("shift2", range(1, nslots)), ("a", A),
                        ("shift4", range(1, len(A))), ("c", C)):
        got = Counter(seen[name])
        assert set(got) <= set(cells), name
        assert chisquare([got[x] for x in cells]).pvalue > 1e-3, name
