import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from scipy.stats import chisquare

import gracetree.labeller as labeller
from gracetree.intervals import Interval, IntervalSystem
from gracetree.params import derive_practical_params
from gracetree.labeller import (
    FAIL_CHOOSE,
    FAIL_CORE,
    FAIL_CORV,
    K,
    LabelState,
    pick_free,
    run_labelling,
)
from gracetree.prepare import assign_intervals, prepare_plan
from gracetree.rng import Rng
from gracetree.trees import Tree, path_tree, random_tree
from oracles import (admissible_labels, draw_label, full_ints,
                     history_state, history_states, iter_bits,
                     mask_select_label, mask_select_pick, plan_intervals,
                     remove_diff, remove_label, scalar_labelling, to_int,
                     window)


def check_graceful_prefix(tree, psi):
    labels = list(psi.values())
    assert len(set(labels)) == len(labels)
    diffs = [abs(psi[u] - psi[v]) for u, v in tree.edges if u in psi and v in psi]
    assert len(set(diffs)) == len(diffs)
    assert 0 not in diffs


def test_admissible_frozen_example():
    got = admissible_labels(2, Interval(21, 24), {21, 22}, {19})
    assert got == frozenset({21})


def test_admissible_mask_matches_reference():
    sys = IntervalSystem(24, 2, 4)
    rng = Rng(17, key=(0,))
    state = LabelState(sys)
    for b in (3, 7, 8, 15, 21):
        remove_label(state, b)
    for d in (1, 4, 9, 14, 23):
        remove_diff(state, d)
    a_bits, c_bits = full_ints(state)
    labels = set(iter_bits(a_bits))
    diffs = set(iter_bits(c_bits))
    for a in (1, 2, 5, 12, 18, 24):
        for iv in sys.j_intervals:
            ref = admissible_labels(a, iv, labels, diffs)
            mask = state.admissible_mask(a, iv)
            got = {iv.lo + k for k in np.flatnonzero(mask).tolist()}
            assert got == ref, (a, tuple(iv))


def test_single_vertex_first_step_sizes():
    sys = IntervalSystem(24, 2, 4)
    t = Tree(1, [])
    for seed in range(6):
        plan = prepare_plan(t, sys, Rng(seed, key=(0,)))
        res = run_labelling(plan, sys, Rng(seed, key=(1,)))
        assert res.success
        row = res.trace[0]
        assert row.edge_label == -1
        assert row.size_a in (sys.n_tilde - 1, sys.n_tilde - 2)
        assert row.size_a == sys.n_tilde - 1 - (row.corv_label >= 0)
        iv = plan_intervals(plan, sys)[0]
        assert iv.lo <= res.psi[1] <= iv.hi


def test_size_identities_along_trace():
    sys = IntervalSystem(40, 2, 4)
    tree = random_tree(16, Rng(5, key=(0,)))
    plan = prepare_plan(tree, sys, Rng(5, key=(1,)))
    res = run_labelling(plan, sys, Rng(5, key=(2,)), max_retries=400)
    assert res.success
    corv_so_far = 0
    core_so_far = 0
    for row in res.trace:
        corv_so_far += row.corv_label >= 0
        core_so_far += row.core_diff >= 0
        assert row.size_a == sys.n_tilde - row.t - corv_so_far
        assert row.size_c == sys.n_tilde - 1 - (row.t - 1) - core_so_far


def test_labels_stay_in_intervals_and_prefix_graceful():
    sys = IntervalSystem(40, 2, 4)
    tree = random_tree(16, Rng(5, key=(0,)))
    plan = prepare_plan(tree, sys, Rng(5, key=(1,)))
    res = run_labelling(plan, sys, Rng(5, key=(2,)), max_retries=400)
    assert res.success
    pos = {v: i for i, v in enumerate(plan.order)}
    for v, b in res.psi.items():
        iv = plan_intervals(plan, sys)[pos[v]]
        assert iv.lo <= b <= iv.hi
    check_graceful_prefix(tree, res.psi)


def test_deterministic_repeat():
    sys = IntervalSystem(40, 2, 4)
    tree = random_tree(14, Rng(9, key=(0,)))
    plan = prepare_plan(tree, sys, Rng(9, key=(1,)))
    r1 = run_labelling(plan, sys, Rng(9, key=(2,)), max_retries=200)
    r2 = run_labelling(plan, sys, Rng(9, key=(2,)), max_retries=200)
    assert r1 == r2
    r3 = run_labelling(plan, sys, Rng(10, key=(2,)), max_retries=200)
    assert r1 != r3


def test_retries_and_failure_sites():
    # consumption rate exceeds the supply: every attempt must die
    sys = IntervalSystem(12, 1, 2)
    tree = path_tree(12)
    plan = prepare_plan(tree, sys, Rng(0, key=(0,)))
    res = run_labelling(plan, sys, Rng(0, key=(1,)), max_retries=5)
    assert not res.success
    assert res.psi is None
    assert res.attempts == 6
    assert len(res.failures) == 6
    assert {f.site for f in res.failures} <= {FAIL_CHOOSE, FAIL_CORV, FAIL_CORE}
    assert all(1 <= f.step <= 12 for f in res.failures)
    hist = res.failure_histogram()
    assert sum(hist.values()) == 6


def _trace_counts(rows):
    return (len(rows), sum(r.corv_label >= 0 for r in rows),
            sum(r.core_diff >= 0 for r in rows))


def _marked_run(tree, sys, s, every):
    """The checkpoint marks and result of run_labelling on tree (seed s,
    2 retries).  A mark is (attempt, t, |A|, |C|) at each step t, a
    multiple of every, that the attempt completed, the sizes counted
    off the bytes of A and C rebuilt from the attempt's history, whose
    bytes 0 (and C's byte n_tilde) stay 0; attempt k's history is the
    last attempt's of the same run with k retries.  Each of the last
    attempt's marks must agree with the trace row of its step."""
    marks = []
    plan = prepare_plan(tree, sys, Rng(s, key=(1,)))
    for retries in range(3):
        res = run_labelling(plan, sys, Rng(s, key=(2,)), max_retries=retries)
        for t, state in history_states(res.history, sys):
            assert state.labels[0] == state.diffs[0] == state.diffs[-1] == 0
            if t % every == 0:
                marks.append((retries, t,
                              int(np.count_nonzero(
                                  np.frombuffer(state.labels, bool))),
                              int(np.count_nonzero(
                                  np.frombuffer(state.diffs, bool)))))
        if res.success:
            break
    rows = res.trace
    for k, t, size_a, size_c in marks:
        if k == res.attempts - 1:
            assert (size_a, size_c) == (rows[t - 1].size_a,
                                        rows[t - 1].size_c)
    return marks, res


@pytest.mark.parametrize("point", ["retry-tight", "tiny"])
def test_failed_attempt_counters_match_trace(point):
    # retry-tight's point (gamma = 1/5, m = 32, ell = 512) fails in the
    # correction windows; the tiny system also runs out of labels.  At
    # n = 2000 the laws' null outcome has mass 8/23; it is negative, and
    # derive_practical_params refuses the point, for n up to 1546
    if point == "retry-tight":
        n = 2000
        params = derive_practical_params(n, Fraction(1, 5), 32, 512)
        sys = IntervalSystem(params.n_tilde, params.m, params.ell)
        trees = [random_tree(n, Rng(s, key=(0,))) for s in range(12)]
        want = {FAIL_CORV, FAIL_CORE}
    else:
        sys = IntervalSystem(12, 1, 2)
        trees = [path_tree(12) if s % 2 else random_tree(12, Rng(s, key=(0,)))
                 for s in range(40)]
        want = {FAIL_CHOOSE, FAIL_CORV, FAIL_CORE}
    seen = set()
    for s, tree in enumerate(trees):
        marks, res = _marked_run(tree, sys, s, 3)
        if res.success:
            continue
        fail = res.failures[-1]
        seen.add(fail.site)
        assert (res.steps, res.corv_hits, res.core_hits) == _trace_counts(
            res.trace)
        assert res.steps == fail.step - 1
    assert seen == want


@pytest.mark.parametrize("point", ["tiny", "retry-tight"])
def test_events_sharing_a_step(point):
    # the loop does its rare work (law hits, trace rows) only on event
    # steps, and a traced run makes every step one; the runs and their
    # histories must agree whichever events share a step, read at a
    # checkpoint every step and every few steps (which, on the tiny
    # system, falls on the last step of a completed attempt)
    if point == "retry-tight":
        params = derive_practical_params(2000, Fraction(1, 5), 32, 512)
        sys = IntervalSystem(params.n_tilde, params.m, params.ell)
        trees = [random_tree(2000, Rng(s, key=(0,))) for s in range(3)]
        periods = (1, 5)
        want = {"vertex, edge and checkpoint", "hit at step 1"}
    else:
        sys = IntervalSystem(12, 1, 2)
        # 12 vertices fail every attempt; 4 and 6 often complete one
        trees = [path_tree(12) if s % 3 == 0
                 else random_tree(2 + 2 * (s % 3), Rng(s, key=(0,)))
                 for s in range(30)]
        periods = (1, 4)
        want = {"vertex, edge and checkpoint", "hit at step 1",
                "checkpoint at the last step"}
    nt = sys.n_tilde
    seen = set()
    for s, tree in enumerate(trees):
        for every in periods:
            marks, res = _marked_run(tree, sys, s, every)
            trace = res.trace
            # a checkpoint at each multiple of the period that an
            # attempt completed, and at no other step
            done = ([f.step - 1 for f in res.failures]
                    + ([tree.n] if res.success else []))
            assert [(k, t) for k, t, *_ in marks] == [
                (k, t) for k, d in enumerate(done)
                for t in range(every, d + 1, every)]
            # the last attempt's sizes against its removals so far
            for k, t, size_a, size_c in marks:
                if k < res.attempts - 1:
                    continue
                _, corv, core = _trace_counts(trace[:t])
                assert (size_a, size_c) == (nt - t - corv, nt - t - core)
            for row in trace:
                corv, core = row.corv_label >= 0, row.core_diff >= 0
                if corv and core and row.t % every == 0:
                    seen.add("vertex, edge and checkpoint")
                if row.t == 1 and (corv or core):
                    seen.add("hit at step 1")
                if row.t == tree.n and row.t % every == 0:
                    seen.add("checkpoint at the last step")
    assert seen == want


def test_replan_redraws_assignment(monkeypatch):
    # each retry redraws the intervals over the given plan, from
    # rng.child(k).child(0), through prepare's binding at call time
    from gracetree import prepare

    sys = IntervalSystem(12, 1, 2)
    tree = path_tree(12)
    plan = prepare_plan(tree, sys, Rng(3, key=(0,)))
    assign = prepare.assign_intervals
    calls = []

    def recorded(ordering, sys, r):
        calls.append(assign(ordering, sys, r))
        assert ordering is plan
        return calls[-1]

    monkeypatch.setattr(prepare, "assign_intervals", recorded)
    rng = Rng(3, key=(1,))
    res = run_labelling(plan, sys, rng, max_retries=4)
    assert not res.success
    assert len(calls) == 4
    assert res.plan == calls[-1] == assign(plan, sys, rng.child(4).child(0))


def test_checkpoint_callback():
    # the kept history is the last attempt's: its states every 4 steps
    sys = IntervalSystem(40, 2, 4)
    tree = path_tree(16)
    plan = prepare_plan(tree, sys, Rng(21, key=(0,)))
    res = run_labelling(
        plan,
        sys,
        Rng(21, key=(1,)),
        max_retries=500,
    )
    seen = [(t, state.labels.count(1))
            for t, state in history_states(res.history, sys) if t % 4 == 0]
    assert res.success
    last_attempt_steps = [t for t, _ in seen][-4:]
    assert last_attempt_steps == [4, 8, 12, 16]


def test_moderate_slack_run_succeeds():
    sys = IntervalSystem(84, 14, 28)
    tree = random_tree(48, Rng(42, key=(0,)))
    plan = prepare_plan(tree, sys, Rng(42, key=(1,)))
    res = run_labelling(plan, sys, Rng(42, key=(2,)), max_retries=4000)
    assert res.success
    check_graceful_prefix(tree, res.psi)
    assert set(res.psi) == set(range(1, 49))
    assert all(1 <= b <= 84 for b in res.psi.values())


# Law of the draws: a fixed state, 20,000 draws from a fixed seed, and
# the counts against the uniform law on the set that admissible_mask (for
# a correction pick, the window) gives.  WIN straddles label 1024, where
# a block of the earlier bitset state ended; FIRST and LAST touch the
# ends of the label range, where a slice that ran one byte too far would
# wrap (a negative index) or stop short instead of raising.
LAW_SYS = IntervalSystem(2048, 32, 128)
NT = LAW_SYS.n_tilde
WIN = Interval(1000, 1063)
FIRST = Interval(1, 64)
LAST = Interval(NT - 63, NT)
DRAWS = 20_000
# (parent label, target window) of each label-draw case: the parent
# below the window (C read forwards), inside it (both sides) or above
# it (C read backwards); "first" reads differences from 1, "last" up to
# n_tilde - 1 and "top" from the top label.  The sparse cases leave 4
# admissible labels of 64, so that (1 - 4/64)^K, about 1.6% of draws at
# K = 64, reach the fallback; "sparse-X" does so at case X's window.
LAW_CASES = {
    "dense": (300, WIN), "sparse": (300, WIN), "empty": (300, WIN),
    "inside": (1030, WIN), "above": (1800, WIN), "first": (65, FIRST),
    "last": (1, LAST), "top": (NT, FIRST),
}
LAW_CASES.update({"sparse-" + case: LAW_CASES[case]
                  for case in ("inside", "above", "first", "last", "top")})


def _law_state(case):
    """(state, parent label, target window) for one of the label-draw
    cases."""
    a, iv = LAW_CASES[case]
    rnd = random.Random(case)
    state = LabelState(LAW_SYS)
    if case == "dense":  # a tenth of labels and differences gone
        for b in rnd.sample(range(1, 2049), 204):
            if b != a:
                remove_label(state, b)
        for d in rnd.sample(range(1, 2048), 204):
            remove_diff(state, d)
    elif case == "sparse":  # labels free, 4 of the window's differences
        for d in rnd.sample(range(WIN.lo - a, WIN.hi - a + 1), 60):
            remove_diff(state, d)
    elif case == "inside":  # parent label in the window: both sides read
        for d in rnd.sample(range(1, 64), 40):
            remove_diff(state, d)
        for b in rnd.sample(range(WIN.lo, WIN.hi + 1), 20):
            if b != a:
                remove_label(state, b)
    elif case.startswith("sparse-"):
        # 4 admissible labels kept; every other one loses its label or
        # its difference, whichever a coin says, unless a kept label
        # needs that difference
        keep = set(rnd.sample([b for b in range(iv.lo, iv.hi + 1)
                               if b != a], 4))
        kept = {abs(b - a) for b in keep}
        for b in range(iv.lo, iv.hi + 1):
            d = abs(b - a)
            if b in keep or not state.diffs[d]:
                continue
            if d not in kept and rnd.random() < 0.5:
                remove_diff(state, d)
            else:
                remove_label(state, b)
    elif case == "empty":  # labels free, no difference to the window
        for d in range(WIN.lo - a, WIN.hi - a + 1):
            remove_diff(state, d)
    else:  # half of the window's labels and of its differences gone
        near, far = sorted((abs(iv.lo - a), abs(iv.hi - a)))
        for d in rnd.sample(range(near, far + 1), 32):
            remove_diff(state, d)
        for b in rnd.sample(range(iv.lo, iv.hi + 1), 32):
            remove_label(state, b)
    remove_label(state, a)
    return state, a, iv


def _pick_state(case, kind):
    """(free, lo) of an m-window of A ("label") or C ("diff"): at label
    1000, or at the ends of the range ("first": label 1, difference 0;
    "last": label n_tilde and difference n_tilde - 1 end it)."""
    rnd = random.Random(case)
    state = LabelState(LAW_SYS)
    m = LAW_SYS.m
    lo = {"first": int(kind == "label"),
          "last": NT - m + (kind == "label")}.get(case, 1000)
    remove = remove_label if kind == "label" else remove_diff
    keep = {"dense": 0.8, "sparse": 2 / 32, "empty": 0, "first": 0.5,
            "last": 0.5}[case]
    free = range(max(lo, 1), lo + m)  # difference 0 is never free
    for x in rnd.sample(free, len(free) - round(keep * m)):
        remove(state, x)
    return (state.labels if kind == "label" else state.diffs), lo


class _Counted:
    """An Rng whose draws calls are counted."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def draws(self, bound, count):
        self.calls += 1
        return self.rng.draws(bound, count)


def _draws(draw, w, seed):
    """Counts of DRAWS draws, and how many of them fell back: draw takes
    its tries from one offsets(w) iterator and its fallback rank from a
    counted Rng; a draw makes at most K tries, and a fallback makes K
    and one draws call."""
    tries = 0

    def counted(offsets):
        nonlocal tries
        for x in offsets:
            tries += 1
            yield x

    offsets = counted(Rng(seed, key=(0,)).offsets(w))
    ranks = _Counted(Rng(seed, key=(1,)))
    counts = Counter()
    fallbacks = 0
    for _ in range(DRAWS):
        tries = ranks.calls = 0
        counts[draw(offsets, ranks)] += 1
        fallbacks += ranks.calls
        assert tries <= K and ranks.calls <= (tries == K)
    return counts, fallbacks


def _assert_law(draw, mask_bits, lo, w, seed, size):
    """draw's counts are uniform on the set of mask_bits (bit k: lo + k),
    which has size elements, and it falls back as often as K misses in a
    row of uniform tries in the width-w window would."""
    support = {lo + k for k in iter_bits(mask_bits)}
    assert len(support) == size
    counts, fallbacks = _draws(draw, w, seed)
    if not support:  # an empty window: K tries, no fallback draw
        assert counts == {-1: DRAWS} and fallbacks == 0
        return
    p = (1 - size / w) ** K
    assert abs(fallbacks / DRAWS - p) <= 4 * math.sqrt(p * (1 - p) / DRAWS)
    assert set(counts) == support
    assert chisquare([counts[b] for b in sorted(support)]).pvalue > 1e-3


@pytest.mark.parametrize("case, size", [
    ("dense", 52), ("sparse", 4), ("inside", 15), ("above", 16),
    ("empty", 0), ("first", 15), ("last", 17), ("top", 14),
    ("sparse-inside", 4), ("sparse-above", 4), ("sparse-first", 4),
    ("sparse-last", 4), ("sparse-top", 4)])
def test_label_draw_is_uniform_on_the_admissible_set(case, size):
    state, a, iv = _law_state(case)
    w = iv.hi - iv.lo + 1
    if case.startswith("sparse"):  # hundreds of fallbacks expected
        assert DRAWS * (1 - size / w) ** K >= 100
    mask_bits = to_int(state.admissible_mask(a, iv))
    labels, diffs = (set(iter_bits(x)) for x in full_ints(state))
    assert ({iv.lo + k for k in iter_bits(mask_bits)}
            == admissible_labels(a, iv, labels, diffs))
    _assert_law(partial(draw_label, state, a, iv), mask_bits, iv.lo, w,
                seed=11, size=size)


@pytest.mark.parametrize("kind", ["label", "diff"])
@pytest.mark.parametrize("case, size", [
    ("dense", 26), ("sparse", 2), ("empty", 0), ("first", 16),
    ("last", 16)])
def test_correction_pick_is_uniform_on_the_free_set(kind, case, size):
    free, lo = _pick_state(case, kind)
    m = LAW_SYS.m
    if case == "sparse":  # hundreds of fallbacks expected
        assert DRAWS * (1 - size / m) ** K >= 100
    _assert_law(partial(pick_free, free, lo, m), window(to_int(free), lo, m),
                lo, m, seed=12, size=size)


@pytest.mark.parametrize("case", list(LAW_CASES))
def test_without_tries_the_draws_are_mask_and_select(case, monkeypatch):
    # the fallback alone is the mask-and-select draw, word for word
    monkeypatch.setattr(labeller, "TRIES", range(0))
    state, a, iv = _law_state(case)
    got, want = Rng(5), Rng(5)

    def rank(k):
        return int(want.draws(k, 1)[0])

    for _ in range(500):
        assert (draw_label(state, a, iv, iter(()), got)
                == mask_select_label(state, a, iv, rank))
    pick_case = case if case in ("sparse", "empty", "first",
                                 "last") else "dense"
    for kind in ("label", "diff"):
        free, lo = _pick_state(pick_case, kind)
        for _ in range(500):
            assert (pick_free(free, lo, LAW_SYS.m, iter(()), got)
                    == mask_select_pick(free, lo, LAW_SYS.m, rank))
    # both read the same words
    assert got.draws(1 << 63, 3).tolist() == want.draws(1 << 63, 3).tolist()


def test_label_draw_fails_exactly_at_an_empty_window():
    # every choose-label failure happens where the mask says the target
    # interval has no admissible label; the state before the failing
    # step is the one rebuilt from the attempt's history after its last
    # completed step
    sys = IntervalSystem(12, 1, 2)
    chosen = 0
    for s in range(60):
        tree = path_tree(12) if s % 2 else random_tree(12, Rng(s, key=(0,)))
        plan = prepare_plan(tree, sys, Rng(s, key=(1,)))
        res = run_labelling(plan, sys, Rng(s, key=(2,)))
        if res.success or res.failures[0].site != FAIL_CHOOSE:
            continue
        chosen += 1
        t = res.failures[0].step
        state = history_state(res.history, sys, t - 1)
        iv = plan_intervals(plan, sys)[t - 1]
        if t == 1:
            assert not any(state.labels[iv.lo:iv.hi + 1])
        else:
            a = res.trace[plan.parent_pos[t - 1]].label
            assert not state.admissible_mask(a, iv).any()
    assert chosen >= 5


def _scalar_cases():
    """(name, system, trees, prepare_plan kwargs) of the oracle
    comparison: a tiny system that fails at all three sites, retry-tight's
    point (corrections fail, every attempt retries), two systems that
    succeed after retrying, and a 5000-step success whose law
    schedules and offsets span several batches."""
    yield "tiny", IntervalSystem(12, 1, 2), [
        path_tree(12) if s % 2 else random_tree(12, Rng(s, key=(0,)))
        for s in range(10)], {}
    p = derive_practical_params(2000, Fraction(1, 5), 32, 512)
    yield ("retry-tight", IntervalSystem(p.n_tilde, p.m, p.ell),
           [random_tree(2000, Rng(s, key=(0,))) for s in range(3)], {})
    yield ("moderate", IntervalSystem(84, 14, 28),
           [random_tree(48, Rng(s, key=(0,))) for s in (42, 43)], {})
    p = derive_practical_params(2000, Fraction(1, 2), 32, 256)
    yield ("wide", IntervalSystem(p.n_tilde, p.m, p.ell),
           [random_tree(2000, Rng(5, key=(0,)))], dict(max_component=8))
    p = derive_practical_params(5000, Fraction(1, 2), 32, 128)
    yield ("long", IntervalSystem(p.n_tilde, p.m, p.ell),
           [random_tree(5000, Rng(0, key=(0,)))], dict(max_component=8))


def _unlike_oracle(got, want):
    """The fields of the scalar oracle's run want that run_labelling's
    result got does not match: LabelResult's own, and the trace, steps
    and removal counts that got reads off its history."""
    return [f for f in want._fields if not getattr(got, f) == getattr(want, f)]


@pytest.mark.parametrize("tries", [K, 0])
def test_batched_loop_matches_scalar_oracle(tries, monkeypatch):
    # the batched draws (offset iterators, law schedules) against a
    # scalar loop reading each value one raw word at a time; tries = 0
    # is the mask-and-select mode (TRIES empty)
    monkeypatch.setattr(labeller, "TRIES", range(tries))
    sites, retried_successes = set(), 0
    for name, sys, trees, prep in _scalar_cases():
        for s, tree in enumerate(trees):
            plan = prepare_plan(tree, sys, Rng(s, key=(1,)), **prep)
            retries = 300 if name == "moderate" else 3
            got = run_labelling(plan, sys, Rng(s, key=(2,)),
                                max_retries=retries)
            want = scalar_labelling(
                plan, sys, Rng(s, key=(2,)), max_retries=retries,
                replan=lambda r: assign_intervals(plan, sys, r), tries=tries)
            assert _unlike_oracle(got, want) == [], (name, s)
            sites |= {f.site for f in got.failures}
            retried_successes += got.success and got.attempts > 1
    assert sites == {FAIL_CHOOSE, FAIL_CORV, FAIL_CORE}
    assert retried_successes >= 1


def test_core_failure_after_a_vertex_pick_on_its_step():
    # at retry-tight's point (n = 2000), seed 0's attempt fails at the
    # edge pick of step 943, whose vertex pick was made: the history
    # keeps that pick, the counts and the trace leave it out, and the
    # trace ends at step 942, as the scalar oracle's does
    p = derive_practical_params(2000, Fraction(1, 5), 32, 512)
    sys = IntervalSystem(p.n_tilde, p.m, p.ell)
    plan = prepare_plan(random_tree(2000, Rng(0, key=(0,))), sys,
                        Rng(0, key=(1,)))
    res = run_labelling(plan, sys, Rng(0, key=(2,)))
    fail = res.failures[-1]
    assert (fail.site, fail.step) == (FAIL_CORE, 943)
    h = res.history
    assert h.corv_steps[-1] == fail.step and h.core_steps[-1] < fail.step
    assert res.corv_hits == len(h.corv) - 1
    assert res.core_hits == len(h.core)
    assert res.steps == h.steps == len(res.trace) == fail.step - 1
    assert res.trace[-1].t == fail.step - 1
    assert res.corv_hits == sum(r.corv_label >= 0 for r in res.trace)
    assert _unlike_oracle(res, scalar_labelling(
        plan, sys, Rng(0, key=(2,)))) == []


@pytest.mark.parametrize("tries", [0, 2])
def test_tries_read_at_most_their_budget(tries, monkeypatch):
    # a draw reads at most len(TRIES) offsets before its fallback, and
    # none when TRIES is empty; the loop then equals the oracle run
    # with that many tries
    monkeypatch.setattr(labeller, "TRIES", range(tries))
    offsets = Rng.offsets
    read = Counter()

    def counted(self, bound):
        for x in offsets(self, bound):
            read[bound] += 1
            yield x

    monkeypatch.setattr(Rng, "offsets", counted)
    for name, sys, trees, prep in list(_scalar_cases())[:3]:
        tree = trees[0]
        plan = prepare_plan(tree, sys, Rng(1, key=(1,)), **prep)
        got = run_labelling(plan, sys, Rng(1, key=(2,)), max_retries=2)
        want = scalar_labelling(
            plan, sys, Rng(1, key=(2,)), max_retries=2,
            replan=lambda r: assign_intervals(plan, sys, r), tries=tries)
        assert _unlike_oracle(got, want) == [], name
    if not tries:
        assert not read
    # pick_free: an empty window reads exactly the budget, a full one
    # one offset (none without tries)
    for free, want in ((bytearray(9), tries),
                       (bytearray(b"\0" + b"\1" * 8), min(tries, 1))):
        read.clear()
        pick_free(free, 1, 8, Rng(3).offsets(8), Rng(4))
        assert read[8] == want


def test_trace_is_an_array_backed_sequence():
    sys = IntervalSystem(40, 2, 4)
    tree = random_tree(16, Rng(5, key=(0,)))
    plan = prepare_plan(tree, sys, Rng(5, key=(1,)))
    res = run_labelling(plan, sys, Rng(5, key=(2,)), max_retries=400)
    trace = res.trace
    rows = tuple(trace)
    assert len(trace) == len(rows) == res.steps == 16
    assert [r.t for r in rows] == list(range(1, 17))
    assert trace[0] == rows[0] and trace[-1] == rows[-1]
    assert trace[3:7] == rows[3:7] and len(trace[3:7]) == 4
    assert trace == rows and trace == list(rows) and rows == tuple(trace)
    assert trace != rows[:-1] and trace != rows[1:] + rows[:1]
    assert trace[:0] == () and not trace[:0]
    with pytest.raises(IndexError):
        trace[16]
