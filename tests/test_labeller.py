import math
import random
from collections import Counter
from fractions import Fraction
from itertools import repeat

import pytest
from scipy.stats import chisquare

import gracetree.labeller as labeller
from gracetree.bitset import iter_bits
from gracetree.intervals import Interval, IntervalSystem
from gracetree.params import derive_practical_params
from gracetree.labeller import (
    FAIL_CHOOSE,
    FAIL_CORE,
    FAIL_CORV,
    K,
    LabelResult,
    LabelState,
    pick_free,
    run_labelling,
)
from gracetree.prepare import prepare_plan
from gracetree.rng import Rng
from gracetree.trees import Tree, path_tree, random_tree
from oracles import (admissible_labels, full_ints, mask_select_label,
                     mask_select_pick, remove_diff, remove_label,
                     scalar_labelling)


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
            got = {iv.lo + k for k in iter_bits(mask)}
            assert got == ref, (a, tuple(iv))


def test_single_vertex_first_step_sizes():
    sys = IntervalSystem(24, 2, 4)
    t = Tree(1, [])
    for seed in range(6):
        plan = prepare_plan(t, sys, Rng(seed, key=(0,)))
        res = run_labelling(plan, sys, Rng(seed, key=(1,)), collect_trace=True)
        assert res.success
        row = res.trace[0]
        assert row.edge_label == -1
        assert row.size_a in (sys.n_tilde - 1, sys.n_tilde - 2)
        assert row.size_a == sys.n_tilde - 1 - (row.corv_label >= 0)
        iv = plan.interval_of[0]
        assert iv.lo <= res.psi[1] <= iv.hi


def test_size_identities_along_trace():
    sys = IntervalSystem(40, 2, 4)
    tree = random_tree(16, Rng(5, key=(0,)))
    plan = prepare_plan(tree, sys, Rng(5, key=(1,)))
    res = run_labelling(
        plan, sys, Rng(5, key=(2,)), max_retries=400, collect_trace=True
    )
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
        iv = plan.interval_of[pos[v]]
        assert iv.lo <= b <= iv.hi
    check_graceful_prefix(tree, res.psi)


def test_deterministic_repeat():
    sys = IntervalSystem(40, 2, 4)
    tree = random_tree(14, Rng(9, key=(0,)))
    plan = prepare_plan(tree, sys, Rng(9, key=(1,)))
    r1 = run_labelling(plan, sys, Rng(9, key=(2,)), max_retries=200,
                       collect_trace=True)
    r2 = run_labelling(plan, sys, Rng(9, key=(2,)), max_retries=200,
                       collect_trace=True)
    assert r1 == r2
    r3 = run_labelling(plan, sys, Rng(10, key=(2,)), max_retries=200,
                       collect_trace=True)
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
        runs = []
        for traced in (True, False):
            marks = []

            def on_checkpoint(state, t):
                # the loop's local counts, written back before the call
                a, c, mirror = (sum(b.bit_count() for b in bits.blocks)
                                for bits in (state.labels, state.diffs,
                                             state.diffs_rev))
                assert (state.size_a, state.size_c, mirror) == (a, c, c)
                marks.append((state.attempt, t, state.steps_done,
                              state.corv_hits, state.core_hits,
                              state.size_a, state.size_c))

            plan = prepare_plan(tree, sys, Rng(s, key=(1,)))
            res = run_labelling(plan, sys, Rng(s, key=(2,)), max_retries=2,
                                checkpoint_every=3,
                                on_checkpoint=on_checkpoint,
                                collect_trace=traced,
                                replan=lambda r: prepare_plan(tree, sys, r))
            runs.append((marks, res))
        (marks, res), (bare_marks, bare) = runs
        assert bare_marks == marks
        assert (bare.steps, bare.corv_hits, bare.core_hits, bare.failures,
                bare.psi) == (res.steps, res.corv_hits, res.core_hits,
                              res.failures, res.psi)
        assert all(t == done for _, t, done, *_ in marks)
        rows = res.trace
        for k, t, done, corv, core, size_a, size_c in marks:
            if k == res.attempts - 1:
                assert (done, corv, core) == _trace_counts(rows[:t])
                assert (size_a, size_c) == (rows[t - 1].size_a,
                                            rows[t - 1].size_c)
        if res.success:
            continue
        fail = res.failures[-1]
        seen.add(fail.site)
        assert (res.steps, res.corv_hits, res.core_hits) == _trace_counts(rows)
        assert res.steps == fail.step - 1
    assert seen == want


def test_replan_redraws_assignment():
    sys = IntervalSystem(12, 1, 2)
    tree = path_tree(12)
    plan = prepare_plan(tree, sys, Rng(3, key=(0,)))
    calls = []

    def replan(r):
        p = prepare_plan(tree, sys, r)
        calls.append(p)
        return p

    res = run_labelling(
        plan, sys, Rng(3, key=(1,)), max_retries=4, replan=replan
    )
    assert not res.success
    assert len(calls) == 4
    assert res.plan == calls[-1]


def test_checkpoint_callback():
    sys = IntervalSystem(40, 2, 4)
    tree = path_tree(16)
    plan = prepare_plan(tree, sys, Rng(21, key=(0,)))
    seen = []
    res = run_labelling(
        plan,
        sys,
        Rng(21, key=(1,)),
        max_retries=500,
        checkpoint_every=4,
        on_checkpoint=lambda state, t: seen.append((t, state.size_a)),
    )
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
# a correction pick, the window) gives.  The window straddles the block
# boundary at 1024.
LAW_SYS = IntervalSystem(2048, 32, 128)
WIN = Interval(1000, 1063)
DRAWS = 20_000


def _law_state(case):
    """(state, parent label) for one of the label-draw cases."""
    rnd = random.Random(case)
    state = LabelState(LAW_SYS)
    if case == "dense":  # a tenth of labels and differences gone
        a = 300
        for b in rnd.sample(range(1, 2049), 204):
            if b != a:
                remove_label(state, b)
        for d in rnd.sample(range(1, 2048), 204):
            remove_diff(state, d)
    elif case == "sparse":  # labels free, 4 of the window's differences
        a = 300
        for d in rnd.sample(range(WIN.lo - a, WIN.hi - a + 1), 60):
            remove_diff(state, d)
    elif case == "inside":  # parent label in the window: both sides read
        a = 1030
        for d in rnd.sample(range(1, 64), 40):
            remove_diff(state, d)
        for b in rnd.sample(range(WIN.lo, WIN.hi + 1), 20):
            if b != a:
                remove_label(state, b)
    else:  # "empty": labels free, every difference to the window gone
        a = 300
        for d in range(WIN.lo - a, WIN.hi - a + 1):
            remove_diff(state, d)
    remove_label(state, a)
    return state, a


def _pick_state(case, kind):
    """(bits, lo) of an m-window of A ("label") or C ("diff")."""
    rnd = random.Random(case)
    state = LabelState(LAW_SYS)
    lo = 1000
    remove = remove_label if kind == "label" else remove_diff
    keep = {"dense": 0.8, "sparse": 2 / 32, "empty": 0}[case]
    window = range(lo, lo + LAW_SYS.m)
    for x in rnd.sample(window, LAW_SYS.m - round(keep * LAW_SYS.m)):
        remove(state, x)
    return (state.labels if kind == "label" else state.diffs), lo


def _draws(draw, seed):
    """Counts of DRAWS draws, and how many of them fell back: a fallback
    makes K + 1 randbelow calls, a draw that hits a try at most K."""
    rng = Rng(seed)
    calls = []

    def randbelow(k):
        calls.append(k)
        return rng.randbelow(k)

    counts = Counter()
    fallbacks = 0
    for _ in range(DRAWS):
        calls.clear()
        counts[draw(randbelow)] += 1
        fallbacks += len(calls) > K
        assert len(calls) <= K + 1
    return counts, fallbacks


def _assert_law(draw, mask_bits, lo, w, seed, size):
    """draw's counts are uniform on the set of mask_bits (bit k: lo + k),
    which has size elements, and it falls back as often as K misses in a
    row of uniform tries in the width-w window would."""
    support = {lo + k for k in iter_bits(mask_bits)}
    assert len(support) == size
    counts, fallbacks = _draws(draw, seed)
    if not support:  # an empty window: K tries, no fallback draw
        assert counts == {-1: DRAWS} and fallbacks == 0
        return
    p = (1 - size / w) ** K
    assert abs(fallbacks / DRAWS - p) <= 4 * math.sqrt(p * (1 - p) / DRAWS)
    assert set(counts) == support
    assert chisquare([counts[b] for b in sorted(support)]).pvalue > 1e-3


@pytest.mark.parametrize("case, size", [
    ("dense", 52), ("sparse", 4), ("inside", 15), ("empty", 0)])
def test_label_draw_is_uniform_on_the_admissible_set(case, size):
    state, a = _law_state(case)
    w = WIN.hi - WIN.lo + 1
    _assert_law(lambda rb: state.draw_label(a, WIN, map(rb, repeat(w)), rb),
                state.admissible_mask(a, WIN), WIN.lo, w, seed=11,
                size=size)


@pytest.mark.parametrize("kind", ["label", "diff"])
@pytest.mark.parametrize("case, size", [
    ("dense", 26), ("sparse", 2), ("empty", 0)])
def test_correction_pick_is_uniform_on_the_free_set(kind, case, size):
    bits, lo = _pick_state(case, kind)
    m = LAW_SYS.m
    _assert_law(lambda rb: pick_free(bits, lo, m, map(rb, repeat(m)), rb),
                bits.window(lo, m), lo, m, seed=12, size=size)


@pytest.mark.parametrize("case", ["dense", "sparse", "inside", "empty"])
def test_without_tries_the_draws_are_mask_and_select(case, monkeypatch):
    # the fallback alone is the mask-and-select draw, word for word
    monkeypatch.setattr(labeller, "TRIES", range(0))
    state, a = _law_state(case)
    got, want = Rng(5), Rng(5)
    for _ in range(500):
        assert (state.draw_label(a, WIN, iter(()), got.randbelow)
                == mask_select_label(state, a, WIN, want.randbelow))
    for kind in ("label", "diff"):
        bits, lo = _pick_state("dense" if case == "inside" else case, kind)
        for _ in range(500):
            assert (pick_free(bits, lo, LAW_SYS.m, iter(()), got.randbelow)
                    == mask_select_pick(bits, lo, LAW_SYS.m, want.randbelow))
    assert got._pos == want._pos


def test_label_draw_fails_exactly_at_an_empty_window():
    # every choose-label failure happens where the mask says the target
    # interval has no admissible label; the state before the failing
    # step is the one seen at the previous (every-step) checkpoint
    sys = IntervalSystem(12, 1, 2)
    chosen = 0
    for s in range(60):
        tree = path_tree(12) if s % 2 else random_tree(12, Rng(s, key=(0,)))
        plan = prepare_plan(tree, sys, Rng(s, key=(1,)))
        seen = {0: LabelState(sys)}

        def on_checkpoint(state, t):
            copy = LabelState(sys)
            for bits in ("labels", "diffs", "diffs_rev"):
                getattr(copy, bits).blocks = list(getattr(state, bits).blocks)
            seen[t] = copy

        res = run_labelling(plan, sys, Rng(s, key=(2,)), checkpoint_every=1,
                            on_checkpoint=on_checkpoint, collect_trace=True)
        if res.success or res.failures[0].site != FAIL_CHOOSE:
            continue
        chosen += 1
        t = res.failures[0].step
        state, iv = seen[t - 1], plan.interval_of[t - 1]
        if t == 1:
            assert state.first_mask(iv) == 0
        else:
            a = res.trace[plan.parent_pos[t - 1]].label
            assert state.admissible_mask(a, iv) == 0
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


@pytest.mark.parametrize("tries", [K, 0])
def test_batched_loop_matches_scalar_oracle(tries, monkeypatch):
    # the batched draws (offset iterators, law schedules) against a
    # scalar loop reading each value one raw word at a time; tries = 0
    # is the mask-and-select mode (TRIES empty)
    monkeypatch.setattr(labeller, "TRIES", range(tries))
    sites, retried_successes = set(), 0
    for name, sys, trees, prep in _scalar_cases():
        for s, tree in enumerate(trees):
            def replan(r, tree=tree):
                return prepare_plan(tree, sys, r, **prep)

            plan = replan(Rng(s, key=(1,)))
            kwargs = dict(max_retries=300 if name == "moderate" else 3,
                          replan=replan)
            got = run_labelling(plan, sys, Rng(s, key=(2,)),
                                collect_trace=True, **kwargs)
            want = scalar_labelling(plan, sys, Rng(s, key=(2,)),
                                    tries=tries, **kwargs)
            assert got == want, (name, s)
            sites |= {f.site for f in got.failures}
            retried_successes += got.success and got.attempts > 1
    assert sites == {FAIL_CHOOSE, FAIL_CORV, FAIL_CORE}
    assert retried_successes >= 1
