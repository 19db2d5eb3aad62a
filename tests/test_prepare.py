import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from gracetree.intervals import Interval, IntervalSystem
from gracetree.prepare import (
    PrepareError,
    _balanced_draw,
    assign_intervals,
    cut_tree,
    cut_tree_by_size,
    order_vertices,
    prepare_plan,
)
from gracetree.rng import Rng
from gracetree.trees import (Tree, broom_tree, caterpillar_tree, path_tree,
                             random_tree, spider_tree, star_tree)
from oracles import (neighbours, old_assign_intervals, old_order_vertices,
                     plan_intervals, plan_to_json, prufer_decode)


def components(t, removed):
    comp = {}
    for s in range(1, t.n + 1):
        if s in comp:
            continue
        comp[s] = s
        stack = [s]
        while stack:
            v = stack.pop()
            for w in neighbours(t, v):
                e = (v, w) if v < w else (w, v)
                if w not in comp and e not in removed:
                    comp[w] = s
                    stack.append(w)
    sizes = {}
    for v, root in comp.items():
        sizes[root] = sizes.get(root, 0) + 1
    return comp, sorted(sizes.values())


class FixedRng:
    def __init__(self, values):
        self.values = list(values)

    def permutation(self, n):
        v = self.values.pop(0)
        assert sorted(v) == list(range(n))
        return np.array(v)


def test_cut_path_1000_threshold_50():
    t = path_tree(1000)
    removed = cut_tree_by_size(t, 50)
    assert removed == frozenset((50 * k, 50 * k + 1) for k in range(1, 20))
    _, sizes = components(t, removed)
    assert sizes == [50] * 20


def test_cut_small_tree_no_edges_removed():
    t = path_tree(10)
    assert cut_tree_by_size(t, 10) == frozenset()
    assert cut_tree_by_size(t, 50) == frozenset()


def test_cut_star_rejected_by_degree_guard():
    t = star_tree(100)
    with pytest.raises(PrepareError, match="degree"):
        cut_tree(t, 0.5, 100)


def test_cut_eps_window_errors():
    t = path_tree(100)
    with pytest.raises(PrepareError, match="eps"):
        cut_tree(t, 1.5, 100)
    with pytest.raises(PrepareError, match="2\\*log n"):
        cut_tree(t, 0.01, 100)


def test_cut_star_by_size_min_one_succeeds():
    # the size cut needs no degree guard and must always terminate
    t = star_tree(100)
    removed = cut_tree_by_size(t, 10)
    _, sizes = components(t, removed)
    assert max(sizes) <= 10
    assert removed <= set(t.edges)


def test_cut_random_trees_respect_stated_bounds():
    n = 1000
    log_n = math.log(n)
    for seed in range(8):
        t = random_tree(n, Rng(seed, key=(1,)))
        max_deg = max(len(neighbours(t, v)) for v in range(1, n + 1))
        eps = max(2 * log_n / n, math.sqrt(4 * max_deg * log_n / n)) * 1.001
        removed = cut_tree(t, eps, n)
        _, sizes = components(t, removed)
        assert max(sizes) <= eps * n / log_n
        assert len(removed) <= eps * n
        # every cut-off piece sits inside the window; only the kept core may
        # end below it
        assert sorted(sizes)[:-1] == [
            s for s in sorted(sizes)[:-1] if s >= 2 / eps
        ] or min(sizes[:-1]) >= math.ceil(2 / eps)


def test_order_path_example():
    t = path_tree(3)
    o = order_vertices(t, frozenset())
    assert tuple(o.order) == (1, 2, 3)
    assert tuple(o.parent_pos) == (-1, 0, 1)


def test_order_prefers_previous_component():
    # path 1-2-3-4-5-6 cut at (3,4): component {4,5,6} is entered once and
    # finished before returning anywhere else
    t = path_tree(6)
    removed = frozenset({(3, 4)})
    o = order_vertices(t, removed)
    assert tuple(o.order) == (1, 2, 3, 4, 5, 6)
    assert tuple(o.parent_pos) == (-1, 0, 1, 2, 3, 4)
    assert tuple(o.comp) == (0, 0, 0, 1, 1, 1)
    assert tuple(o.parity) == (0, 1, 0, 0, 1, 0)


def test_order_smallest_candidate_tiebreak():
    # star center 1: all leaves become candidates at once
    t = star_tree(5)
    o = order_vertices(t, frozenset())
    assert tuple(o.order) == (1, 2, 3, 4, 5)
    assert tuple(o.parent_pos) == (-1, 0, 0, 0, 0)


def test_order_contiguous_components_random():
    for seed in range(6):
        rng = Rng(seed, key=(2,))
        t = random_tree(200, rng)
        removed = cut_tree_by_size(t, 25)
        comp, _ = components(t, removed)
        o = order_vertices(t, removed)
        order, parent_pos = o.order, o.parent_pos
        assert sorted(order) == list(range(1, 201))
        seen_comps = []
        for v in order:
            if not seen_comps or seen_comps[-1] != comp[v]:
                seen_comps.append(comp[v])
        assert len(seen_comps) == len(set(seen_comps))
        pos = {v: i for i, v in enumerate(order)}
        for i in range(1, 200):
            v = order[i]
            earlier = [w for w in neighbours(t, v) if pos[w] < i]
            assert earlier == [order[parent_pos[i]]]


@pytest.mark.parametrize("n, key", [(2 ** 17, np.uint16),
                                    (2 ** 17 + 1, np.uint32)])
def test_order_sort_key_at_the_16_bit_boundary(n, key, monkeypatch):
    # a path cut into pairs: 2^16 components, then 2^16 + 1 with the
    # root alone; the stable sort reads 16-bit keys, then 32-bit ones,
    # and gives the order of a stable sort on the head ranks either way
    t = path_tree(n)
    removed = cut_tree_by_size(t, 2)
    assert len(removed) + 1 == n - n // 2
    keys = []
    sort = np.argsort

    def argsort(a, *args, **kwargs):
        keys.append(a.dtype)
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", argsort)
    o = order_vertices(t, removed)
    monkeypatch.undo()
    assert keys == [key] and o.comp.dtype == key
    want = old_order_vertices(t, removed)
    assert np.array_equal(o.order, want[0])
    assert np.array_equal(o.parent_pos, want[1])


@pytest.mark.parametrize("make", [
    lambda: random_tree(500, Rng(3)), lambda: spider_tree(300, 9),
    lambda: caterpillar_tree(400, 40, lambda i: 1 + i % 4),
    lambda: broom_tree(300, 100),
])
@pytest.mark.parametrize("cap", [1, 3, 25, 10 ** 6])
def test_order_matches_a_sort_on_head_ranks(make, cap):
    t = make()
    removed = cut_tree_by_size(t, cap)
    got, want = order_vertices(t, removed), old_order_vertices(t, removed)
    assert np.array_equal(got.order, want[0])
    assert np.array_equal(got.parent_pos, want[1])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(min_value=1, max_value=n),
                min_size=max(0, n - 2),
                max_size=max(0, n - 2),
            ),
            st.integers(min_value=1, max_value=12),
        )
    )
)
def test_cut_and_order_invariants(args):
    n, seq, cap = args
    t = prufer_decode(seq, n)
    removed = cut_tree_by_size(t, cap)
    assert removed <= set(t.edges)
    _, sizes = components(t, removed)
    assert max(sizes) <= cap
    o = order_vertices(t, removed)
    assert o.order[0] == 1 and o.parent_pos[0] == -1
    assert all(0 <= o.parent_pos[i] < i for i in range(1, n))


def bfs(t, start, removed=frozenset()):
    """The BFS of t from start over the edges not in removed, visiting
    neighbours in increasing id."""
    seen = {start}
    out = [start]
    for v in out:
        for w in sorted(neighbours(t, v)):
            if w not in seen and (min(v, w), max(v, w)) not in removed:
                seen.add(w)
                out.append(w)
    return out


def shape_trees(max_n=40):
    """Random trees, paths, brooms, spiders and caterpillars."""
    sizes = st.integers(2, max_n)
    return st.one_of(
        st.builds(lambda n, seed: random_tree(n, Rng(seed, key=(8,))),
                  sizes, st.integers(0, 2 ** 32 - 1)),
        st.builds(path_tree, st.integers(1, max_n)),
        sizes.flatmap(lambda n: st.builds(
            broom_tree, st.just(n), st.integers(1, n))),
        sizes.flatmap(lambda n: st.builds(
            spider_tree, st.just(n), st.integers(1, n - 1))),
        sizes.flatmap(lambda n: st.builds(
            caterpillar_tree, st.just(n), st.integers(1, n),
            st.integers(1, 3).map(lambda k: lambda i: k))),
    )


@st.composite
def cut_trees(draw):
    """A shape tree and a removed set: a size cut, or any set of edges."""
    t = draw(shape_trees())
    if draw(st.booleans()):
        return t, cut_tree_by_size(t, draw(st.integers(1, 12)))
    edges = list(t.edges)
    keep = draw(st.lists(st.booleans(), min_size=len(edges),
                         max_size=len(edges)))
    return t, frozenset(e for e, k in zip(edges, keep) if not k)


@settings(max_examples=150, deadline=None)
@given(cut_trees())
def test_order_is_bfs_by_component(case):
    t, removed = case
    o = order_vertices(t, removed)
    for a in (o.order, o.parent_pos):
        assert a.dtype.kind == "i" and not a.flags.writeable
    assert o.removed_edges is removed
    order, parent_pos = o.order.tolist(), o.parent_pos.tolist()
    n = t.n
    assert order[0] == 1 and parent_pos[0] == -1
    assert sorted(order) == list(range(1, n + 1))
    pos = {v: i for i, v in enumerate(order)}
    # the parent is the one earlier neighbour
    for i in range(1, n):
        assert 0 <= parent_pos[i] < i
        earlier = [w for w in neighbours(t, order[i]) if pos[w] < i]
        assert earlier == [order[parent_pos[i]]]
    # components are contiguous runs, each a BFS from its first vertex
    comp, _ = components(t, removed)
    firsts = []
    i = 0
    while i < n:
        run = bfs(t, order[i], removed)
        assert order[i:i + len(run)] == run
        assert {comp[v] for v in run} == {comp[order[i]]}
        firsts.append(order[i])
        i += len(run)
    assert len(firsts) == len(set(comp.values()))
    # in the BFS rank of their first vertex
    rank = {v: k for k, v in enumerate(bfs(t, 1))}
    assert [rank[v] for v in firsts] == sorted(rank[v] for v in firsts)


def depths(t, start, removed):
    """The distance from start of each vertex of its component once the
    edges of removed are dropped."""
    dist = {start: 0}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in neighbours(t, v):
            if w not in dist and (min(v, w), max(v, w)) not in removed:
                dist[w] = dist[v] + 1
                stack.append(w)
    return dist


@settings(max_examples=150, deadline=None)
@given(cut_trees())
def test_order_gives_components_and_parities(case):
    # each position's component, numbered by first appearance, and its
    # parity of distance from the component's first vertex, against a
    # search of the cut tree from that vertex
    t, removed = case
    o = order_vertices(t, removed)
    order = o.order.tolist()
    number, depth = {}, {}
    k = 0  # components found so far
    for v in order:
        if v not in depth:
            dist = depths(t, v, removed)
            number.update(dict.fromkeys(dist, k))
            depth.update(dist)
            k += 1
    assert o.comp.tolist() == [number[v] for v in order]
    assert o.parity.tolist() == [depth[v] % 2 for v in order]
    assert o.comp.dtype == np.min_scalar_type(len(removed))
    assert o.parity.dtype == np.uint8
    assert not (o.comp.flags.writeable or o.parity.flags.writeable)


@settings(max_examples=150, deadline=None)
@given(cut_trees(), st.sampled_from(
    [(24, 2, 4), (40, 4, 8), (3072, 32, 256)]), st.integers(0, 2 ** 32 - 1))
def test_assign_matches_one_pass_oracle(case, system, seed):
    # the array passes give the intervals of the one-pass assignment,
    # with the same draws, on order_vertices' ordering, and keep the
    # ordering's arrays as they are
    t, removed = case
    sys = IntervalSystem(*system)
    ordering = order_vertices(t, removed)
    rng, ref_rng = Rng(seed, key=(10,)), Rng(seed, key=(10,))
    plan = assign_intervals(ordering, sys, rng)
    expect = old_assign_intervals(
        removed, (ordering.order.tolist(), ordering.parent_pos.tolist()),
        sys, ref_rng)
    assert plan_intervals(plan, sys) == list(expect)
    assert (rng.draws(1 << 30, 2).tolist()
            == ref_rng.draws(1 << 30, 2).tolist())
    for name in ("order", "parent_pos", "removed_edges", "comp", "parity"):
        assert getattr(plan, name) is getattr(ordering, name)
    assert not plan.lo.flags.writeable


def test_assign_single_edge_component_example():
    sys = IntervalSystem(24, 4, 4)
    t = path_tree(2)
    plan = assign_intervals(order_vertices(t, frozenset()), sys,
                            FixedRng([[0, 1, 2, 3, 4, 5], [0]]))
    assert plan_intervals(plan, sys) == [Interval(1, 4), Interval(21, 24)]


def test_assign_one_draw_per_component():
    sys = IntervalSystem(24, 2, 4)
    t = path_tree(6)
    removed = frozenset({(3, 4)})
    ordering = order_vertices(t, removed)
    # the balanced draw for two components among ten intervals: the
    # first two of a permutation of the intervals are 2 and 5, and the
    # permutation of the two components keeps their order
    rng = FixedRng([[2, 5, 0, 1, 3, 4, 6, 7, 8, 9], [0, 1]])
    plan = assign_intervals(ordering, sys, rng)
    assert rng.values == []
    j0 = sys.j_intervals[2]
    j1 = sys.j_intervals[5]
    expect = [j0, sys.complement(j0), j0]
    # second component's orientation is steered: entering edge (3,4) gets
    # difference range centred between j0=[5,8] and j1=[13,16] rather than
    # between j0 and complement(j1)=[9,12]
    expect += [j1, sys.complement(j1), j1]
    interval_of = plan_intervals(plan, sys)
    assert interval_of == expect
    pos = {v: i for i, v in enumerate(plan.order)}
    for u, v in ((1, 2), (2, 3), (4, 5), (5, 6)):
        assert sys.complement(interval_of[pos[u]]) == interval_of[pos[v]]


def test_assign_complementary_on_surviving_edges():
    sys = IntervalSystem(40, 4, 8)
    for seed in range(4):
        rng = Rng(seed, key=(3,))
        t = random_tree(60, rng.child(0))
        removed = cut_tree_by_size(t, 12)
        plan = assign_intervals(order_vertices(t, removed), sys,
                                rng.child(1))
        interval_of = plan_intervals(plan, sys)
        pos = {v: i for i, v in enumerate(plan.order)}
        for u, v in t.edges:
            if (u, v) in removed:
                continue
            assert sys.complement(interval_of[pos[u]]) == interval_of[pos[v]]


def test_prepare_plan_deterministic():
    sys = IntervalSystem(40, 4, 8)
    t = random_tree(60, Rng(7, key=(0,)))
    p1 = prepare_plan(t, sys, Rng(7, key=(4,)))
    p2 = prepare_plan(t, sys, Rng(7, key=(4,)))
    assert p1 == p2
    p3 = prepare_plan(t, sys, Rng(8, key=(4,)))
    assert p1 != p3
    # a permutation rooted at position 0 in which every later vertex
    # has exactly one earlier neighbour, its parent
    assert sorted(p1.order) == list(range(1, 61)) and p1.parent_pos[0] == -1
    pos = {v: i for i, v in enumerate(p1.order)}
    for i in range(1, 60):
        assert 0 <= p1.parent_pos[i] < i
        earlier = [w for w in neighbours(t, p1.order[i]) if pos[w] < i]
        assert earlier == [p1.order[p1.parent_pos[i]]]
    # every surviving edge joins an interval to its complement
    interval_of = plan_intervals(p1, sys)
    for u, v in t.edges:
        if (u, v) not in p1.removed_edges:
            assert (sys.complement(interval_of[pos[u]])
                    == interval_of[pos[v]])


def test_one_search_per_tree_built(monkeypatch):
    # the BFS from vertex 1 runs once, when the tree is built: not again
    # for the plan, nor for a retry's new interval draw
    from fractions import Fraction

    from gracetree import trees
    from gracetree.harness import ExperimentConfig, run_trial

    search = trees.breadth_first_order
    calls = []
    monkeypatch.setattr(trees, "breadth_first_order",
                        lambda g, i, **k: calls.append(i) or search(g, i, **k))
    cfg = ExperimentConfig(n=(2000,), gamma=Fraction(1, 5), m=32, ell=256,
                           trials=1, seed=0, checkpoint_every=500,
                           quasi_per_kind=4)
    assert run_trial(cfg, 0, 0).result.attempts == 4
    assert calls == [1]

    t = random_tree(150, Rng(3, key=(0,)))
    calls.clear()
    plan = prepare_plan(t, IntervalSystem(400, 8, 32), Rng(3, key=(1,)),
                        max_component=12)
    assert calls == [] and plan.removed_edges
    # with nothing cut, the ordering is the tree's BFS
    o = order_vertices(t, frozenset())
    assert (o.order.tolist(), o.parent_pos.tolist()) == (list(t.bfs),
                                                         list(t.parent))


def test_one_component_search_per_trial(monkeypatch):
    # the ordering's pointer doubling is a trial's only component search:
    # the assignment and every retry's new draw read its components and
    # parities
    from fractions import Fraction

    from gracetree import prepare
    from gracetree.harness import ExperimentConfig, run_trial

    climb = prepare._climb
    calls = []
    monkeypatch.setattr(prepare, "_climb",
                        lambda *a: calls.append(1) or climb(*a))
    cfg = ExperimentConfig(n=(2000,), gamma=Fraction(1, 5), m=32, ell=512,
                           trials=1, seed=0, checkpoint_every=0)
    assert run_trial(cfg, 0, 0).result.attempts == cfg.retries + 1 == 4
    assert calls == [1]


def _component_pairs(plan, sys):
    """The complement pair {J, complement(J)} of each component of the
    plan, in order of first appearance."""
    pairs = []
    interval_of = plan_intervals(plan, sys)
    for i, v in enumerate(plan.order.tolist()):
        p = plan.parent_pos[i]
        if p < 0 or tuple(sorted((v, plan.order[p]))) in plan.removed_edges:
            iv = interval_of[i]
            pairs.append(frozenset({iv, sys.complement(iv)}))
    return pairs


@pytest.mark.parametrize("shape", ["spider", "broom", "random"])
def test_plan_depends_only_on_the_edge_set(shape):
    # the same tree from its edge lines shuffled, every other one flipped:
    # equal-order siblings (the spider's legs, the broom's leaves) and the
    # root are the same, so the cut, the order and the draws are too
    t = {"spider": lambda: spider_tree(2000, 6),
         "broom": lambda: broom_tree(2000, 700),
         "random": lambda: random_tree(2000, Rng(11))}[shape]()
    edges = list(t.edges)
    random.Random(shape).shuffle(edges)
    moved = Tree(t.n, [(v, u) if k % 2 else (u, v)
                       for k, (u, v) in enumerate(edges)])
    assert moved == t and list(moved.edges) != list(t.edges)
    sys = IntervalSystem(3072, 32, 256)
    for cap in (4, 8, 32):
        plan = prepare_plan(t, sys, Rng(5, key=(9,)), max_component=cap)
        assert plan.removed_edges, (shape, cap)
        assert prepare_plan(moved, sys, Rng(5, key=(9,)),
                            max_component=cap) == plan, (shape, cap)


def test_balanced_draw_uses_every_pair_evenly():
    # C components over |J| intervals: each interval is drawn by
    # floor(C/|J|) or ceil(C/|J|) components, so each complement pair
    # by twice that
    for nt, m, ell, n, cap in ((40, 4, 8, 60, 12), (24, 2, 4, 90, 5),
                               (48, 4, 8, 200, 3)):
        sys = IntervalSystem(nt, m, ell)
        nj = len(sys.j_intervals)
        assert len({frozenset({j, sys.complement(j)})
                    for j in sys.j_intervals}) == nj // 2
        for seed in range(6):
            t = random_tree(n, Rng(seed, key=(5,)))
            plan = prepare_plan(t, sys, Rng(seed, key=(6,)),
                                max_component=cap)
            pairs = _component_pairs(plan, sys)
            c = len(pairs)
            assert c == len(plan.removed_edges) + 1
            for j in sys.j_intervals:
                used = pairs.count(frozenset({j, sys.complement(j)}))
                assert 2 * (c // nj) <= used <= 2 * -(-c // nj), (seed, c)


def test_balanced_draw_root_interval_is_uniform():
    # the root component keeps its drawn interval on the root's side
    sys = IntervalSystem(40, 4, 8)
    t = random_tree(60, Rng(3, key=(0,)))
    removed = cut_tree_by_size(t, 12)
    ordering = order_vertices(t, removed)
    counts = dict.fromkeys(sys.j_intervals, 0)
    for seed in range(2400):
        plan = assign_intervals(ordering, sys, Rng(seed, key=(7,)))
        counts[plan_intervals(plan, sys)[0]] += 1
    assert (len(removed) + 1) % len(counts)  # the remainder draw matters
    assert chisquare(list(counts.values())).pvalue > 1e-3


def test_balanced_draw_counts_differ_by_at_most_one():
    for count, size in ((1, 6), (5, 6), (23, 10), (1000, 7), (3704, 48)):
        assert count % size
        picks = _balanced_draw(count, size, Rng(count, key=(11,)))
        per = np.bincount(picks, minlength=size)
        assert len(picks) == count and len(per) == size
        assert per.min() == count // size and per.max() == count // size + 1


def test_balanced_draw_remainder_is_uniform():
    # 23 draws over 10 values: the 3 values drawn a third time are a
    # uniform set of three, 50 expected for each of the 120
    rng = Rng(4, key=(11,))
    cells = dict.fromkeys(itertools.combinations(range(10), 3), 0)
    for _ in range(6000):
        per = np.bincount(_balanced_draw(23, 10, rng), minlength=10)
        cells[tuple(np.flatnonzero(per == 3).tolist())] += 1
    assert chisquare(list(cells.values())).pvalue > 1e-3


# SHA-256 of plan_to_json for two frozen plans; they pin the cut, the
# order, the draws and the orientations.  The random one was re-recorded
# when the order became BFS by component (order_vertices) and again when
# the cut moved to the same BFS from vertex 1; the path's order is 1..n
# and its root vertex 1 under every rule, so its digest did not move.
# Both were re-recorded when the balanced draw moved to Rng.permutation,
# and the random one's tree became a first-entrance tree of a random walk.
GOLDEN_PLANS = {
    "random": (
        48, "0fa1fcc885fb8195effe5c8514ee5128ac91326d051989f644a3ed4a169025a0"),
    "path": (
        41, "935b815f013cee0f1385dc9673565455b6b093e5934c8e6317a5ec97414b6bb7"),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_PLANS))
def test_plan_golden_digests(shape):
    import hashlib

    t = random_tree(2000, Rng(5)) if shape == "random" else path_tree(2000)
    sys = IntervalSystem(3072, 32, 256)
    plan = prepare_plan(t, sys, Rng(5, key=(9,)))
    removed, digest = GOLDEN_PLANS[shape]
    assert len(plan.removed_edges) == removed
    assert (hashlib.sha256(plan_to_json(plan, sys.ell).encode()).hexdigest()
            == digest)
