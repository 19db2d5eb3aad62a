import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from gracetree.rng import Rng
from gracetree.trees import (DegreeStats, Tree, broom_tree, caterpillar_tree,
                             degree_stats, format_tree, parse_tree, path_tree,
                             random_tree, spider_tree, star_tree)
from oracles import (neighbours, old_format_tree, old_parse_tree, old_tree,
                     prufer_decode, prufer_encode, tree_texts)


def test_decode_two_vertices():
    t = prufer_decode([], 2)
    assert set(t.edges) == {(1, 2)}


def test_decode_three_vertices():
    t = prufer_decode([3], 3)
    assert set(t.edges) == {(1, 3), (2, 3)}


def test_decode_all_trees_on_three_vertices():
    # the 3 labelled trees on 3 vertices, enumerated by center
    expect = {
        (1,): {(1, 2), (1, 3)},
        (2,): {(1, 2), (2, 3)},
        (3,): {(1, 3), (2, 3)},
    }
    for seq, edges in expect.items():
        assert set(prufer_decode(list(seq), 3).edges) == edges


def test_encode_star_and_path():
    star = Tree(4, [(4, 1), (4, 2), (4, 3)])
    assert prufer_encode(star) == [4, 4]
    path = Tree(3, [(1, 2), (2, 3)])
    assert prufer_encode(path) == [2]
    assert prufer_encode(Tree(2, [(1, 2)])) == []


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_roundtrip_exhaustive(n):
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        assert prufer_encode(prufer_decode(list(seq), n)) == list(seq)


def test_decode_errors():
    with pytest.raises(ValueError):
        prufer_decode([], 1)
    with pytest.raises(ValueError):
        prufer_decode([4], 3)
    with pytest.raises(ValueError):
        prufer_decode([0], 3)
    with pytest.raises(ValueError):
        prufer_decode([1, 2], 3)


def test_random_tree_small():
    rng = Rng(1)
    assert set(random_tree(2, rng).edges) == {(1, 2)}
    with pytest.raises(ValueError):
        random_tree(1, rng)


def test_random_tree_deterministic():
    a = random_tree(50, Rng(123, (4,)))
    b = random_tree(50, Rng(123, (4,)))
    assert a == b


def test_random_tree_uniform_chi2():
    # 125 labelled trees on 5 vertices (Cayley); chi-square at the 0.01 level
    rng = Rng(2024)
    counts = {}
    for _ in range(10 ** 5):
        t = random_tree(5, rng)
        key = tuple(prufer_encode(t))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 125
    freq = [counts[s] for s in itertools.product(range(1, 6), repeat=3)]
    res = stats.chisquare(freq)
    assert res.pvalue > 0.01


@pytest.mark.parametrize("n, draws", [(4, 1600), (6, 64_800)])
def test_random_tree_hits_every_tree_evenly(n, draws):
    # all n^(n-2) labelled trees, keyed by Prüfer code, 100 and 50
    # expected each
    rng = Rng(n, key=(8,))
    cells = {s: 0 for s in itertools.product(range(1, n + 1), repeat=n - 2)}
    for _ in range(draws):
        cells[tuple(prufer_encode(random_tree(n, rng)))] += 1
    assert min(cells.values()) > 0
    assert stats.chisquare(list(cells.values())).pvalue > 1e-3


def test_random_tree_degree_law():
    # the code of a tree holds v deg(v) - 1 times, and a uniform code
    # holds each vertex Binomial(n - 2, 1/n) times: the degrees of one
    # large tree against that law (its n counts are a multinomial, whose
    # negative dependence only narrows the test), cells 0..5 and 6 or
    # more
    rng = Rng(1, key=(8,))
    t = random_tree(30, rng)
    code = prufer_encode(t)
    assert [code.count(v) for v in range(1, 31)] == (
        t.degrees() - 1).tolist()
    n, top = 10 ** 5, 6
    obs = np.bincount(np.minimum(random_tree(n, rng).degrees() - 1, top),
                      minlength=top + 1)
    law = stats.binom(n - 2, 1 / n)
    exp = np.append(law.pmf(np.arange(top)), law.sf(top - 1)) * n
    assert stats.chisquare(obs, exp).pvalue > 1e-3


def test_degree_stats_examples():
    assert degree_stats(path_tree(4)) == DegreeStats(2, 10)
    assert degree_stats(star_tree(4)) == DegreeStats(3, 12)


def test_degree_stats_large_random():
    for seed in (0, 1, 2):
        t = random_tree(10 ** 4, Rng(seed))
        s = degree_stats(t)
        assert s.max_degree <= 30


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 60), st.integers(0, 2 ** 32 - 1))
def test_random_tree_invariants(n, seed):
    t = random_tree(n, Rng(seed, (9,)))
    degs = [len(neighbours(t, v)) for v in range(1, n + 1)]
    assert sum(degs) == 2 * (n - 1)
    s = degree_stats(t)
    assert s.sum_sq_degree * n >= 4 * (n - 1) ** 2
    assert len(t.edges) == n - 1


def test_tree_validation():
    with pytest.raises(ValueError):
        Tree(3, [(1, 2)])
    with pytest.raises(ValueError):
        Tree(3, [(1, 2), (1, 2)])
    with pytest.raises(ValueError):
        Tree(3, [(1, 2), (3, 3)])
    with pytest.raises(ValueError):
        Tree(3, [(1, 2), (2, 4)])
    with pytest.raises(ValueError):
        Tree(4, [(1, 2), (2, 3), (1, 3)])


def test_tree_immutable():
    t = path_tree(3)
    with pytest.raises(AttributeError):
        t.n = 5


def test_tree_buffers_read_only():
    t = path_tree(3)
    key = hash(t)
    for buf in (t.edges.ends, t.bfs, t.parent):
        with pytest.raises(TypeError):
            buf[0] = 3
    with pytest.raises(AttributeError):
        t.edges.ends = t.bfs
    with pytest.raises(AttributeError):
        t.bfs = t.parent
    assert hash(t) == key and t == path_tree(3)


def test_text_format_roundtrip():
    t = random_tree(17, Rng(5))
    assert parse_tree(format_tree(t)) == t
    assert parse_tree("1\n") == Tree(1, [])


def shaped_tree(shape, n, seed=0):
    if shape == "random" and n > 1:
        return random_tree(n, Rng(seed))
    return star_tree(n) if shape == "star" else path_tree(n)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["random", "path", "star"]), st.integers(1, 300),
       st.integers(0, 2 ** 32 - 1))
def test_format_tree_writes_the_reference_bytes(shape, n, seed):
    t = shaped_tree(shape, n, seed)
    assert format_tree(t) == old_format_tree(t)


@pytest.mark.parametrize("shape", ["random", "path", "star"])
@pytest.mark.parametrize("n", [2048, 2049, 4095, 4096, 4097, 8193])
def test_format_tree_chunk_edges(shape, n):
    # the writer reads the flat edge buffer in chunks of 4096 ends,
    # 2048 edges: n - 1 edges on either side of a chunk's end
    t = shaped_tree(shape, n, n)
    text = format_tree(t)
    assert text == old_format_tree(t)
    assert parse_tree(text) == t


def test_text_format_strict():
    with pytest.raises(ValueError):
        parse_tree("")
    with pytest.raises(ValueError):
        parse_tree("x\n1 2\n")
    with pytest.raises(ValueError):
        parse_tree("3\n1 2\n")
    with pytest.raises(ValueError):
        parse_tree("3\n1 2\n2 3 4\n")
    with pytest.raises(ValueError):
        parse_tree("4\n1 2\n2 3\n1 3\n")


def parsed(parse, text):
    """(n, edges, neighbour lists of 0..n) of a parsed tree, or the
    ValueError's message.  A Tree keeps each neighbour list in
    increasing id, so the oracle's lists, in input edge order, are
    sorted."""
    try:
        t = parse(text)
    except ValueError as exc:
        return str(exc)
    if isinstance(t, Tree):
        return (t.n, list(t.edges),
                [list(neighbours(t, v)) for v in range(t.n + 1)])
    n, edges, adj = t
    return n, list(edges), [sorted(a) for a in adj]


@settings(max_examples=400, deadline=None)
@given(tree_texts())
def test_parser_matches_tuple_parser(text):
    assert parsed(parse_tree, text) == parsed(old_parse_tree, text)


@pytest.mark.parametrize("text", [
    "3\n1 2\n2 3\n", "3\n1 2\n1 2\n", "3\n1 2\n3 3\n", "3\n1 2\n2 4\n",
    "4\n1 2\n2 3\n1 3\n", "4\n1 2\n1 2\n3 3\n", "2\n+1 1_0\n",
    "3\n\u0661 \uff12\n2 3\n", "0\n", "-2\n", "3\n1 2\n\n2 3\n",
    "3\n1 2\n2 3 \xa0\n\n \n", "3\r\n1 2\r\n2\x0b3\r\n",
])
def test_parser_named_cases(text):
    assert parsed(parse_tree, text) == parsed(old_parse_tree, text)


def test_constructor_matches_tuple_check():
    cases = [(3, [(1, 2), (2, 3)]), (3, [(1, 2), (2, 1)]),
             (3, [(2, 2), (1, 2)]), (4, [(1, 2), (1, 2), (3, 4)]),
             (4, [(5, 1), (1, 1), (1, 2)]), (2, [(1, 2), (1, 2)]), (1, []),
             (0, []), (4, [(1, 2), (3, 4)]),
             # vertex 1 isolated, and a cycle that avoids vertex 1
             (4, [(2, 3), (3, 4), (2, 4)]),
             (5, [(1, 2), (3, 4), (4, 5), (3, 5)])]
    for n, edges in cases:
        assert parsed(lambda e: Tree(n, e), edges) == \
            parsed(lambda e: old_tree(n, e), edges)


def python_bfs(t):
    """The BFS of t from vertex 1 visiting neighbours in increasing id:
    (vertex of each rank, parent rank of each rank, -1 at rank 0)."""
    order, parent, seen = [1], [-1], {1}
    for k, v in enumerate(order):
        for w in sorted(neighbours(t, v)):
            if w not in seen:
                seen.add(w)
                order.append(w)
                parent.append(k)
    return order, parent


@pytest.mark.parametrize("make", [
    lambda: Tree(1, []), lambda: path_tree(2), lambda: star_tree(2),
    lambda: Tree(2, [(2, 1)]), lambda: random_tree(2, Rng(1)),
    lambda: random_tree(300, Rng(4)), lambda: random_tree(57, Rng(8)),
    lambda: path_tree(50), lambda: star_tree(40), lambda: broom_tree(60, 20),
    lambda: caterpillar_tree(70, 12, lambda i: 1 + i % 3),
    lambda: spider_tree(61, 7),
    lambda: Tree(6, [(6, 5), (3, 1), (5, 1), (4, 3), (2, 5)]),
])
def test_tree_keeps_its_bfs_from_vertex_1(make):
    t = make()
    order, parent = python_bfs(t)
    assert (list(t.bfs), list(t.parent)) == (order, parent)
    # the edge order does not move it
    rev = Tree(t.n, [(v, u) for u, v in reversed(list(t.edges))])
    assert (list(rev.bfs), list(rev.parent)) == (order, parent)


def test_shape_constructors():
    assert list(broom_tree(6, 3).edges) == [(1, 2), (2, 3), (3, 4), (3, 5),
                                            (3, 6)]
    assert list(spider_tree(6, 2).edges) == [(1, 2), (2, 3), (3, 4), (1, 5),
                                             (5, 6)]
    assert list(caterpillar_tree(7, 3, lambda i: 1).edges) == [
        (1, 2), (2, 3), (1, 4), (2, 5), (3, 6), (1, 7)]
    assert list(neighbours(path_tree(4), 2)) == [1, 3]
    assert broom_tree(5, 5) == path_tree(5)
    assert broom_tree(5, 1) == star_tree(5)


def tree_bytes(t):
    return bytes(t.edges.ends), bytes(t.bfs), bytes(t.parent)


@pytest.mark.parametrize("make", [
    lambda: random_tree(300, Rng(4)), lambda: path_tree(50),
    lambda: star_tree(40), lambda: broom_tree(60, 20),
    lambda: spider_tree(61, 6), lambda: Tree(1, []),
    lambda: Tree(5, [(4, 1), (2, 4), (5, 3), (3, 4)]),
])
def test_canonical_text_parses_to_the_same_bytes(make):
    t = make()
    text = format_tree(t)
    got = parse_tree(text)
    assert tree_bytes(got) == tree_bytes(t)
    # as the per-line path reads it (a padded line is not canonical)
    assert tree_bytes(parse_tree(text.replace("\n", " \n"))) == tree_bytes(t)
    assert parsed(parse_tree, text) == parsed(old_parse_tree, text)


@pytest.mark.parametrize("make", [
    lambda: random_tree(300, Rng(4)), lambda: prufer_decode([3, 3, 1], 5),
    lambda: path_tree(50), lambda: star_tree(40), lambda: broom_tree(60, 20),
    lambda: caterpillar_tree(70, 12, lambda i: 1 + i % 3),
    lambda: spider_tree(61, 7),
])
def test_shuffled_edges_give_the_same_csr(make):
    # each shape fed back in shuffled order, each edge's ends in a random
    # order: the CSR that the BFS reads is dropped once it has, and
    # what it leaves, the BFS and its parents, and the degrees, are the
    # same bytes, the BFS from vertex 1 in increasing id
    t = make()
    rnd = random.Random(t.n)
    edges = [(u, v) if rnd.random() < 0.5 else (v, u) for u, v in t.edges]
    rnd.shuffle(edges)
    got = Tree(t.n, edges)
    assert tree_bytes(got)[1:] == tree_bytes(t)[1:]
    assert (list(got.bfs), list(got.parent)) == python_bfs(got)
    assert got.degrees().tolist() == t.degrees().tolist()


@pytest.mark.parametrize("edit", [
    lambda s: s.replace(" ", "\t"), lambda s: s.replace("\n", "\r\n"),
    lambda s: "\n".join(f"  {ln} " for ln in s.splitlines()) + "\n",
    lambda s: s + "\n\n \n", lambda s: s.rstrip("\n"),
    lambda s: " ".join("+" + x for x in s.split(" ")),
    lambda s: re.sub(r"\d+", lambda x: "00" + x.group(), s),
])
def test_valid_variants_parse_as_before(edit):
    # tabs, CRLF, padded lines, trailing blank lines, no final newline
    # and signs take the per-line path, leading zeros the array path,
    # all to one tree
    t = Tree(7, [(7, 1), (1, 2), (3, 2), (2, 4), (6, 5), (5, 4)])
    text = edit(format_tree(t))
    assert tree_bytes(parse_tree(text)) == tree_bytes(t)
    assert parsed(parse_tree, text) == parsed(old_parse_tree, text)


@pytest.mark.parametrize("text, message", [
    ("3\n1 2\n2 2\n", "self-loop at 2"),
    ("3\n1 2\n2 1\n", "parallel edge (1, 2)"),
    ("3\n1 2\n2 4\n", "edge (2,4) out of range 1..3"),
    ("3\n0 1\n1 2\n", "edge (0,1) out of range 1..3"),
    ("4\n1 2\n2 3\n3 1\n", "edge set is not connected"),
    ("3\n1 2\n", "expected 2 edge lines, got 1"),
    ("1\n1 2\n", "expected 0 edge lines, got 1"),
    ("0\n", "tree needs at least one vertex"),
    ("2\n1 " + "9" * 19 + "\n", f"edge (1,{'9' * 19}) out of range 1..2"),
    ("2\n1 " + "9" * 40 + "\n", f"edge (1,{'9' * 40}) out of range 1..2"),
    ("1" + "0" * 30 + "\n", f"expected {10 ** 30 - 1} edge lines, got 0"),
])
def test_canonical_layout_errors_keep_their_messages(text, message):
    # laid out as format_tree writes, but not a tree; over-long tokens
    # take the per-line path and keep their exact value
    assert parsed(parse_tree, text) == parsed(old_parse_tree, text) == message
