import networkx as nx
import pytest

from gracetree.exact import (canonical_path_labelling,
                             canonical_star_labelling, exact_count,
                             exact_graceful)
from gracetree.trees import Tree, path_tree, star_tree
from gracetree.verify import (build_cyclic_packing, verify_graceful,
                              verify_packing)
from oracles import OldRng, prufer_decode


def from_networkx(g):
    relabeled = nx.relabel_nodes(g, {u: u + 1 for u in g.nodes})
    return Tree(g.number_of_nodes(), list(relabeled.edges))


def test_p4_frozen_witness():
    lab = exact_graceful(path_tree(4), 4)
    assert lab.psi == {1: 1, 2: 4, 3: 2, 4: 3}
    assert verify_graceful(lab).ok


def test_single_edge_counts():
    t = path_tree(2)
    assert exact_graceful(t, 2) is not None
    assert exact_count(t, 2) == 2
    assert exact_count(t, 3) == 6


def test_p3_count_frozen():
    assert exact_count(path_tree(3), 3) == 4


def test_all_small_trees_have_labellings():
    for n in range(2, 8):
        for g in nx.nonisomorphic_trees(n):
            t = from_networkx(g)
            lab = exact_graceful(t, n)
            assert lab is not None
            assert verify_graceful(lab).ok
            assert exact_count(t, n) > 0


def test_complement_symmetry_and_even_counts():
    rng = OldRng(31, key=(0,))
    for trial in range(10):
        n = 4 + rng.randbelow(4)
        code = [rng.randbelow(n) + 1 for _ in range(n - 2)]
        t = prufer_decode(code, n)
        for m in (n, n + 1):
            cnt = exact_count(t, m)
            assert cnt % 2 == 0
            lab = exact_graceful(t, m)
            flipped = {v: m + 1 - b for v, b in lab.psi.items()}
            from gracetree.verify import Labelling
            assert verify_graceful(Labelling(t, flipped, m)).ok


def test_count_monotone_in_m():
    rng = OldRng(37, key=(1,))
    for trial in range(6):
        n = 4 + rng.randbelow(3)
        code = [rng.randbelow(n) + 1 for _ in range(n - 2)]
        t = prufer_decode(code, n)
        counts = [exact_count(t, m) for m in range(n, n + 3)]
        assert counts == sorted(counts)


def test_cap_guards():
    with pytest.raises(ValueError, match="cap"):
        exact_graceful(path_tree(25), 25)
    with pytest.raises(ValueError, match="cap"):
        exact_count(path_tree(20), 26)
    with pytest.raises(ValueError, match="m >= n"):
        exact_graceful(path_tree(5), 4)
    assert exact_graceful(path_tree(10), 10, cap=10) is not None


def test_canonical_families():
    for n in range(2, 51):
        for lab in (canonical_path_labelling(n), canonical_star_labelling(n)):
            assert verify_graceful(lab).ok
            assert lab.m == n
    pack = verify_packing(build_cyclic_packing(canonical_star_labelling(8)))
    assert pack.ok and pack.decomposition


def test_exact_agrees_with_canonical_on_stars():
    # the search and the closed form count the same family as graceful
    for n in (4, 6):
        t = star_tree(n)
        assert exact_count(t, n) > 0
        assert verify_graceful(canonical_star_labelling(n)).ok
