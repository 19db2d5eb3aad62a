import pytest

from gracetree.trees import Tree, path_tree, star_tree
from gracetree.verify import (Labelling, Packing, build_cyclic_packing,
                              verify_bipartite_graceful, verify_graceful,
                              verify_harmonious, verify_packing)


def lab_of(t, labels, m):
    return Labelling(t, {v: labels[v - 1] for v in range(1, t.n + 1)}, m)


def zigzag_path_labelling(n):
    """Alternate low and high ends: differences n-1, n-2, ..., 1."""
    labels = []
    lo, hi = 1, n
    for i in range(n):
        if i % 2 == 0:
            labels.append(lo)
            lo += 1
        else:
            labels.append(hi)
            hi -= 1
    return lab_of(path_tree(n), labels, n)


def star_labelling(q):
    """Center q+1, leaves 1..q."""
    return lab_of(star_tree(q + 1), [q + 1] + list(range(1, q + 1)), q + 1)


def test_graceful_frozen_path3():
    assert verify_graceful(lab_of(path_tree(3), [1, 3, 2], 3)).ok
    rep = verify_graceful(lab_of(path_tree(3), [1, 2, 3], 3))
    assert not rep.ok
    assert rep.reason == "edge-label collision"
    assert rep.witness[2] == 1


def test_graceful_frozen_star():
    assert verify_graceful(lab_of(star_tree(4), [4, 1, 2, 3], 4)).ok


def test_graceful_vertex_collision_witness():
    rep = verify_graceful(lab_of(path_tree(3), [1, 1, 2], 3))
    assert not rep.ok and rep.reason == "vertex-label collision"
    assert rep.witness == (1, 2, 1)


def test_labelling_construction_guards():
    with pytest.raises(ValueError, match="not total"):
        Labelling(path_tree(3), {1: 1, 2: 2}, 3)
    with pytest.raises(ValueError, match="outside"):
        lab_of(path_tree(3), [1, 2, 4], 3)
    with pytest.raises(ValueError, match="positive"):
        lab_of(path_tree(2), [1, 2], 0)


def test_bipartite_graceful_frozen():
    lab = lab_of(path_tree(3), [1, 3, 2], 3)
    assert verify_bipartite_graceful(lab, {1: 0, 2: 1, 3: 0}).ok
    swapped = verify_bipartite_graceful(lab, {1: 1, 2: 0, 3: 1})
    assert not swapped.ok and swapped.reason == "class separation"
    broken = verify_bipartite_graceful(lab_of(path_tree(3), [1, 2, 3], 3),
                                       {1: 0, 2: 1, 3: 0})
    assert not broken.ok and broken.reason == "edge-label collision"


def test_bipartite_coloring_must_be_proper():
    lab = lab_of(path_tree(3), [1, 3, 2], 3)
    with pytest.raises(ValueError, match="monochromatic"):
        verify_bipartite_graceful(lab, {1: 0, 2: 0, 3: 1})
    with pytest.raises(ValueError, match="not colored"):
        verify_bipartite_graceful(lab, {1: 0, 2: 1})


def test_harmonious_frozen():
    assert not verify_harmonious(lab_of(path_tree(3), [1, 2, 3], 3), 2).ok
    assert verify_harmonious(lab_of(path_tree(3), [1, 2, 4], 4), 2).ok
    assert verify_harmonious(lab_of(path_tree(2), [2, 1], 2), 1).ok
    with pytest.raises(ValueError, match="positive"):
        verify_harmonious(lab_of(path_tree(2), [1, 2], 2), 0)


def test_packing_single_edge_decomposes_k3():
    pack = build_cyclic_packing(lab_of(path_tree(2), [1, 2], 2))
    assert pack.host_order == 3
    assert pack.copies == (frozenset({(1, 2)}), frozenset({(0, 2)}),
                           frozenset({(0, 1)}))
    rep = verify_packing(pack)
    assert rep.ok and rep.decomposition and rep.total_edges == 3


def test_packing_star_decomposes_k7():
    pack = build_cyclic_packing(star_labelling(3))
    rep = verify_packing(pack)
    assert rep.ok and rep.decomposition
    assert rep.total_edges == 21 == pack.host_order * (pack.host_order - 1) // 2


def test_packing_with_slack_is_not_a_decomposition():
    # m exceeds the edge count plus one, so shifts leave host edges free
    lab = lab_of(path_tree(3), [1, 4, 2], 4)
    rep = verify_packing(build_cyclic_packing(lab))
    assert rep.ok and not rep.decomposition
    assert rep.total_edges == 2 * 7


def test_packing_reuse_detected():
    copy = frozenset({(0, 1), (1, 2)})
    rep = verify_packing(Packing(5, (copy, copy)))
    assert not rep.ok and rep.reason == "edge reused"
    assert rep.witness[0] in copy


def test_packing_rejects_bad_host_vertices():
    rep = verify_packing(Packing(3, (frozenset({(0, 3)}),)))
    assert not rep.ok and rep.reason == "bad host edge"


def test_build_packing_requires_graceful():
    with pytest.raises(ValueError, match="not graceful"):
        build_cyclic_packing(lab_of(path_tree(3), [1, 2, 3], 3))


def test_canonical_families_end_to_end():
    for n in range(2, 13):
        lab = zigzag_path_labelling(n)
        assert verify_graceful(lab).ok
        rep = verify_packing(build_cyclic_packing(lab))
        assert rep.ok and rep.decomposition
    for q in range(1, 11):
        lab = star_labelling(q)
        assert verify_graceful(lab).ok
        rep = verify_packing(build_cyclic_packing(lab))
        assert rep.ok and rep.decomposition


def test_zigzag_is_bipartite_graceful():
    # odd positions take the low block, even positions the high block
    for n in range(2, 13):
        lab = zigzag_path_labelling(n)
        coloring = {v: (v - 1) % 2 for v in range(1, n + 1)}
        assert verify_bipartite_graceful(lab, coloring).ok



def test_non_integer_labels_are_compared_exactly():
    # differences 1.5 and 1.5 repeat; truncated to ints they would not
    lab = Labelling(star_tree(3), {1: 3, 2: 1.5, 3: 4.5}, 5)
    assert verify_graceful(lab).reason == "edge-label collision"
