import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gracetree.exact import exact_graceful
from gracetree.rng import Rng
from gracetree.trees import Tree, path_tree, random_tree, star_tree
from gracetree.verify import (LabelArray, Labelling, Packing, VerifyReport,
                              _graceful_in_numpy, build_cyclic_packing,
                              verify_bipartite_graceful, verify_graceful,
                              verify_harmonious, verify_packing)
from oracles import old_labelling_check, old_verify_graceful


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


def test_construction_errors_count_the_offenders():
    # 1999 of 2000 vertices missing, or out of range: each message names
    # the count and the first five vertices, not every offender
    tree = path_tree(2000)
    with pytest.raises(ValueError) as exc:
        Labelling(tree, {1: 1}, 5)
    msg = str(exc.value)
    assert len(msg) < 1024
    assert msg == ("psi is not total: 1999 vertices missing, "
                   "first [2, 3, 4, 5, 6]")
    a = np.arange(2001, dtype=np.int64)
    for psi in ({v: v for v in range(1, 2001)}, LabelArray(a)):
        with pytest.raises(ValueError) as exc:
            Labelling(tree, psi, 1)
        assert str(exc.value) == ("labels outside 1..1 at 1999 vertices, "
                                  "first {2: 2, 3: 3, 4: 4, 5: 5, 6: 6}")
    with pytest.raises(ValueError) as exc:
        Labelling(tree, {v: float(v) for v in range(1, 2001)}, 1)
    assert str(exc.value) == ("labels are not integers at 2000 vertices, "
                              "first [1, 2, 3, 4, 5]")


def _arrayed(lab):
    """lab with its labels in a LabelArray."""
    a = np.zeros(lab.tree.n + 1, np.int64)
    for v in range(1, lab.tree.n + 1):
        a[v] = lab.psi[v]
    return Labelling(lab.tree, LabelArray(a), lab.m)


def test_label_array_is_a_read_only_dict_of_its_labels():
    lab = _arrayed(zigzag_path_labelling(9))
    psi = lab.psi
    with pytest.raises(ValueError):
        psi.array[1] = 3
    assert Labelling(lab.tree, psi, lab.m).psi is psi  # kept, no copy
    assert len(psi) == 9 and list(psi) == list(range(1, 10))
    for v in range(1, 10):
        assert type(psi[v]) is int and psi[v] == psi.array[v]
    for key in (0, 10, -1, "1"):
        with pytest.raises(KeyError):
            psi[key]
        assert key not in psi
    assert psi == dict(psi) == {v: psi[v] for v in range(1, 10)}
    with pytest.raises(ValueError):
        LabelArray(np.ones(4, np.int64))  # a[0] must be 0
    with pytest.raises(ValueError):
        LabelArray(np.zeros(4, np.int32))


@pytest.mark.parametrize("lab, reason", [
    (zigzag_path_labelling(40), "graceful"),
    (lab_of(path_tree(5), [1, 5, 2, 5, 3], 5), "vertex-label collision"),
    (lab_of(path_tree(4), [1, 2, 3, 4], 4), "edge-label collision"),
], ids=["graceful", "label-repeat", "difference-repeat"])
def test_array_labelling_verifies_like_its_dict(lab, reason):
    arr = _arrayed(lab)
    assert type(lab.psi) is LabelArray and lab.psi == arr.psi
    want = verify_graceful(lab)
    assert want.reason == reason
    assert verify_graceful(arr) == want  # verdict, reason and witness
    for q in (2, 3, 2 * lab.tree.n):
        assert verify_harmonious(arr, q) == verify_harmonious(lab, q)
    colour = {v: v % 2 for v in range(1, lab.tree.n + 1)}
    assert (verify_bipartite_graceful(arr, colour)
            == verify_bipartite_graceful(lab, colour))


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



@pytest.mark.parametrize("odd", [1.5, 2.0, np.float64(2), Fraction(2), "2"],
                         ids=["half", "float", "numpy", "fraction", "str"])
def test_non_integer_labels_are_refused(odd):
    # an equal float is refused too: labels are read with operator.index
    with pytest.raises(ValueError) as exc:
        Labelling(star_tree(3), {1: 3, 2: odd, 3: odd}, 5)
    assert str(exc.value) == ("labels are not integers at 2 vertices, "
                              "first [2, 3]")


def test_numpy_and_bool_labels_read_as_python_ints():
    lab = Labelling(path_tree(3), {1: np.int64(1), 2: np.uint64(3),
                                   3: True}, 2**71)
    assert [type(b) for b in lab.psi.values()] == [int, int, int]
    assert dict(lab.psi) == {1: 1, 2: 3, 3: 1}
    assert verify_graceful(lab) == VerifyReport(
        False, "vertex-label collision", (1, 3, 1))


def test_labels_beyond_int64_are_refused():
    # m may be any positive int, but one int64 array holds the labels
    top = 2**63 - 1
    for m, label in [(2**71, 2**70), (2**71, 2**63), (top, -(2**70))]:
        with pytest.raises(ValueError) as exc:
            Labelling(path_tree(3), {1: 1, 2: label, 3: 2}, m)
        assert str(exc.value) == (f"labels outside 1..{top} at 1 vertices, "
                                  f"first {{2: {label}}}")
    with pytest.raises(ValueError) as exc:
        Labelling(path_tree(3), {1: 1, 2: 2**70, 3: 2}, 100)
    assert str(exc.value) == ("labels outside 1..100 at 1 vertices, "
                              f"first {{2: {2**70}}}")
    lab = Labelling(path_tree(3), {1: 1, 2: top, 3: 2}, 2**71)
    assert verify_graceful(lab) == VerifyReport(True, "graceful")


@pytest.mark.parametrize("label", [0, -5, 3])
def test_a_checked_labelling_ignores_its_source_dict(label):
    # out of range (0, -5) or a repeated label (3): the caller's dict
    # changes after construction, the labelling does not
    psi = {1: 1, 2: 3, 3: 2}
    lab = Labelling(path_tree(3), psi, 3)
    psi[1] = label
    assert dict(lab.psi) == {1: 1, 2: 3, 3: 2}
    assert verify_graceful(lab) == VerifyReport(True, "graceful")
    pack = build_cyclic_packing(lab)
    assert pack == build_cyclic_packing(lab_of(path_tree(3), [1, 3, 2], 3))
    assert verify_packing(pack).decomposition


def _permuted(shape, n, rnd):
    """A graceful (tree, psi, m) of the given shape, vertex ids shuffled:
    a zigzag-labelled path or a star with its center at label n."""
    ids = list(range(1, n + 1))
    rnd.shuffle(ids)
    if shape == "path" or n < 2:
        lab = zigzag_path_labelling(n)
    else:
        lab = star_labelling(n - 1)
    edges = [(ids[u - 1], ids[v - 1]) for u, v in lab.tree.edges]
    psi = {ids[v - 1]: b for v, b in lab.psi.items()}
    return Tree(n, edges), psi, n


@st.composite
def _labelling_case(draw):
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    source = draw(st.sampled_from(["path", "star", "exact", "random"]))
    if source in ("path", "star"):
        tree, psi, m = _permuted(source, n, rnd)
    else:
        tree = random_tree(min(max(n, 2), 8), Rng(rnd.randrange(2**32)))
        n = tree.n
        m = n + rnd.randrange(3)
        lab = exact_graceful(tree, m) if source == "exact" else None
        psi = (dict(lab.psi) if lab is not None
               else {v: rnd.randint(1, m) for v in range(1, n + 1)})
    v = rnd.randint(1, n)
    u = rnd.randint(1, n)
    fault = draw(st.sampled_from([
        "none", "vertex-collision", "relabel", "swap", "scale", "low",
        "high", "huge", "missing", "extra", "moved-key", "float", "half",
        "bool", "numpy-label", "bool-key", "numpy-key", "m",
        "mutate-after"]))
    after = None
    if fault == "vertex-collision":
        psi[v] = psi[u]
    elif fault == "relabel":  # may repeat a label or a difference
        psi[v] = rnd.randint(1, m)
    elif fault == "swap":
        psi[u], psi[v] = psi[v], psi[u]
    elif fault == "scale":  # still graceful, labels past the dense span
        k = rnd.choice([2, 9, 10 ** 3])
        psi = {w: k * b for w, b in psi.items()}
        m *= k
    elif fault == "low":
        psi[v] = rnd.choice([0, -1, -(2**70)])
    elif fault == "high":
        psi[v] = m + rnd.randint(1, 3)
    elif fault == "huge":
        psi[v] = 2**70
        m = rnd.choice([m, 2**71])
    elif fault == "missing":
        del psi[v]
    elif fault == "extra":
        psi[rnd.choice([0, n + 1, -5])] = rnd.randint(1, m)
    elif fault == "moved-key":  # n keys, not 1..n
        psi[rnd.choice([0, n + 1, -5])] = psi.pop(v)
    elif fault == "float":  # equal to an int, refused all the same
        psi[v] = float(psi[v])
    elif fault == "half":
        psi[v] = psi[v] + 0.5
    elif fault == "bool":
        psi[v] = True
    elif fault == "numpy-label":
        psi[v] = np.int64(psi[v])
    elif fault == "bool-key":
        b = psi.pop(1)
        psi[True] = b
    elif fault == "numpy-key":
        b = psi.pop(v)
        psi[np.int64(v)] = b
    elif fault == "m":
        m = rnd.choice([0, -2, max(psi.values()) - 1, max(psi.values())])
    elif fault == "mutate-after":
        after = (v, rnd.choice([0, -3, psi[u], m + 1, 2**70, 1.5]))
    # an equal label of another type: read as an int, or refused
    cast = draw(st.sampled_from([None, None, None, np.int64, float]))
    w = rnd.randint(1, n)
    if cast is not None and type(psi.get(w)) is int and abs(psi[w]) < 2**62:
        psi[w] = cast(psi[w])
    return tree, psi, m, after


def _outcome(verify, lab):
    try:
        rep = verify(lab)
    except Exception as exc:  # the walk's own errors must match too
        return type(exc), str(exc)
    return rep.ok, rep.reason, rep.witness


@settings(max_examples=600, deadline=None)
@given(_labelling_case())
def test_verification_matches_the_exact_walk(case):
    tree, psi, m, after = case
    want_error = old_labelling_check(tree, psi, m)
    try:
        lab = Labelling(tree, psi, m)
    except ValueError as exc:
        assert str(exc) == want_error
        return
    assert want_error is None
    # the verdict of the labels at construction, whatever psi becomes
    want = _outcome(old_verify_graceful, SimpleNamespace(tree=tree, psi=psi))
    if after is not None:
        psi[after[0]] = after[1]
    assert _outcome(verify_graceful, lab) == want


def test_graceful_labellings_take_the_numpy_path():
    rnd = random.Random(3)
    for shape, n in [("path", 1), ("path", 2), ("path", 500), ("star", 300)]:
        tree, psi, m = _permuted(shape, n, rnd)
        lab = Labelling(tree, psi, m)
        assert _graceful_in_numpy(lab)
        assert verify_graceful(lab) == VerifyReport(True, "graceful")
    lab = Labelling(tree, {**psi, 1: np.int64(psi[1])}, m)  # read as ints
    assert _graceful_in_numpy(lab) and verify_graceful(lab).ok
