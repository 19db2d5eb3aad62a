"""Labelling verifiers and cyclic packings of complete graphs.

A labelling maps the n vertices of a tree injectively into [1, m]; it
is graceful when the induced edge differences are pairwise distinct,
bipartite-graceful when additionally one color class sits entirely
below the other, and harmonious (with modulus q) when the edge sums
mod q are pairwise distinct.  A graceful labelling embeds the tree
into the complete graph on residues {0..2m-2}, and its 2m-1 cyclic
shifts are pairwise edge-disjoint; they cover every host edge exactly
once iff m equals the edge count plus one.

Every Labelling holds its labels in a LabelArray: one read-only int64
array indexed by vertex, which every check reads.  The label loop's
array is kept as it is; any other Mapping of vertices to labels (an
exact search's result, a caller's dict) is read once at vertices 1..n
into a new array, so a labelling that passed a check cannot change.
Labels are integers in 1..min(m, 2^63 - 1), the most one int64 holds.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .trees import Tree

# largest host edge count h(h-1)/2 a packing may have, so m <= 2236:
# verify_packing keeps one byte per host edge, and the copies hold at most
# that many edges in all.  `gracetree pack` takes about 0.5 KB and 11 us
# per copy edge (copies, flags and the JSON output), so a labelling at
# the bound with m = 1.25 n packs 8 * 10^6 copy edges in several GB.
_MAX_HOST_EDGES = 10 ** 7

# the numpy graceful check keeps one count per value up to the largest
# label, so it runs only while labels stay below _DENSE * (n + 1): no
# more memory than the walk's dicts take
_DENSE = 8


# offending vertices a construction error names; it always gives their count
_SHOWN = 5


class LabelArray(Mapping):
    """Labels by vertex, read-only: a Mapping of 1..n onto the int64
    array a (a[v] is the label of v, a[0] = 0), and the one form in
    which a Labelling holds its labels.

    psi[v] is a Python int for v in 1..n and any other key raises
    KeyError, as with the dict of the same labels.  The constructor
    takes a over and makes it read-only, so a check that passes on the
    array holds for as long as the labelling is kept.
    """

    __slots__ = ("array",)

    def __init__(self, a: np.ndarray):
        if a.dtype != np.int64 or a.ndim != 1 or not len(a) or a[0] != 0:
            raise ValueError("need a 1-d int64 label array with a[0] = 0")
        a.flags.writeable = False
        self.array = a

    def __getitem__(self, v) -> int:
        if isinstance(v, (int, np.integer)) and 1 <= v < len(self.array):
            return int(self.array[v])
        raise KeyError(v)

    def __len__(self) -> int:
        return len(self.array) - 1

    def __iter__(self):
        return iter(range(1, len(self.array)))


def _top(m: int) -> int:
    """The largest label that bound m admits: m, capped at 2^63 - 1 so
    that one int64 array holds every label; m < 1 raises ValueError."""
    if m < 1:
        raise ValueError(f"label bound m = {m} must be positive")
    return min(m, 2 ** 63 - 1)


def _outside(labels: list, top: int) -> ValueError:
    """The range error for labels (labels[v - 1] the label of v)."""
    bad = [v for v, b in enumerate(labels, 1) if not 1 <= b <= top]
    shown = {v: labels[v - 1] for v in bad[:_SHOWN]}
    return ValueError(f"labels outside 1..{top} at {len(bad)} vertices, "
                      f"first {shown}")


def label_array(labels: list, m: int) -> LabelArray:
    """A new LabelArray with labels[v - 1] at vertex v, where labels are
    Python ints.  A label that int64 cannot hold is outside the range
    of any bound m, so it raises the range error that Labelling(_, _, m)
    would (or the error for m < 1)."""
    a = np.zeros(len(labels) + 1, np.int64)
    try:
        a[1:] = labels
    except OverflowError:
        raise _outside(labels, _top(m)) from None
    return LabelArray(a)


def _read_labels(psi: Mapping, n: int) -> list:
    """psi's labels at vertices 1..n as Python ints; a missing vertex or
    a label that is not an integer (operator.index refuses it) raises
    ValueError."""
    missing = [v for v in range(1, n + 1) if v not in psi]
    if missing:
        raise ValueError(f"psi is not total: {len(missing)} vertices "
                         f"missing, first {missing[:_SHOWN]}")
    labels, bad = [], []
    for v in range(1, n + 1):
        try:
            labels.append(operator.index(psi[v]))
        except TypeError:
            bad.append(v)
    if bad:
        raise ValueError(f"labels are not integers at {len(bad)} vertices, "
                         f"first {bad[:_SHOWN]}")
    return labels


@dataclass(frozen=True)
class Labelling:
    """An injection candidate psi: V(tree) -> [1, m].

    psi is always a LabelArray over 1..n.  One given as such is kept
    with no copy; any other Mapping is read once at 1..n into a new
    one (keys outside 1..n are ignored, bool labels read as 0 or 1).
    Totality, integer labels and the range 1..min(m, 2^63 - 1) are
    construction invariants; injectivity and the graceful condition are
    what the verifiers report on.  A failed check names how many
    vertices fail it, and the first _SHOWN of them.
    """

    tree: Tree
    psi: LabelArray
    m: int

    def __post_init__(self):
        top = _top(self.m)
        n = self.tree.n
        if type(self.psi) is not LabelArray or len(self.psi) != n:
            object.__setattr__(
                self, "psi", label_array(_read_labels(self.psi, n), self.m))
        labels = self.psi.array[1:]
        if labels.min() < 1 or labels.max() > top:
            raise _outside(labels.tolist(), top)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    reason: str = ""
    witness: Tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def _injectivity_failure(psi: list) -> Optional[VerifyReport]:
    """The first repeated label of psi[1:] (psi[v] the label of v)."""
    seen = {}
    for v in range(1, len(psi)):
        b = psi[v]
        if b in seen:
            return VerifyReport(False, "vertex-label collision",
                                (seen[b], v, b))
        seen[b] = v
    return None


def _graceful_in_numpy(lab: Labelling) -> bool:
    """True when counts over the label array and the flat edge array
    show psi injective with distinct edge differences; False when a
    label exceeds _DENSE * (n + 1) or a count repeats."""
    n = lab.tree.n
    a = lab.psi.array
    if a[1:].max() > _DENSE * (n + 1):
        return False
    if np.bincount(a[1:]).max() > 1:
        return False
    if n == 1:
        return True
    ends = np.asarray(lab.tree.edges.ends)
    diffs = np.abs(a[ends[0::2]] - a[ends[1::2]])
    return bool(np.bincount(diffs).max() <= 1)


def verify_graceful(lab: Labelling) -> VerifyReport:
    """Pass iff psi is injective and edge differences never repeat.

    A labelling that _graceful_in_numpy passes is graceful; every other
    one is walked vertex by vertex and edge by edge over the labels as
    Python ints, which finds the first collision and its witness.
    """
    if _graceful_in_numpy(lab):
        return VerifyReport(True, "graceful")
    psi = lab.psi.array.tolist()
    clash = _injectivity_failure(psi)
    if clash is not None:
        return clash
    seen = {}
    for e in lab.tree.edges:
        d = abs(psi[e[0]] - psi[e[1]])
        if d in seen:
            return VerifyReport(False, "edge-label collision", (seen[d], e, d))
        seen[d] = e
    return VerifyReport(True, "graceful")


def verify_bipartite_graceful(lab: Labelling,
                              coloring: Mapping[int, int]) -> VerifyReport:
    """Pass iff graceful and class-0 labels all sit below class-1 labels.

    coloring maps every vertex to 0 or 1 and must be proper.
    """
    for v in range(1, lab.tree.n + 1):
        if coloring.get(v) not in (0, 1):
            raise ValueError(f"vertex {v} not colored 0/1")
    for u, v in lab.tree.edges:
        if coloring[u] == coloring[v]:
            raise ValueError(f"edge {(u, v)} is monochromatic")
    base = verify_graceful(lab)
    if not base.ok:
        return base
    low = [(lab.psi[v], v) for v in coloring if coloring[v] == 0]
    high = [(lab.psi[v], v) for v in coloring if coloring[v] == 1]
    if low and high and max(low) >= min(high):
        return VerifyReport(False, "class separation",
                            (max(low)[1], min(high)[1]))
    return VerifyReport(True, "bipartite graceful")


def verify_harmonious(lab: Labelling, q: int) -> VerifyReport:
    """Pass iff psi is injective and edge sums mod q never repeat."""
    if q < 1:
        raise ValueError(f"modulus q = {q} must be positive")
    psi = lab.psi.array.tolist()
    clash = _injectivity_failure(psi)
    if clash is not None:
        return clash
    seen = {}
    for u, v in lab.tree.edges:
        s = (psi[u] + psi[v]) % q
        if s in seen:
            return VerifyReport(False, "edge-sum collision",
                                (seen[s], (u, v), s))
        seen[s] = (u, v)
    return VerifyReport(True, "harmonious")


@dataclass(frozen=True)
class Packing:
    """Edge sets of tree copies inside the complete graph on
    {0..host_order-1}."""

    host_order: int
    copies: Tuple[frozenset, ...]


def _check_host_order(h: int) -> None:
    edges = h * (h - 1) // 2
    if edges > _MAX_HOST_EDGES:
        raise ValueError(f"packing host K_{h} has {edges} edges, more "
                         f"than the {_MAX_HOST_EDGES} allowed")


def build_cyclic_packing(lab: Labelling) -> Packing:
    """All cyclic shifts of the label embedding, one copy per residue.

    Labels 1..m are taken as host vertices directly; copy s translates
    every endpoint by s mod (2m-1).  Requires a graceful labelling:
    shifts of a non-graceful embedding would collide.  A host with more
    than _MAX_HOST_EDGES edges is refused before anything is built.
    """
    h = 2 * lab.m - 1
    _check_host_order(h)
    rep = verify_graceful(lab)
    if not rep.ok:
        raise ValueError(f"labelling is not graceful: {rep.reason} "
                         f"{rep.witness}")
    copies = []
    for s in range(h):
        shifted = frozenset(
            tuple(sorted(((lab.psi[u] + s) % h, (lab.psi[v] + s) % h)))
            for u, v in lab.tree.edges)
        copies.append(shifted)
    return Packing(host_order=h, copies=tuple(copies))


@dataclass(frozen=True)
class PackingReport:
    ok: bool
    decomposition: bool
    total_edges: int
    reason: str = ""
    witness: Tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def verify_packing(p: Packing) -> PackingReport:
    """Pass iff copies are pairwise edge-disjoint; flag decomposition
    when they cover the complete host exactly; a host with more than
    _MAX_HOST_EDGES edges raises ValueError."""
    h = p.host_order
    _check_host_order(h)
    occupied = bytearray(h * (h - 1) // 2)  # one flag per host edge
    total = 0
    for k, copy in enumerate(p.copies):
        for u, v in copy:
            if not (0 <= u < v <= h - 1):
                return PackingReport(False, False, total, "bad host edge",
                                     ((u, v), k))
            idx = u * h - u * (u + 1) // 2 + (v - u - 1)
            if occupied[idx]:
                return PackingReport(False, False, total, "edge reused",
                                     ((u, v), k))
            occupied[idx] = 1
            total += 1
    return PackingReport(True, total == h * (h - 1) // 2, total,
                         "edge-disjoint")
