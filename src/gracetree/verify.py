"""Labelling verifiers and cyclic packings of complete graphs.

A labelling maps the n vertices of a tree injectively into [1, m]; it
is graceful when the induced edge differences are pairwise distinct,
bipartite-graceful when additionally one color class sits entirely
below the other, and harmonious (with modulus q) when the edge sums
mod q are pairwise distinct.  A graceful labelling embeds the tree
into the complete graph on residues {0..2m-2}, and its 2m-1 cyclic
shifts are pairwise edge-disjoint; they cover every host edge exactly
once iff m equals the edge count plus one.

A labelling the pipeline makes holds its labels in a LabelArray: one
read-only int64 array indexed by vertex, which the numpy checks read
as it is.  Any other Mapping of vertices to labels (a dict read from
JSON, an exact search's result) is scanned into such an array first,
or walked in Python when it is not plain.
"""

from __future__ import annotations

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
    array a (a[v] is the label of v, a[0] = 0).

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


def _label_array(psi: Mapping[int, int], n: int) -> Optional[np.ndarray]:
    """psi as an int64 array a with a[v] = psi[v] and a[0] = 0, or None
    unless psi's keys are exactly the plain ints 1..n and its labels are
    plain ints (not bool, float or numpy ints) that fit in int64.

    A LabelArray over 1..n gives its own read-only array, with no scan
    and no copy.  n plain-int keys that all lie in 1..n are 1..n, since
    dict keys are distinct.
    """
    if len(psi) != n:
        return None
    if type(psi) is LabelArray:
        return psi.array
    if set(map(type, psi)) | set(map(type, psi.values())) != {int}:
        return None
    try:
        keys = np.fromiter(psi.keys(), np.int64, n)
        vals = np.fromiter(psi.values(), np.int64, n)
    except OverflowError:
        return None
    if keys.min() < 1 or keys.max() > n:
        return None
    a = np.zeros(n + 1, np.int64)
    a[keys] = vals
    return a


@dataclass(frozen=True)
class Labelling:
    """An injection candidate psi: V(tree) -> [1, m].

    Totality and range are construction invariants; injectivity and
    the graceful condition are what the verifiers report on.  A
    LabelArray over 1..n, or a psi whose keys are the plain ints 1..n
    and whose labels are plain ints, is checked in numpy; any other psi
    is walked in Python.  A failed check names how many vertices are
    missing or out of range, and the first _SHOWN of them.
    """

    tree: Tree
    psi: Mapping[int, int]
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"label bound m = {self.m} must be positive")
        n, m = self.tree.n, self.m
        a = _label_array(self.psi, n)
        if a is not None:
            labels = a[1:]
            if 1 <= labels.min() and int(labels.max()) <= m:
                return
            bad = (np.flatnonzero((labels < 1) | (labels > m)) + 1).tolist()
        else:
            missing = [v for v in range(1, n + 1) if v not in self.psi]
            if missing:
                raise ValueError(f"psi is not total: {len(missing)} "
                                 f"vertices missing, first "
                                 f"{missing[:_SHOWN]}")
            bad = [v for v in range(1, n + 1) if not 1 <= self.psi[v] <= m]
            if not bad:
                return
        shown = {v: self.psi[v] for v in bad[:_SHOWN]}
        raise ValueError(f"labels outside 1..{m} at {len(bad)} vertices, "
                         f"first {shown}")

    def edge_difference(self, u: int, v: int) -> int:
        return abs(_plain(self.psi[u]) - _plain(self.psi[v]))


def _plain(b):
    """b as a Python int when it is a numpy int, so that differences of
    numpy and huge Python labels cannot overflow int64."""
    return int(b) if isinstance(b, np.integer) else b


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    reason: str = ""
    witness: Tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def _injectivity_failure(lab: Labelling) -> Optional[VerifyReport]:
    seen = {}
    for v in range(1, lab.tree.n + 1):
        b = lab.psi[v]
        if b in seen:
            return VerifyReport(False, "vertex-label collision",
                                (seen[b], v, b))
        seen[b] = v
    return None


def _graceful_in_numpy(lab: Labelling) -> bool:
    """True when counts over the label array and the flat edge array
    show psi injective with distinct edge differences; False when psi
    is not plain (see _label_array), its labels leave 1.._DENSE * (n + 1),
    or a count repeats."""
    n = lab.tree.n
    a = _label_array(lab.psi, n)
    if a is None:
        return False
    labels = a[1:]
    if labels.min() < 1 or labels.max() > _DENSE * (n + 1):
        return False
    if np.bincount(labels).max() > 1:
        return False
    if n == 1:
        return True
    ends = np.asarray(lab.tree.edges.ends)
    diffs = np.abs(a[ends[0::2]] - a[ends[1::2]])
    return bool(np.bincount(diffs).max() <= 1)


def verify_graceful(lab: Labelling) -> VerifyReport:
    """Pass iff psi is injective and edge differences never repeat.

    A labelling that _graceful_in_numpy passes is graceful; every other
    one is walked vertex by vertex and edge by edge, which finds the
    first collision and its witness.
    """
    if _graceful_in_numpy(lab):
        return VerifyReport(True, "graceful")
    clash = _injectivity_failure(lab)
    if clash is not None:
        return clash
    seen = {}
    for e in lab.tree.edges:
        d = lab.edge_difference(*e)
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
    clash = _injectivity_failure(lab)
    if clash is not None:
        return clash
    seen = {}
    for u, v in lab.tree.edges:
        s = (lab.psi[u] + lab.psi[v]) % q
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
