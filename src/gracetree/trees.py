"""Labelled trees on vertices 1..n, kept in flat int arrays along with
their BFS from vertex 1.

Uniform random generation, path/star/broom/caterpillar/spider
constructors, degree statistics, and a strict text format (first
line n, then n-1 lines "u v").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .rng import Rng, chunks


def _fault(n: int, us, vs) -> str:
    """The first check the edge list fails, in the order the checks are
    stated: per edge in input order range, self-loop and parallel edge,
    then the edge count, then connectivity.  Run only once a check on
    the arrays or the BFS has failed."""
    if isinstance(us, np.ndarray):  # name Python ints, not numpy ones
        us, vs = us.tolist(), vs.tolist()
    seen = set()
    for u, v in zip(us, vs):
        if not (1 <= u <= n and 1 <= v <= n):
            return f"edge ({u},{v}) out of range 1..{n}"
        if u == v:
            return f"self-loop at {u}"
        e = (u, v) if u < v else (v, u)
        if e in seen:
            return f"parallel edge {e}"
        seen.add(e)
    if len(us) != n - 1:
        return f"tree on {n} vertices needs {n-1} edges, got {len(us)}"
    return "edge set is not connected"


def _frozen(a: np.ndarray) -> memoryview:
    """A read-only int view of a copy of a."""
    return memoryview(a.tobytes()).cast("i")


class Edges:
    """A tree's edges as (min, max) pairs in input order, read from one
    flat read-only int buffer lo0, hi0, lo1, hi1, ..."""

    __slots__ = ("ends",)

    def __init__(self, ends: memoryview):
        object.__setattr__(self, "ends", ends)

    def __setattr__(self, *a):
        raise AttributeError("Edges is immutable")

    def __len__(self) -> int:
        return len(self.ends) // 2

    def __iter__(self):
        it = iter(self.ends)
        return zip(it, it)

    def __repr__(self) -> str:
        return repr(list(self))


class Tree:
    """Unrooted tree on 1..n. Validates shape on construction, then immutable.

    Storage is three read-only int memoryviews (over bytes, so nothing
    can write them), 8 bytes per vertex and 8 per edge, and no
    per-vertex Python objects:

    - edges.ends: the edges as (min, max) pairs in input order.
    - bfs, parent: the BFS of the tree from vertex 1 that visits
      neighbours in increasing id.  bfs[k] is the vertex of rank k, and
      parent[k] < k the rank of its BFS parent, with parent[0] = -1.
      parent is nondecreasing, so the children of rank k are contiguous
      ranks, in increasing id.  Neither depends on the order of the
      edges.  The cut, the ordering, the exact search and the parity
      colouring all read this one search.

    Construction is one sort of the edge ends in numpy on the keys
    end * (n + 1) + other, which orders them by vertex and each row by
    id (O(n log n) in C), a cumulative count for the row offsets, and
    one BFS from vertex 1 (scipy's breadth_first_order, O(n) in C, which
    reads this CSR adjacency as it is).  Each temporary is dropped as
    soon as it has been read (the sort keys once they give the
    neighbour ids, the CSR once the BFS has read it: no reader of a
    tree needs it).
    The checks are ids in 1..n and n - 1 edges on the arrays, then that
    the BFS reaches all n vertices.  n - 1 edges that connect 1..n have
    no self-loop and no parallel edge; when a check fails, the edge
    list is walked in order to name the first fault.
    """

    __slots__ = ("n", "edges", "bfs", "parent")

    def __init__(self, n: int, edges):
        us, vs = [], []
        for u, v in edges:
            us.append(u)
            vs.append(v)
        self._build(n, us, vs)

    @classmethod
    def _of(cls, n: int, us, vs) -> "Tree":
        """Tree with edges (us[i], vs[i]) in that order; us and vs are
        int sequences."""
        t = cls.__new__(cls)
        t._build(n, us, vs)
        return t

    def _build(self, n: int, us, vs) -> None:
        if n < 1:
            raise ValueError("tree needs at least one vertex")
        a = np.asarray(us)
        b = np.asarray(vs)
        m = len(a)
        if m != n - 1 or (m and (a.min() < 1 or a.max() > n
                                 or b.min() < 1 or b.max() > n)):
            raise ValueError(_fault(n, us, vs))
        if m and (a.dtype.kind not in "iu" or b.dtype.kind not in "iu"):
            raise TypeError("vertex ids must be integers")
        ends = np.empty(2 * m, np.intc)
        np.minimum(a, b, out=ends[0::2], casting="unsafe")
        np.maximum(a, b, out=ends[1::2], casting="unsafe")
        key = ends.astype(np.int64)
        key *= n + 1
        key[0::2] += ends[1::2]
        key[1::2] += ends[0::2]
        key.sort()
        key %= n + 1
        nbr = key.astype(np.intc)
        del key
        off = np.zeros(n + 2, np.intc)
        np.cumsum(np.bincount(ends, minlength=n + 1), out=off[1:])
        # vertex 0 is an isolated row of its own; rows in increasing id
        # and float64 data are what the BFS reads, so it neither sorts
        # nor casts a copy
        graph = csr_matrix((np.ones(2 * m), nbr, off), shape=(n + 1, n + 1))
        del nbr, off
        bfs, pred = breadth_first_order(graph, 1, directed=True,
                                        return_predecessors=True)
        del graph
        if len(bfs) != n:
            raise ValueError(_fault(n, us, vs))
        rank = np.empty(n + 1, np.intc)
        rank[bfs] = np.arange(n)
        parent = np.empty(n, np.intc)
        parent[0] = -1
        parent[1:] = rank[pred[bfs[1:]]]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", Edges(_frozen(ends)))
        object.__setattr__(self, "bfs", _frozen(bfs))
        object.__setattr__(self, "parent", _frozen(parent))

    def __setattr__(self, *a):
        raise AttributeError("Tree is immutable")

    def degrees(self) -> np.ndarray:
        """Degrees of 1..n as a numpy array (entry v - 1 is vertex v)."""
        return np.bincount(np.frombuffer(self.edges.ends, np.intc),
                           minlength=self.n + 1)[1:]

    def _key(self) -> np.ndarray:
        e = np.frombuffer(self.edges.ends, np.intc).astype(np.int64)
        return np.sort(e[0::2] * (self.n + 1) + e[1::2])

    def __eq__(self, other):
        return (isinstance(other, Tree) and self.n == other.n
                and np.array_equal(self._key(), other._key()))

    def __hash__(self):
        return hash((self.n, self._key().tobytes()))

    def __repr__(self):
        return f"Tree(n={self.n}, edges={list(self.edges)})"


@dataclass(frozen=True)
class DegreeStats:
    max_degree: int
    sum_sq_degree: int


def random_tree(n: int, rng: Rng) -> Tree:
    """Uniform labelled tree: the first-entrance tree of a walk on K_n
    that steps to a uniform vertex of all n, itself included (Aldous,
    SIAM J. Discrete Math. 3 (1990); Broder, FOCS 1989).  The walk first
    visits the vertices in a uniform order v, and enters v[p] from a
    uniform one of v[0..p-1] with probability p/n (it stepped inside
    them first), else from v[p - 1]: from v[min(x, p - 1)] for x uniform
    on 0..n-1.  Two reads and no loop."""
    if n < 2:
        raise ValueError("random_tree needs n >= 2")
    v = rng.permutation(n) + 1
    x = np.minimum(rng.draws(n, n - 1), np.arange(n - 1))
    return Tree._of(n, v[x], v[1:])


def path_tree(n: int) -> Tree:
    """Path 1-2-...-n."""
    return Tree._of(n, range(1, n), range(2, n + 1))


def star_tree(n: int) -> Tree:
    """Star with center 1 and leaves 2..n."""
    return Tree._of(n, [1] * (n - 1), range(2, n + 1))


def broom_tree(n: int, handle: int) -> Tree:
    """Path 1..handle whose last vertex carries the n - handle leaves
    handle+1..n."""
    return Tree._of(n, [*range(1, handle), *[handle] * (n - handle)],
                    range(2, n + 1))


def caterpillar_tree(n: int, spine: int, legs_of) -> Tree:
    """Spine 1..spine (spine <= n) with legs spine+1..n: each leg in turn
    hangs off spine vertex 1 + i % spine, where i starts at 0 and grows
    by legs_of(i) after each leg."""
    us = list(range(1, spine))
    i = 0
    for _ in range(n - spine):
        us.append(1 + i % spine)
        i += legs_of(i)
    return Tree._of(n, us, range(2, n + 1))


def spider_tree(n: int, legs: int) -> Tree:
    """Center 1 and `legs` legs whose lengths differ by at most one,
    numbered outwards leg by leg."""
    us = []
    v = 2
    for k in range(legs):
        prev = 1
        for _ in range((n - 1) // legs + (k < (n - 1) % legs)):
            us.append(prev)
            prev = v
            v += 1
    return Tree._of(n, us, range(2, n + 1))


def degree_stats(t: Tree) -> DegreeStats:
    degs = t.degrees().astype(np.int64)
    return DegreeStats(int(degs.max()), int((degs * degs).sum()))


# the longest token the array path reads: 18 digits stay below 2^63
_MAX_DIGITS = 18


def _canonical(text: str) -> np.ndarray | None:
    """The integers of text when it is laid out as format_tree writes
    it, else None: ASCII digits in tokens of at most _MAX_DIGITS, a
    first line of one token, then lines of two tokens split by one
    space, each line ending in a newline, and as many edge lines as the
    first token asks for.  Checked and read in numpy, one pass each,
    each check's arrays dropped before the next pass."""
    if not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), np.uint8)
    sep = raw - 48
    np.greater_equal(sep, 10, out=sep.view(bool))  # every byte but a digit
    seps = np.flatnonzero(sep.view(bool))
    if not len(seps) or seps[-1] != len(raw) - 1:
        return None
    kind = raw[seps]
    del raw, sep
    # each token but the first is one narrower than the gap between the
    # separators around it
    gap = np.diff(seps)
    if not ((kind[0::2] == 10).all() and (kind[1::2] == 32).all()
            and 1 <= seps[0] <= _MAX_DIGITS
            and ((gap >= 2) & (gap <= _MAX_DIGITS + 1)).all()):
        return None
    # one token ends at each separator: read exactly that many, into
    # one buffer of the final size
    tokens = len(seps)
    del seps, kind, gap
    vals = np.fromstring(text, np.int64, count=tokens, sep=" ")
    return vals if tokens == 2 * max(int(vals[0]) - 1, 0) + 1 else None


def parse_tree(text: str) -> Tree:
    """Strict text format: line 1 is n, then n-1 lines "u v".

    Lines are stripped and trailing blank lines dropped.  Every other
    line must hold exactly two tokens that int() accepts, else the first
    line that does not is named.  Text laid out as format_tree writes
    it is checked and read by array passes (_canonical); any other text
    has its edge lines checked by counting their tokens and is read from
    one split of the whole text.  Both give the same tree and the same
    errors.
    """
    vals = _canonical(text)
    if vals is not None:
        return Tree._of(int(vals[0]), vals[1::2], vals[2::2])
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError("empty tree text")
    head = lines[0].strip()
    try:
        n = int(head)
    except ValueError:
        raise ValueError(
            f"first line must be the vertex count, got {head!r}") from None
    if len(lines) - 1 != max(n - 1, 0):
        raise ValueError(f"expected {n-1} edge lines, got {len(lines)-1}")
    try:
        if len(lines) > 1 and set(map(len, map(
                str.split, islice(lines, 1, None)))) != {2}:
            raise ValueError
        ends = list(map(int, islice(text.split(), 1, None)))
    except ValueError:
        for ln in islice(lines, 1, None):
            parts = ln.split()
            try:
                if len(parts) != 2:
                    raise ValueError
                int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"bad edge line {ln.strip()!r}") from None
        raise
    return Tree._of(n, ends[0::2], ends[1::2])


def format_tree(t: Tree) -> str:
    """The text parse_tree reads: a line "n", then one line "u v" per
    edge, in t's edge order.  Formatted from chunks of the flat edge
    buffer (rng.chunks), so Python ints are held for one chunk of
    edges at a time."""
    out = [f"{t.n}\n"]
    out += [("%d %d\n" * (len(c) // 2)) % tuple(c)
            for c in chunks(t.edges.ends)]
    return "".join(out)
