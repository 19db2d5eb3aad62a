"""Plan construction: edge cutting, vertex ordering, interval assignment.

A Plan fixes everything about a labelling run except the random label
choices: the order in which vertices are revealed, each vertex's earlier
neighbour, the removed-edge set whose endpoints may land in unrelated
intervals, and the target interval of every vertex.

The stages run over flat arrays.  prepare_plan numbers the tree once, in
BFS order from its smallest leaf (_Numbering, O(n)); the cut and the
ordering both run on that numbering, where a removed edge is one flag on
its child.  The cut costs O(n log n) on any shape (see _cut_window), the
ordering O(n log n) for its heaps, and the interval assignment O(n)
over positions.  Every stage takes and returns original vertex ids.
"""

from __future__ import annotations

import bisect
import heapq
import math
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .intervals import Interval, IntervalSystem
from .rng import Rng
from .trees import Tree


class PrepareError(ValueError):
    pass


class _Numbering:
    """t renumbered 0..n-1 in BFS order from its smallest leaf.

    vertex[k] is the original id of vertex k and index[v] the number of
    original vertex v.  parent[k] < k, with parent[0] = -1, and the
    children of k are first[k] .. first[k+1] - 1 in the order of k's
    neighbour list, so a child's number ranks it among its siblings as
    its index in that list does.  The stages then read consecutive
    numbers instead of the scattered ids a Prüfer-decoded tree comes
    with.  Plain lists, since the stages read them in Python loops.

    The BFS runs in C (scipy's breadth_first_order) on t with every
    adjacency slot made a node: vertex v links to slot nodes n+1+p for
    its CSR positions p, in order, and slot p links to the neighbour
    nbr[p].  That search takes a node's links in increasing id, so it
    meets v's children in neighbour-list order.
    """

    __slots__ = ("vertex", "index", "parent", "first")

    def __init__(self, t: Tree):
        n = t.n
        slots = 2 * (n - 1)
        root = int((t.degrees() == 1).argmax()) + 1 if n > 1 else 1
        off = np.frombuffer(t.off, np.intc)
        links = np.concatenate(
            (np.arange(n + 1, n + 1 + slots, dtype=np.intc),
             np.frombuffer(t.nbr, np.intc)))
        starts = np.concatenate(
            (off, slots + np.arange(1, slots + 1, dtype=np.intc)))
        graph = csr_matrix((np.ones(2 * slots, np.int8), links, starts),
                           shape=(n + 1 + slots, n + 1 + slots))
        nodes, pred = breadth_first_order(graph, root, directed=True,
                                          return_predecessors=True)
        vertex = nodes[nodes <= n]
        index = np.full(n + 1, -1, np.intp)
        index[vertex] = np.arange(n)
        parent = index[pred[pred[vertex[1:]]]]
        self.vertex = vertex.tolist()
        self.index = index.tolist()
        self.parent = [-1] + parent.tolist()
        self.first = (np.searchsorted(parent, np.arange(n + 1)) + 1).tolist()

    def cut_flags(self, removed: Iterable[tuple[int, int]]) -> bytearray:
        """flag[k] = 1 when the edge from k to its parent is in removed,
        in O(|removed|); pairs that are not tree edges are ignored."""
        n = len(self.vertex)
        index, parent = self.index, self.parent
        flag = bytearray(n)
        for a, b in removed:
            if 1 <= a <= n and 1 <= b <= n:
                x, y = index[a], index[b]
                if x < y:
                    x, y = y, x
                if parent[x] == y:
                    flag[x] = 1
        return flag


class _Fragment:
    """A run of consecutive walk levels in four parallel int64 arrays.

    Level k chose child c[k] of parent[c[k]].  Values that move with the
    cut mass D are stored minus off, the mass cut elsewhere while the
    fragment was parked: the child's order is now sd[k] + off - D, and
    the level makes the same choice while its key (the child's order
    minus the least order that keeps it chosen, plus D at push) is still
    >= D.  nkey[k] is minus the stored key and npm[k] the running maximum
    of nkey from the fragment's first level, so bisect on npm finds the
    first level whose key fell below D.
    """

    __slots__ = ("c", "sd", "nkey", "npm", "off")

    def __init__(self, off: int = 0):
        self.c = array("q")
        self.sd = array("q")
        self.nkey = array("q")
        self.npm = array("q")
        self.off = off


def _cut_window(
    t: Tree, lo: int, hi: int, numbering: _Numbering | None = None
) -> frozenset[tuple[int, int]]:
    """Walk-and-cut from the smallest leaf: follow the heaviest remaining
    branch (ties to the earliest in the neighbour list) and cut off the
    first one of order <= hi; repeat on the kept side until it has order
    <= hi.

    The walk runs on the BFS numbering (a child's number breaks ties
    among its siblings) and resumes where the last cut changed it
    instead of restarting at the root.  Each vertex with two or more
    children keeps a heap of its live children keyed (-order, number),
    without the child the walk is inside.  The walk is a stack of levels
    (see _Fragment).  A cut of order s lowers every level's slack by s,
    so the topmost level whose choice changed is found by bisection on
    running minima.  The walk leaves that level: if the child it had
    chosen still has order > hi, the levels below it are parked under
    that child and restored when the walk chooses it again (a park inside
    a fragment splits it, once); otherwise that child is never entered
    again and they are dropped.  A cut or a descent costs O(log n) plus
    the fragments a restore moves, so paths, brooms and caterpillars cut
    in O(n log n) instead of O(n * depth), with O(n) memory.
    """
    if lo < 1 or lo > hi:
        raise PrepareError(f"empty size window [{lo}, {hi}]")
    n = t.n
    if n <= hi:
        return frozenset()

    num = numbering or _Numbering(t)
    vertex, parent, first = num.vertex, num.parent, num.first
    size = [1] * n  # 0 marks a cut child
    for k in range(n - 1, 0, -1):
        size[parent[k]] += size[k]

    heaps: dict[int, list[tuple[int, int]]] = {}
    parked: dict[int, tuple[list[_Fragment], int]] = {}
    frags: list[_Fragment] = []
    gneg: list[int] = []  # minus the running minimum of effective keys
    none = -(1 << 62)  # gneg of no level
    cuts: list[int] = []  # the child of each removed edge
    cut = 0  # D: the total order cut so far
    u = 0
    while True:
        # choose among u's live children, exactly as a walk from the root
        c0, c1 = first[u], first[u + 1]
        if c1 - c0 >= 2:
            h = heaps.get(u)
            if h is None:
                h = [(-size[w], w) for w in range(c0, c1)]
                heapq.heapify(h)
                heaps[u] = h
            if not h:
                best = 0
            else:
                neg, best = heapq.heappop(h)
                best_size = -neg
                thr = hi + 1
                if h:
                    thr = max(thr, -h[0][0] + (h[0][1] < best))
        else:
            best = c0
            best_size, thr = size[best], hi + 1
            if not best_size:
                best = 0
        if best == 0:  # the root is nobody's child
            raise PrepareError(
                f"walk stuck at vertex {vertex[u]}: no branch of order "
                f">= {lo}"
            )
        if best_size < lo:
            raise PrepareError(
                f"walk undershot the window at vertex {vertex[u]}: "
                f"heaviest branch has order {best_size} < {lo}"
            )

        if best_size > hi:
            # descend: push the level (u, best)
            if not frags:
                frags.append(_Fragment())
                gneg.append(none)
            f = frags[-1]
            key = best_size + cut - thr - f.off
            f.c.append(best)
            f.sd.append(best_size + cut - f.off)
            f.nkey.append(-key)
            f.npm.append(max(f.npm[-1], -key) if f.npm else -key)
            g = f.npm[-1] - f.off
            if g > gneg[-1]:
                gneg[-1] = g
            group = parked.pop(best, None)
            if group is None:
                u = best
                continue
            # re-enter a parked branch: nothing in it was cut while it was
            # parked, so its levels' slacks stand; shift their stored values
            # by the mass cut elsewhere meanwhile
            restored, park_cut = group
            for f in restored:
                f.off += cut - park_cut
                frags.append(f)
                gneg.append(max(gneg[-1], f.npm[-1] - f.off))
            u = frags[-1].c[-1]
        else:
            cuts.append(best)
            size[best] = 0
            cut += best_size
            if n - cut <= hi:
                return frozenset(
                    (a, b) if a < b else (b, a)
                    for a, b in ((vertex[parent[c]], vertex[c]) for c in cuts)
                )

        # leave the topmost level whose choice changed, if any
        k = bisect.bisect_right(gneg, -cut)
        if k == len(frags):
            continue
        f = frags[k]
        j = bisect.bisect_right(f.npm, f.off - cut)
        c = f.c[j]
        c_size = f.sd[j] + f.off - cut
        if c_size > hi:
            # c lost to a sibling: park the levels below it under c
            tail = frags[k + 1:]
            if j + 1 < len(f.c):
                rest = _Fragment(f.off)
                rest.c, rest.sd = f.c[j + 1:], f.sd[j + 1:]
                rest.nkey = f.nkey[j + 1:]
                rest.npm = array("q", accumulate(rest.nkey, max))
                tail.insert(0, rest)
            if tail:
                parked[c] = (tail, cut)
        del frags[k + 1:], gneg[k + 1:]
        del f.c[j:], f.sd[j:], f.nkey[j:], f.npm[j:]
        if j:
            gneg[k] = max(gneg[k - 1] if k else none, f.npm[-1] - f.off)
        else:
            frags.pop()
            gneg.pop()
        u = parent[c]
        size[c] = c_size
        h = heaps.get(u)
        if h is not None:
            heapq.heappush(h, (-c_size, c))


def cut_tree(t: Tree, eps: float, n: int) -> frozenset[tuple[int, int]]:
    """Remove edges so every remaining component has order <= eps*n/log n.

    Requires eps*n >= 2*log n and max_degree <= eps^2*n/(4*log n); the walk
    then never undershoots the window and |removed| <= eps*v(t).  The
    walk resumes after each cut instead of restarting at the root (see
    _cut_window), so deep trees cost about what random trees do.
    """
    if not 0 < eps < 1:
        raise PrepareError(f"eps must be in (0, 1), got {eps}")
    if n < 2:
        raise PrepareError(f"ambient order must be >= 2, got {n}")
    log_n = math.log(n)
    if eps * n < 2 * log_n:
        raise PrepareError(
            f"eps*n = {eps * n:.3f} < 2*log n = {2 * log_n:.3f}"
        )
    max_deg = int(t.degrees().max())
    deg_cap = eps * eps * n / (4 * log_n)
    if max_deg > deg_cap:
        raise PrepareError(
            f"max degree {max_deg} > eps^2*n/(4*log n) = {deg_cap:.3f}"
        )
    lo = math.ceil(2 / eps)
    hi = math.floor(eps * n / log_n)
    return _cut_window(t, lo, hi)


def cut_tree_by_size(
    t: Tree, max_size: int, *, numbering: _Numbering | None = None
) -> frozenset[tuple[int, int]]:
    """Size-threshold variant: components end up with order <= max_size.

    Any branch may be cut, however small, so the walk cannot get stuck
    on any tree.  Same walk and cost as cut_tree.
    """
    if max_size < 1:
        raise PrepareError(f"max_size must be >= 1, got {max_size}")
    return _cut_window(t, 1, max_size, numbering)


def order_vertices(
    t: Tree,
    removed: Iterable[tuple[int, int]],
    *,
    numbering: _Numbering | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reveal order starting at vertex 1, keeping components contiguous.

    Each later vertex has exactly one earlier neighbour (its parent).  The
    next vertex is the smallest-index candidate in the component of the
    previous one; when that component is exhausted, the smallest-index
    candidate overall.  Returns (order, parent_pos) with parent_pos[0] = -1
    and parent_pos[i] the position of order[i]'s parent.

    Two heaps of original ids hold the candidates: those reached over
    kept edges, all in the current component, and those reached over
    removed edges.  The current component is exhausted exactly when the
    first heap is empty, and then every candidate left is in the second.
    Each vertex is pushed once, by its earlier neighbour, and an edge's
    removal is read from the cut flag of its child in the BFS numbering,
    so the order costs O(n log n) with no set lookups.
    """
    num = numbering or _Numbering(t)
    vertex, index, parent, first = num.vertex, num.index, num.parent, num.first
    cut = num.cut_flags(removed)
    n = t.n
    done = bytearray(n)
    via = [-1] * n  # position of the earlier neighbour, by number
    order: list[int] = []
    parent_pos: list[int] = []
    here: list[int] = []  # candidates behind kept edges
    away: list[int] = []  # candidates behind removed edges
    push = heapq.heappush
    k = index[1]
    for i in range(n):
        if i:
            k = index[heapq.heappop(here) if here else heapq.heappop(away)]
        done[k] = 1
        order.append(vertex[k])
        parent_pos.append(via[k])
        p = parent[k]
        if p >= 0 and not done[p]:
            push(away if cut[k] else here, vertex[p])
            via[p] = i
        for w in range(first[k], first[k + 1]):
            if not done[w]:
                push(away if cut[w] else here, vertex[w])
                via[w] = i
    return tuple(order), tuple(parent_pos)


@dataclass(frozen=True)
class Plan:
    """Everything about a run except the random label draws."""

    order: tuple[int, ...]
    parent_pos: tuple[int, ...]
    removed_edges: frozenset[tuple[int, int]]
    interval_of: tuple[Interval, ...]  # indexed by position
    color: tuple[int, ...]  # indexed by vertex, color[0] unused

    @property
    def n(self) -> int:
        return len(self.order)


def assign_intervals(
    t: Tree,
    removed: Iterable[tuple[int, int]],
    ordering: tuple[Sequence[int], Sequence[int]],
    sys: IntervalSystem,
    rng: Rng,
) -> Plan:
    """Draw one interval per component and color endpoints.

    Vertices are 2-colored by parity of distance from the ordering's first
    vertex (vertex 1 for order_vertices); within each component of the cut
    tree one color class gets the drawn interval and the other its
    complement, so every surviving edge joins an interval to its
    complement.  Components are drawn in order of first appearance in the
    vertex ordering.  Components and parities come from one pass over the
    ordering, since each vertex's parent is an earlier tree neighbour; a
    removed edge is a flag on its later endpoint's position, so the
    assignment is O(n) with no set lookups.

    The draw is a uniform random allocation of target intervals to
    components whose per-interval counts differ by at most one (one
    uniform draw per component, conditioned on balanced counts); each
    component's marginal is still uniform.

    Each component's coloring orientation is free.  For a component entered
    through a cut edge, the orientation is chosen so the entering edge's
    difference range stays away from 0 and n_tilde, where the edge-side
    correction concentrates its own removals.
    """
    order, parent_pos = ordering
    n = len(order)
    if not (isinstance(removed, frozenset) and all(u < v for u, v in removed)):
        removed = frozenset((u, v) if u < v else (v, u) for u, v in removed)

    # flag the positions whose parent edge is removed: of an edge's two
    # endpoints, the later one in the order is the child
    pos = [0] * (t.n + 1)
    for i, v in enumerate(order):
        pos[v] = i
    cut = bytearray(n)
    for u, v in removed:
        if 1 <= u and v <= t.n:
            i, j = pos[u], pos[v]
            if i < j:
                i, j = j, i
            if parent_pos[i] == j:
                cut[i] = 1

    # one pass over the order: a component starts at the root and behind
    # every removed parent edge; everyone else joins the parent's
    # component with the opposite parity
    comp = [0] * n  # by position, numbered by first appearance
    parity = bytearray(n)
    starts: list[int] = []  # position where each component starts
    for i in range(n):
        pp = parent_pos[i]
        if pp >= 0:
            parity[i] = parity[pp] ^ 1
            if not cut[i]:
                comp[i] = comp[pp]
                continue
        comp[i] = len(starts)
        starts.append(i)
    n_comp = len(starts)
    js = sys.j_intervals
    picks = list(range(len(js))) * (n_comp // len(js))
    extra = list(range(len(js)))
    for i in range(n_comp % len(js)):
        k = i + rng.randbelow(len(extra) - i)
        extra[i], extra[k] = extra[k], extra[i]
    picks += extra[: n_comp % len(js)]
    for i in range(len(picks) - 1):
        k = i + rng.randbelow(len(picks) - i)
        picks[i], picks[k] = picks[k], picks[i]
    # the intervals of the components' two sides, as two flat lists: a
    # pair per component would put one tuple per component on the heap
    partner = [sys.complement(j) for j in js]
    sides = ([js[i] for i in picks], [partner[i] for i in picks])

    nt = sys.n_tilde
    ell = sys.ell
    flip = [0] * n_comp
    for k, i in enumerate(starts):
        pp = parent_pos[i]
        if pp < 0:
            continue
        c = comp[pp]
        p_iv = sides[parity[pp] ^ flip[c]][c]
        p_mid = 2 * p_iv.lo + ell - 1  # twice the midpoint
        best = 0
        best_score = -1
        for o in (0, 1):
            d = abs(2 * sides[parity[i] ^ o][k].lo + ell - 1 - p_mid)
            score = min(d, 2 * nt - d)
            if score > best_score:
                best, best_score = o, score
        flip[k] = best

    color = [0] * (t.n + 1)
    interval_of = []
    for i, v in enumerate(order):
        c = comp[i]
        color[v] = side = parity[i] ^ flip[c]
        interval_of.append(sides[side][c])
    return Plan(
        order=tuple(order),
        parent_pos=tuple(parent_pos),
        removed_edges=removed,
        interval_of=tuple(interval_of),
        color=tuple(color),
    )


def prepare_plan(
    t: Tree,
    sys: IntervalSystem,
    rng: Rng,
    *,
    max_component: int | None = None,
) -> Plan:
    """Cut, order, and assign in one call.

    The default component cap min(n_tilde*(m/ell)^2, ell/2) keeps every
    component's red half well inside one target window and spreads each
    window's load over many component draws; larger caps make single draws
    carry so much mass that window loads no longer concentrate.  Intervals
    are drawn by the balanced allocation (see assign_intervals).  The cut
    and the ordering share one BFS numbering of t.
    """
    if max_component is None:
        max_component = max(
            2,
            min(
                sys.n_tilde * sys.m * sys.m // (sys.ell * sys.ell),
                sys.ell // 2,
            ),
        )
    numbering = _Numbering(t)
    removed = cut_tree_by_size(t, max_component, numbering=numbering)
    ordering = order_vertices(t, removed, numbering=numbering)
    del numbering  # over 100 bytes a vertex, and the assignment needs none
    return assign_intervals(t, removed, ordering, sys, rng)
