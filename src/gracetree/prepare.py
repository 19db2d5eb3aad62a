"""Plan construction: edge cutting, vertex ordering, interval assignment.

A Plan fixes everything about a labelling run except the random label
choices: the order in which vertices are revealed, each vertex's earlier
neighbour, the removed-edge set whose endpoints may land in unrelated
intervals, and the target interval of every vertex.

The stages run over flat arrays.  prepare_plan numbers the tree once, in
BFS order from its smallest leaf (_Numbering, O(n)); the cut and the
ordering both run on that numbering, where a removed edge is one flag on
its child.  The cut is one pass from the leaves up that sorts the
children of each vertex it cuts at, O(n log n) on any shape (see
cut_tree_by_size); the ordering costs O(n log n) for its heaps, and the
interval assignment O(n) over positions.  Every stage takes and returns
original vertex ids.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
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


def cut_tree(t: Tree, eps: float, n: int) -> frozenset[tuple[int, int]]:
    """Remove edges so every remaining component has order <= eps*n/log n.

    Requires eps*n >= 2*log n and max_degree <= eps^2*n/(4*log n), and
    cuts as cut_tree_by_size with max_size = floor(eps*n/log n), in
    O(n log n) on any shape.  A vertex cuts a child only while its
    children's orders sum to at least max_size, and it has at most
    max_degree children, so each removed branch has order at least
    max_size/max_degree >= 2/eps and |removed| <= eps*v(t)/2.
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
    if lo > hi:
        raise PrepareError(f"empty size window [{lo}, {hi}]")
    return cut_tree_by_size(t, hi)


def cut_tree_by_size(
    t: Tree, max_size: int, *, numbering: _Numbering | None = None
) -> frozenset[tuple[int, int]]:
    """Remove edges so every remaining component has order <= max_size.

    One pass over the BFS numbering from the last vertex back to the
    root, so a vertex comes after all its children.  Vertex u's order is
    1 plus its children's; while that is above max_size, u loses its
    child of largest order, ties going to the lower number (the earlier
    one in u's neighbour list).  The pass costs O(n) plus a sort of the
    children of each vertex that cuts, O(n log n) on any shape.

    The edge set is that of the walk from the smallest leaf that follows
    the heaviest branch (ties alike) and cuts off the first one of order
    <= max_size, until the root's side has order <= max_size.  The walk
    enters a vertex only while its order is above max_size, so it never
    changes a branch of order <= max_size, and by induction it leaves
    every child of u with the order this pass gives it.  It cuts a whole
    child of u only once every child of u has order <= max_size, and
    then the heaviest first with ties to the lower number, until u's
    order is <= max_size: the cuts this pass makes at u.  Interleaving
    between siblings changes the order of the cuts, not which edges are
    cut.
    """
    if max_size < 1:
        raise PrepareError(f"max_size must be >= 1, got {max_size}")
    num = numbering or _Numbering(t)
    parent, first = num.parent, num.first
    size = [1] * t.n  # the order of k's side once k is done
    cuts: list[int] = []  # the child of each removed edge
    for k in range(t.n - 1, -1, -1):
        s = size[k]
        if s > max_size:
            # a reverse sort is stable: equal orders stay in number order
            heavy = sorted(range(first[k], first[k + 1]),
                           key=size.__getitem__, reverse=True)
            for c in heavy:
                cuts.append(c)
                s -= size[c]
                if s <= max_size:
                    break
            size[k] = s
        if k:
            size[parent[k]] += s
    vertex = num.vertex
    return frozenset(
        (a, b) if a < b else (b, a)
        for a, b in ((vertex[parent[c]], vertex[c]) for c in cuts)
    )


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

    @property
    def n(self) -> int:
        return len(self.order)


def assign_intervals(
    removed: Iterable[tuple[int, int]],
    ordering: tuple[Sequence[int], Sequence[int]],
    sys: IntervalSystem,
    rng: Rng,
) -> Plan:
    """Draw one interval per component and give each vertex of the
    ordering (the tree's vertices 1..n) its target interval.

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
    pos = [0] * (n + 1)
    for i, v in enumerate(order):
        pos[v] = i
    cut = bytearray(n)
    for u, v in removed:
        if 1 <= u and v <= n:
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

    interval_of = [sides[parity[i] ^ flip[c]][c] for i, c in enumerate(comp)]
    return Plan(
        order=tuple(order),
        parent_pos=tuple(parent_pos),
        removed_edges=removed,
        interval_of=tuple(interval_of),
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
    return assign_intervals(removed, ordering, sys, rng)
