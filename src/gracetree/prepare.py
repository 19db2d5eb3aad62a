"""Plan construction: edge cutting, vertex ordering, interval assignment.

A Plan fixes everything about a labelling run except the random label
choices: the order in which vertices are revealed, each vertex's earlier
neighbour, the removed-edge set whose endpoints may land in unrelated
intervals, and the target interval of every vertex.

The cut and the ordering read the same numbering: the BFS of the tree
from vertex 1 with neighbours in increasing id, which the tree keeps
from its construction check (Tree.bfs and Tree.parent).  The cut is
one pass from the leaves up that sorts the children of each vertex it
cuts at, O(n log n) on any shape (cut_tree_by_size).  The ordering is
the one component search of a plan: pointer doubling over the BFS
parents, O(n log depth), gives each vertex its component and its
parity, and one stable sort of the BFS keeps the components together
(order_vertices).  The assignment reads those components and parities,
with a Python loop only over components for the draw and the
orientations (assign_intervals), and a retry's new draw reuses them, so
components are found once per tree and cut.  Every stage takes and
returns original vertex ids, and a plan depends only on the tree's edge
set, not on the order of its edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from .intervals import IntervalSystem
from .rng import Rng, chunks
from .trees import Tree


class PrepareError(ValueError):
    pass


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


def _ranks(t: Tree) -> tuple[np.ndarray, np.ndarray]:
    """t's BFS from vertex 1 as read-only numpy views: (bfs, parent)."""
    return np.frombuffer(t.bfs, np.intc), np.frombuffer(t.parent, np.intc)


def cut_tree_by_size(t: Tree, max_size: int) -> frozenset[tuple[int, int]]:
    """Remove edges so every remaining component has order <= max_size.

    One pass over the ranks of t's BFS from vertex 1 (Tree.bfs), from
    the last back to the root, so a vertex comes after all its
    children.  Vertex u's order is 1 plus its children's; while that is
    above max_size, u loses its child of largest order, ties going to
    the lower rank, which is the lower id.  The pass costs O(n) plus a
    sort of the children of each vertex that cuts, O(n log n) on any
    shape.  It reads the parent ranks in chunks (rng.chunks) and the
    child ranges from a numpy array only at the vertices that cut, so
    its one per-vertex list is the orders.  The cut depends only on t's
    edge set, not on the order of its edges.

    The edge set is that of the walk from vertex 1 that follows the
    heaviest branch (ties alike) and cuts off the first one of order
    <= max_size, until the root's side has order <= max_size.  The walk
    enters a vertex only while its order is above max_size, so it never
    changes a branch of order <= max_size, and by induction it leaves
    every child of u with the order this pass gives it.  It cuts a whole
    child of u only once every child of u has order <= max_size, and
    then the heaviest first with ties to the lower id, until u's order
    is <= max_size: the cuts this pass makes at u.  Interleaving between
    siblings changes the order of the cuts, not which edges are cut.
    """
    if max_size < 1:
        raise PrepareError(f"max_size must be >= 1, got {max_size}")
    n = t.n
    bfs, parent = _ranks(t)
    # the children of rank k are ranks first[k] .. first[k + 1] - 1: one
    # plus the ranks with a parent below k, the root counting as one;
    # read only at the ranks that cut
    first = np.cumsum(np.bincount(parent + 1, minlength=n + 1))
    # the order of k's side once k is done; the root adds its own to
    # the spare last entry, which its parent rank -1 indexes
    size = [1] * n + [0]
    cuts: list[int] = []  # the child rank of each removed edge
    for k, p in zip(range(n - 1, -1, -1),
                    chain.from_iterable(chunks(parent[::-1]))):
        s = size[k]
        if s > max_size:
            # a reverse sort is stable: equal orders stay in rank order
            heavy = sorted(range(int(first[k]), int(first[k + 1])),
                           key=size.__getitem__, reverse=True)
            for c in heavy:
                cuts.append(c)
                s -= size[c]
                if s <= max_size:
                    break
            size[k] = s
        size[p] += s
    c = np.array(cuts, np.intp)
    ends = np.sort(np.stack((bfs[parent[c]], bfs[c]), axis=1), axis=1)
    return frozenset(map(tuple, ends.tolist()))


def _pairs(removed: Iterable[tuple[int, int]], n: int) -> np.ndarray:
    """The pairs of removed with both ends in 1..n, as a (k, 2) array."""
    e = np.fromiter(chain.from_iterable(removed), np.intp).reshape(-1, 2)
    return e[((e >= 1) & (e <= n)).all(axis=1)]


def _climb(up: np.ndarray, odd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointer doubling over a forest: up[i] is i's parent, or i itself
    at a root, and odd[i] (0 at a root) is 1 when the edge to the parent
    counts.  Returns each node's root and the parity of the counted
    edges on its way there, in O(n log depth)."""
    while True:
        nxt = up[up]
        if np.array_equal(nxt, up):
            return up, odd
        odd = odd ^ odd[up]
        up = nxt


@dataclass(frozen=True, eq=False)
class Ordering:
    """A reveal order and the components of the cut removed_edges.

    order, parent_pos, comp and parity are read-only arrays by position:
    the vertex revealed there, its parent's position (-1 at position 0),
    its component, numbered 0, 1, ... in order in the narrowest unsigned
    type, and its parity of distance from the component's first vertex.
    """

    order: np.ndarray
    parent_pos: np.ndarray
    removed_edges: frozenset[tuple[int, int]]
    comp: np.ndarray
    parity: np.ndarray

    def __post_init__(self):
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False


def order_vertices(t: Tree, removed: frozenset[tuple[int, int]]) -> Ordering:
    """Reveal order starting at vertex 1, keeping components contiguous.

    Each later vertex has exactly one earlier neighbour (its parent).
    Take the BFS of t from vertex 1 that visits neighbours in increasing
    id (Tree.bfs, as the cut does).  Components come in the BFS rank
    of their first vertex, and the vertices of a component in BFS rank,
    which is a BFS of the component from its first vertex.  Returns the
    Ordering, with removed as its removed_edges.

    A component's first vertex is the one nearest vertex 1, and its BFS
    parent lies in a component that comes earlier.  Every other
    neighbour of a vertex v is a BFS child of v: in v's component and
    later in BFS, or the first vertex of a component of higher BFS rank
    than v's.  So the parent is the only earlier neighbour.

    This is the plan's one component search: pointer doubling over the
    BFS tree with its cut edges dropped gives each vertex its
    component's first vertex and its parity relative to it.  One stable
    sort by the component, numbered in the BFS rank of its first
    vertex, gives the order: a radix sort in C while there are at most
    2^16 components, else O(n log n).  Pairs of removed that are not
    edges of t are ignored.  With nothing removed, the order is the BFS
    and parent_pos its parent ranks.
    """
    n = t.n
    bfs, parent = _ranks(t)
    rank = np.empty(n + 1, np.intp)
    rank[bfs] = np.arange(n)
    # the child of each removed edge starts a component; every edge
    # that survives counts towards the parity
    a, b = rank[_pairs(removed, n)].T
    heads = np.concatenate((a[parent[a] == b], b[parent[b] == a]))
    up = parent.copy()
    up[0] = 0
    up[heads] = heads
    first, rel = _climb(up, (up != np.arange(n)).view(np.uint8))
    # components numbered 0, 1, ... in the rank of their first vertex,
    # in the narrowest unsigned type, so that the stable sort is a radix
    # sort while there are at most 2^16 of them
    head = np.zeros(n, bool)
    head[heads] = True
    comp = np.cumsum(head, dtype=np.min_scalar_type(len(heads)))[first]
    perm = np.argsort(comp, kind="stable")
    pos = np.empty(n, np.intp)
    pos[perm] = np.arange(n)
    parent_pos = parent[perm]
    parent_pos[1:] = pos[parent_pos[1:]]
    return Ordering(order=bfs[perm], parent_pos=parent_pos,
                    removed_edges=removed, comp=comp[perm], parity=rel[perm])


@dataclass(frozen=True, eq=False)
class Plan(Ordering):
    """Everything about a run except the random label draws: an
    Ordering and lo, a read-only int array of the low end of each
    position's target interval, whose width is the interval system's ell.
    """

    lo: np.ndarray

    def __eq__(self, other):
        return (isinstance(other, Plan)
                and self.removed_edges == other.removed_edges
                and all(np.array_equal(x, y) for x, y in zip(
                    (self.order, self.parent_pos, self.lo),
                    (other.order, other.parent_pos, other.lo))))


def _balanced_draw(count: int, size: int, rng: Rng) -> np.ndarray:
    """count values of 0..size-1, each drawn floor(count/size) or
    ceil(count/size) times, uniform among such sequences: every value q
    times and r distinct ones once more (q, r = divmod(count, size)),
    in a uniform order.  Two reads of rng.permutation."""
    q, r = divmod(count, size)
    pool = np.concatenate((np.tile(np.arange(size), q),
                           rng.permutation(size)[:r]))
    return pool[rng.permutation(count)]


def assign_intervals(
    ordering: Ordering,
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
    vertex ordering.

    The draw is a uniform random allocation of target intervals to
    components whose per-interval counts differ by at most one (one
    uniform draw per component, conditioned on balanced counts); each
    component's marginal is still uniform.

    Each component's coloring orientation is free.  For a component entered
    through a cut edge, the orientation is chosen so the entering edge's
    difference range stays away from 0 and n_tilde, where the edge-side
    correction concentrates its own removals: the first vertex takes the
    side (the drawn interval or its complement) whose interval lies
    farther round the range from the parent's.  The two never tie: the
    parent's interval would have to start at the midpoint of the two
    starts, half - ell/2 + 1, or opposite it, and no interval of the
    family starts there.

    Both pieces pay (README, prepare step): at n = 10^4, gamma = 1/4,
    m = 128, ell = 512, cap 32 and 3 retries, 95 of 100 trials succeed,
    77 with no orientation rule and 1 with an independent uniform
    interval per component in place of the balanced draw.

    The ordering's components and parities are read as they are; a
    Plan is an Ordering, so a retry passes the plan it replaces.  The
    draw is _balanced_draw's two permutations; one loop over the
    components carries each first vertex's side to the components
    entered from it.
    """
    parent_pos, comp, rel = ordering.parent_pos, ordering.comp, ordering.parity
    starts = np.flatnonzero(np.diff(comp)) + 1  # of components 1, 2, ...
    n_comp = len(starts) + 1

    js = sys.j_intervals
    nt = sys.n_tilde
    # the low ends of each component's drawn interval (side 0) and of its
    # complement (side 1)
    picks = _balanced_draw(n_comp, len(js), rng)
    lo0 = np.array([j.lo for j in js], np.intp)[picks]
    lo1 = nt - sys.ell + 2 - lo0

    # for each component after the first, entered from pp in component
    # c: the side its first vertex takes when pp is on side 0 and on
    # side 1 of c
    pp = parent_pos[starts]
    c = comp[pp]
    prefer = []
    for p_lo in (lo0[c], lo1[c]):
        d0 = np.abs(lo0[1:] - p_lo)
        d1 = np.abs(lo1[1:] - p_lo)
        prefer.append((np.minimum(d1, nt - d1)
                       > np.minimum(d0, nt - d0)).tolist())
    side_k = [0] * n_comp  # the side of each component's first vertex
    for k, ck, r, p0, p1 in zip(range(1, n_comp), c.tolist(),
                                rel[pp].tolist(), *prefer):
        side_k[k] = p1 if side_k[ck] ^ r else p0
    side = np.array(side_k, np.uint8)[comp] ^ rel
    return Plan(order=ordering.order, parent_pos=parent_pos,
                removed_edges=ordering.removed_edges, comp=comp, parity=rel,
                lo=np.where(side, lo1[comp], lo0[comp]).astype(np.intc))


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
    are drawn by the balanced allocation (see assign_intervals).
    """
    if max_component is None:
        max_component = max(
            2,
            min(
                sys.n_tilde * sys.m * sys.m // (sys.ell * sys.ell),
                sys.ell // 2,
            ),
        )
    return assign_intervals(
        order_vertices(t, cut_tree_by_size(t, max_component)), sys, rng)
