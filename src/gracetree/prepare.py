"""Plan construction: edge cutting, vertex ordering, interval assignment.

A Plan fixes everything about a labelling run except the random label
choices: the order in which vertices are revealed, each vertex's earlier
neighbour, the removed-edge set whose endpoints may land in unrelated
intervals, and the target interval of every vertex.
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .intervals import Interval, IntervalSystem
from .rng import Rng
from .trees import Tree


class PrepareError(ValueError):
    pass


def _smallest_leaf(t: Tree) -> int:
    for v in range(1, t.n + 1):
        if len(t.adj[v]) == 1:
            return v
    raise PrepareError("tree has no leaf")


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


def _cut_window(t: Tree, lo: int, hi: int) -> frozenset[tuple[int, int]]:
    """Walk-and-cut from the smallest leaf: follow the heaviest remaining
    branch (ties to the earliest in t.adj) and cut off the first one of
    order <= hi; repeat on the kept side until it has order <= hi.

    The walk resumes where the last cut changed it instead of restarting
    at the root.  Each vertex with two or more children keeps a heap of
    its live children keyed (-order, adj index), without the child the
    walk is inside.  The walk is a stack of levels (see _Fragment).  A
    cut of order s lowers every level's slack by s, so the topmost level
    whose choice changed is found by bisection on running minima.  The
    walk leaves that level: if the child it had chosen still has order
    > hi, the levels below it are parked under that child and restored
    when the walk chooses it again (a park inside a fragment splits it,
    once); otherwise that child is never entered again and they are
    dropped.  A cut or a descent costs O(log n) plus the fragments a
    restore moves, so paths, brooms and caterpillars cut in O(n log n)
    instead of O(n * depth), with O(n) memory.
    """
    if lo < 1 or lo > hi:
        raise PrepareError(f"empty size window [{lo}, {hi}]")
    if t.n <= hi:
        return frozenset()

    adj = t.adj
    root = _smallest_leaf(t)
    parent = [0] * (t.n + 1)
    parent[root] = -1
    order: list[int] = [root]
    for v in order:
        for w in adj[v]:
            if not parent[w]:
                parent[w] = v
                order.append(w)
    size = [1] * (t.n + 1)  # 0 marks a cut child
    for v in reversed(order):
        if parent[v] > 0:
            size[parent[v]] += size[v]
    del order

    heaps: dict[int, list[tuple[int, int]]] = {}
    parked: dict[int, tuple[list[_Fragment], int]] = {}
    frags: list[_Fragment] = []
    gneg: list[int] = []  # minus the running minimum of effective keys
    none = -(1 << 62)  # gneg of no level
    removed: set[tuple[int, int]] = set()
    cut = 0  # D: the total order cut so far
    u = root
    while True:
        # choose among u's live children, exactly as a walk from the root
        pu = parent[u]
        a = adj[u]
        if len(a) - (pu > 0) >= 2:
            h = heaps.get(u)
            if h is None:
                h = [(-size[w], i) for i, w in enumerate(a) if w != pu]
                heapq.heapify(h)
                heaps[u] = h
            if not h:
                best = 0
            else:
                neg, i = heapq.heappop(h)
                best, best_size = a[i], -neg
                thr = hi + 1
                if h:
                    thr = max(thr, -h[0][0] + (h[0][1] < i))
        else:
            best = a[0] if a[0] != pu else a[1]
            best_size, thr = size[best], hi + 1
            if not best_size:
                best = 0
        if best == 0:
            raise PrepareError(
                f"walk stuck at vertex {u}: no branch of order >= {lo}"
            )
        if best_size < lo:
            raise PrepareError(
                f"walk undershot the window at vertex {u}: heaviest "
                f"branch has order {best_size} < {lo}"
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
            removed.add((u, best) if u < best else (best, u))
            size[best] = 0
            cut += best_size
            if t.n - cut <= hi:
                return frozenset(removed)

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
            heapq.heappush(h, (-c_size, adj[u].index(c)))


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
    max_deg = max(len(t.adj[v]) for v in range(1, t.n + 1))
    deg_cap = eps * eps * n / (4 * log_n)
    if max_deg > deg_cap:
        raise PrepareError(
            f"max degree {max_deg} > eps^2*n/(4*log n) = {deg_cap:.3f}"
        )
    lo = math.ceil(2 / eps)
    hi = math.floor(eps * n / log_n)
    return _cut_window(t, lo, hi)


def cut_tree_by_size(
    t: Tree, max_size: int, min_size: int = 1
) -> frozenset[tuple[int, int]]:
    """Size-threshold variant: components end up with order <= max_size.

    With min_size == 1 the walk cannot get stuck, for any tree.  A larger
    min_size needs max degree <= max_size/(2*min_size) so the heaviest
    branch below a too-large one stays above min_size.  Same walk and
    cost as cut_tree.
    """
    if max_size < 1:
        raise PrepareError(f"max_size must be >= 1, got {max_size}")
    if min_size < 1 or min_size > max_size:
        raise PrepareError(
            f"need 1 <= min_size <= max_size, got {min_size}, {max_size}"
        )
    if min_size > 1 and t.n > max_size:
        max_deg = max(len(t.adj[v]) for v in range(1, t.n + 1))
        if max_deg > max_size / (2 * min_size):
            raise PrepareError(
                f"max degree {max_deg} > max_size/(2*min_size) = "
                f"{max_size / (2 * min_size):.3f}"
            )
    return _cut_window(t, min_size, max_size)


def _component_ids(t: Tree, removed: frozenset[tuple[int, int]]) -> list[int]:
    comp = [0] * (t.n + 1)
    next_id = 0
    for s in range(1, t.n + 1):
        if comp[s]:
            continue
        next_id += 1
        comp[s] = next_id
        stack = [s]
        while stack:
            v = stack.pop()
            for w in t.adj[v]:
                e = (v, w) if v < w else (w, v)
                if not comp[w] and e not in removed:
                    comp[w] = next_id
                    stack.append(w)
    return comp


def order_vertices(
    t: Tree, removed: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reveal order starting at vertex 1, keeping components contiguous.

    Each later vertex has exactly one earlier neighbour (its parent).  The
    next vertex is the smallest-index candidate in the component of the
    previous one; when that component is exhausted, the smallest-index
    candidate overall.  Returns (order, parent_pos) with parent_pos[0] = -1
    and parent_pos[i] the position of order[i]'s parent.
    """
    removed = frozenset(
        (u, v) if u < v else (v, u) for u, v in removed
    )
    comp = _component_ids(t, removed)
    chosen = [False] * (t.n + 1)
    in_frontier = [False] * (t.n + 1)
    comp_heap: dict[int, list[int]] = {}
    all_heap: list[int] = []

    def push(v: int) -> None:
        if not chosen[v] and not in_frontier[v]:
            in_frontier[v] = True
            heapq.heappush(comp_heap.setdefault(comp[v], []), v)
            heapq.heappush(all_heap, v)

    order = [1]
    parent_pos = [-1]
    pos = [0] * (t.n + 1)
    chosen[1] = True
    for w in t.adj[1]:
        push(w)
    for i in range(1, t.n):
        heap = comp_heap.get(comp[order[-1]], [])
        while heap and chosen[heap[0]]:
            heapq.heappop(heap)
        if heap:
            v = heapq.heappop(heap)
        else:
            while chosen[all_heap[0]]:
                heapq.heappop(all_heap)
            v = heapq.heappop(all_heap)
        prt = 0
        for w in t.adj[v]:
            if chosen[w]:
                if prt:
                    raise PrepareError(
                        f"vertex {v} has two earlier neighbours {prt}, {w}"
                    )
                prt = w
        chosen[v] = True
        pos[v] = i
        order.append(v)
        parent_pos.append(pos[prt])
        for w in t.adj[v]:
            push(w)
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
    *,
    draw: str = "independent",
) -> Plan:
    """Draw one interval per component and color endpoints.

    Vertices are 2-colored by parity of distance from the ordering's first
    vertex (vertex 1 for order_vertices); within each component of the cut
    tree one color class gets the drawn interval and the other its
    complement, so every surviving edge joins an interval to its
    complement.  Components are drawn in order of first appearance in the
    vertex ordering.  Components and parities come from one pass over the
    ordering, since each vertex's parent is an earlier tree neighbour.

    draw="independent": one uniform draw per component.  draw="balanced":
    a uniform random allocation whose per-interval component counts differ
    by at most one (the independent law conditioned on balanced counts);
    each component's marginal is still uniform.

    Each component's coloring orientation is free.  For a component entered
    through a cut edge, the orientation is chosen so the entering edge's
    difference range stays away from 0 and n_tilde, where the edge-side
    correction concentrates its own removals.
    """
    order, parent_pos = ordering
    removed = frozenset((u, v) if u < v else (v, u) for u, v in removed)

    # one pass over the order: a component starts at the root and behind
    # every removed parent edge; everyone else joins the parent's
    # component with the opposite parity
    comp = [0] * (t.n + 1)  # numbered by first appearance in the order
    parity = [0] * (t.n + 1)
    starts: list[int] = []  # position where each component starts
    for i, v in enumerate(order):
        pp = parent_pos[i]
        if pp >= 0:
            p = order[pp]
            parity[v] = parity[p] ^ 1
            if ((p, v) if p < v else (v, p)) not in removed:
                comp[v] = comp[p]
                continue
        comp[v] = len(starts)
        starts.append(i)
    n_comp = len(starts)
    js = sys.j_intervals
    if draw == "independent":
        draws = [js[rng.randbelow(len(js))] for _ in range(n_comp)]
    elif draw == "balanced":
        pool = list(range(len(js))) * (n_comp // len(js))
        extra = list(range(len(js)))
        for i in range(n_comp % len(js)):
            k = i + rng.randbelow(len(extra) - i)
            extra[i], extra[k] = extra[k], extra[i]
        pool += extra[: n_comp % len(js)]
        for i in range(len(pool) - 1):
            k = i + rng.randbelow(len(pool) - i)
            pool[i], pool[k] = pool[k], pool[i]
        draws = [js[i] for i in pool]
    else:
        raise PrepareError(f"unknown draw mode {draw!r}")

    nt = sys.n_tilde
    flip = [0] * n_comp
    for k, i in enumerate(starts):
        if parent_pos[i] < 0:
            continue
        v = order[i]
        p = order[parent_pos[i]]
        jk = draws[k]
        p_iv = draws[comp[p]]
        if (parity[p] ^ flip[comp[p]]) == 1:
            p_iv = sys.complement(p_iv)
        p_mid = 2 * p_iv.lo + sys.ell - 1  # twice the midpoint
        best = 0
        best_score = -1
        for o in (0, 1):
            iv = jk if (parity[v] ^ o) == 0 else sys.complement(jk)
            d = abs(2 * iv.lo + sys.ell - 1 - p_mid)
            score = min(d, 2 * nt - d)
            if score > best_score:
                best, best_score = o, score
        flip[k] = best

    color = tuple(
        (parity[v] ^ flip[comp[v]]) if v else 0 for v in range(t.n + 1)
    )
    interval_of = tuple(
        draws[comp[v]]
        if color[v] == 0
        else sys.complement(draws[comp[v]])
        for v in order
    )
    return Plan(
        order=tuple(order),
        parent_pos=tuple(parent_pos),
        removed_edges=removed,
        interval_of=interval_of,
        color=color,
    )


@dataclass(frozen=True)
class PlanTolerances:
    max_removed: int | None = None  # bound on |removed_edges|
    max_index_gap: int | None = None  # bound on |i-j| over surviving edges
    balance_slack: int | None = None  # count slack for interval balance


@dataclass(frozen=True)
class PlanReport:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> list[str]:
        return [
            f"{name}: {'pass' if ok else 'FAIL'}{' ' + note if note else ''}"
            for name, ok, note in self.checks
        ]


def check_plan(
    plan: Plan, t: Tree, sys: IntervalSystem, tolerances: PlanTolerances
) -> PlanReport:
    """Audit a plan: removal budget, unique parents, locality of surviving
    edges, per-interval balance on index windows, and complementarity."""
    checks: list[tuple[str, bool, str]] = []
    n = plan.n
    pos = {v: i for i, v in enumerate(plan.order)}

    if tolerances.max_removed is None:
        checks.append(("removal-budget", True, "skipped"))
    else:
        ok = len(plan.removed_edges) <= tolerances.max_removed
        checks.append(
            (
                "removal-budget",
                ok,
                f"|removed| = {len(plan.removed_edges)}"
                f" <= {tolerances.max_removed}" if ok else
                f"|removed| = {len(plan.removed_edges)}"
                f" > {tolerances.max_removed}",
            )
        )

    bad = ""
    ok = sorted(plan.order) == list(range(1, n + 1)) and plan.parent_pos[0] == -1
    if not ok:
        bad = "order is not a permutation rooted at position 0"
    else:
        for i in range(1, n):
            v = plan.order[i]
            p = plan.parent_pos[i]
            if not 0 <= p < i:
                ok, bad = False, f"position {i}: parent position {p}"
                break
            prt = plan.order[p]
            earlier = [w for w in t.adj[v] if pos[w] < i]
            if earlier != [prt] and sorted(earlier) != [prt]:
                ok, bad = (
                    False,
                    f"vertex {v}: earlier neighbours {sorted(earlier)}, "
                    f"parent {prt}",
                )
                break
    checks.append(("unique-parent", ok, bad))

    if tolerances.max_index_gap is None:
        checks.append(("edge-locality", True, "skipped"))
    else:
        ok, bad = True, ""
        worst = 0
        for u, v in t.edges:
            if (u, v) in plan.removed_edges:
                continue
            gap = abs(pos[u] - pos[v])
            worst = max(worst, gap)
            if gap > tolerances.max_index_gap:
                ok, bad = False, f"edge ({u}, {v}): gap {gap}"
                break
        if ok:
            bad = f"max gap {worst} <= {tolerances.max_index_gap}"
        checks.append(("edge-locality", ok, bad))

    if tolerances.balance_slack is None:
        checks.append(("interval-balance", True, "skipped"))
    else:
        ok, bad = True, ""
        windows = [(0, n)]
        for k in (2, 4):
            step = n // k
            if step:
                windows += [(a, min(a + step, n)) for a in range(0, n, step)]
        target_den = len(sys.j_intervals)
        for a, b in windows:
            counts: dict[Interval, int] = {}
            for i in range(a, b):
                counts[plan.interval_of[i]] = counts.get(plan.interval_of[i], 0) + 1
            for j in sys.j_intervals:
                dev = abs(counts.get(j, 0) - (b - a) / target_den)
                if dev > tolerances.balance_slack:
                    ok, bad = (
                        False,
                        f"window [{a}, {b}), interval {tuple(j)}: "
                        f"count off by {dev:.2f} > {tolerances.balance_slack}",
                    )
                    break
            if not ok:
                break
        checks.append(("interval-balance", ok, bad))

    ok, bad = True, ""
    for u, v in t.edges:
        if (u, v) in plan.removed_edges:
            continue
        ju = plan.interval_of[pos[u]]
        jv = plan.interval_of[pos[v]]
        if sys.complement(ju) != jv:
            ok, bad = False, f"edge ({u}, {v}): {tuple(ju)} vs {tuple(jv)}"
            break
    checks.append(("complementary-edges", ok, bad))

    return PlanReport(checks=tuple(checks))


def prepare_plan(
    t: Tree,
    sys: IntervalSystem,
    rng: Rng,
    *,
    max_component: int | None = None,
    min_component: int = 1,
    draw: str = "balanced",
) -> Plan:
    """Cut, order, and assign in one call.

    The default component cap min(n_tilde*(m/ell)^2, ell/2) keeps every
    component's red half well inside one target window and spreads each
    window's load over many component draws; larger caps make single draws
    carry so much mass that window loads no longer concentrate.  Interval
    draws default to the balanced allocation (see assign_intervals).
    """
    if max_component is None:
        max_component = max(
            2,
            min(
                sys.n_tilde * sys.m * sys.m // (sys.ell * sys.ell),
                sys.ell // 2,
            ),
        )
    removed = cut_tree_by_size(t, max_component, min_component)
    ordering = order_vertices(t, removed)
    return assign_intervals(t, removed, ordering, sys, rng, draw=draw)


def plan_to_json(plan: Plan) -> str:
    return json.dumps(
        {
            "order": list(plan.order),
            "parent_pos": list(plan.parent_pos),
            "removed_edges": sorted(list(e) for e in plan.removed_edges),
            "interval_starts": [iv.lo for iv in plan.interval_of],
            "interval_width": plan.interval_of[0].width if plan.order else 0,
            "color": list(plan.color),
        },
        indent=2,
    )


def plan_from_json(text: str, sys: IntervalSystem) -> Plan:
    obj = json.loads(text)
    width = obj["interval_width"]
    if width != sys.ell:
        raise PrepareError(
            f"plan interval width {width} does not match system ell {sys.ell}"
        )
    return Plan(
        order=tuple(obj["order"]),
        parent_pos=tuple(obj["parent_pos"]),
        removed_edges=frozenset(tuple(e) for e in obj["removed_edges"]),
        interval_of=tuple(
            Interval(lo, lo + width - 1) for lo in obj["interval_starts"]
        ),
        color=tuple(obj["color"]),
    )
