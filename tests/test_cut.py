"""The post-order cut against the walk it replaced, and deep trees at scale.

`restart_cut_window` is the earlier walk, kept as an oracle with two
edits for the cut's root and tie rule: it starts at vertex 1, and it
scans each vertex's neighbours in increasing id, so among branches of
equal order the lower id wins.  It restarts at the root after every
cut, which costs O(n * depth).  The library cuts in one pass from the
leaves up and must return the same edge set as the walk at the same
top of the window.  Neither depends on the order of the tree's edges.
The walk also took a bottom lo and raised when a branch fell below it;
the library has no lo, so the sweep skips the windows where the walk
raises: they check only that behaviour.  cut_tree's guards keep it out
of reach, which test_guarded_window_never_needs_lo pins.
"""

import math
import time

import pytest

from gracetree.prepare import (PrepareError, cut_tree, cut_tree_by_size,
                               order_vertices)
from gracetree.rng import Rng
from gracetree.trees import (Tree, broom_tree, caterpillar_tree, path_tree,
                             random_tree, spider_tree)
from oracles import OldRng, neighbours


def restart_cut_window(t, lo, hi):
    if lo < 1 or lo > hi:
        raise PrepareError(f"empty size window [{lo}, {hi}]")
    if t.n <= hi:
        return frozenset()

    root = 1
    parent = [0] * (t.n + 1)
    size = [1] * (t.n + 1)
    order = [root]
    parent[root] = -1
    seen = [False] * (t.n + 1)
    seen[root] = True
    for v in order:
        for w in neighbours(t, v):
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                order.append(w)
    for v in reversed(order):
        if parent[v] > 0:
            size[parent[v]] += size[v]

    alive = [True] * (t.n + 1)
    removed = set()
    total = t.n
    while total > hi:
        path = [root]
        u = root
        while True:
            best = 0
            best_size = -1
            for w in sorted(neighbours(t, u)):
                if alive[w] and w != parent[u] and size[w] > best_size:
                    best = w
                    best_size = size[w]
            if best == 0:
                raise PrepareError(
                    f"walk stuck at vertex {u}: no branch of order >= {lo}"
                )
            if best_size < lo:
                raise PrepareError(
                    f"walk undershot the window at vertex {u}: heaviest "
                    f"branch has order {best_size} < {lo}"
                )
            if best_size <= hi:
                removed.add((u, best) if u < best else (best, u))
                stack = [best]
                alive[best] = False
                while stack:
                    x = stack.pop()
                    for w in neighbours(t, x):
                        if alive[w] and w != parent[x]:
                            alive[w] = False
                            stack.append(w)
                for w in path:
                    size[w] -= best_size
                total -= best_size
                break
            path.append(best)
            u = best
    return frozenset(removed)


# Shapes on 1..n in a canonical labelling (the constructors in
# gracetree.trees); `relabel` then permutes the vertex ids, which moves
# the root (vertex 1) and every tie-break, and the edge order.


def relabel(n, edges, rng):
    perm = list(range(1, n + 1))
    for i in range(n - 1):
        k = i + rng.randbelow(n - i)
        perm[i], perm[k] = perm[k], perm[i]
    edges = [(perm[u - 1], perm[v - 1]) for u, v in edges]
    for i in range(len(edges) - 1):
        k = i + rng.randbelow(len(edges) - i)
        edges[i], edges[k] = edges[k], edges[i]
    return Tree(n, [(v, u) if rng.randbelow(2) else (u, v) for u, v in edges])


def shape(kind, n, rng):
    if kind == "random":  # the same stream, read by draws
        return random_tree(n, Rng(rng.seed, rng.key))
    if kind == "path":
        t = path_tree(n)
    elif kind == "broom":
        t = broom_tree(n, 1 + rng.randbelow(n - 1))
    elif kind == "caterpillar":
        spine = 2 + rng.randbelow(n - 1)
        t = caterpillar_tree(n, spine, lambda i: 1 + (i * 7 + 3) % 3)
    else:
        t = spider_tree(n, int(kind.split("-")[1]))
    return relabel(n, list(t.edges), rng)


KINDS = ("random", "path", "broom", "caterpillar",
         "spider-2", "spider-3", "spider-4", "spider-5", "spider-6")


def outcome(fn, t, lo, hi):
    try:
        return fn(t, lo, hi)
    except PrepareError as exc:
        return f"PrepareError: {exc}"


def windows(n, r):
    # lo from 1 up to the eps regime of acceptance item 7 (about 13);
    # hi small, middling, and up to n/2
    los = [1, 2, 3, 1 + r.randbelow(13), 13]
    out = []
    for lo in los:
        for hi in (lo, lo + r.randbelow(8), 2 * lo + r.randbelow(20),
                   max(lo, r.randbelow(n // 2 + 1)), max(lo, n // 2)):
            out.append((lo, hi))
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_resumable_walk_matches_restarting_walk(kind):
    rng = OldRng(4242).child(KINDS.index(kind))
    compared = cuts = 0
    for i in range(60):
        r = rng.child(i)
        n = 2 + r.randbelow(499)
        t = shape(kind, n, r.child(0))
        for lo, hi in windows(n, r.child(1)):
            want = outcome(restart_cut_window, t, lo, hi)
            if isinstance(want, str):
                continue
            assert cut_tree_by_size(t, hi) == want, (kind, n, lo, hi, t.edges)
            compared += 1
            cuts += len(want)
    assert compared > 0 and cuts > 0


def smallest_eps(t, n):
    """The least eps that cut_tree's guards accept for t at ambient n:
    eps*n >= 2*log n and max degree <= eps^2*n/(4*log n)."""
    log_n = math.log(n)
    max_deg = int(t.degrees().max())
    return max(2 * log_n / n, math.sqrt(4 * max_deg * log_n / n))


@pytest.mark.parametrize("kind", KINDS)
def test_guarded_window_never_needs_lo(kind):
    # at the smallest eps the guards allow, the window's bottom is as
    # high as it gets against its top; the walk with that bottom still
    # never meets a branch below it, so dropping lo loses no error
    rng = OldRng(777).child(KINDS.index(kind))
    runs = cuts = 0
    for i in range(40):
        r = rng.child(i)
        size = 2 + r.randbelow(499)
        t = shape(kind, size, r.child(0))
        for n in (size, size + 1 + r.randbelow(size), max(2, size // 3)):
            eps = smallest_eps(t, n) * (1 + 1e-9)
            if eps >= 1:
                continue
            lo = math.ceil(2 / eps)
            hi = math.floor(eps * n / math.log(n))
            want = restart_cut_window(t, lo, hi)
            assert cut_tree(t, eps, n) == want, (kind, size, n, eps)
            runs += 1
            cuts += len(want)
    assert runs > 0 and cuts > 0


def test_empty_window_keeps_its_message():
    # a lone vertex has degree 0, so the degree guard cannot rule out
    # a window with ceil(2/eps) > floor(eps*n/log n)
    with pytest.raises(PrepareError, match=r"^empty size window \[4, 2\]$"):
        cut_tree(Tree(1, []), 0.5, 10)


def deep_shapes(n):
    yield "path", path_tree(n)
    yield "broom", broom_tree(n, n // 2)
    # spine 1..spine with legs, ids 1 and spine + 1 swapped: the root,
    # vertex 1, is then a leaf off the middle of the spine, so the walk
    # turns between the two halves of the spine after every cut
    spine = n // 2
    ids = [spine + 1, *range(2, spine + 1), 1, *range(spine + 2, n + 1)]
    edges = [(ids[u - 1], ids[v - 1]) for u, v in path_tree(spine).edges]
    edges += [(ids[(k + spine // 2) % spine], ids[spine + k])
              for k in range(n - spine)]
    yield "caterpillar", Tree(n, edges)


def test_deep_shapes_cut_at_scale():
    n = 200_000
    for name, t in deep_shapes(n):
        start = time.perf_counter()
        removed = cut_tree_by_size(t, 32)
        elapsed = time.perf_counter() - start
        comp = [0] * (n + 1)
        sizes = []
        for s in range(1, n + 1):
            if comp[s]:
                continue
            comp[s] = len(sizes) + 1
            stack = [s]
            count = 0
            while stack:
                v = stack.pop()
                count += 1
                for w in neighbours(t, v):
                    e = (v, w) if v < w else (w, v)
                    if not comp[w] and e not in removed:
                        comp[w] = comp[s]
                        stack.append(w)
            sizes.append(count)
        assert max(sizes) <= 32, name
        order = order_vertices(t, removed).order
        runs = [comp[order[0]]]
        for v in order[1:]:
            if comp[v] != runs[-1]:
                runs.append(comp[v])
        assert len(runs) == len(sizes), name  # every component is contiguous
        # the restarting walk needs minutes here; the bound is loose
        assert elapsed < 30, (name, elapsed)
