"""The resumable cut against the walk it replaced, and deep trees at scale.

`restart_cut_window` is the earlier walk, kept verbatim as an oracle: it
restarts at the root after every cut, which costs O(n * depth).  The
library's walk resumes instead and must return the same edge set and
raise the same errors.
"""

import time

import pytest

from gracetree.prepare import (PrepareError, _cut_window, cut_tree_by_size,
                               order_vertices)
from gracetree.rng import Rng
from gracetree.trees import (Tree, broom_tree, caterpillar_tree, path_tree,
                             random_tree, spider_tree)


def restart_cut_window(t, lo, hi):
    if lo < 1 or lo > hi:
        raise PrepareError(f"empty size window [{lo}, {hi}]")
    if t.n <= hi:
        return frozenset()

    root = next(v for v in range(1, t.n + 1) if t.degree(v) == 1)
    parent = [0] * (t.n + 1)
    size = [1] * (t.n + 1)
    order = [root]
    parent[root] = -1
    seen = [False] * (t.n + 1)
    seen[root] = True
    for v in order:
        for w in t.neighbours(v):
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
            for w in t.neighbours(u):
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
                    for w in t.neighbours(x):
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
# gracetree.trees); `relabel` then permutes the vertex ids and the edge
# order, which moves the root (the smallest leaf) and every tie-break.


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
    if kind == "random":
        return random_tree(n, rng)
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
    rng = Rng(4242).child(KINDS.index(kind))
    errors = cuts = 0
    for i in range(60):
        r = rng.child(i)
        n = 2 + r.randbelow(499)
        t = shape(kind, n, r.child(0))
        for lo, hi in windows(n, r.child(1)):
            want = outcome(restart_cut_window, t, lo, hi)
            got = outcome(_cut_window, t, lo, hi)
            assert got == want, (kind, n, lo, hi, t.edges)
            if isinstance(want, str):
                errors += 1
            else:
                cuts += len(want)
    # the sweep reaches both outcomes on every shape that branches (a
    # walk down a path meets every order on its way, so never undershoots)
    assert cuts > 0
    if kind not in ("path", "spider-2"):
        assert errors > 0


def test_bad_windows_keep_their_messages():
    t = relabel(30, list(path_tree(30).edges), Rng(5))
    for lo, hi in ((0, 5), (6, 5), (-1, 3)):
        assert outcome(_cut_window, t, lo, hi) == \
            outcome(restart_cut_window, t, lo, hi)


def deep_shapes(n):
    yield "path", path_tree(n)
    yield "broom", broom_tree(n, n // 2)
    # the smallest leaf, n // 2 + 1, hangs off the middle of the spine, so
    # the walk turns between the two halves of the spine after every cut
    spine = n // 2
    edges = list(path_tree(spine).edges) + [
        (1 + (k + spine // 2) % spine, spine + 1 + k)
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
                for w in t.neighbours(v):
                    e = (v, w) if v < w else (w, v)
                    if not comp[w] and e not in removed:
                        comp[w] = comp[s]
                        stack.append(w)
            sizes.append(count)
        assert max(sizes) <= 32, name
        order, _ = order_vertices(t, removed)
        runs = [comp[order[0]]]
        for v in order[1:]:
            if comp[v] != runs[-1]:
                runs.append(comp[v])
        assert len(runs) == len(sizes), name  # every component is contiguous
        # the restarting walk needs minutes here; the bound is loose
        assert elapsed < 30, (name, elapsed)
