"""Exhaustive search for graceful labellings of small trees.

Ground truth for the verifiers and for statistics on label counts.
Vertices are placed in the tree's BFS order from vertex 1 (Tree.bfs),
so each placement after the first closes exactly one edge, the one to
its BFS parent, making admissibility two bitmask tests per candidate.
Also provides closed-form labellings for paths and stars, the
classical families where witnesses are known outright.
"""

from __future__ import annotations

from typing import Optional

from .trees import Tree, path_tree, star_tree
from .verify import Labelling

DEFAULT_CAP = 24


def _guard(t: Tree, m: int, cap: int) -> None:
    if m < t.n:
        raise ValueError(f"need m >= n, got m={m} n={t.n}")
    effective = cap - max(0, m - t.n)
    if t.n > effective:
        raise ValueError(
            f"tree order {t.n} exceeds search cap {effective} at m={m}")


def _search(t: Tree, m: int, cap: int, first: bool):
    """Backtracking over m-graceful labellings, labels ascending at every
    position.  Returns (count, order, labels by position); with first
    the search stops at the first complete labelling, whose labels are
    then left in place, so count is 0 or 1."""
    _guard(t, m, cap)
    order, parent_pos = t.bfs, t.parent
    n = t.n
    psi_pos = [0] * n

    def rec(i: int, used_v: int, used_d: int) -> int:
        if i == n:
            return 1
        total = 0
        parent_label = psi_pos[parent_pos[i]] if i else 0
        for b in range(1, m + 1):
            bit = 1 << b
            if used_v & bit:
                continue
            if i:
                dbit = 1 << abs(b - parent_label)
                if used_d & dbit:
                    continue
            else:
                dbit = 0
            psi_pos[i] = b
            total += rec(i + 1, used_v | bit, used_d | dbit)
            if first and total:
                break
        return total

    return rec(0, 0, 0), order, psi_pos


def exact_graceful(t: Tree, m: int, cap: int = DEFAULT_CAP
                   ) -> Optional[Labelling]:
    """First m-graceful labelling in lexicographic search order, or
    None when no labelling exists.

    Labels are tried ascending at every position, so the witness is
    deterministic for a given tree.
    """
    found, order, psi_pos = _search(t, m, cap, first=True)
    if not found:
        return None
    return Labelling(t, {v: psi_pos[i] for i, v in enumerate(order)}, m)


def exact_count(t: Tree, m: int, cap: int = DEFAULT_CAP) -> int:
    """Number of m-graceful labellings of t, counted as maps."""
    return _search(t, m, cap, first=False)[0]


def canonical_path_labelling(n: int) -> Labelling:
    """Zigzag labelling of the n-path: 1, n, 2, n-1, ...

    Consecutive differences run n-1 down to 1, each used once.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    psi = {}
    lo, hi = 1, n
    for v in range(1, n + 1):
        if v % 2:
            psi[v] = lo
            lo += 1
        else:
            psi[v] = hi
            hi -= 1
    return Labelling(path_tree(n), psi, n)


def canonical_star_labelling(n: int) -> Labelling:
    """Star on n vertices with the center at label n and leaves 1..n-1."""
    if n < 2:
        raise ValueError("need n >= 2")
    psi = {1: n}
    psi.update({v: v - 1 for v in range(2, n + 1)})
    return Labelling(star_tree(n), psi, n)
