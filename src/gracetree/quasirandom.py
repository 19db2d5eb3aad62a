"""Quasirandomness diagnostics over label-state snapshots.

Four local structure patterns are counted against a snapshot (A, C) of
free vertex and edge labels, read where the labeller keeps them: every
slot is a slice of the LabelState's bool views, read either directly
(X1, X2's second slot) or through LabelState.admissible_mask, the
window reader of the label loop's fallback.  X1 is a bare free slot, X3
an anchor joined to a free slot, X2 an anchor plus a fixed edge label
between two free slots, and X4 two anchors joined through one free
slot.  Counts on width-m slots never exceed m.  Their deviations from
the ambient density prediction are the QUASI2 statistic.  The ambient
count is the count on the full state (every label and every difference
free), so it depends only on the pattern's geometry and has a closed
form.  QUASI1 compares the free differences of every edge window with
their expected number.  Once per checkpoint A and C are packed into
64-bit words (np.packbits); all QUASI1 window counts are ranks in C's
words, and the sample's anchors and fixed edge labels are selects in
A's and C's.  Every deviation is an exact integer ratio, rounded once
to a float.  All counting is read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .intervals import Interval, IntervalSystem
from .labeller import LabelState
from .rng import Rng

_FREE = {"X1": 1, "X2": 3, "X3": 2, "X4": 3}


def _overlap(x: np.ndarray, y: np.ndarray, s: int) -> int:
    """Number of k with x[k] and y[k + s] both set."""
    if s < 0:  # the same pairs, read from y's side
        x, y, s = y, x, -s
    n = min(len(x), len(y) - s)
    return int(np.count_nonzero(x[:n] & y[s:s + n])) if n > 0 else 0


def _count(state: LabelState, kind: str, a, a2, c, iv: Interval,
           iv2) -> int:
    """Number of label choices for the free slots of one pattern inside
    the free labels A and free differences C of state.

    The pattern is given by its fields, as _sample builds them: kind is
    X1..X4, a and a2 are anchor labels, c is X2's fixed edge label, iv
    the slot and iv2 X2's second slot; fields a kind does not use are
    None.  Chosen vertex labels come from A restricted to the slots,
    chosen edge labels from C, and all labels within one instance are
    distinct (for X2 also distinct from the fixed edge label c).  Every
    count is read from the state's slot windows, so it costs O(width)
    bytes of numpy work.
    """
    if kind == "X1":
        return int(np.count_nonzero(state.label_view[iv.lo:iv.hi + 1]))
    hits = state.admissible_mask(a, iv)
    if kind == "X3":
        return int(np.count_nonzero(hits))
    if kind == "X4":
        hits &= state.admissible_mask(a2, iv)
        twice_mid = a + a2
        # equal induced labels force b equidistant from both anchors
        if twice_mid % 2 == 0 and iv.lo <= twice_mid // 2 <= iv.hi:
            hits[twice_mid // 2 - iv.lo] = 0
        return int(np.count_nonzero(hits))
    # X2: the induced label |a - b| may not repeat the fixed label c
    for b in (a - c, a + c):
        if iv.lo <= b <= iv.hi:
            hits[b - iv.lo] = 0
    # partner b' = b + c or b - c; b' = a is impossible once |a - b| != c.
    # Entry k of hits is label iv.lo + k, so b +- c sits at entry
    # iv.lo +- c - iv2.lo of slot2's window.
    avail2 = state.label_view[iv2.lo:iv2.hi + 1]
    return (_overlap(hits, avail2, iv.lo + c - iv2.lo)
            + _overlap(hits, avail2, iv.lo - c - iv2.lo))


def _ambient(kind: str, a, a2, c, iv: Interval, iv2) -> int:
    """_count on the full state, where every label 1..n_tilde and every
    difference 1..n_tilde-1 is free, for slots inside 1..n_tilde.

    There a slot label b is admissible against an anchor exactly when
    b is not the anchor, so the count is the slot width less the labels
    the pattern bans.
    """
    lo, hi = iv
    if kind == "X1":
        return hi - lo + 1
    if kind == "X3":
        return hi - lo + 1 - (lo <= a <= hi)
    if kind == "X4":
        twice_mid = a + a2
        return (hi - lo + 1 - (lo <= a <= hi) - (lo <= a2 <= hi)
                - (twice_mid % 2 == 0 and lo <= twice_mid // 2 <= hi))
    # X2: sources b whose partner b + s lies in slot2, for s = +c and
    # -c, less the banned sources a, a - c and a + c among them
    total = 0
    for s in (c, -c):
        x, y = max(lo, iv2.lo - s), min(hi, iv2.hi - s)
        if x <= y:
            total += (y - x + 1 - (x <= a <= y) - (x <= a - c <= y)
                      - (x <= a + c <= y))
    return total


@dataclass(frozen=True)
class QuasiReport:
    checkpoint: int
    alpha: float
    quasi1_max_dev: float
    quasi1_argmax_lo: int  # lo of the edge window with the largest QUASI1
    quasi2_devs: Tuple[float, ...]

    @property
    def quasi2_max_dev(self) -> float:
        return max(self.quasi2_devs, default=0.0)

    @property
    def ok(self) -> bool:
        return (self.quasi1_max_dev <= self.alpha
                and self.quasi2_max_dev <= self.alpha)


class _Words:
    """Rank and select on one free set, fixed for one checkpoint.

    The set's N bytes (byte v is 1 iff v is free) are packed once into
    little-endian 64-bit words, zero-padded to N // 64 + 1 words, and
    below[i] counts the set bits of words 0..i-1.  Setting up costs one
    np.packbits pass over the bytes and O(N/64) words of numpy work;
    each query is then O(1) array work per position or rank.
    """

    __slots__ = ("words", "below")

    def __init__(self, free: np.ndarray):
        self.words = np.zeros(len(free) // 64 + 1, "<u8")
        self.words.view(np.uint8)[:-(-len(free) // 8)] = np.packbits(
            free, bitorder="little")
        pop = np.bitwise_count(self.words).astype(np.int64)
        self.below = np.cumsum(pop) - pop

    def rank(self, p: np.ndarray) -> np.ndarray:
        """Free values below each position of the uint64 array p
        (positions 0..N)."""
        w = p >> 6
        return self.below[w] + np.bitwise_count(
            self.words[w] & ((1 << (p & 63)) - 1))


def select(free: _Words, ranks: List[int]) -> List[int]:
    """The k-th (0-based, ascending) free value for each k in ranks: the
    word by a search of free.below, then the bit by a running count over
    that word's 64 bits.  perfbench's traced runs time the audit's
    selects by replacing this module attribute, so _sample looks it up
    at call time."""
    k = np.array(ranks, np.int64)
    w = np.searchsorted(free.below, k, side="right") - 1
    bits = np.unpackbits(free.words[w].view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little")
    seen = np.cumsum(bits, axis=1, dtype=np.int64)
    hit = np.argmax(seen > (k - free.below[w])[:, None], axis=1)
    return (64 * w + hit).tolist()


def check_quasi(state: LabelState, sys: IntervalSystem, alpha: float,
                per_kind: int, rng: Optional[Rng], *,
                t: int = 0) -> QuasiReport:
    """Evaluate both quasirandomness conditions on the free labels and
    differences of state.

    The edge-window condition is checked exhaustively: one numpy pass
    over C's words gives the free differences of every edge window, and
    the largest deviation is found on the integers, at the lowest
    window lo on ties, before its one division.  The structure
    condition is checked on a seeded sample of per_kind patterns of
    each kind (kinds in order X1..X4; see _sample), so the report is a
    deterministic function of (state, per_kind, rng state).  The
    sample's values are all drawn first, in the order of one pattern
    after another; then the anchor and fixed-edge ranks are mapped to
    labels in one numpy pass per set, and each pattern is counted once
    on state, its ambient count coming from _ambient.  Deviations are
    reported in units of m.
    """
    m, nt = sys.m, sys.n_tilde
    size_a, size_c = state.size_a, state.size_c

    diffs = _Words(state.diff_view)
    # free differences of the edge windows lo = 0, m, ..., n_tilde - m
    cnt = np.diff(diffs.rank(np.arange(0, nt + 1, m, dtype=np.uint64)))
    # |cnt * nt - m * |A|| is convex in cnt, so the extreme counts hold
    # its maximum
    dev = {c: abs(c * nt - m * size_a)
           for c in (int(cnt.min()), int(cnt.max()))}
    top = max(dev.values())
    best = [c for c, d in dev.items() if d == top]
    worst = int(np.argmax((cnt == best[0]) | (cnt == best[-1])))

    if per_kind > 0 and rng is None:
        raise ValueError("structure sampling requires an rng")

    devs = []
    if (per_kind > 0 and size_a >= 2 and size_c >= 1
            and len(sys.iv_intervals) >= 2):
        scale = {kind: (nt ** f, size_a ** f, m * nt ** f)
                 for kind, f in _FREE.items()}
        for X in _sample(state, sys, per_kind, rng, diffs):
            nt_f, size_f, den = scale[X[0]]
            devs.append(abs(_count(state, *X) * nt_f
                            - _ambient(*X) * size_f) / den)

    return QuasiReport(checkpoint=t, alpha=float(alpha),
                       quasi1_max_dev=top / (m * nt),
                       quasi1_argmax_lo=worst * m, quasi2_devs=tuple(devs))


def _sample(state: LabelState, sys: IntervalSystem, k: int, rng: Rng,
            diffs: _Words) -> list:
    """k patterns of each kind as _count's field tuples: slots uniform
    over the vertex windows (two distinct ones for X2), anchors uniform
    over A (X4's second over A minus the first), fixed edge labels
    uniform over C."""
    slots = sys.iv_intervals
    nslots = len(slots)
    size_a = state.size_a
    rb = rng.randbelow
    x1s = [slots[rb(nslots)] for _ in range(k)]
    ranks, c_ranks, pairs, x3s, x4s = [], [], [], [], []
    for _ in range(k):
        ranks.append(rb(size_a))
        c_ranks.append(rb(state.size_c))
        i = rb(nslots)
        j = rb(nslots - 1)
        pairs.append((slots[i], slots[j + (j >= i)]))
    for _ in range(k):
        ranks.append(rb(size_a))
        x3s.append(slots[rb(nslots)])
    for _ in range(k):
        rank = rb(size_a)
        # uniform over A minus the anchor: skip the anchor's rank
        rank2 = rb(size_a - 1)
        ranks += (rank, rank2 + (rank2 >= rank))
        x4s.append(slots[rb(nslots)])
    labels = select(_Words(state.label_view), ranks)
    fixed = select(diffs, c_ranks)
    return ([("X1", None, None, None, iv, None) for iv in x1s]
            + [("X2", a, None, c, s1, s2)
               for a, c, (s1, s2) in zip(labels[:k], fixed, pairs)]
            + [("X3", a, None, None, iv, None)
               for a, iv in zip(labels[k:2 * k], x3s)]
            + [("X4", a, a2, None, iv, None)
               for a, a2, iv in zip(labels[2 * k::2], labels[2 * k + 1::2],
                                    x4s)])
