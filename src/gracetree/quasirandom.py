"""Quasirandomness diagnostics over label-state snapshots.

Four local structure patterns are counted against a snapshot (A, C) of
free vertex and edge labels, read where the labeller keeps them: the
LabelState's bytearrays, byte v is 1 iff v is free.  X1 is a bare free
slot, X3 an anchor joined to a free slot, X2 an anchor plus a fixed
edge label between two free slots, and X4 two anchors joined through
one free slot.  Counts on width-m slots never exceed m.  Their
deviations from the ambient density prediction are the QUASI2
statistic.  The ambient count is the count on the full state (every
label and every difference free), so it depends only on the pattern's
geometry and has a closed form.  QUASI1 compares the free differences
of every edge window with their expected number.

A checkpoint is a few array passes.  A and C are packed once into
64-bit words (np.packbits), whose set-bit totals are |A| and |C|: the
audit counts the bytes it audits.  All QUASI1 window counts are ranks
in C's words, and the sample's anchors and fixed edge labels are
selects in A's and C's.  The sample is drawn from the audit stream by
five Rng.draws reads, in this order: the slots of all four kinds (X1,
X2, X3 and X4, per_kind each), X2's partner-slot offsets, the anchor
ranks (X2's, X3's and X4's first anchors), X4's second-anchor ranks,
and the fixed edge labels' ranks.
Each kind's patterns are then counted together: their width-m rows of
A's and C's bytes are gathered through strided views of the two
bytearrays, C's rows by the label draw's fallback's own primitive
(labeller._diff_rows), and each row is summed.  Every deviation
is an exact integer ratio, rounded once to a float.  All counting is
read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .intervals import IntervalSystem
from .labeller import LabelState, _diff_rows, _rows
from .rng import Rng

_FREE = {"X1": 1, "X2": 3, "X3": 2, "X4": 3}
# _LOW[p]: the bits of a 64-bit word below bit p
_LOW = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)


def _clear(hits: np.ndarray, lo: np.ndarray, *labels: np.ndarray) -> None:
    """Clear, in each row i of hits (the slot lo[i]..), the entry of
    each given label array's i-th label when it lies in the slot."""
    for b in labels:
        j = b - lo
        i = np.flatnonzero((0 <= j) & (j < hits.shape[1]))
        hits[i, j[i]] = 0


def _counts(state: LabelState, w: int, kind: str, lo: np.ndarray, a=None,
            a2=None, c=None, lo2=None) -> np.ndarray:
    """Number of label choices for the free slots of each of k patterns
    of one kind, inside the free labels A and free differences C of
    state.

    The patterns are given by int64 arrays of length k: lo the slots'
    first labels (every slot lo..lo+w-1), a and a2 anchor labels, c X2's
    fixed edge labels and lo2 X2's second slots; fields a kind does not
    use are None.  Chosen vertex labels come from A restricted to the
    slots, chosen edge labels from C, and all labels within one instance
    are distinct (for X2 also distinct from the fixed edge label c).
    The counts are row sums of (k, w) byte blocks, so a call costs
    O(k * w) bytes of numpy work; a row holds at most 2w ones, so the
    sums accumulate in uint32.
    """
    labels = _rows(state.labels, w)
    hits = labels[lo]
    if kind != "X1":
        hits &= _diff_rows(state.diffs, a, lo, w)
    if kind == "X4":
        hits &= _diff_rows(state.diffs, a2, lo, w)
        # equal induced labels force b equidistant from both anchors;
        # for an odd a + a2 there is no such b, and lo - 1, outside the
        # slot, stands in for it
        twice_mid = a + a2
        _clear(hits, lo, np.where(twice_mid % 2, lo - 1, twice_mid // 2))
    if kind != "X2":
        return hits.sum(1, np.uint32)
    # the induced label |a - b| may not repeat the fixed label c
    _clear(hits, lo, a - c, a + c)
    # partner b' = b + c or b - c, free and in slot 2; b' = a is
    # impossible once |a - b| != c.  Entry j of a row is label lo + j,
    # so its partner sits at entry j + s of slot 2's row, for
    # s = lo +- c - lo2.  Slot 2's rows are padded with w zeros on each
    # side, and a shift past them reads zeros too.
    k = len(lo)
    pad = np.zeros((k, 3 * w), np.uint8)
    pad[:, w:2 * w] = labels[lo2]
    shifted = np.ndarray((k, 2 * w + 1, w), np.uint8, pad,
                         strides=(3 * w, 1, 1))
    s = np.stack((lo + c - lo2, lo - c - lo2), 1)
    partners = shifted[np.arange(k)[:, None],
                       np.minimum(np.maximum(s, -w), w) + w]
    return (hits[:, None] & partners).sum((1, 2), np.uint32)


def _ambients(w: int, kind: str, lo: np.ndarray, a=None, a2=None, c=None,
              lo2=None) -> np.ndarray:
    """_counts on the full state, where every label 1..n_tilde and every
    difference 1..n_tilde-1 is free, for slots inside 1..n_tilde.

    There a slot label b is admissible against an anchor exactly when
    b is not the anchor, so each count is the slot width less the
    labels the pattern bans.
    """
    def inside(v, x=lo, y=lo + (w - 1)):
        return (x <= v) & (v <= y)

    if kind == "X1":
        return np.full(len(lo), w)
    if kind == "X3":
        return w - inside(a)
    if kind == "X4":
        twice_mid = a + a2
        return (w - inside(a) - inside(a2)
                - ((twice_mid % 2 == 0) & inside(twice_mid // 2)))
    # X2: sources b whose partner b + s lies in slot 2, for s = +c and
    # -c (the columns), less the banned sources a, a - c and a + c
    # among them; an empty range x > y counts 0
    s = np.stack((c, -c), 1)
    x = np.maximum(lo[:, None], lo2[:, None] - s)
    y = np.minimum(lo[:, None], lo2[:, None] - s) + (w - 1)
    free = y - x + 1
    for v in (a, a - c, a + c):
        free -= inside(v[:, None], x, y)
    return np.maximum(free, 0).sum(1)


@dataclass(frozen=True)
class QuasiReport:
    checkpoint: int
    alpha: float
    quasi1_max_dev: float
    quasi1_argmax_lo: int  # lo of the edge window with the largest QUASI1
    quasi2_devs: Tuple[float, ...]

    @property
    def quasi2_max_dev(self) -> float:
        """The largest sampled deviation, -1.0 when none was sampled."""
        return max(self.quasi2_devs, default=-1.0)

    @property
    def ok(self) -> bool:
        return (self.quasi1_max_dev <= self.alpha
                and self.quasi2_max_dev <= self.alpha)


class _Words:
    """Rank and select on one free set, fixed for one checkpoint.

    The set's N bytes (byte v is 1 iff v is free) are packed once into
    little-endian 64-bit words, zero-padded to N // 64 + 1 words;
    below[i] counts the set bits of words 0..i-1, and total all of them,
    the size of the set.  Setting up costs one np.packbits pass over the
    bytes and O(N/64) words of numpy work; each query is then O(1) array
    work per position or rank.
    """

    __slots__ = ("words", "below", "total")

    def __init__(self, free: np.ndarray):
        self.words = np.zeros(len(free) // 64 + 1, "<u8")
        self.words.view(np.uint8)[:-(-len(free) // 8)] = np.packbits(
            free, bitorder="little")
        pop = np.bitwise_count(self.words).astype(np.int64)
        upto = np.cumsum(pop)
        self.below = upto - pop
        self.total = int(upto[-1])

    def rank(self, p: np.ndarray) -> np.ndarray:
        """Free values below each position of the uint64 array p
        (positions 0..N)."""
        w = p >> 6
        return self.below[w] + np.bitwise_count(
            self.words[w] & ((1 << (p & 63)) - 1))


def select(free: _Words, ranks: np.ndarray) -> np.ndarray:
    """The k-th (0-based, ascending) free value for each k of the int64
    array ranks: the word by a search of free.below, then the bit by a
    six-step bisection on the set bits below each candidate position.
    perfbench's traced runs time the audit's selects by replacing this
    module attribute, so _sample looks it up at call time."""
    w = np.searchsorted(free.below, ranks, side="right") - 1
    word = free.words[w]
    r = ranks - free.below[w]  # set bits of the word below the wanted one
    pos = np.zeros(len(w), np.int64)
    for step in (32, 16, 8, 4, 2, 1):
        cand = pos + step
        pos = np.where(np.bitwise_count(word & _LOW[cand]) <= r, cand, pos)
    return 64 * w + pos


def check_quasi(state: LabelState, sys: IntervalSystem, alpha: float,
                per_kind: int, rng: Optional[Rng], *,
                t: int = 0) -> QuasiReport:
    """Evaluate both quasirandomness conditions on the free labels and
    differences of state, counted off its bytes.

    The edge-window condition is checked exhaustively: one numpy pass
    over C's words gives the free differences of every edge window, and
    the largest deviation is found on the integers, at the lowest
    window lo on ties, before its one division.  The structure
    condition is checked on a seeded sample of per_kind patterns of
    each kind (kinds in order X1..X4; see _sample), so the report is a
    deterministic function of (state, per_kind, rng state).  The sample
    is five rng.draws reads, in the order the module docstring gives;
    the anchor and fixed-edge ranks are mapped to labels by one select
    per set.  Each kind's patterns are counted together (_counts), with
    their ambient counts from the closed forms (_ambients).  Deviations
    are reported in units of m.
    """
    m, nt = sys.m, sys.n_tilde
    labels, diffs = _Words(state.label_view), _Words(state.diff_view)
    size_a, size_c = labels.total, diffs.total

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
        for kind, fields in _sample(sys, per_kind, rng, labels, diffs):
            nt_f, size_f = nt ** _FREE[kind], size_a ** _FREE[kind]
            den = m * nt_f
            devs += [abs(x * nt_f - y * size_f) / den for x, y in zip(
                _counts(state, m, kind, *fields).tolist(),
                _ambients(m, kind, *fields).tolist())]

    return QuasiReport(checkpoint=t, alpha=float(alpha),
                       quasi1_max_dev=top / (m * nt),
                       quasi1_argmax_lo=worst * m, quasi2_devs=tuple(devs))


def _sample(sys: IntervalSystem, k: int, rng: Rng, labels: _Words,
            diffs: _Words) -> list:
    """k patterns of each kind, as (kind, _counts' fields) in order
    X1..X4: slots uniform over the vertex windows (two distinct ones
    for X2), anchors uniform over A (X4's second over A minus the
    first), fixed edge labels uniform over C; labels and diffs are A's
    and C's words.  The five draws reads come in the order the module
    docstring gives."""
    m = sys.m
    slot = rng.draws(len(sys.iv_intervals), 4 * k)
    # uniform over the slots other than X2's first: skip its index
    slot2 = rng.draws(len(sys.iv_intervals) - 1, k)
    slot2 += slot2 >= slot[k:2 * k]
    rank = rng.draws(labels.total, 3 * k)
    # uniform over A minus X4's first anchor: skip the anchor's rank
    rank2 = rng.draws(labels.total - 1, k)
    rank2 += rank2 >= rank[2 * k:]
    fixed = select(diffs, rng.draws(diffs.total, k))
    a = select(labels, np.concatenate((rank, rank2)))
    lo = 1 + m * slot  # slot s is iv_intervals[s] = (1 + m s, m + m s)
    return [("X1", (lo[:k],)),
            ("X2", (lo[k:2 * k], a[:k], None, fixed, 1 + m * slot2)),
            ("X3", (lo[2 * k:3 * k], a[k:2 * k])),
            ("X4", (lo[3 * k:], a[2 * k:3 * k], a[3 * k:]))]
