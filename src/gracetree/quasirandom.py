"""Quasirandomness diagnostics over the free sets of an attempt.

Four local structure patterns are counted against the free vertex
labels A and free differences C at a checkpoint.  X1 is a bare free
slot, X3 an anchor joined to a free slot, X2 an anchor plus a fixed
edge label between two free slots, and X4 two anchors joined through
one free slot.  Counts on width-m slots never exceed m.  Their
deviations from the ambient density prediction are the QUASI2
statistic.  The ambient count is the count on the full state (every
label and every difference free), so it depends only on the pattern's
geometry and has a closed form.  QUASI1 compares the free differences
of every edge window with their expected number.

The audit reads an attempt once it has ended, from its removal history
(labeller.AttemptHistory), at the checkpoints t = every, 2 every, ...
up to its completed steps (audit_history); the label loop makes no
audit call.  Free sets only shrink, so a value is free at exactly the
checkpoints before the step it leaves at, and the number of those, in
one uint8 per value for a group of at most 255 checkpoints, holds the
group's free sets: v is free at the group's checkpoint j (from 0) iff
its count exceeds j.  check_quasi is the one-checkpoint case, on a
label state's own bytes, which are such counts already.

A group is a few array passes.  One block histogram per set counts the
free values of every block of 128 values (m when 128 does not divide m)
at every checkpoint; A's blocks tile the vertex windows and C's the
edge windows, so their running totals give |A|, |C| and the QUASI1
window counts.  The sample is drawn from the audit stream by five
Rng.draws reads per sampled checkpoint, in checkpoint order, and at
each in this order: the slots of all four kinds (X1, X2, X3 and X4,
per_kind each), X2's partner-slot offsets, the anchor ranks (X2's,
X3's and X4's first anchors), X4's second-anchor ranks, and the fixed
edge labels' ranks.  The ranks of all the group's checkpoints are
mapped to labels by one select per set.
Each kind's patterns are then counted together, in blocks of rows of
about 128 KB: their width-m rows of A's and C's counts are gathered
through strided views, C's rows by the label draw's fallback's own
primitive (labeller._diff_rows), compared with each row's checkpoint
and summed.  Every deviation is an exact integer ratio, rounded once
to a float.  All counting is read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .intervals import IntervalSystem
from .labeller import AttemptHistory, LabelState, _diff_rows, _rows
from .rng import Rng

_FREE = {"X1": 1, "X2": 3, "X3": 2, "X4": 3}
_GROUP = 255  # checkpoints whose counts fit one uint8
_ROW_BYTES = 1 << 17  # bytes of one block of pattern or select rows


def _clear(hits: np.ndarray, lo: np.ndarray, *labels: np.ndarray) -> None:
    """Clear, in each row i of hits (the slot lo[i]..), the entry of
    each given label array's i-th label when it lies in the slot."""
    for b in labels:
        j = b - lo
        i = np.flatnonzero((0 <= j) & (j < hits.shape[1]))
        hits[i, j[i]] = 0


def _counts(free_a: np.ndarray, free_c: np.ndarray, cp: np.ndarray, w: int,
            kind: str, lo: np.ndarray, a=None, a2=None, c=None,
            lo2=None) -> np.ndarray:
    """Number of label choices for the free slots of each of k patterns
    of one kind, inside the free labels A and free differences C at
    each pattern's checkpoint.

    free_a and free_c are A's and C's counts over the values
    0..n_tilde (uint8; v is free at checkpoint j iff its count exceeds
    j, so a label state's bytes are the counts of checkpoint 0), and cp
    holds each pattern's checkpoint.  The patterns are given by int64
    arrays of length k: lo the slots' first labels (every slot
    lo..lo+w-1), a and a2 anchor labels, c X2's fixed edge labels and
    lo2 X2's second slots; fields a kind does not use are None.  Chosen
    vertex labels come from A restricted to the slots, chosen edge
    labels from C, and all labels within one instance are distinct (for
    X2 also distinct from the fixed edge label c).  The counts are row
    sums of (k, w) blocks, so a call costs O(k * w) bytes of numpy
    work; a row holds at most 2w ones, so the sums accumulate in uint32.
    """
    # compared as uint8, as the counts are
    cp = cp.astype(np.uint8)[:, None]
    labels = _rows(free_a, w)
    hits = labels[lo] > cp
    if kind != "X1":
        hits &= _diff_rows(free_c, a, lo, w) > cp
    if kind == "X4":
        hits &= _diff_rows(free_c, a2, lo, w) > cp
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
    pad = np.zeros((k, 3 * w), bool)
    pad[:, w:2 * w] = labels[lo2] > cp
    shifted = np.ndarray((k, 2 * w + 1, w), bool, pad,
                         strides=(3 * w, 1, 1))
    s = np.stack((lo + c - lo2, lo - c - lo2), 1)
    partners = shifted[np.arange(k)[:, None],
                       np.minimum(np.maximum(s, -w), w) + w]
    return (hits[:, None] & partners).sum((1, 2), np.uint32)


def _row_blocks(k: int, w: int):
    """Slices of k rows of width w, about _ROW_BYTES bytes each."""
    step = max(1, _ROW_BYTES // w)
    return [slice(i, i + step) for i in range(0, k, step)]


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


class _Free:
    """One free set at each checkpoint of a group, with its block counts.

    count holds the set's counts over the values 0..n_tilde (uint8; v is
    free at checkpoint j iff count[v] > j).  The values first ..
    first + n_tilde - 1 (first is 1 for A, whose vertex windows start at
    label 1, and 0 for C, whose edge windows start at 0) form blocks of
    width w, a divisor of m and of n_tilde, and no other value is ever
    free.  A bincount over (count, block), in chunks of blocks, gives
    the free values of every block at every checkpoint; cum is their
    running total in checkpoint-major order from 0, so block b of
    checkpoint j starts at cum[j * nb + b] and the set has total[j]
    values there.  Building it costs O(n_tilde) numpy work, and cum
    holds checkpoints * n_tilde / w entries, at most n_tilde for a group
    of at most w checkpoints.
    """

    __slots__ = ("blocks", "first", "cum", "total")

    def __init__(self, count: np.ndarray, groups: int, w: int, first: int,
                 nt: int):
        nb = nt // w
        self.first = first
        self.blocks = count[first:first + nt].reshape(nb, w)
        self.cum = np.zeros(groups * nb + 1, np.int64)
        per_block = self.cum[1:].reshape(groups, nb)
        # chunks of about _ROW_BYTES bytes of int64 keys
        for s in _row_blocks(nb, 8 * w):
            rows = self.blocks[s]
            k = len(rows)
            key = np.arange(0, k * (groups + 1), groups + 1)[:, None] + rows
            hist = np.bincount(key.ravel(), minlength=k * (groups + 1))
            # free at checkpoint j: a count above j
            per_block[:, s] = np.cumsum(hist.reshape(k, groups + 1)[:, :0:-1],
                                        1)[:, ::-1].T
        np.cumsum(self.cum, out=self.cum)
        self.total = np.diff(self.cum[::nb])


def _block_width(m: int) -> int:
    """The width of _Free's blocks for windows of width m: 128 when it
    divides m, so that a select reads 128 counts past its block search,
    else m."""
    return 128 if m % 128 == 0 else m


def select(free: _Free, cp: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The ranks[i]-th (0-based, ascending) free value at checkpoint
    cp[i], for int64 arrays cp and ranks: the block by one search of
    free.cum, then the rank's set entry among that block's counts above
    cp[i], in blocks of rows.  perfbench's traced runs time the audit's
    selects by replacing this module attribute, so _sample looks it up
    at call time."""
    nb, w = free.blocks.shape
    target = free.cum[cp * nb] + ranks
    at = np.searchsorted(free.cum, target, side="right") - 1
    block = at - cp * nb
    # the free values before the rank in its block, and in each row
    r = target - free.cum[at]
    sizes = free.cum[at + 1] - free.cum[at]
    above = cp.astype(np.uint8)[:, None]
    out = np.empty(len(ranks), np.int64)
    # the set entries' positions take up to 8 bytes per row byte
    for s in _row_blocks(len(ranks), 8 * w):
        ones = np.flatnonzero(free.blocks[block[s]] > above[s])
        before = np.cumsum(sizes[s]) - sizes[s]
        out[s] = ones[before + r[s]]
    return free.first + block * w + out % w


def _quasi1(diffs: _Free, size_a: np.ndarray, m: int, nt: int) -> tuple:
    """The largest |cnt * nt - m * |A|| over the edge windows at each
    checkpoint of a group, and the index of the lowest window that
    attains it, as lists; cnt is a window's free differences, read off
    C's running totals at the window starts.  The deviation is convex
    in cnt, so a checkpoint's extreme counts hold its maximum."""
    groups = len(size_a)
    nb, w = diffs.blocks.shape
    starts = diffs.cum[:-1].reshape(groups, nb)[:, ::m // w]
    cnt = np.empty(starts.shape, np.int64)
    np.subtract(starts[:, 1:], starts[:, :-1], out=cnt[:, :-1])
    cnt[:, -1] = diffs.cum[nb::nb] - starts[:, -1]
    ends = np.stack((cnt.min(1), cnt.max(1)))
    dev = np.abs(ends * nt - m * size_a)
    top = dev.max(0)
    best = np.where(dev == top, ends, ends[::-1])
    worst = (cnt == best[0, :, None]) | (cnt == best[1, :, None])
    return top.tolist(), worst.argmax(1).tolist()


def _reports(free_a: np.ndarray, free_c: np.ndarray, ts: Sequence[int],
             alphas: Sequence[float], sys: IntervalSystem, per_kind: int,
             rng: Optional[Rng]) -> list:
    """The QuasiReports of one group's checkpoints ts (at most _GROUP),
    from A's and C's counts (see _Free), as check_quasi gives each."""
    if per_kind > 0 and rng is None:
        raise ValueError("structure sampling requires an rng")
    m, nt = sys.m, sys.n_tilde
    groups = len(ts)
    w = _block_width(m)
    labels = _Free(free_a, groups, w, 1, nt)
    diffs = _Free(free_c, groups, w, 0, nt)

    top, worst = _quasi1(diffs, labels.total, m, nt)
    devs = [[] for _ in ts]
    sizes = labels.total.tolist()
    sampled = [j for j in range(groups)
               if per_kind > 0 and sizes[j] >= 2 and diffs.total[j] >= 1
               and len(sys.iv_intervals) >= 2]
    if sampled:
        k = per_kind
        for kind, cp, fields in _sample(sys, k, rng, labels, diffs,
                                        np.array(sampled)):
            e = _FREE[kind]
            nt_f = nt ** e
            den = m * nt_f
            size_f = [sizes[j] ** e for j in sampled]
            x = np.concatenate([_counts(free_a, free_c, cp[s], m, kind,
                                        *(f if f is None else f[s]
                                          for f in fields))
                                for s in _row_blocks(len(cp), m)])
            y = _ambients(m, kind, *fields)
            if den < 1 << 53:
                # every term lies within den, so int64 holds it exactly
                # and float64 too: one division, rounded once
                d = np.abs(x.astype(np.int64) * nt_f
                           - y * np.repeat(size_f, k)) / den
            else:
                d = [abs(xi * nt_f - yi * size_f[i // k]) / den
                     for i, (xi, yi) in enumerate(zip(x.tolist(),
                                                      y.tolist()))]
            d = np.reshape(d, (-1, k)).tolist()
            for i, j in enumerate(sampled):
                devs[j] += d[i]

    return [QuasiReport(checkpoint=t, alpha=float(alpha),
                        quasi1_max_dev=top[j] / (m * nt),
                        quasi1_argmax_lo=worst[j] * m,
                        quasi2_devs=tuple(devs[j]))
            for j, (t, alpha) in enumerate(zip(ts, alphas))]


def check_quasi(state: LabelState, sys: IntervalSystem, alpha: float,
                per_kind: int, rng: Optional[Rng], *,
                t: int = 0) -> QuasiReport:
    """Evaluate both quasirandomness conditions on the free labels and
    differences of state, counted off its bytes: the one-checkpoint
    case of audit_history's passes, the state's bytes being the counts.

    The edge-window condition is checked exhaustively: one histogram
    gives the free differences of every edge window, and the largest
    deviation is found on the integers, at the lowest window lo on
    ties, before its one division.  The structure condition is checked
    on a seeded sample of per_kind patterns of each kind (kinds in
    order X1..X4; see _sample), so the report is a deterministic
    function of (state, per_kind, rng state).  The sample is five
    rng.draws reads, in the order the module docstring gives; the
    anchor and fixed-edge ranks are mapped to labels by one select per
    set.  Each kind's patterns are counted together (_counts), with
    their ambient counts from the closed forms (_ambients).  Deviations
    are reported in units of m.
    """
    return _reports(np.frombuffer(state.labels, np.uint8),
                    np.frombuffer(state.diffs, np.uint8), [t], [alpha], sys,
                    per_kind, rng)[0]


def _free_counts(nt: int, steps: int, every: int, never: Sequence[int],
                 values: Sequence[np.ndarray],
                 left: Sequence[np.ndarray]) -> np.ndarray:
    """For each value 0..nt of one free set, the number of checkpoints
    every, 2 every, ... <= steps at which it is free, as int32: those
    before the step it leaves at.  values[i] left at steps left[i]; the
    values in never are never free, and the rest stay free."""
    free = np.full(nt + 1, steps + 1, np.int32)
    for v, at in zip(values, left):
        free[v] = at
    free[list(never)] = 0
    free -= 1
    free //= every
    return np.maximum(free, 0, out=free)


def audit_history(history: AttemptHistory, sys: IntervalSystem, every: int,
                  alpha: Callable[[int], float], per_kind: int,
                  rng: Optional[Rng]) -> Tuple[QuasiReport, ...]:
    """The reports of one attempt's checkpoints t = every, 2 every, ...
    up to its completed steps, from its AttemptHistory: each equals
    check_quasi(state after t steps, sys, alpha(t), per_kind, rng, t=t)
    with the calls made in checkpoint order on the one rng.

    Each value's count of the checkpoints at which it is free comes
    from the step it left at; the checkpoints are then read in groups
    of at most min(_GROUP, w) for _Free's block width w, each from the
    group's uint8 counts (_reports).
    """
    if every < 1:
        raise ValueError("checkpoints need every >= 1")
    nt = sys.n_tilde
    ts = range(every, history.steps + 1, every)
    if not ts:
        return ()
    placed = np.arange(1, len(history.labels) + 1, dtype=np.int32)
    free_a = _free_counts(nt, history.steps, every, (0,),
                          (history.labels, history.corv),
                          (placed, history.corv_steps))
    free_c = _free_counts(nt, history.steps, every, (0, nt),
                          (history.diffs, history.core),
                          (placed[1:], history.core_steps))
    del placed
    out = []
    # at most one checkpoint per value of a block keeps each block table
    # within n_tilde entries
    size = min(_GROUP, _block_width(sys.m))
    for g in range(0, len(ts), size):
        group = ts[g:g + size]
        n = len(group)

        def counts(free):
            c = free - g
            return np.clip(c, 0, n, out=c).astype(np.uint8)

        out += _reports(counts(free_a), counts(free_c), group,
                        [alpha(t) for t in group], sys, per_kind, rng)
    return tuple(out)


def _sample(sys: IntervalSystem, k: int, rng: Rng, labels: _Free,
            diffs: _Free, cps: np.ndarray) -> list:
    """k patterns of each kind at each checkpoint of cps, as (kind, each
    row's checkpoint, _counts' fields) in order X1..X4, each kind's rows
    in checkpoint order: slots uniform over the vertex windows (two
    distinct ones for X2), anchors uniform over A (X4's second over A
    minus the first), fixed edge labels uniform over C, at the row's
    checkpoint; labels and diffs are A and C.  The five draws reads of
    each checkpoint come in the order the module docstring gives."""
    m = sys.m
    nslots = len(sys.iv_intervals)
    reads = []
    for size_a, size_c in zip(labels.total[cps].tolist(),
                              diffs.total[cps].tolist()):
        slot = rng.draws(nslots, 4 * k)
        slot2 = rng.draws(nslots - 1, k)
        rank = rng.draws(size_a, 3 * k)
        rank2 = rng.draws(size_a - 1, k)
        reads.append((slot, slot2, rank, rank2, rng.draws(size_c, k)))
    slot, slot2, rank, rank2, fixed = map(np.stack, zip(*reads))
    # uniform over the slots other than X2's first: skip its index
    slot2 += slot2 >= slot[:, k:2 * k]
    # uniform over A minus X4's first anchor: skip the anchor's rank
    rank2 += rank2 >= rank[:, 2 * k:]
    cp = np.repeat(cps, k)
    fixed = select(diffs, cp, fixed.ravel())
    a = select(labels, np.repeat(cps, 4 * k),
               np.concatenate((rank, rank2), 1).ravel()).reshape(-1, 4 * k)
    lo = 1 + m * slot  # slot s is iv_intervals[s] = (1 + m s, m + m s)
    return [("X1", cp, (lo[:, :k].ravel(),)),
            ("X2", cp, (lo[:, k:2 * k].ravel(), a[:, :k].ravel(), None,
                        fixed, 1 + m * slot2.ravel())),
            ("X3", cp, (lo[:, 2 * k:3 * k].ravel(), a[:, k:2 * k].ravel())),
            ("X4", cp, (lo[:, 3 * k:].ravel(), a[:, 2 * k:3 * k].ravel(),
                        a[:, 3 * k:].ravel()))]
